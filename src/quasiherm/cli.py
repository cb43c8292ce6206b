"""Command-line front end: hermitize, model, scan, compat."""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from .dyson import (
    DysonMap,
    build_report,
    hermitize,
    metric_from_theta,
    solve_schrodinger_pair,
)
from .errors import QuasihermError
from .linalg import DEFAULT_TOL, Tolerances
from .matfile import (
    compat_document,
    emit_json,
    load_matrix_file,
    report_document,
    write_matrix_file,
)
from .models import (
    FermionicParams,
    dimer_build,
    dimer_from_coupling,
    dimer_params,
    ep_scan,
    fermionic_build,
)
from .observables import shared_metric

__all__ = ["main"]

# The model flags in --help order, and for each model the flag sets it accepts,
# each with the constructor that takes those flags' values in that order.
_MODEL_FLAGS = ("omega", "alpha", "beta", "kappa", "gamma")
_MODEL_FLAG_SETS = {
    "dimer": {("omega", "alpha"): dimer_params, ("kappa", "gamma"): dimer_from_coupling},
    "fermion": {("alpha", "beta", "omega"): FermionicParams},
}

# argparse wraps usage and help at the terminal's width less 2 (COLUMNS, 80 if
# unset); a fixed width keeps every byte of them independent of the terminal.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads an argument
    starting with a minus and then a digit, a point and a digit, inf or nan as a
    value: argparse reads -1e-3, -1,2 and -inf as options otherwise."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.I)


class _Once(argparse.Action):
    """Store an option's value, or its const if it takes none; refuse a second
    occurrence, whose value argparse would otherwise keep in place of the first."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = namespace.__dict__.setdefault("_options_given", set())
        if self.dest in seen:
            raise argparse.ArgumentError(self, "may be given only once")
        seen.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def _add_tol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-residual", action=_Once, type=float, default=DEFAULT_TOL.residual_rel,
                     metavar="X", help="relative residual tolerance (default %(default)g)")
    sub.add_argument("--tol-reality", action=_Once, type=float, default=DEFAULT_TOL.reality_rel,
                     metavar="X", help="relative eigenvalue reality tolerance (default %(default)g)")
    sub.add_argument("--tol-positivity", action=_Once, type=float,
                     default=DEFAULT_TOL.positivity_rel, metavar="X",
                     help="relative positivity threshold (default %(default)g)")


def _tolerances(args: argparse.Namespace) -> Tolerances:
    for flag in ("tol_residual", "tol_reality", "tol_positivity"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite")
    return Tolerances(
        residual_rel=args.tol_residual,
        reality_rel=args.tol_reality,
        positivity_rel=args.tol_positivity,
    )


def _parse_k_diag(text: str) -> np.ndarray:
    entries = [complex(part.strip().replace(" ", "")) for part in text.split(",") if part.strip()]
    return np.asarray(entries, dtype=np.complex128)


def cmd_hermitize(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    h = load_matrix_file(args.input)
    k = _parse_k_diag(args.k_diag) if args.k_diag is not None else None
    _system, _dmap, metric, avatar, report = hermitize(
        h, k_diag=k, hermitian_map=args.hermitian_omega, tol=tol
    )
    print(emit_json(report_document(report, metric, avatar, tol)))
    return 0 if report.passed else 1


def cmd_model(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    given = [flag for flag in _MODEL_FLAGS if getattr(args, flag) is not None]
    accepted = _MODEL_FLAG_SETS[args.name]
    chosen = next((flags for flags in accepted if set(flags) == set(given)), None)
    if chosen is None:
        sets = ", or ".join(" ".join(f"--{flag}" for flag in flags) for flags in accepted)
        named = " ".join(f"--{flag}" for flag in given) or "none"
        raise ValueError(f"{args.name} takes {sets}; given: {named}")
    try:
        p = accepted[chosen](*(getattr(args, flag) for flag in chosen))
        if args.name == "dimer":
            h_small, omega_map, big_h, theta = dimer_build(p)
            omega_inv = np.linalg.inv(omega_map)
        else:
            big_h, h_small, omega_inv, omega_map, theta = fermionic_build(p)
    except ArithmeticError as exc:
        # OverflowError, or the models' FloatingPointError for an underflow
        limit = "underflow" if isinstance(exc, FloatingPointError) else "overflow"
        values = " ".join(f"--{flag} {getattr(args, flag)!r}" for flag in given)
        raise ValueError(f"{args.name} parameters {values} {limit} the float range") from None

    dmap = DysonMap(omega=omega_map, omega_inv=omega_inv, family=args.name)
    system = solve_schrodinger_pair(big_h, tol)
    metric = metric_from_theta(theta, tol)
    avatar, report = build_report(big_h, system, dmap, metric, tol)

    os.makedirs(args.out_dir, exist_ok=True)
    write_matrix_file(os.path.join(args.out_dir, "hamiltonian.json"), big_h)
    write_matrix_file(os.path.join(args.out_dir, "avatar.json"), h_small)
    write_matrix_file(os.path.join(args.out_dir, "omega.json"), omega_map)
    write_matrix_file(os.path.join(args.out_dir, "theta.json"), theta)
    doc = emit_json(report_document(report, metric, avatar, tol))
    with open(os.path.join(args.out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(doc)
        fh.write("\n")
    print(doc)
    return 0 if report.passed else 1


def cmd_scan(args: argparse.Namespace) -> int:
    for flag in ("gamma_min", "gamma_max", "step"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite")
    if args.step <= 0:
        raise ValueError("--step must be positive")
    if args.gamma_max < args.gamma_min:
        raise ValueError("--gamma-max must be at least --gamma-min")
    count = np.floor((args.gamma_max - args.gamma_min) / args.step + 1e-9) + 1
    try:
        grid = args.gamma_min + np.arange(int(count)) * args.step
    except (MemoryError, OverflowError, ValueError):  # beyond memory, numpy's sizes, or inf
        raise ValueError(
            f"--step {args.step!r} gives {count:.0f} grid points, too many to allocate"
        ) from None
    report = ep_scan(args.kappa, grid)
    lines = ["gamma,min_gap,eigvec_cond,is_ep"]
    for g, gap, cond, flag in zip(
        report.parameter_grid, report.min_gap, report.eigvec_cond, report.is_ep
    ):
        lines.append(
            f"{format(g, '.17g')},{format(gap, '.17g')},{format(cond, '.17g')},"
            f"{'true' if flag else 'false'}"
        )
    print("\n".join(lines))
    return 0


def cmd_compat(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    result = shared_metric(load_matrix_file(args.h1), load_matrix_file(args.h2), tol=tol)
    print(emit_json(compat_document(result, tol)))
    if result.status == "Found":
        return 0
    if result.status == "NoSharedMetric":
        return 7
    print(f"Inconclusive: the candidate from a {result.solution_space_dim}-dimensional "
          "solution space failed its metric certificate", file=sys.stderr)
    return 8


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasiherm",
        description="Dyson maps, physical metrics, and Hermitian avatars "
        "for quasi-Hermitian Hamiltonians.",
        formatter_class=_FORMATTER,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subs.add_parser, formatter_class=_FORMATTER)

    p_herm = add_parser("hermitize", help="construct a Dyson map and metric for H")
    p_herm.add_argument("input", help="MatrixFile holding H")
    p_herm.add_argument("--k-diag", action=_Once, default=None, metavar="K1,K2,...",
                        help="comma separated complex entries of the diagonal K")
    p_herm.add_argument("--hermitian-omega", action=_Once, nargs=0, const=True, default=False,
                        help="rotate by the polar unitary so the map is Hermitian")
    _add_tol_flags(p_herm)
    p_herm.set_defaults(func=cmd_hermitize)

    p_model = add_parser("model", help="emit the matrices of a worked model")
    p_model.add_argument("name", choices=("dimer", "fermion"))
    for flag in _MODEL_FLAGS:
        p_model.add_argument(f"--{flag}", action=_Once, type=float, default=None)
    p_model.add_argument("--out-dir", action=_Once, default=".", metavar="DIR",
                         help="directory for the emitted MatrixFiles (default .)")
    _add_tol_flags(p_model)
    p_model.set_defaults(func=cmd_model)

    p_scan = add_parser("scan", help="scan the dimer gain/loss axis for exceptional points")
    p_scan.add_argument("--kappa", action=_Once, type=float, required=True)
    p_scan.add_argument("--gamma-min", action=_Once, type=float, required=True)
    p_scan.add_argument("--gamma-max", action=_Once, type=float, required=True)
    p_scan.add_argument("--step", action=_Once, type=float, required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_compat = add_parser("compat", help="decide whether two Hamiltonians share a metric")
    p_compat.add_argument("h1", help="MatrixFile holding the first Hamiltonian")
    p_compat.add_argument("h2", help="MatrixFile holding the second Hamiltonian")
    _add_tol_flags(p_compat)
    p_compat.set_defaults(func=cmd_compat)

    return parser


def _pin_blas_threads() -> None:
    """Run each loaded OpenBLAS on one thread unless the environment sets a count,
    since LAPACK work such as zgeev splits, and so rounds, differently with each count."""
    if {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & os.environ.keys():
        return
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:  # no /proc: the count stays OpenBLAS's own
        return
    for lib in (path for path in paths if "openblas" in os.path.basename(path)):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_set_num_threads64_", "scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads", "scipy_openblas_set_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym)(ctypes.c_int(1))
                break


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _pin_blas_threads()
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout, as `head` does: exit as a shell reports a
        # SIGPIPE death, with fd 1 on devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except np.linalg.LinAlgError as exc:
        # A LAPACK failure is numerical, not malformed input, though
        # LinAlgError subclasses ValueError.
        print(f"LinAlgError: {exc}", file=sys.stderr)
        return 5
    except (OSError, OverflowError, ValueError) as exc:
        # malformed input or flags; MatrixFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuasihermError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
