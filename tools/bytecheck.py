"""Check the byte contract of the command line: one fixed list of commands,
compared by exit code, stdout, stderr and the files each command writes.

Run from anywhere in the repository:

    python tools/bytecheck.py                # the working tree, twice
    python tools/bytecheck.py --against REV  # the working tree against REV

Every entry runs in a fresh directory that holds only the input files it
names, with ``OPENBLAS_NUM_THREADS=1`` and the tree's ``src/`` first on
``PYTHONPATH``: ``python -m quasiherm`` with the listed arguments or, for one
entry, the tree's own ``tools/compat_sweep.py`` at its defaults.  The
inputs are written once by this script, the dense ones drawn from fixed
seeds by ``tools/families.py``, so both sides of a comparison read the same
bytes.  In stderr the tree's root reads ``<tree>``, so a warning that names
its source file reads alike in both.  ``--against`` checks REV out into a
temporary ``git worktree`` and removes it afterwards.

Each row of ``COMMANDS`` lists what its command line must do: the exit code,
and the exact stderr where no LAPACK result prints in it.  A row whose exit
code is 2-6 must also print nothing on stdout and write no file or directory.

The script first prints each way the working tree breaks a row, then, for
each entry, which of exit code, stdout, stderr and written files differ, with
the changed lines of stdout and stderr (``-`` from REV, the first run or the
listed text, ``+`` from the working tree), then one summary line that also
counts these unexpected outcomes, and exits 1 if any entry differs or breaks
its row.  No other bytes are listed: output derived from LAPACK depends on its
build and on the BLAS thread count, so only two runs on one machine are compared.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from families import (
    DIMER_H,
    conditioned_frame,
    conditioned_spectrum,
    dimer_hamiltonian,
    metric_partner,
    similar,
)

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("exit code", "stdout", "stderr", "files")
JOBS = 2  # commands run at once, each child at one BLAS thread
SHOWN = 5000  # changed lines listed per stream: more than the 2 x 2100 of a changed sweep
SWEEP = "tools/compat_sweep.py"  # the one entry that runs a script, not the CLI


def _matrix(m) -> bytes:
    a = np.asarray(m, dtype=complex)
    data = np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist()
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}).encode()


def _partnered(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, S S† M) from default_rng(seed): H = S diag(E) S^-1 with cond(S) = 2, and a
    partner that shares S^-† S^-1 with H and, M being generic, no other metric."""
    rng = np.random.default_rng(seed)
    h, _energies, s = conditioned_spectrum(rng, n, 2.0)
    return h, metric_partner(rng, s)


def _degenerate(d) -> np.ndarray:
    """S diag(d) S^-1 on one frame with cond(S) = 10: inputs that share S^-† S^-1."""
    return similar(conditioned_frame(np.random.default_rng(4), 4, 10.0), d)


# Input file name -> a function giving its bytes.
INPUTS = {
    "H.json": lambda: _matrix(DIMER_H),
    "H1.json": lambda: _matrix(DIMER_H),
    "H2.json": lambda: _matrix(DIMER_H),
    "H_squared.json": lambda: _matrix(DIMER_H @ DIMER_H),
    # the dimer at its exceptional point kappa = gamma = 1
    "ep.json": lambda: _matrix(dimer_hamiltonian(1.0, 1.0)),
    # the fermionic pairing model at alpha 4, beta 1, omega 0.3, in the occupation basis
    "fermion.json": lambda: _matrix([[0, 0, 0, 4], [0, 0.3, 0, 0], [0, 0, 0.7, 0], [1, 0, 0, 1]]),
    "n8.json": lambda: _matrix(_partnered(8, 8)[0]),
    # 2h + h^3, which shares every metric of h
    "n8_cubic.json": lambda: _matrix(2 * (h := _partnered(8, 8)[0]) + h @ h @ h),
    # S S† M on n8.json's S, whose one shared metric with n8.json is S^-† S^-1, and on another S
    "n8_partner.json": lambda: _matrix(_partnered(8, 8)[1]),
    "n8_stranger.json": lambda: _matrix(_partnered(8, 9)[1]),
    "n256.json": lambda: _matrix(_partnered(256, 256)[0]),
    # spectra with a double eigenvalue: shared_metric works in clusters of eigenvectors
    "deg1.json": lambda: _matrix(_degenerate([1, 1, 2, 3])),
    "deg2.json": lambda: _matrix(_degenerate([0, 0, 1, 5])),
    "sigma_z.json": lambda: _matrix([[1, 0], [0, -1]]),
    "big.json": lambda: _matrix([[1e300, 0], [0, 2e300]]),
    "eye3.json": lambda: _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "rotation.json": lambda: _matrix([[0, 1], [-1, 0]]),
    "jordan.json": lambda: _matrix([[0, 1], [0, 0]]),
    "nilpotent.json": lambda: _matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    "bad.json": lambda: b"{not json",
    "bool.json": lambda: b'{"rows": true, "cols": true, "data": [[2.0, 0.0]]}',
    "empty.json": lambda: b'{"rows": 0, "cols": 0, "data": []}',
    "short.json": lambda: b'{"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}',
    "pair.json": lambda: b'{"rows": 1, "cols": 2, "data": [[1.0, 0.0], [1.0, true]]}',
    "nan.json": lambda: b'{"rows": 1, "cols": 2, "data": [[1.0, 0.0], [NaN, 0.0]]}',
    "huge.json": lambda: b'{"rows": 1, "cols": 1, "data": [[1' + b"0" * 400 + b", 0]]}",
}


@functools.cache
def _input(name: str) -> bytes:
    return INPUTS[name]()


def _k_diag(n: int) -> str:
    return ",".join(str(0.5 + 0.25 * (j % 7)) for j in range(n))


_SCAN = ["scan", "--kappa", "1", "--gamma-min", "0", "--gamma-max", "1"]
_OUT = ["--out-dir", "out"]

# argparse's usage text of the program and of each subcommand, at the CLI's width of 78
_USAGE = {
    "": "usage: quasiherm [-h] {hermitize,model,scan,compat} ...\n",
    "hermitize": "usage: quasiherm hermitize [-h] [--k-diag K1,K2,...] [--hermitian-omega]\n"
                 "                           [--tol-residual X] [--tol-reality X]\n"
                 "                           [--tol-positivity X]\n"
                 "                           input\n",
    "model": "usage: quasiherm model [-h] [--omega OMEGA] [--alpha ALPHA] [--beta BETA]\n"
             "                       [--kappa KAPPA] [--gamma GAMMA] [--out-dir DIR]\n"
             "                       [--tol-residual X] [--tol-reality X]\n"
             "                       [--tol-positivity X]\n"
             "                       {dimer,fermion}\n",
    "scan": "usage: quasiherm scan [-h] --kappa KAPPA --gamma-min GAMMA_MIN --gamma-max\n"
            "                      GAMMA_MAX --step STEP\n",
    "compat": "usage: quasiherm compat [-h] [--tol-residual X] [--tol-reality X]\n"
              "                        [--tol-positivity X]\n"
              "                        h1 h2\n",
}


def _usage_error(command: str, message: str) -> str:
    """argparse's stderr when it refuses a command line of this (sub)command."""
    prog = f"quasiherm {command}".rstrip()
    return f"{_USAGE[command]}{prog}: error: {message}\n"


_DIMER_FLAGS = "error: dimer takes --omega --alpha, or --kappa --gamma; given: "
_FERMION_FLAGS = "error: fermion takes --alpha --beta --omega; given: "

# (argv, listed exit code, listed stderr).  Every argument that names an INPUTS key is
# an input file.  The stderr is listed where no LAPACK result prints in it, None elsewhere.
COMMANDS = [
    # shared_metric on the seeded pair list, from each tree's own script
    ([SWEEP], 0, ""),
    # README
    (["hermitize", "H.json"], 0, ""),
    (["hermitize", "H.json", "--k-diag", "2,0.5", "--hermitian-omega"], 0, ""),
    (["model", "dimer", "--omega", "1", "--alpha", "0.6931471805599453", "--out-dir", "out/"],
     0, ""),
    (["model", "dimer", "--kappa", "1.25", "--gamma", "0.75", "--out-dir", "out/"], 0, ""),
    (["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3", "--out-dir", "out/"],
     0, ""),
    (["scan", "--kappa", "1", "--gamma-min", "0.9", "--gamma-max", "1.1", "--step", "0.001"],
     0, ""),
    (["compat", "H1.json", "H2.json"], 0, ""),
    # hermitize plain, with K and with the Hermitian map (README has the dimer's plain run)
    *[(["hermitize", name, *flags], 0, "")
      for name, n in (("H.json", 2), ("fermion.json", 4), ("n8.json", 8), ("n256.json", 256))
      for flags in ([], ["--k-diag", _k_diag(n)], ["--hermitian-omega"])
      if name != "H.json" or flags],
    # the polar gate at a scale whose squared singular values would overflow
    (["hermitize", "H.json", "--k-diag", "1e100,1e100", "--hermitian-omega"], 0, ""),
    # ||Omega||_F past the root of the largest float: Omega† Omega would overflow, and
    # is refused before numpy warns
    *[(["hermitize", "H.json", "--k-diag", "1e155,1e155", *flag], 5,
       "NotPositiveDefinite: ||Omega||_F 1.768e+155 exceeds 1.341e+154, "
       "beyond which the metric overflows\n") for flag in ([], ["--hermitian-omega"])],
    # omega and kappa whose squares overflow: DimerParams checks kappa = hypot(omega, gamma)
    (["model", "dimer", "--omega", "1e300", "--alpha", "0", "--out-dir", "out/"], 0, ""),
    # a second scan grid, with gamma = -kappa and kappa on it
    (["scan", "--kappa", "2", "--gamma-min", "-3", "--gamma-max", "3", "--step", "0.125"], 0, ""),
    # a kappa whose square overflows (README)
    (["scan", "--kappa", "1e200", *_SCAN[3:], "--step", "0.5"], 0, ""),
    # a metric found for two different Hamiltonians: two different residuals
    (["compat", "H.json", "H_squared.json"], 0, ""),
    (["compat", "n8.json", "n8_cubic.json"], 0, ""),
    # a partner that does not commute with n8.json: one shared metric, then none
    (["compat", "n8.json", "n8_partner.json"], 0, ""),
    (["compat", "n8.json", "n8_stranger.json"], 7, ""),
    # no simple base: the decision runs in the block eigenbasis of 2 + 1 + 1 clusters
    (["compat", "deg1.json", "deg2.json"], 0, ""),
    # negative values in exponent form and with a comma are values, not options
    ([*_SCAN[:4], "-1e-3", "--gamma-max", "0.5", "--step", "0.25"], 0, ""),
    (["hermitize", "H.json", "--k-diag", "-1,2"], 0, ""),
    # exit codes 1 and 3-8
    (["hermitize", "H.json", "--tol-reality", "1e-16"], 1, ""),
    # ||H|| ||Theta|| overflows: the residual prints as Infinity
    (["hermitize", "big.json", "--k-diag", "1e5,1e5"], 1, ""),
    (["hermitize", "rotation.json"], 3, None),
    (["hermitize", "ep.json"], 4, None),
    (["hermitize", "jordan.json"], 4, None),
    (["hermitize", "nilpotent.json"], 4, "DefectiveMatrix: eigenvector basis is singular\n"),
    (["hermitize", "H.json", "--tol-residual", "1e-17"], 5, None),
    (["hermitize", "H.json", "--k-diag", "0,1"], 5,
     "SingularScaling: smallest |k_n| 0.000e+00 at or below 1e-12 * 1.000e+00\n"),
    (["model", "dimer", "--kappa", "1", "--gamma", "0.9999999", *_OUT], 5, None),
    (["model", "dimer", "--omega", "1", "--alpha", "18", *_OUT], 5, None),
    (["model", "dimer", "--omega", "1", "--alpha", "20", *_OUT], 6,
     "EPRegion: alpha = 20: omega cosh(alpha) and omega |sinh(alpha)| round to the same "
     "float64, which puts the dimer on its exceptional point\n"),
    (["model", "dimer", "--kappa", "1", "--gamma", "1", *_OUT], 6,
     "EPRegion: |gamma| = 1 >= kappa = 1: spectrum is not real here\n"),
    (["model", "fermion", "--alpha", "1", "--beta", "-1", "--omega", "0.5", *_OUT], 6,
     "InvalidCoupling: alpha * beta must be positive\n"),
    (["compat", "H.json", "sigma_z.json"], 7, ""),
    (["compat", "jordan.json", "jordan.json"], 8,
     "Inconclusive: the candidate from a 2-dimensional solution space failed its metric "
     "certificate\n"),
    # refused input, exit 2: matrix files
    *[(["hermitize", name], 2, f"error: {message}\n") for name, message in (
        ("bad.json", "bad.json: not valid JSON (Expecting property name enclosed in double "
                     "quotes: line 1 column 2 (char 1))"),
        ("bool.json", "rows and cols must be positive integers"),
        ("empty.json", "rows and cols must be positive integers"),
        ("short.json", "data must hold exactly rows*cols = 4 entries"),
        ("pair.json", "data[1] must be a [re, im] pair of numbers"),
        ("nan.json", "matrix entries must be finite"),
        ("huge.json", "matrix entries must lie within the float range"),
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"))],
    (["compat", "H.json", "eye3.json"], 2, "error: h1 and h2 must have the same dimension\n"),
    # flags
    *[(["hermitize", "H.json", "--k-diag", k], 2, f"error: {message}\n") for k, message in (
        ("", "k_diag has 0 entries for dimension 2"),
        ("1,nan", "k_diag entries must be finite"),
        ("1,inf", "k_diag entries must be finite"),
        ("abc,1", "complex() arg is a malformed string"),
        ("1,2,3", "k_diag has 3 entries for dimension 2"))],
    *[(["hermitize", "H.json", flag, value], 2, f"error: {flag} must be finite\n")
      for flag, value in (("--tol-residual", "inf"), ("--tol-reality", "nan"),
                          ("--tol-positivity", "-inf"))],
    (["hermitize", "H.json", "--tol-residual", "0"], 2,
     "error: --tol-residual must be positive\n"),
    (["compat", "H.json", "H.json", "--tol-positivity", "-1"], 2,
     "error: --tol-positivity must be positive\n"),
    (["hermitize", "H.json", "--frobnicate"], 2,
     _usage_error("", "unrecognized arguments: --frobnicate")),
    (["compat", "n8.json", "n8.json", "--seed", "3"], 2,
     _usage_error("", "unrecognized arguments: --seed 3")),
    (["hermitize", "H.json", "--hermitian-omega", "--hermitian-omega"], 2,
     _usage_error("hermitize", "argument --hermitian-omega: may be given only once")),
    (["model", "dimer", "--omega", "1", "--alpha", "0.5", "--omega=2"], 2,
     _usage_error("model", "argument --omega: may be given only once")),
    (["model", "dimer", "--omega", "1", "--alpha", "0.1", "--kappa", "1", "--gamma", "0.5"], 2,
     _DIMER_FLAGS + "--omega --alpha --kappa --gamma\n"),
    (["model", "dimer"], 2, _DIMER_FLAGS + "none\n"),
    (["model", "dimer", "--omega", "1", *_OUT], 2, _DIMER_FLAGS + "--omega\n"),
    (["model", "dimer", "--omega", "1", "--alpha", "0.5", "--beta", "3", *_OUT], 2,
     _DIMER_FLAGS + "--omega --alpha --beta\n"),
    (["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3", "--kappa", "5"], 2,
     _FERMION_FLAGS + "--omega --alpha --beta --kappa\n"),
    (["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3", "--kappa", "5",
      "--gamma", "2", *_OUT], 2, _FERMION_FLAGS + "--omega --alpha --beta --kappa --gamma\n"),
    (["model", "fermion", "--alpha", "1", *_OUT], 2, _FERMION_FLAGS + "--alpha\n"),
    (["model", "triangle"], 2, _usage_error(
        "model", "argument name: invalid choice: 'triangle' (choose from 'dimer', 'fermion')")),
    # model parameters that are not finite, or overflow or underflow the float range
    *[(["model", *flags], 2, f"error: {message}\n") for flags, message in (
        (["fermion", "--alpha", "nan", "--beta", "1", "--omega", "0.3"],
         "alpha must be finite, got nan"),
        (["dimer", "--omega", "1", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["dimer", "--omega", "1", "--alpha", "nan"], "alpha must be finite, got nan"),
        (["dimer", "--kappa", "1", "--gamma", "nan"], "gamma must be finite, got nan"),
        (["dimer", "--kappa", "inf", "--gamma", "0"], "kappa must be finite, got inf"),
        (["dimer", "--kappa", "1e300", "--gamma", "0"],
         "dimer parameters --kappa 1e+300 --gamma 0.0 overflow the float range"),
        (["dimer", "--omega", "1", "--alpha", "1000", *_OUT],
         "dimer parameters --omega 1.0 --alpha 1000.0 overflow the float range"),
        (["fermion", "--alpha", "1e200", "--beta", "1e-200", "--omega", "0.3", *_OUT],
         "fermion parameters --omega 0.3 --alpha 1e+200 --beta 1e-200 overflow the float range"),
        (["fermion", "--alpha", "1e300", "--beta", "1e300", "--omega", "0.3", *_OUT],
         "fermion parameters --omega 0.3 --alpha 1e+300 --beta 1e+300 overflow the float range"),
        (["dimer", "--kappa", "1e-170", "--gamma", "0", *_OUT],
         "dimer parameters --kappa 1e-170 --gamma 0.0 underflow the float range"),
        (["dimer", "--kappa", "1e-200", "--gamma", "5e-201", *_OUT],
         "dimer parameters --kappa 1e-200 --gamma 5e-201 underflow the float range"),
        (["dimer", "--omega", "1e-320", "--alpha", "0.5", *_OUT],
         "dimer parameters --omega 1e-320 --alpha 0.5 underflow the float range"),
        # echoed exactly: rounded to 6 digits, gamma would read as kappa, the EP
        (["dimer", "--kappa", "1e-150", "--gamma", "9.99999999e-151"],
         "dimer parameters --kappa 1e-150 --gamma 9.99999999e-151 underflow the float range"))],
    # scan
    *[(argv, 2, f"error: {message}\n") for argv, message in (
        (["scan", "--kappa", "-1", *_SCAN[3:], "--step", "0.5"],
         "kappa must be positive and finite"),
        (["scan", "--kappa", "inf", *_SCAN[3:], "--step", "0.5"],
         "kappa must be positive and finite"),
        ([*_SCAN, "--step", "nan"], "--step must be finite"),
        ([*_SCAN[:4], "nan", "--gamma-max", "1", "--step", "0.5"], "--gamma-min must be finite"),
        ([*_SCAN[:6], "inf", "--step", "0.5"], "--gamma-max must be finite"),
        ([*_SCAN, "--step", "0"], "--step must be positive"),
        # refused before numpy allocates anything: the grid would take 72.8 TiB
        ([*_SCAN, "--step", "1e-13"],
         "--step 1e-13 gives 10000000000001 grid points, too many to allocate"),
        ([*_SCAN[:4], "2", "--gamma-max", "1", "--step", "0.5"],
         "--gamma-max must be at least --gamma-min"),
        ([*_SCAN[:6], "1e308", "--step", "1e308"],
         "kappa and |gamma| must not exceed half the largest float"))],
    (["scan", "--kappa", "1"], 2, _usage_error(
        "scan", "the following arguments are required: --gamma-min, --gamma-max, --step")),
    (["compat", "H.json"], 2,
     _usage_error("compat", "the following arguments are required: h2")),
    ([], 2, _usage_error("", "the following arguments are required: command")),
    (["frobnicate"], 2, _usage_error(
        "", "argument command: invalid choice: 'frobnicate' "
            "(choose from 'hermitize', 'model', 'scan', 'compat')")),
    # help
    (["--help"], 0, ""),
    *[([command, "--help"], 0, "") for command in ("hermitize", "model", "scan", "compat")],
]


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: tuple  # ((relative path, bytes or None for a directory), ...) of what it wrote

    def differences(self, other: Outcome) -> list[str]:
        return [name for name, a, b in zip(FIELDS, astuple(self), astuple(other)) if a != b]


def _env(tree: Path) -> dict:
    # older revisions let argparse wrap usage and help text at COLUMNS, so it is fixed too
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_one(tree: Path, argv: list, workdir: Path) -> Outcome:
    workdir.mkdir()
    inputs = {name: _input(name) for name in argv if name in INPUTS}
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    program = [str(tree / SWEEP)] if argv == [SWEEP] else ["-m", "quasiherm", *argv]
    proc = subprocess.run([sys.executable, *program], cwd=workdir,
                          env=_env(tree), capture_output=True, timeout=300)
    made = {path.relative_to(workdir).as_posix(): path.read_bytes() if path.is_file() else None
            for path in workdir.rglob("*")}
    written = sorted((name, data) for name, data in made.items()
                     if name not in inputs or data != inputs[name])
    # a warning names its source file under the tree: both trees print one root
    stderr = proc.stderr.replace(os.fsencode(tree), b"<tree>")
    return Outcome(proc.returncode, proc.stdout, stderr, tuple(written))


def _check_import(tree: Path, workdir: Path) -> None:
    # the children must import the package of this tree, not an installed one
    workdir.mkdir()
    proc = subprocess.run([sys.executable, "-c", "import quasiherm; print(quasiherm.__file__)"],
                          cwd=workdir, env=_env(tree), capture_output=True, text=True,
                          timeout=300)
    found = Path(proc.stdout.strip() or ".").resolve()
    if proc.returncode or not found.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"bytecheck: {tree} imports quasiherm from {found}: {proc.stderr}")


def run(trees: list) -> list:
    """Outcomes of every command in COMMANDS, one list per tree, in list order."""
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as base:
        base = Path(base)
        for t, tree in enumerate(trees):
            _check_import(Path(tree), base / f"import-{t}")
        tasks = [(Path(tree), argv, base / f"{t}-{i}")
                 for t, tree in enumerate(trees) for i, (argv, *_listed) in enumerate(COMMANDS)]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            outcomes = list(pool.map(lambda task: _run_one(*task), tasks))
    return [outcomes[t * len(COMMANDS):(t + 1) * len(COMMANDS)] for t in range(len(trees))]


def _name(argv: list) -> str:
    text = " ".join(a if a and " " not in a else repr(a) for a in argv) or "(no arguments)"
    return text if len(text) <= 100 else text[:97] + "..."


def _changed_lines(base: bytes, ours: bytes) -> list[str]:
    """The lines difflib finds changed from base to ours, with no context."""
    a, b = (data.decode(errors="replace").splitlines() for data in (base, ours))
    changed = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            changed += [f"-{line}" for line in a[i1:i2]] + [f"+{line}" for line in b[j1:j2]]
    return changed or ["(same lines; the bytes differ in line endings or the final newline)"]


def unexpected(outcomes: list) -> list[str]:
    """One report per way an outcome breaks its row: an exit code other than the listed
    one, a stderr other than the listed text (with its changed lines), or, for a listed
    exit code of 2-6, bytes on stdout or a written file."""
    reports = []
    for (argv, code, stderr), o in zip(COMMANDS, outcomes):
        name = _name(argv)
        if o.code != code:
            reports.append(f"exit code {o.code}, listed {code}: {name}")
        if stderr is not None and o.stderr != stderr.encode():
            changed = _changed_lines(stderr.encode(), o.stderr)
            reports.append("\n  stderr ".join([f"stderr not the listed text: {name}", *changed]))
        spilled = [field for field, out in (("stdout", o.stdout), ("files", o.files)) if out]
        if 2 <= code <= 6 and spilled:
            reports.append(f"listed exit code {code} with {' and '.join(spilled)}: {name}")
    return reports


def compare(base: list, ours: list, label: str, unexpected_count: int) -> int:
    """Print one line per entry, the changed lines of its differing streams and the
    summary line, which also counts the unexpected outcomes; return the number of
    entries that differ."""
    counts = dict.fromkeys(FIELDS, 0)
    differing = 0
    for (argv, *_listed), a, b in zip(COMMANDS, base, ours):
        fields = a.differences(b)
        for field in fields:
            counts[field] += 1
        differing += bool(fields)
        print(f"{'differ: ' + ', '.join(fields) if fields else 'same'}  {_name(argv)}")
        for stream in (field for field in fields if field in ("stdout", "stderr")):
            changed = _changed_lines(getattr(a, stream), getattr(b, stream))
            for line in changed[:SHOWN]:
                print(f"  {stream} {line}")
            if len(changed) > SHOWN:
                print(f"  {stream}: {len(changed) - SHOWN} more changed lines")
    detail = ", ".join(f"{field} {count}" for field, count in counts.items())
    print(f"bytecheck: {differing} of {len(COMMANDS)} commands differ {label} ({detail}), "
          f"{unexpected_count} unexpected outcomes")
    return differing


def _worktree_run(rev: str) -> tuple[list, list, str]:
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run([*git, "rev-parse", "--short", f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    holder = Path(tempfile.mkdtemp(prefix="bytecheck-rev-"))
    tree = holder / "tree"
    try:
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), sha], check=True)
        base, ours = run([tree, ROOT])
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)
        subprocess.run([*git, "worktree", "prune"], capture_output=True)
    return base, ours, sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare the working tree with this git revision")
    args = parser.parse_args(argv)
    if args.against is None:
        base, ours = run([ROOT, ROOT])
        label = "between two runs of the working tree"
    else:
        base, ours, sha = _worktree_run(args.against)
        label = f"against {sha}"
    reports = unexpected(ours)
    for report in reports:
        print(report)
    differing = compare(base, ours, label, len(reports))
    return 1 if differing or reports else 0


if __name__ == "__main__":
    sys.exit(main())
