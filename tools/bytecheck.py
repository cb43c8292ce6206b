"""Check the byte contract of the command line: one fixed list of commands,
compared by exit code, stdout, stderr and the files each command writes.

Run from anywhere in the repository:

    python tools/bytecheck.py                # the working tree, twice
    python tools/bytecheck.py --against REV  # the working tree against REV

Every entry runs in a fresh directory that holds only the input files it
names, with ``OPENBLAS_NUM_THREADS=1`` and the tree's ``src/`` first on
``PYTHONPATH``: ``python -m quasiherm`` with the listed arguments or, for one
entry, the working tree's ``tools/compat_sweep.py`` at its defaults.  The
inputs are written once by this script from fixed seeds with numpy, so both
sides of a comparison read the same bytes.  ``--against`` checks REV out
into a temporary ``git worktree`` and removes it afterwards.

The script prints, for each entry, which of exit code, stdout, stderr and
written files differ, with the changed lines of stdout and stderr (``-``
from REV or the first run, ``+`` from the working tree), then one summary
line, and exits 1 if any entry differs or the working tree gives an exit
code other than the listed one.
No bytes are stored: output derived from LAPACK depends on its build and on
the BLAS thread count, so only two runs on one machine are compared.
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

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("exit code", "stdout", "stderr", "files")
JOBS = 2  # commands run at once, each child at one BLAS thread
SHOWN = 4000  # changed lines listed per stream: more than the 2 x 1500 of a changed sweep
SWEEP = "tools/compat_sweep.py"  # the one entry that runs a script, not the CLI


def _matrix(m) -> bytes:
    a = np.asarray(m, dtype=complex)
    data = np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist()
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}).encode()


def _real_spectrum(n: int, seed: int) -> np.ndarray:
    """A dense H = S diag(E) S^-1 with distinct real E and S = I + G, ||G||_2 about 0.6."""
    rng = np.random.default_rng(seed)
    energies = np.arange(n) - (n - 1) / 2 + rng.uniform(0.0, 0.3, n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.eye(n) + 0.2 / np.sqrt(n) * g
    return (s * energies) @ np.linalg.inv(s)


DIMER = np.array([[0.75j, 1.25], [1.25, -0.75j]])

# Input file name -> a function giving its bytes.
INPUTS = {
    "H.json": lambda: _matrix(DIMER),
    "H1.json": lambda: _matrix(DIMER),
    "H2.json": lambda: _matrix(DIMER),
    "H_squared.json": lambda: _matrix(DIMER @ DIMER),
    # the fermionic pairing model at alpha 4, beta 1, omega 0.3, in the occupation basis
    "fermion.json": lambda: _matrix([[0, 0, 0, 4], [0, 0.3, 0, 0], [0, 0, 0.7, 0], [1, 0, 0, 1]]),
    "n8.json": lambda: _matrix(_real_spectrum(8, 8)),
    # 2h + h^3, which shares every metric of h
    "n8_cubic.json": lambda: _matrix(2 * (h := _real_spectrum(8, 8)) + h @ h @ h),
    "n256.json": lambda: _matrix(_real_spectrum(256, 256)),
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

# (argv, listed exit code).  Every argument that names an INPUTS key is an input file.
COMMANDS = [
    # shared_metric on the seeded pair list, from the working tree's script
    ([SWEEP], 0),
    # README
    (["hermitize", "H.json"], 0),
    (["hermitize", "H.json", "--k-diag", "2,0.5", "--hermitian-omega"], 0),
    (["model", "dimer", "--omega", "1", "--alpha", "0.6931471805599453", "--out-dir", "out/"], 0),
    (["model", "dimer", "--kappa", "1.25", "--gamma", "0.75", "--out-dir", "out/"], 0),
    (["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3", "--out-dir", "out/"], 0),
    (["scan", "--kappa", "1", "--gamma-min", "0.9", "--gamma-max", "1.1", "--step", "0.001"], 0),
    (["compat", "H1.json", "H2.json"], 0),
    # hermitize plain, with K and with the Hermitian map (README has the dimer's plain run)
    *[(["hermitize", name, *flags], 0)
      for name, n in (("H.json", 2), ("fermion.json", 4), ("n8.json", 8), ("n256.json", 256))
      for flags in ([], ["--k-diag", _k_diag(n)], ["--hermitian-omega"])
      if name != "H.json" or flags],
    # the polar gate at a scale whose squared singular values would overflow
    (["hermitize", "H.json", "--k-diag", "1e100,1e100", "--hermitian-omega"], 0),
    # ||Omega||_F past the root of the largest float: Omega† Omega would overflow
    (["hermitize", "H.json", "--k-diag", "1e155,1e155"], 5),
    # omega and kappa whose squares overflow: DimerParams checks kappa = hypot(omega, gamma)
    (["model", "dimer", "--omega", "1e300", "--alpha", "0", "--out-dir", "out/"], 0),
    # a second scan grid, with gamma = -kappa and kappa on it
    (["scan", "--kappa", "2", "--gamma-min", "-3", "--gamma-max", "3", "--step", "0.125"], 0),
    # a metric found for two different Hamiltonians: two different residuals
    (["compat", "H.json", "H_squared.json"], 0),
    (["compat", "n8.json", "n8_cubic.json"], 0),
    # exit codes 1 and 3-8
    (["hermitize", "H.json", "--tol-reality", "1e-16"], 1),
    # ||H|| ||Theta|| overflows: the residual prints as Infinity
    (["hermitize", "big.json", "--k-diag", "1e5,1e5"], 1),
    (["hermitize", "rotation.json"], 3),
    (["hermitize", "jordan.json"], 4),
    (["hermitize", "nilpotent.json"], 4),
    (["hermitize", "H.json", "--tol-residual", "1e-17"], 5),
    (["hermitize", "H.json", "--k-diag", "0,1"], 5),
    (["model", "dimer", "--kappa", "1", "--gamma", "0.9999999", "--out-dir", "out"], 5),
    (["model", "dimer", "--omega", "1", "--alpha", "18", "--out-dir", "out"], 5),
    (["model", "dimer", "--omega", "1", "--alpha", "20", "--out-dir", "out"], 6),
    (["model", "fermion", "--alpha", "1", "--beta", "-1", "--omega", "0.5", "--out-dir", "out"], 6),
    (["compat", "H.json", "sigma_z.json"], 7),
    (["compat", "jordan.json", "jordan.json"], 8),
    # refused input, exit 2: matrix files
    *[(["hermitize", name], 2) for name in (
        "bad.json", "bool.json", "empty.json", "short.json", "pair.json", "nan.json", "huge.json",
        "missing.json")],
    (["compat", "H.json", "eye3.json"], 2),
    # flags
    *[(["hermitize", "H.json", "--k-diag", k], 2)
      for k in ("", "1,nan", "1,inf", "abc,1", "1,2,3")],
    *[(["hermitize", "H.json", flag, value], 2) for flag, value in (
        ("--tol-residual", "inf"), ("--tol-reality", "nan"), ("--tol-positivity", "-inf"))],
    (["hermitize", "H.json", "--frobnicate"], 2),
    (["compat", "n8.json", "n8.json", "--seed", "3"], 2),
    (["hermitize", "H.json", "--hermitian-omega", "--hermitian-omega"], 2),
    (["model", "dimer", "--omega", "1", "--alpha", "0.5", "--omega=2"], 2),
    (["model", "dimer", "--omega", "1", "--alpha", "0.1", "--kappa", "1", "--gamma", "0.5"], 2),
    (["model", "dimer"], 2),
    (["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3", "--kappa", "5"], 2),
    (["model", "triangle"], 2),
    (["model", "fermion", "--alpha", "nan", "--beta", "1", "--omega", "0.3"], 2),
    (["model", "dimer", "--kappa", "inf", "--gamma", "0"], 2),
    (["model", "dimer", "--kappa", "1e300", "--gamma", "0"], 2),
    (["model", "dimer", "--kappa", "1e-150", "--gamma", "9.99999999e-151"], 2),
    (["scan", "--kappa", "-1", *_SCAN[3:], "--step", "0.5"], 2),
    (["scan", "--kappa", "inf", *_SCAN[3:], "--step", "0.5"], 2),
    ([*_SCAN, "--step", "nan"], 2),
    ([*_SCAN, "--step", "0"], 2),
    ([*_SCAN, "--step", "1e-13"], 2),
    ([*_SCAN[:4], "2", "--gamma-max", "1", "--step", "0.5"], 2),
    ([*_SCAN[:6], "1e308", "--step", "1e308"], 2),
    (["scan", "--kappa", "1"], 2),
    (["compat", "H.json"], 2),
    ([], 2),
    (["frobnicate"], 2),
    # help
    (["--help"], 0),
    *[([command, "--help"], 0) for command in ("hermitize", "model", "scan", "compat")],
]


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: tuple  # ((relative path, bytes), ...) of every file the command wrote

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
    program = [str(ROOT / SWEEP)] if argv == [SWEEP] else ["-m", "quasiherm", *argv]
    proc = subprocess.run([sys.executable, *program], cwd=workdir,
                          env=_env(tree), capture_output=True, timeout=300)
    files = {path.relative_to(workdir).as_posix(): path.read_bytes()
             for path in workdir.rglob("*") if path.is_file()}
    written = sorted(item for item in files.items() if inputs.get(item[0]) != item[1])
    return Outcome(proc.returncode, proc.stdout, proc.stderr, tuple(written))


def _check_import(tree: Path, workdir: Path) -> None:
    # the children must import the package of this tree, not an installed one
    workdir.mkdir()
    proc = subprocess.run([sys.executable, "-c", "import quasiherm; print(quasiherm.__file__)"],
                          cwd=workdir, env=_env(tree), capture_output=True, text=True)
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
                 for t, tree in enumerate(trees) for i, (argv, _code) in enumerate(COMMANDS)]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            outcomes = list(pool.map(lambda task: _run_one(*task), tasks))
    return [outcomes[t * len(COMMANDS):(t + 1) * len(COMMANDS)] for t in range(len(trees))]


def unexpected_exits(outcomes: list) -> list:
    """(argv, listed, got) for each command whose exit code is not the listed one."""
    return [(argv, code, o.code) for (argv, code), o in zip(COMMANDS, outcomes) if o.code != code]


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


def compare(base: list, ours: list, label: str) -> int:
    """Print one line per entry, the changed lines of its differing streams and the
    summary line; return the number of entries that differ."""
    counts = dict.fromkeys(FIELDS, 0)
    differing = 0
    for (argv, _code), a, b in zip(COMMANDS, base, ours):
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
    print(f"bytecheck: {differing} of {len(COMMANDS)} commands differ {label} ({detail})")
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
    unexpected = unexpected_exits(ours)
    for command, listed, got in unexpected:
        print(f"exit code {got}, listed {listed}: {_name(command)}")
    differing = compare(base, ours, label)
    return 1 if differing or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
