"""Check the byte contract of the command line: one fixed list of commands,
compared by exit code, stdout, stderr and the files each command writes.

Run from anywhere in the repository:

    python tools/bytecheck.py                # the working tree, twice
    python tools/bytecheck.py --against REV  # the working tree against REV

Every command runs as ``python -m quasiherm`` in a fresh directory that holds
only the input files it names, with ``OPENBLAS_NUM_THREADS=1`` and the tree's
``src/`` first on ``PYTHONPATH``.  The inputs are written by this script from
fixed seeds with the standard library, so both sides of a comparison read the
same bytes.  ``--against`` checks REV out into a temporary ``git worktree``
and removes it afterwards.

The script prints, for each command, which of exit code, stdout, stderr and
written files differ, then one summary line, and exits 1 if any command
differs or the working tree gives an exit code other than the listed one.
No bytes are stored: output derived from LAPACK depends on its build and on
the BLAS thread count, so only two runs on one machine are compared.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("exit code", "stdout", "stderr", "files")
JOBS = 2  # commands run at once, each child at one BLAS thread


def _matrix(rows) -> bytes:
    data = [[float(complex(z).real), float(complex(z).imag)] for row in rows for z in row]
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "data": data}).encode()


def _conjugated(h, u, w):
    # S h S^-1 for S = I + u w^H, whose inverse is I - u w^H / (1 + w^H u); O(n^2)
    n = len(h)
    c = 1.0 / (1.0 + sum(w[k].conjugate() * u[k] for k in range(n)))
    hu = [sum(row[k] * u[k] for k in range(n)) for row in h]
    x = [[h[i][j] - c * hu[i] * w[j].conjugate() for j in range(n)] for i in range(n)]
    wx = [sum(w[i].conjugate() * x[i][j] for i in range(n)) for j in range(n)]
    return [[x[i][j] + u[i] * wx[j] for j in range(n)] for i in range(n)]


def _real_spectrum(n: int, seed: int) -> bytes:
    """A dense H with distinct real eigenvalues, similar to a diagonal through
    three rank-one updates of the identity, each with a closed-form inverse."""
    rng = random.Random(seed)
    energies = [k - (n - 1) / 2 + rng.uniform(0.0, 0.3) for k in range(n)]
    h = [[complex(energies[i]) if i == j else 0j for j in range(n)] for i in range(n)]
    scale = n**-0.5
    for _ in range(3):
        u, w = ([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale for _ in range(n)]
                for _ in range(2))
        h = _conjugated(h, u, w)
    return _matrix(h)


def _fermion() -> bytes:
    # The fermionic pairing model at alpha 4, beta 1, omega 0.3, in the occupation basis.
    h = [[0.0] * 4 for _ in range(4)]
    h[1][1], h[2][2], h[3][3], h[0][3], h[3][0] = 0.3, 1.0 - 0.3, 1.0, 4.0, 1.0
    return _matrix(h)


DIMER = _matrix([[0.75j, 1.25], [1.25, -0.75j]])

# Input file name -> a function giving its bytes.
INPUTS = {
    "H.json": lambda: DIMER,
    "H1.json": lambda: DIMER,
    "H2.json": lambda: DIMER,
    "fermion.json": _fermion,
    "n8.json": lambda: _real_spectrum(8, 8),
    "n256.json": lambda: _real_spectrum(256, 256),
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
    # a second scan grid, with gamma = -kappa and kappa on it
    (["scan", "--kappa", "2", "--gamma-min", "-3", "--gamma-max", "3", "--step", "0.125"], 0),
    (["compat", "n8.json", "n8.json", "--seed", "3"], 0),
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
    # argparse wraps usage and help text at COLUMNS, so it is fixed too
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_one(tree: Path, argv: list, workdir: Path) -> Outcome:
    workdir.mkdir()
    inputs = {name: _input(name) for name in argv if name in INPUTS}
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "quasiherm", *argv], cwd=workdir,
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


def compare(ours: list, theirs: list, label: str) -> int:
    """Print one line per command and the summary line; return the number that differ."""
    counts = dict.fromkeys(FIELDS, 0)
    differing = 0
    for (argv, _code), a, b in zip(COMMANDS, ours, theirs):
        fields = a.differences(b)
        for field in fields:
            counts[field] += 1
        differing += bool(fields)
        print(f"{'differ: ' + ', '.join(fields) if fields else 'same'}  {_name(argv)}")
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
        ours, theirs = run([ROOT, tree])
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)
        subprocess.run([*git, "worktree", "prune"], capture_output=True)
    return ours, theirs, sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare the working tree with this git revision")
    args = parser.parse_args(argv)
    if args.against is None:
        ours, theirs = run([ROOT, ROOT])
        label = "between two runs of the working tree"
    else:
        ours, theirs, sha = _worktree_run(args.against)
        label = f"against {sha}"
    unexpected = unexpected_exits(ours)
    for command, listed, got in unexpected:
        print(f"exit code {got}, listed {listed}: {_name(command)}")
    differing = compare(ours, theirs, label)
    return 1 if differing or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
