"""Run one workload of the quasiherm benchmark and print its metrics.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process issues the next
call only after the previous one returned (``cli`` runs one child process at a
time).  Calls come in rounds, one call of each kind in the mix with fresh
seeded inputs per round, and whole rounds run until the time spent inside
calls reaches ``--seconds``.  Every output is verified outside the timed
region.  With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the same loop runs, then one traced round, and the last line
carries the per-layer metrics.
"""

import os
import signal
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads; children inherit it.  The client is
# one thread, and on a shared host of a few cores a second BLAS thread
# contends with it and slows the Python-bound calls by up to a half.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv):
    # Turn SIGTERM into SystemExit so that a running child is killed and
    # waited for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "quasiherm", "__init__.py")):
        print(f"perfbench: {SRC}/quasiherm not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import quasiherm

    if not os.path.abspath(quasiherm.__file__).startswith(SRC + os.sep):
        print(f"perfbench: quasiherm imported from {quasiherm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(argv, ROOT, NPROC)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
