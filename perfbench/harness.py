"""Set-up, timing loop, metrics and output of one benchmark run (see run.py)."""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy
import scipy

import tracing
import workloads
from workloads import FAILED, OK, PRIMARY_KIND, UNDECIDED, WRONG, child_env

SETUP_REPS = 5

IMPORT_PROBE = """\
import time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.linalg
t2 = time.perf_counter(); import quasiherm
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""

# End-to-end metrics in the result line (--trace 0); BENCHMARK.json lists the same.
END_TO_END = {"round_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Record:
    label: str
    kind: str
    outcome: str
    reason: str
    seconds: float
    work: int


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="Run one workload of the quasiherm benchmark.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (for perfbench/selfcheck.py)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                found[os.path.basename(lib)] = int(fn())
                break
    return found


def provenance(args, root, nproc):
    threads = blas_threads()
    most = max(threads.values(), default=0)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except OSError:
        commit = "none"
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "quasiherm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "nproc": nproc, "blas_threads": threads,
        "blas_oversubscribed": most > nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def import_probe(root):
    """Import seconds of numpy, scipy.linalg and quasiherm in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(root),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return [float(x) for x in out.split()]


def interpreter_start(root):
    env = child_env(root)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
    return perf_counter() - t0


def run_op(index, op, checks, tracer=None):
    """Time one call; ``index`` tags its spans when ``tracer`` is given."""
    if tracer is not None:
        tracer.op, tracer.active = index, True
    error = None
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising call is a measured outcome, not a harness fault
        # Keep only the name: holding the exception would keep its frames alive.
        error = type(exc).__name__
    finally:
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if error is not None:
        outcome, reason = FAILED, error
    else:
        outcome, reason = op.check(result, checks)
    return Record(op.label, op.kind, outcome, reason, seconds, op.work)


def measure(rounds, seconds, checks):
    """Whole rounds, cycling through the pool, until the time inside calls reaches ``seconds``."""
    records, busy, count = [], 0.0, 0
    while busy < seconds:
        for i, op in enumerate(rounds[count % len(rounds)]):
            rec = run_op(i, op, checks)
            records.append(rec)
            busy += rec.seconds
        count += 1
    return records, count


def tail(sorted_values):
    """(value, percentile, samples beyond): the highest percentile with at least
    ten samples beyond it, but never below the upper median."""
    n = len(sorted_values)
    k = max(n - 11, n // 2)
    return sorted_values[k], 100.0 * (k + 1) / n, n - 1 - k


def round_p50_ms(records, round_count):
    """Milliseconds a measured round takes on average, with each call at the
    run's median latency for calls of its label and outcome.

    The sum covers every call of the mix.  Grouping by outcome keeps a search
    that ended early apart from one that ran to its end, so the figure does
    not move with how many of a run's searches happened to end early.
    """
    groups = {}
    for r in records:
        if r.outcome == OK:
            groups.setdefault((r.label, r.reason), []).append(r.seconds)
    return 1e3 * sum(len(v) * statistics.median(v) for v in groups.values()) / round_count


def summarize(workload, records, round_count, setups, peak_rss_mb, child_rss):
    """Named end-to-end metrics (name -> (value, unit, note)) and the result-line subset,
    which is None when no call of the workload's primary kind succeeded."""
    named = {}
    for kind in sorted({r.kind for r in records}):
        calls = [r for r in records if r.kind == kind]
        good = [r for r in calls if r.outcome == OK]
        busy = sum(r.seconds for r in calls)
        if kind in ("scan", "evolve"):
            unit = "gamma_points/s" if kind == "scan" else "time_points/s"
            named[f"{kind}_points_per_s"] = (sum(r.work for r in good) / busy, unit, "")
            continue
        lat = sorted(r.seconds * 1e3 for r in good)
        unit = "commands/s" if kind == "cli" else "calls/s"
        named[f"{kind}_per_s"] = (len(good) / busy, unit, "")
        if lat:
            value, pct, beyond = tail(lat)
            named[f"{kind}_p50_ms"] = (statistics.median_high(lat), "ms", f"n={len(lat)}")
            named[f"{kind}_tail_ms"] = (value, "ms", f"p{pct:.1f} of n={len(lat)}, {beyond} beyond")
        if kind == "compat":
            decided = sum(r.reason != UNDECIDED for r in good)
            named["compat_decided_share"] = (decided / len(calls), "ratio", f"{decided} of {len(calls)}")
    attempted = len(records)
    failed = sum(r.outcome != OK for r in records)
    named["failed_share"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    named["round_p50_ms"] = (round_p50_ms(records, round_count), "ms",
                             f"{attempted / round_count:g} calls per round")
    named["setup_s"] = (statistics.median(setups), "s", "median of " + ", ".join(f"{t:.3f}" for t in setups))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", "largest child" if child_rss else "this process")

    primary = PRIMARY_KIND[workload]
    if f"{primary}_p50_ms" not in named:
        return named, None
    e2e = {name: named[name][0] for name in END_TO_END}
    return named, e2e


def main(argv, root, nproc):
    args = parse_args(argv)
    run_dir = os.path.join(root, ".perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=run_dir)
    try:
        return bench(args, root, nproc, run_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def bench(args, root, nproc, run_dir, work_dir):
    prov = provenance(args, root, nproc)
    print("# quasiherm benchmark " + json.dumps(prov))
    if prov["blas_oversubscribed"]:
        print(f"# WARNING: BLAS threads {prov['blas_threads']} exceed nproc {nproc}")

    # Inputs are the benchmark's own work, so they are built before set-up is timed.
    rounds, probes = workloads.build(args.workload, args.seed, args.tiny, root, work_dir, args.trace == 1)
    checks = Counter()
    wrong = []
    setups, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        imports.append(import_probe(root))
        warmup = run_op(0, rounds[0][0], checks)
        if warmup.outcome == WRONG:
            wrong.append(f"warm-up {warmup.label}: {warmup.reason}")
        setups.append(perf_counter() - t0)

    records, round_count = measure(rounds, args.seconds, checks)
    child_rss = args.workload == "cli" and not args.trace
    usage = resource.RUSAGE_CHILDREN if child_rss else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    named, e2e = summarize(args.workload, records, round_count, setups, peak_rss_mb, child_rss)
    if e2e is None:
        print(f"perfbench: no {PRIMARY_KIND[args.workload]} call succeeded, so there is "
              "no latency to report", file=sys.stderr)
        return 1

    traced, probed = [], []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run_op(i, op, checks, tracer) for i, op in enumerate(rounds[0])]
            # Probes are traced after the round, so their spans carry op ids past it.
            probed = [run_op(len(traced) + i, op, checks, tracer) for i, op in enumerate(probes)]
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(run_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, len(traced))
        raised = sum(r.reason == "NotUnitary" for r in probed)
        layers["dyson.not_unitary_share"] = raised / len(probed) if probed else 0.0
        numpy_s, scipy_s, pkg_s = (statistics.median(p[i] for p in imports) for i in range(3))
        layers["cli.interpreter_s"] = statistics.median(interpreter_start(root) for _ in range(SETUP_REPS))
        layers["cli.import_numpy_s"] = numpy_s
        layers["cli.import_scipy_s"] = scipy_s
        layers["cli.import_quasiherm_s"] = pkg_s
        untraced = {}
        for r in records:
            untraced.setdefault(r.label, []).append(r.seconds)
        layers["trace.overhead_ratio"] = statistics.median(
            r.seconds / statistics.median(untraced[r.label]) for r in traced)

    everything = records + traced
    for r in everything + probed:
        if r.outcome == WRONG:
            wrong.append(f"{r.label}: {r.reason}")
    failures = Counter(f"{r.label}: {r.reason}" for r in everything if r.outcome != OK)
    undecided = Counter(r.label for r in everything if r.reason == UNDECIDED)
    probe_outcomes = Counter(f"{r.label}: {r.reason or r.outcome}" for r in probed)

    in_process = ", commands run in process through quasiherm.cli.main" if args.workload == "cli" and args.trace else ""
    print(f"# measured {round_count} rounds, {len(records)} calls, "
          f"{sum(r.seconds for r in records):.3f} s inside calls{in_process}")
    for name, (value, unit, note) in named.items():
        print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    if args.trace:
        for name, unit in tracing.PER_LAYER.items():
            print(f"layer {name} {layers[name]!r} {unit}")
    per_op = {}
    for r in records:
        per_op.setdefault(r.label, []).append(r.seconds * 1e3)
    medians = {label: round(statistics.median(ms), 4) for label, ms in per_op.items()}
    print("# median_ms_by_call " + json.dumps(medians))
    print("# checks " + json.dumps(dict(sorted(checks.items()))))
    print("# failures " + json.dumps(dict(sorted(failures.items()))))
    print("# undecided " + json.dumps(dict(sorted(undecided.items()))))
    if probed:
        print("# probes, not counted as attempted " + json.dumps(dict(sorted(probe_outcomes.items()))))
    for line in wrong:
        print(f"# WRONG {line}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(everything),
        "failed": sum(r.outcome != OK for r in everything),
        "metrics": metrics,
    }))
    return 0

