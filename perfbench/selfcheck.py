"""Quick self-check of the benchmark harness at tiny input sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --tiny`` untraced and traced, then asserts
that the result line has exactly the metrics BENCHMARK.json lists, each with
its unit; that the named end-to-end metrics of the workload are printed;
that no call failed; that every output verification of the workload ran;
that the spans were written; and that a second traced run with the same seed
repeats every call and byte count exactly.  It also checks that the benchmark refuses to run in
a directory without the package.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

NAMED = {
    "dense": ("hermitize_per_s", "hermitize_p50_ms", "hermitize_tail_ms"),
    "small": ("hermitize_per_s", "hermitize_p50_ms", "hermitize_tail_ms",
              "scan_points_per_s", "evolve_points_per_s"),
    "compat": ("compat_per_s", "compat_p50_ms", "compat_tail_ms", "compat_decided_share"),
    "cli": ("cli_per_s", "cli_p50_ms", "cli_tail_ms"),
}
COMMON = ("failed_share", "round_p50_ms", "setup_s", "peak_rss_mb")
CHECKS = {
    "dense": ("hermitize.certificate",),
    "small": ("hermitize.certificate", "scan.gaps", "scan.ep_point", "evolve.norms"),
    "compat": ("compat.status", "compat.certificate"),
    "cli": ("cli.exit_code", "cli.stdout_repeat", "hermitize.certificate", "compat.status",
            "compat.certificate", "scan.gaps", "scan.ep_point"),
}
# Per-layer figures that must repeat exactly between two traced runs.
EXACT = ("lapack.eig.calls", "lapack.eigh.calls", "lapack.svd.calls", "lapack.solve.calls",
         "lapack.calls_per_op", "observables.probes_per_call", "observables.decided_ratio",
         "dyson.not_unitary_share",
         "models.ep_scan.eig_calls_per_point", "matfile.bytes_in", "matfile.bytes_out")


def run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_result(proc, workload, trace, spec):
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] is True, f"{workload}: outputs verified wrong: {lines[-2]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    failures = next(ln for ln in lines if ln.startswith("# failures "))
    expect(result["failed"] == 0, f"{workload}: {result['failed']} calls failed: {failures}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace={trace}: metrics/units {got} != {wanted}")
    for name, value in result["metrics"].items():
        expect(isinstance(value["value"], (int, float)), f"{name} value {value['value']!r}")
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    for name in NAMED[workload] + COMMON:
        expect(name in printed and printed[name], f"{workload}: metric {name} not printed with a unit")
    checks = json.loads(next(ln for ln in lines if ln.startswith("# checks "))[len("# checks "):])
    for name in CHECKS[workload]:
        expect(checks.get(name, 0) > 0, f"{workload}: verification {name} never ran ({checks})")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in NAMED:
        check_result(run(workload, 0), workload, 0, spec)
        first = check_result(run(workload, 1), workload, 1, spec)["metrics"]
        spans = os.path.join(ROOT, ".perfbench-run", f"spans-{workload}-seed7.jsonl")
        expect(os.path.getsize(spans) > 0, f"no spans written to {spans}")
        second = check_result(run(workload, 1), workload, 1, spec)["metrics"]
        for name in EXACT:
            expect(first[name]["value"] == second[name]["value"],
                   f"{workload}: {name} differs between traced runs")
        print(f"selfcheck {workload}: ok")

    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=os.path.join(ROOT, ".perfbench-run"))
    try:
        shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("dense", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the package")
    finally:
        shutil.rmtree(bare)
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
