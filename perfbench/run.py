#!/usr/bin/env python3
"""Wall-clock benchmark for fides.

Run from the repository root:

    python3 perfbench/run.py --workload tfc-wide --seed 1 --seconds 10 --trace 0

Builds the fides library, fides_serverd and the perfbench driver from source
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs one workload. The driver's report goes to
standard output; its last line is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).

    python3 perfbench/run.py --self-test [--seconds 2]

runs every workload with one seed, untraced once and traced twice, and fails
unless every run is correct, reports exactly the metrics BENCHMARK.json
declares and the same final ledger head, and every exact count repeats
bit-for-bit between the traced runs.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tfc-wide", "group-4x2", "socket-3", "signed-read-audit"]
RUN_TIMEOUT_S = 170

# Per-layer metrics that are counts of work, not timings: the same seed and
# run length must reproduce them exactly.
EXACT_COUNTS = [
    "engine.spec_revotes",
    "engine.committed_txns",
    "transport.sigs_verified_per_txn",
    "transport.sigs_created_per_txn",
    "transport.msgs_per_txn",
    "transport.bytes_per_txn",
    "transport.rejected",
    "audit.blocks",
    "audit.items_authenticated",
    "ordserv.sequenced",
    "ordserv.refused",
]

# Under speculation a cohort's vote lists the in-flight rounds it assumed, and
# which rounds are in flight depends on thread and process timing. The ledger
# is identical run to run, but the vote bytes are not, so bytes per txn is
# only exact where speculation runs on a single thread.
SCHEDULE_DEPENDENT = {
    "tfc-wide": {"transport.bytes_per_txn"},
    "socket-3": {"transport.bytes_per_txn"},
}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_driver(binary, workload, seed, seconds, trace):
    """Runs the driver once; returns (its stdout, the parsed result)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    # Relative, so unix-socket paths under it stay short.
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", os.path.relpath(work)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    return proc.stdout, result


def self_test(binary, seconds):
    ok = True
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = json.load(f)
    for workload in WORKLOADS:
        results = [(trace, *run_driver(binary, workload, 7, seconds, trace))
                   for trace in (0, 1, 1)]
        heads = {line for _, out, _ in results for line in out.splitlines()
                 if line.startswith("ledger head ")}
        if len(heads) != 1:
            print(f"FAIL {workload}: one seed gave different ledgers {sorted(heads)}")
            ok = False
        for i, (trace, _, r) in enumerate(results):
            if not r["correct"] or r["failed"] != 0:
                print(f"FAIL {workload} run {i}: correct={r['correct']} failed={r['failed']}")
                ok = False
            want = {m["name"]: m["unit"]
                    for m in declared["per_layer" if trace else "end_to_end"]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            if got != want:
                print(f"FAIL {workload} --trace {trace}: metrics {got} != BENCHMARK.json {want}")
                ok = False
        runs = [r for trace, _, r in results if trace == 1]
        for name in EXACT_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in runs)
            if name in SCHEDULE_DEPENDENT.get(workload, ()):
                print(f"{workload} {name} (schedule-dependent, not checked): {a!r}, {b!r}")
            elif a != b:
                print(f"FAIL {workload} {name}: {a!r} != {b!r}")
                ok = False
        print(f"{workload}: exact counts " +
              ", ".join(f"{n}={runs[0]['metrics'][n]['value']!r}" for n in EXACT_COUNTS))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary, args.seconds)
        stdout, _ = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            ValueError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
