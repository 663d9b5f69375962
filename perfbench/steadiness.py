#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for every
end-to-end metric, the median over the runs and the spread — the distance
between the first and third quartile as a share of the median — next to the
metric's bound in BENCHMARK.json. It also reports the host-speed reference
(host.ref_ms) of each run, which no bound applies to.

    python3 perfbench/steadiness.py --seeds 10 [--workloads tfc-wide,socket-3]
                                    [--seconds 10] [--json out.json]
    python3 perfbench/steadiness.py --compare a.json b.json

--compare reads two sets written by --json and prints, per workload and
metric, both medians and spreads and how far the second median moved; it
exits 1 if a spread exceeds its bound or a median got worse by more than its
bound (setup_s's spread excepted, as it has no spread gate).

Run from the repository root. Runs are sequential: parallel runs would
contend for the same cores and widen every spread.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def compare(path_a, path_b, bench):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    print("| workload | metric | median A | spread A | median B | spread B | B vs A |")
    print("|---|---|---|---|---|---|---|")
    for workload in a:
        for name, ra in a[workload].items():
            rb = b.get(workload, {}).get(name)
            if rb is None:
                continue
            shift = (rb["median"] - ra["median"]) / ra["median"]
            flag = ""
            m = metrics.get(name)
            if m is not None:
                worse = -shift if m["better"] == "higher" else shift
                spread = max(ra["spread"], rb["spread"])
                if worse > m["bound"] or (name != "setup_s" and spread > m["bound"]):
                    flag = " OUT OF BOUND"
                    ok = False
            print(f"| {workload} | {name} | {ra['median']:.4g} | {ra['spread']:.1%} "
                  f"| {rb['median']:.4g} | {rb['spread']:.1%} | {shift:+.1%}{flag} |")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--benchmark", default="BENCHMARK.json")
    p.add_argument("--compare", nargs=2, metavar=("A_JSON", "B_JSON"))
    args = p.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.compare:
        return compare(*args.compare, bench)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    binary = run.build()

    report = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            stdout, result = run.run_driver(binary, workload, seed, seconds, 0)
            for line in stdout.splitlines():
                if line.startswith("host.ref_ms start"):
                    words = line.split()
                    values.setdefault("host.ref_ms", []).append(
                        (float(words[2]) + float(words[4])) / 2)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            rows[name] = {"median": med, "spread": spread, "values": v}
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {workload:18s} {name:16s} median {med:12.5g} spread {spread:7.2%}"
                  f" bound {bound}{flag}", flush=True)
        report[workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
