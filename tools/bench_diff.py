#!/usr/bin/env python3
"""Compare fides-bench-v1 reports against a committed baseline.

The bench binaries write BENCH_<name>.json (see bench/bench_common.hpp).
Metrics come in three groups per sweep point:

  exact  -- deterministic given seed + config (protocol counts, anything on
            the SimNet virtual clock). Compared for equality: any drift means
            the protocol schedule itself changed, which must be deliberate.
  approx -- contains measured wall/CPU time. Compared directionally with a
            noise tolerance: *_tps may not drop, *_ms may not rise.
  info   -- context only, never compared.

Google-Benchmark-format files (top-level "context" key) are accepted and
reported but never gated -- wall-clock microbenches are too noisy.

Usage:
  bench_diff.py --baseline bench/baseline --current <dir> [--tolerance 0.25]
  bench_diff.py --baseline bench/baseline --current <dir> --rebless
  bench_diff.py --self-check
"""

import argparse
import glob
import json
import os
import shutil
import sys


def is_google_benchmark(report):
    return "context" in report


def compare_reports(base, cur, tolerance, exact_tol=0.0, ms_floor=0.05):
    """Returns a list of failure strings (empty == pass)."""
    errors = []
    name = base.get("name", "?")
    if cur.get("schema") != "fides-bench-v1":
        return ["%s: current report has schema %r" % (name, cur.get("schema"))]
    if base.get("schema") != "fides-bench-v1":
        return ["%s: baseline report has schema %r" % (name, base.get("schema"))]
    if base.get("config") != cur.get("config"):
        return [
            "%s: config mismatch (baseline %r vs current %r) -- regenerate the "
            "baseline with the same knobs" % (name, base.get("config"), cur.get("config"))
        ]

    cur_points = {p["label"]: p for p in cur.get("points", [])}
    for bp in base.get("points", []):
        label = bp["label"]
        cp = cur_points.get(label)
        if cp is None:
            errors.append("%s[%s]: point missing from current run" % (name, label))
            continue

        for key, bv in bp.get("exact", {}).items():
            cv = cp.get("exact", {}).get(key)
            if cv is None:
                errors.append("%s[%s]: exact metric %s missing" % (name, label, key))
            elif bv is None or cv is None or not _close(bv, cv, exact_tol):
                errors.append(
                    "%s[%s]: exact metric %s changed: %r -> %r"
                    % (name, label, key, bv, cv)
                )

        for key, bv in bp.get("approx", {}).items():
            cv = cp.get("approx", {}).get(key)
            if cv is None:
                errors.append("%s[%s]: approx metric %s missing" % (name, label, key))
                continue
            if bv is None or cv is None:
                continue
            if key.endswith("_tps"):
                if cv < bv * (1.0 - tolerance):
                    errors.append(
                        "%s[%s]: %s dropped beyond %.0f%% tolerance: %.2f -> %.2f"
                        % (name, label, key, tolerance * 100, bv, cv)
                    )
            elif key.endswith("_ms"):
                if cv > bv * (1.0 + tolerance) and cv - bv > ms_floor:
                    errors.append(
                        "%s[%s]: %s rose beyond %.0f%% tolerance: %.3f -> %.3f"
                        % (name, label, key, tolerance * 100, bv, cv)
                    )
            # other approx keys: informational, no direction defined
    return errors


def _close(a, b, rel_tol):
    if a == b:
        return True
    if rel_tol <= 0:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rel_tol * scale


def load(path):
    with open(path) as f:
        return json.load(f)


def run_compare(args):
    base_files = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not base_files:
        print("bench_diff: no BENCH_*.json baselines under %s" % args.baseline)
        return 1

    if args.rebless:
        blessed = 0
        for bf in base_files:
            cf = os.path.join(args.current, os.path.basename(bf))
            if os.path.exists(cf):
                shutil.copyfile(cf, bf)
                blessed += 1
                print("reblessed %s" % bf)
            else:
                print("WARNING: %s has no current counterpart, left as-is" % bf)
        print("bench_diff: reblessed %d baseline file(s)" % blessed)
        return 0

    failures = []
    compared = 0
    for bf in base_files:
        cf = os.path.join(args.current, os.path.basename(bf))
        if not os.path.exists(cf):
            failures.append("%s: missing from current run dir" % os.path.basename(bf))
            continue
        base, cur = load(bf), load(cf)
        if is_google_benchmark(base) or is_google_benchmark(cur):
            print("info-only (Google Benchmark format): %s" % os.path.basename(bf))
            continue
        compared += 1
        errs = compare_reports(base, cur, args.tolerance, args.exact_tolerance)
        if errs:
            failures.extend(errs)
        else:
            print("ok: %s (%d points)" % (base.get("name"), len(base.get("points", []))))

    if failures:
        print("\nbench_diff: %d failure(s):" % len(failures))
        for e in failures:
            print("  FAIL " + e)
        return 1
    print("bench_diff: %d report(s) within tolerance" % compared)
    return 0


def self_check():
    """Round-trip + gating unit tests on synthetic reports."""
    def report(points):
        return {
            "schema": "fides-bench-v1",
            "name": "t",
            "commit": "c",
            "config": {"txns": "100"},
            "points": points,
        }

    def point(label, exact=None, approx=None):
        return {
            "label": label,
            "exact": exact or {},
            "approx": approx or {},
            "info": {},
        }

    a = report([point("p", {"committed_txns": 100.0, "virtual_ms": 12.5},
                      {"throughput_tps": 1000.0, "avg_measured_ms": 2.0})])

    checks = []
    # 1. identical reports pass
    checks.append(("identical", compare_reports(a, a, 0.25) == []))
    # 2. JSON round-trip of a %.17g-style double survives equality
    b = json.loads(json.dumps(a))
    checks.append(("roundtrip", compare_reports(a, b, 0.25) == []))
    # 3. exact drift fails even when tiny
    c = json.loads(json.dumps(a))
    c["points"][0]["exact"]["virtual_ms"] = 12.500000001
    checks.append(("exact-drift", compare_reports(a, c, 0.25) != []))
    # 4. tps drop beyond tolerance fails; within tolerance passes
    d = json.loads(json.dumps(a))
    d["points"][0]["approx"]["throughput_tps"] = 700.0
    checks.append(("tps-drop", compare_reports(a, d, 0.25) != []))
    d["points"][0]["approx"]["throughput_tps"] = 800.0
    checks.append(("tps-within", compare_reports(a, d, 0.25) == []))
    # 5. ms rise beyond tolerance fails; direction is one-sided (faster is fine)
    e = report([point("p", {"committed_txns": 100.0, "virtual_ms": 12.5},
                      {"throughput_tps": 1000.0, "avg_measured_ms": 3.0})])
    checks.append(("ms-rise", compare_reports(a, e, 0.25) != []))
    f = json.loads(json.dumps(e))
    f["points"][0]["approx"]["avg_measured_ms"] = 0.5
    checks.append(("ms-faster-ok", compare_reports(a, f, 0.25) == []))
    # 6. missing point fails
    g = report([])
    checks.append(("missing-point", compare_reports(a, g, 0.25) != []))
    # 7. config mismatch fails
    h = json.loads(json.dumps(a))
    h["config"]["txns"] = "200"
    checks.append(("config-mismatch", compare_reports(a, h, 0.25) != []))
    # 8. Google Benchmark format detected
    checks.append(("gb-format", is_google_benchmark({"context": {}, "benchmarks": []})))
    # 9. exact tolerance escape hatch works
    checks.append(("exact-tol", compare_reports(a, c, 0.25, exact_tol=1e-6) == []))
    # 10. a baseline exact key absent from the current report fails
    i = json.loads(json.dumps(a))
    del i["points"][0]["exact"]["virtual_ms"]
    checks.append(("exact-key-missing", compare_reports(a, i, 0.25) != []))
    # 11. a baseline approx key absent from the current report fails
    j = json.loads(json.dumps(a))
    del j["points"][0]["approx"]["avg_measured_ms"]
    checks.append(("approx-key-missing", compare_reports(a, j, 0.25) != []))

    failed = [n for n, ok in checks if not ok]
    for n, ok in checks:
        print("%s %s" % ("ok  " if ok else "FAIL", n))
    if failed:
        print("bench_diff --self-check: %d failure(s)" % len(failed))
        return 1
    print("bench_diff --self-check: all %d checks passed" % len(checks))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--current", help="directory of freshly generated BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="relative noise tolerance for approx metrics (default 0.5; "
                         "approx metrics contain wall-clock time, so leave headroom "
                         "for shared-runner noise -- the exact group is what catches "
                         "subtle drift)")
    ap.add_argument("--exact-tolerance", type=float, default=0.0,
                    help="relative tolerance for exact metrics (default 0 = bit-equal)")
    ap.add_argument("--rebless", action="store_true",
                    help="overwrite the baseline with the current run's reports")
    ap.add_argument("--self-check", action="store_true",
                    help="run internal unit tests and exit")
    args = ap.parse_args()

    if args.self_check:
        sys.exit(self_check())
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or use --self-check)")
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
