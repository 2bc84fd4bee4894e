#!/usr/bin/env python3
"""Compares two bench-report snapshots and gates on regressions.

Usage:
    python3 scripts/bench_compare.py BASELINE_DIR CURRENT_DIR \
        [--threshold 0.15] [--skip-timing]
    python3 scripts/bench_compare.py --self-test

Each directory holds BENCH_<name>.json files written by the bench suite
(scripts/run_benches.sh). Measurements are matched by bench name, metric
name, and labels; the relative diff is checked against the per-metric
regression direction ("better": lower/higher; "none" is informational).

Exit codes: 0 = no regression past the threshold, 1 = regression(s),
2 = usage/IO error. --skip-timing ignores wall-clock metrics (any unit
ending in "seconds" or "ns") — the right setting when the two snapshots
come from different machines, e.g. CI gating against a committed baseline.
"""

import argparse
import json
import os
import sys
import tempfile


def load_reports(directory):
    """Returns {bench_name: report_dict} for every BENCH_*.json in dir."""
    reports = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError as err:
        sys.exit(f"error: cannot list {directory}: {err}")
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            sys.exit(f"error: cannot read {path}: {err}")
        if report.get("schema") != "deepdirect-bench-report":
            sys.exit(f"error: {path}: not a deepdirect-bench-report")
        reports[report["bench"]] = report
    return reports


def measurement_key(measurement):
    labels = tuple(sorted(measurement.get("labels", {}).items()))
    return (measurement["name"], labels)


def is_timing(measurement):
    """Wall-clock durations and rates (steps/sec, GB/s): host-dependent."""
    unit = measurement.get("unit", "")
    return unit.endswith(("seconds", "ns", "/sec", "/s"))


def compare(baseline_reports, current_reports, threshold, skip_timing):
    """Returns (regressions, improvements, skipped) lists of row strings."""
    regressions, improvements, skipped = [], [], []
    for bench, base_report in sorted(baseline_reports.items()):
        current_report = current_reports.get(bench)
        if current_report is None:
            skipped.append(f"{bench}: missing from current snapshot")
            continue
        current_by_key = {
            measurement_key(m): m
            for m in current_report.get("measurements", [])
        }
        for base in base_report.get("measurements", []):
            key = measurement_key(base)
            label = f"{bench}/{base['name']}" + (
                f" {dict(key[1])}" if key[1] else ""
            )
            current = current_by_key.get(key)
            if current is None:
                skipped.append(f"{label}: missing from current snapshot")
                continue
            better = base.get("better", "none")
            if better == "none":
                continue
            if skip_timing and is_timing(base):
                skipped.append(f"{label}: timing metric (--skip-timing)")
                continue
            base_value, cur_value = base["value"], current["value"]
            if base_value == 0:
                continue
            # Positive delta = got worse, in the metric's own direction.
            if better == "lower":
                delta = (cur_value - base_value) / abs(base_value)
            else:
                delta = (base_value - cur_value) / abs(base_value)
            row = (f"{label}: {base_value:.6g} -> {cur_value:.6g} "
                   f"({delta * 100.0:+.1f}% worse)")
            if delta > threshold:
                regressions.append(row)
            elif delta < -threshold:
                improvements.append(row.replace("worse", "better"))
    return regressions, improvements, skipped


def run(baseline_dir, current_dir, threshold, skip_timing, verbose=True):
    baseline = load_reports(baseline_dir)
    current = load_reports(current_dir)
    if not baseline:
        sys.exit(f"error: no BENCH_*.json reports in {baseline_dir}")
    regressions, improvements, skipped = compare(
        baseline, current, threshold, skip_timing)
    if verbose:
        for row in improvements:
            print(f"IMPROVED  {row}")
        for row in skipped:
            print(f"SKIPPED   {row}")
        for row in regressions:
            print(f"REGRESSED {row}")
        print(f"\n{len(regressions)} regression(s), "
              f"{len(improvements)} improvement(s), "
              f"{len(skipped)} skipped "
              f"(threshold {threshold * 100.0:.0f}%)")
    return 1 if regressions else 0


def make_report(bench, measurements):
    return {
        "schema": "deepdirect-bench-report",
        "schema_version": 1,
        "bench": bench,
        "environment": {"git_sha": "selftest"},
        "measurements": measurements,
    }


def self_test():
    """Builds synthetic snapshots and verifies detection / non-detection."""
    def measurement(name, unit, better, value, labels=None):
        return {"name": name, "unit": unit, "better": better,
                "value": value, "labels": labels or {}}

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        good_dir = os.path.join(tmp, "good")
        bad_dir = os.path.join(tmp, "bad")
        for d in (base_dir, good_dir, bad_dir):
            os.makedirs(d)

        base = make_report("demo", [
            measurement("wall", "seconds", "lower", 10.0),
            measurement("accuracy", "fraction", "higher", 0.80,
                        {"dataset": "twitter"}),
            measurement("bytes", "bytes", "none", 1000.0),
        ])
        good = make_report("demo", [
            measurement("wall", "seconds", "lower", 10.9),   # +9%: under
            measurement("accuracy", "fraction", "higher", 0.79,
                        {"dataset": "twitter"}),             # -1.2%: under
            measurement("bytes", "bytes", "none", 9000.0),   # none: ignored
        ])
        bad = make_report("demo", [
            measurement("wall", "seconds", "lower", 12.5),   # +25%: trips
            measurement("accuracy", "fraction", "higher", 0.60,
                        {"dataset": "twitter"}),             # -25%: trips
            measurement("bytes", "bytes", "none", 9000.0),
        ])
        for d, report in ((base_dir, base), (good_dir, good), (bad_dir, bad)):
            with open(os.path.join(d, "BENCH_demo.json"), "w") as handle:
                json.dump(report, handle)

        checks = [
            ("clean pass", run(base_dir, good_dir, 0.15, False, False), 0),
            ("injected regression", run(base_dir, bad_dir, 0.15, False,
                                        False), 1),
            ("skip-timing hides wall", None, None),
        ]
        # --skip-timing must hide the wall regression but keep accuracy's.
        timing_only_bad = make_report("demo", [
            measurement("wall", "seconds", "lower", 12.5),
            measurement("accuracy", "fraction", "higher", 0.80,
                        {"dataset": "twitter"}),
        ])
        with open(os.path.join(bad_dir, "BENCH_demo.json"), "w") as handle:
            json.dump(timing_only_bad, handle)
        checks[2] = ("skip-timing hides wall",
                     run(base_dir, bad_dir, 0.15, True, False), 0)

        # Rates are timing too: a 30% steps/sec drop is skipped under
        # --skip-timing and still gated without it.
        rate_dir = os.path.join(tmp, "rate")
        os.makedirs(rate_dir)
        rate_base = make_report("rate", [
            measurement("throughput", "steps/sec", "higher", 1000.0),
            measurement("bandwidth", "GB/s", "higher", 2.0),
        ])
        rate_slow = make_report("rate", [
            measurement("throughput", "steps/sec", "higher", 700.0),
            measurement("bandwidth", "GB/s", "higher", 1.4),
        ])
        with open(os.path.join(base_dir, "BENCH_rate.json"), "w") as handle:
            json.dump(rate_base, handle)
        with open(os.path.join(rate_dir, "BENCH_rate.json"), "w") as handle:
            json.dump(rate_slow, handle)
        with open(os.path.join(rate_dir, "BENCH_demo.json"), "w") as handle:
            json.dump(base, handle)
        checks.append(("skip-timing hides rates",
                       run(base_dir, rate_dir, 0.15, True, False), 0))
        checks.append(("rates gated without skip-timing",
                       run(base_dir, rate_dir, 0.15, False, False), 1))

        failures = [name for name, got, want in checks if got != want]
        for name, got, want in checks:
            status = "ok" if got == want else f"FAIL (exit {got} != {want})"
            print(f"self-test: {name}: {status}")
        if failures:
            sys.exit(1)
        print("self-test: all checks passed")


def main():
    parser = argparse.ArgumentParser(
        description="Compare two bench-report snapshots.")
    parser.add_argument("baseline", nargs="?", help="baseline report dir")
    parser.add_argument("current", nargs="?", help="current report dir")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression threshold (default 0.15)")
    parser.add_argument("--skip-timing", action="store_true",
                        help="ignore wall-clock metrics (cross-machine)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in detection self-test")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.current:
        parser.error("baseline and current directories are required")
    sys.exit(run(args.baseline, args.current, args.threshold,
                 args.skip_timing))


if __name__ == "__main__":
    main()
