#!/usr/bin/env python3
"""Compares perf-smoke bench JSON against the checked-in baselines.

CI's perf-smoke job runs bench_kernel, bench_portal_scale and
bench_storm with --json and hands each output here next to its
repo-root baseline (BENCH_kernel.json / BENCH_portal_scale.json /
BENCH_storm.json). Two tiers:

  * Throughput-style and RSS keys are compared at a relative tolerance
    (default +/-15%); every breach is surfaced as a GitHub `::warning::`
    annotation and a row in the step summary, never as a failure —
    shared runners are far too noisy to gate merges on wall-clock
    numbers.
  * Each `--exact KEY` is a deterministic work count (events processed,
    alerts sent/delivered/lost): a pure function of the code and the
    seed, so it must equal the baseline exactly. A mismatch, or a key
    missing from either file, is an `::error::` annotation and makes
    the exit code 1.

Without --exact the exit code is always 0.

Usage:
  perf_smoke_compare.py --tolerance 0.15 \
      --pair BENCH_kernel.json:perf-artifacts/BENCH_kernel.json \
      --pair BENCH_portal_scale.json:perf-artifacts/BENCH_portal_scale.json
  perf_smoke_compare.py \
      --pair BENCH_portal_scale.json:perf-artifacts/BENCH_portal_scale.json \
      --exact events_processed --exact alerts_sent

Stdlib only; no third-party imports.
"""

import argparse
import json
import os
import sys

# Keys worth comparing. Rates regress when the code slows down;
# peak RSS regresses when something starts hoarding memory; the storm
# bench's critical-p99 speedup regresses when the overload defenses
# stop protecting the critical path. Identity and count keys (seed,
# users, alerts_sent, ...) are deterministic: they are never compared
# at a tolerance, only exactly, when named with --exact.
COMPARED_SUFFIXES = ("_per_sec",)
COMPARED_KEYS = (
    "events_per_sec",
    "peak_rss_bytes",
    "critical_p99_speedup_x",
    "map_ops_per_sec",
)


def compared(key):
    return key in COMPARED_KEYS or any(
        key.endswith(suffix) for suffix in COMPARED_SUFFIXES
    )


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_pair(baseline_path, current_path, tolerance):
    """Returns a list of (key, base, cur, ratio, breached) rows."""
    baseline = load(baseline_path)
    current = load(current_path)
    rows = []
    for key, base in sorted(baseline.items()):
        if not compared(key) or not isinstance(base, (int, float)) or base == 0:
            continue
        cur = current.get(key)
        if not isinstance(cur, (int, float)):
            rows.append((key, base, None, None, True))
            continue
        ratio = cur / base
        # Lower throughput and higher RSS are the bad directions, but a
        # large move either way deserves eyes: an unexplained speedup
        # usually means the bench stopped measuring what it used to.
        breached = abs(ratio - 1.0) > tolerance
        rows.append((key, base, cur, ratio, breached))
    return rows


def exact_rows(baseline_path, current_path, keys):
    """Returns a list of (key, base, cur, matched) rows for `keys`."""
    baseline = load(baseline_path)
    current = load(current_path)
    rows = []
    for key in keys:
        base = baseline.get(key)
        cur = current.get(key)
        rows.append((key, base, cur, base is not None and base == cur))
    return rows


def fmt_exact(value):
    return "missing" if value is None else str(value)


def fmt(value):
    if value is None:
        return "missing"
    if isinstance(value, float) and abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        action="append",
        required=True,
        metavar="BASELINE:CURRENT",
        help="baseline and current JSON paths, colon-separated",
    )
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument(
        "--exact",
        action="append",
        default=[],
        metavar="KEY",
        help="deterministic key that must equal the baseline exactly "
        "(repeatable); any mismatch exits 1",
    )
    args = parser.parse_args()

    summary_lines = [
        "### Perf smoke vs baselines",
        "",
        f"Tolerance: +/-{args.tolerance:.0%} (advisory, never blocks); "
        "rows marked exact must match (blocking)",
        "",
        "| bench | key | baseline | current | ratio | |",
        "|---|---|---|---|---|---|",
    ]
    breaches = 0
    mismatches = 0
    for pair in args.pair:
        baseline_path, _, current_path = pair.partition(":")
        if not current_path:
            print(f"::warning::perf-smoke: bad --pair {pair!r}")
            breaches += 1
            continue
        try:
            rows = compare_pair(baseline_path, current_path, args.tolerance)
            exact = exact_rows(baseline_path, current_path, args.exact)
        except (OSError, ValueError) as error:
            print(f"::warning::perf-smoke: cannot compare {pair}: {error}")
            breaches += 1
            if args.exact:
                print(f"::error::perf-smoke: exact keys unchecked for {pair}")
                mismatches += 1
            continue
        bench = os.path.basename(baseline_path)
        for key, base, cur, matched in exact:
            if not matched:
                mismatches += 1
                print(
                    f"::error::perf-smoke: {bench} {key} {fmt_exact(cur)} != "
                    f"baseline {fmt_exact(base)} (deterministic count, "
                    "exact gate)"
                )
            summary_lines.append(
                f"| {bench} | {key} | {fmt_exact(base)} | {fmt_exact(cur)} | "
                "exact | "
                f"{'' if matched else ':x:'} |"
            )
        for key, base, cur, ratio, breached in rows:
            mark = ""
            if breached:
                breaches += 1
                mark = ":warning:"
                print(
                    f"::warning::perf-smoke: {bench} {key} "
                    f"{fmt(cur)} vs baseline {fmt(base)} "
                    f"({'n/a' if ratio is None else f'{ratio:.2f}x'}, "
                    f"tolerance +/-{args.tolerance:.0%})"
                )
            summary_lines.append(
                f"| {bench} | {key} | {fmt(base)} | {fmt(cur)} | "
                f"{'n/a' if ratio is None else f'{ratio:.2f}x'} | {mark} |"
            )

    summary_lines.append("")
    summary_lines.append(
        f"{breaches} key(s) outside tolerance."
        if breaches
        else "All compared keys within tolerance."
    )
    if args.exact:
        summary_lines.append(
            f"{mismatches} exact key(s) differ from the baseline (blocking)."
            if mismatches
            else "Every exact key matches its baseline."
        )
    summary = "\n".join(summary_lines)
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    # The tolerance tier is advisory by design; only exact keys block.
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
