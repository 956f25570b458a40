#!/usr/bin/env python3
"""Perf-trajectory gate: diff a freshly produced BENCH_*.json against the
committed baseline and fail on regressions beyond a threshold.

Usage:
    scripts/check_bench.py --baseline bench/baselines/BENCH_parallel.json \
        --current build/BENCH_parallel.json [--threshold 0.10] [--key-prefix X]

Semantics follow the file's unit: any *_per_sec unit (packets_per_sec,
million_ops_per_sec) regresses downward, every other unit (ns_per_publish,
mixed) upward. Individual metric NAMES override the file unit when they
declare their own: a metric whose leaf ends in `_ns` (tail quantiles like
parallel_tail/.../p99_ns riding in a packets_per_sec file) or mentions
`overhead` regresses upward; a `*per_sec*` leaf (ofp/flow_mods_per_sec in
a mixed file) regresses downward. Metrics present only on one side are
reported but never fail the gate (new benches may add metrics). Metadata
drift (git SHA aside) is surfaced as a warning so apples-to-oranges
comparisons are visible.

Thread-sensitive metrics (scaling curves, work-stealing scenarios) can be
exempted from the baseline gate when the machines differ:
    --skip-if-hardware-differs parallel/
compares metrics starting with that prefix only when the `hardware_threads`
metadata matches the baseline; otherwise they are reported informationally.

Within-run flatness invariants (machine-independent) are gated with
    --flat-pair publish/entries_1000=publish/entries_100000:1.0
which requires the two CURRENT values to sit within the given relative
tolerance of each other (|a-b|/min(a,b) <= tol) — e.g. the left-right
publish latency must not scale with table size.

Within-run floor invariants (machine-independent) are gated with
    --min-metric kernel/tag_match_swar:25
which requires the CURRENT value of the named metric to be >= the floor —
e.g. a probe kernel's Mops floor an order of magnitude below any runner's
rate, or failover/promotions:1 proving the failover path ran. Mind the
metric's unit: the floor is compared in whatever unit the bench emits.

Within-run ceiling invariants are the mirror image, gated with
    --max-metric soak/desyncs:0 --max-metric soak/dropped_sessions:0
which requires the CURRENT value of the named metric to be <= the ceiling —
the natural shape for robustness counters (desyncs, dropped sessions,
error totals) where any value above the bound means the run misbehaved.

Within-run ratio ceilings relate two CURRENT metrics:
    --max-ratio parallel_tail/.../p99_ns,parallel_tail/.../p50_ns:100
requires current[NUM] / current[DEN] <= MAX (comma-separated because metric
names contain '/'). The natural shape for tail-latency SLOs: p99/p50 is a
machine-independent tail-blowup detector — absolute quantiles shift with
hardware, but a p99 two orders of magnitude over the median means the tail
collapsed no matter the machine. Tail ceilings are deliberately
catastrophic-only: shared runners legitimately wobble small multiples. A
ceiling of 1.0 orders two rates of one run.

A bench may also emit such a ratio as its own row, named `*_over_*`
(ofp/apply_p99_over_p50). Those rows are reported against the baseline but
never trajectory-gated: the ratio is already machine-independent, and its
gate is a --max-metric ceiling on the current run.

Exit codes: 0 ok, 1 regression/flatness violation, 2 usage/IO error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def lower_is_better(unit):
    return "per_sec" not in unit.lower()  # ns, us, mixed: lower is better


def metric_lower_is_better(name, file_default):
    """Per-metric direction: a metric name that declares its own unit
    (tail quantiles in `_ns`, overhead percentages, embedded rates) wins
    over the containing file's unit."""
    leaf = name.rsplit("/", 1)[-1].lower()
    if leaf.endswith("_ns") or "overhead" in leaf:
        return True
    if "per_sec" in leaf:
        return False
    return file_default


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed relative regression (0.10 = 10%%)",
    )
    parser.add_argument(
        "--key-prefix",
        default="",
        help="only compare metrics whose name starts with this prefix",
    )
    parser.add_argument(
        "--skip-if-hardware-differs",
        action="append",
        default=[],
        metavar="PREFIX",
        help="metrics starting with PREFIX are only gated when the "
        "hardware_threads metadata matches the baseline (repeatable)",
    )
    parser.add_argument(
        "--flat-pair",
        action="append",
        default=[],
        metavar="A=B:TOL",
        help="require |current[A]-current[B]|/min <= TOL (repeatable); "
        "checked within the current run, so it is hardware-independent",
    )
    parser.add_argument(
        "--min-metric",
        action="append",
        default=[],
        dest="min_metric",
        metavar="NAME:MIN",
        help="require current[NAME] >= MIN (repeatable); checked within "
        "the current run, so it is hardware-independent",
    )
    parser.add_argument(
        "--max-metric",
        action="append",
        default=[],
        dest="max_metric",
        metavar="NAME:MAX",
        help="require current[NAME] <= MAX (repeatable); checked within "
        "the current run, so it is hardware-independent",
    )
    parser.add_argument(
        "--max-ratio",
        action="append",
        default=[],
        dest="max_ratio",
        metavar="NUM,DEN:MAX",
        help="require current[NUM]/current[DEN] <= MAX (repeatable; names "
        "comma-separated since they contain '/'); checked within the "
        "current run, so it is hardware-independent — e.g. a p99/p50 "
        "tail-blowup ceiling",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline.get("unit") != current.get("unit"):
        print(
            f"error: unit mismatch: baseline={baseline.get('unit')} "
            f"current={current.get('unit')}",
            file=sys.stderr,
        )
        sys.exit(2)
    lower = lower_is_better(str(baseline.get("unit", "")))

    meta_b = baseline.get("metadata", {})
    meta_c = current.get("metadata", {})
    for key in sorted(set(meta_b) | set(meta_c)):
        if key == "git_sha":
            continue
        if meta_b.get(key) != meta_c.get(key):
            print(
                f"warning: metadata '{key}' differs "
                f"(baseline={meta_b.get(key)!r}, current={meta_c.get(key)!r}) "
                "— comparison may not be apples-to-apples"
            )

    hardware_matches = meta_b.get("hardware_threads") == meta_c.get(
        "hardware_threads")
    if not hardware_matches and args.skip_if_hardware_differs:
        print(
            "note: hardware_threads differs from baseline — metrics under "
            f"{args.skip_if_hardware_differs} are informational only"
        )

    results_b = baseline.get("results", {})
    results_c = current.get("results", {})
    regressions = []
    compared = 0
    hw_skipped = 0
    for name in sorted(set(results_b) | set(results_c)):
        if args.key_prefix and not name.startswith(args.key_prefix):
            continue
        if name not in results_b:
            print(f"  new    {name}: {results_c[name]:.2f} (no baseline)")
            continue
        if name not in results_c:
            print(f"  gone   {name}: baseline {results_b[name]:.2f} has no "
                  "current value")
            continue
        old, new = float(results_b[name]), float(results_c[name])
        if not hardware_matches and any(
                name.startswith(p) for p in args.skip_if_hardware_differs):
            hw_skipped += 1
            print(f"  info   {name}: {old:.2f} -> {new:.2f} "
                  "(hardware differs, not gated)")
            continue
        if "_over_" in name.rsplit("/", 1)[-1]:
            print(f"  ratio  {name}: {old:.2f} -> {new:.2f} "
                  "(within-run ratio, gated by its ceiling only)")
            continue
        compared += 1
        if old <= 0:
            print(f"  skip   {name}: non-positive baseline {old}")
            continue
        metric_lower = metric_lower_is_better(name, lower)
        delta = (new - old) / old if metric_lower else (old - new) / old
        marker = "REGRESS" if delta > args.threshold else "ok"
        print(f"  {marker:7s}{name}: {old:.2f} -> {new:.2f} "
              f"({'+' if new >= old else ''}{100 * (new - old) / old:.1f}%)")
        if delta > args.threshold:
            regressions.append(name)

    flat_failures = []
    for spec in args.flat_pair:
        try:
            pair, tol = spec.rsplit(":", 1)
            name_a, name_b = pair.split("=", 1)
            tolerance = float(tol)
        except ValueError:
            print(f"error: bad --flat-pair spec {spec!r} (want A=B:TOL)",
                  file=sys.stderr)
            sys.exit(2)
        if name_a not in results_c or name_b not in results_c:
            print(f"error: --flat-pair metric missing from current run: "
                  f"{spec}", file=sys.stderr)
            sys.exit(2)
        a, b = float(results_c[name_a]), float(results_c[name_b])
        if min(a, b) <= 0:
            print(f"error: --flat-pair non-positive value in {spec}",
                  file=sys.stderr)
            sys.exit(2)
        spread = abs(a - b) / min(a, b)
        marker = "FLAT-VIOLATION" if spread > tolerance else "flat-ok"
        print(f"  {marker:15s}{name_a}={a:.2f} vs {name_b}={b:.2f} "
              f"(spread {100 * spread:.1f}%, tolerance {100 * tolerance:.0f}%)")
        if spread > tolerance:
            flat_failures.append(spec)

    floor_failures = []
    for spec in args.min_metric:
        try:
            name, floor_text = spec.rsplit(":", 1)
            floor = float(floor_text)
        except ValueError:
            print(f"error: bad --min-metric spec {spec!r} (want NAME:MIN)",
                  file=sys.stderr)
            sys.exit(2)
        if name not in results_c:
            print(f"error: --min-metric metric missing from current run: "
                  f"{spec}", file=sys.stderr)
            sys.exit(2)
        value = float(results_c[name])
        marker = "FLOOR-VIOLATION" if value < floor else "floor-ok"
        print(f"  {marker:15s}{name}={value:.4f} (floor {floor:.4f})")
        if value < floor:
            floor_failures.append(spec)

    ceiling_failures = []
    for spec in args.max_metric:
        try:
            name, ceiling_text = spec.rsplit(":", 1)
            ceiling = float(ceiling_text)
        except ValueError:
            print(f"error: bad --max-metric spec {spec!r} (want NAME:MAX)",
                  file=sys.stderr)
            sys.exit(2)
        if name not in results_c:
            print(f"error: --max-metric metric missing from current run: "
                  f"{spec}", file=sys.stderr)
            sys.exit(2)
        value = float(results_c[name])
        marker = "CEIL-VIOLATION" if value > ceiling else "ceil-ok"
        print(f"  {marker:15s}{name}={value:.4f} (ceiling {ceiling:.4f})")
        if value > ceiling:
            ceiling_failures.append(spec)

    ratio_failures = []
    for spec in args.max_ratio:
        try:
            names, ceiling_text = spec.rsplit(":", 1)
            name_num, name_den = names.split(",", 1)
            ceiling = float(ceiling_text)
        except ValueError:
            print(f"error: bad --max-ratio spec {spec!r} (want NUM,DEN:MAX)",
                  file=sys.stderr)
            sys.exit(2)
        if name_num not in results_c or name_den not in results_c:
            print(f"error: --max-ratio metric missing from current run: "
                  f"{spec}", file=sys.stderr)
            sys.exit(2)
        num, den = float(results_c[name_num]), float(results_c[name_den])
        if den <= 0:
            print(f"error: --max-ratio non-positive denominator in {spec}",
                  file=sys.stderr)
            sys.exit(2)
        ratio = num / den
        marker = "RATIO-VIOLATION" if ratio > ceiling else "ratio-ok"
        print(f"  {marker:15s}{name_num}/{name_den}={ratio:.2f} "
              f"(ceiling {ceiling:.2f})")
        if ratio > ceiling:
            ratio_failures.append(spec)

    if (compared == 0 and hw_skipped == 0 and not args.flat_pair
            and not args.min_metric and not args.max_metric
            and not args.max_ratio):
        print("error: no overlapping metrics compared", file=sys.stderr)
        sys.exit(2)
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{100 * args.threshold:.0f}%: {', '.join(regressions)}",
            file=sys.stderr,
        )
        sys.exit(1)
    if flat_failures:
        print(
            f"\nFAIL: {len(flat_failures)} flatness invariant(s) violated: "
            f"{', '.join(flat_failures)}",
            file=sys.stderr,
        )
        sys.exit(1)
    if floor_failures:
        print(
            f"\nFAIL: {len(floor_failures)} floor invariant(s) violated: "
            f"{', '.join(floor_failures)}",
            file=sys.stderr,
        )
        sys.exit(1)
    if ceiling_failures:
        print(
            f"\nFAIL: {len(ceiling_failures)} ceiling invariant(s) violated: "
            f"{', '.join(ceiling_failures)}",
            file=sys.stderr,
        )
        sys.exit(1)
    if ratio_failures:
        print(
            f"\nFAIL: {len(ratio_failures)} ratio ceiling(s) violated: "
            f"{', '.join(ratio_failures)}",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"\nOK: {compared} metric(s) within {100 * args.threshold:.0f}% "
          f"of baseline"
          + (f", {hw_skipped} hardware-sensitive metric(s) informational"
             if hw_skipped else "")
          + (f", {len(args.flat_pair)} flatness invariant(s) hold"
             if args.flat_pair else "")
          + (f", {len(args.min_metric)} floor invariant(s) hold"
             if args.min_metric else "")
          + (f", {len(args.max_metric)} ceiling invariant(s) hold"
             if args.max_metric else "")
          + (f", {len(args.max_ratio)} ratio ceiling(s) hold"
             if args.max_ratio else ""))
    sys.exit(0)


if __name__ == "__main__":
    main()
