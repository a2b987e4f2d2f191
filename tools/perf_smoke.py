#!/usr/bin/env python3
"""Perf-regression gate for the flat summary layout.

Compares a fresh ``throughput_headline --json`` report against the committed
baseline (``BENCH_throughput.json``). Absolute element rates are useless
across machines — CI runners differ wildly from the box that produced the
baseline — so the gate is machine-normalized: for every timing row
that exists in both layouts (rows are paired by label after stripping the
"flat " infix), the gate compares the current run's flat/linked rate RATIO
against the baseline's ratio. A CPU twice as fast moves both layouts
together and leaves the ratio alone; a flat-layout regression moves only
the numerator.

The gate is the GEOMETRIC MEAN of the ``sequential`` rows' flat/linked
ratios across alphas: sequential rows run the summary layouts
directly (their ratio isolates the flat victim-scan cost), and the mean
smooths the per-row noise of millisecond-scale CI measurements — losing
SIMD or a scan regression moves every alpha together, which the mean
catches, while one noisy row does not trip it. Per-row ratios are printed
for diagnosis. Only the sequential rows come in both layouts: the CoTS
engine has a single node layout, so its rows carry no layout tag and are
never paired.

Fails (exit 1) when the current geometric mean drops more than
``--tolerance`` (default 10%) below the baseline's. Exits 2 when nothing
could be compared at all (schema drift, missing layout tags) so a
misconfigured pipeline cannot pass vacuously.
"""

import argparse
import json
import math
import sys


def load_rows(path):
    """label -> {layout -> rate_eps} for layout-tagged rows with a rate."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("timings", []):
        layout = row.get("layout")
        rate = row.get("rate_eps")
        if layout is None or rate is None or rate <= 0:
            continue
        # Pair "sequential flat a=1.5" with its linked twin "sequential a=1.5".
        key = row["label"].replace("flat ", "", 1)
        rows.setdefault(key, {})[layout] = rate
    return rows


def ratio_pairs(rows):
    """label -> flat/linked ratio, for labels measured in both layouts."""
    return {
        label: rates["flat"] / rates["linked"]
        for label, rates in rows.items()
        if "flat" in rates and "linked" in rates
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_throughput.json",
                        help="committed reference report")
    parser.add_argument("--current", required=True,
                        help="report from the run under test")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional drop (default 0.10)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    compared = 0
    failures = []
    base_ratios = ratio_pairs(baseline)
    cur_ratios = ratio_pairs(current)
    seq_cur, seq_base = [], []
    for label, cur in sorted(cur_ratios.items()):
        base = base_ratios.get(label)
        if base is None:
            print(f"  skipped  {label}: no flat/linked pair in baseline")
            continue
        if label.startswith("sequential"):
            seq_cur.append(cur)
            seq_base.append(base)
        print(f"     info  {label}: flat/linked {cur:.3f} "
              f"vs baseline {base:.3f}")
    if seq_cur:
        geomean = lambda xs: math.exp(sum(map(math.log, xs)) / len(xs))
        cur_gm, base_gm = geomean(seq_cur), geomean(seq_base)
        compared += 1
        regressed = cur_gm < base_gm * (1.0 - args.tolerance)
        status = "REGRESSED" if regressed else "ok"
        if regressed:
            failures.append("sequential geomean")
        print(f"{status:>9}  sequential geomean ({len(seq_cur)} rows): "
              f"flat/linked {cur_gm:.3f} vs baseline {base_gm:.3f}")

    if compared == 0:
        print("perf_smoke: no comparable rows — check layout tags and "
              "labels in both reports", file=sys.stderr)
        return 2
    if failures:
        print(f"perf_smoke: {len(failures)}/{compared} pair(s) regressed "
              f"beyond {args.tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"perf_smoke: {compared} pair(s) within {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
