#!/usr/bin/env python3
"""Perf-regression gate for the flat summary layout.

Compares a fresh ``throughput_headline --json`` report against the committed
baseline (``BENCH_throughput.json``). Absolute element rates are useless
across machines — CI runners differ wildly from the box that produced the
baseline — so the default mode is machine-normalized: for every timing row
that exists in both layouts (rows are paired by label after stripping the
"flat " infix), the gate compares the current run's flat/linked rate RATIO
against the baseline's ratio. A CPU twice as fast moves both layouts
together and leaves the ratio alone; a flat-layout regression moves only
the numerator.

Fails (exit 1) when any pair's current ratio drops more than ``--tolerance``
(default 10%) below the baseline ratio. Exits 2 when nothing could be
compared at all (schema drift, missing layout tags) so a misconfigured
pipeline cannot pass vacuously.

By default the gate is the GEOMETRIC MEAN of the ``sequential`` rows'
flat/linked ratios across alphas: sequential rows run the summary layouts
directly (their ratio isolates the flat victim-scan cost), and the mean
smooths the per-row noise of millisecond-scale CI measurements — losing
SIMD or a scan regression moves every alpha together, which the mean
catches, while one noisy row does not trip it. Per-row ratios are printed
for diagnosis, and ``--all-pairs`` switches to strict per-row gating. Only
the sequential rows come in both layouts: the CoTS engine has a single
node layout, so its rows carry no layout tag and are never paired (the
"cots flat" pairs an older baseline may hold are ignored).

``--absolute`` switches to raw rate comparison (current flat vs baseline
flat) for same-machine use, e.g. re-running on the box that made the
baseline.
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
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw flat rates instead of the "
                             "flat/linked ratio (same-machine runs only)")
    parser.add_argument("--all-pairs", action="store_true",
                        help="gate every paired row individually instead "
                             "of the sequential-rows geometric mean")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    compared = 0
    failures = []
    if args.absolute:
        for label, rates in sorted(current.items()):
            base_rates = baseline.get(label)
            if "flat" not in rates or not base_rates or "flat" not in base_rates:
                continue
            compared += 1
            cur, base = rates["flat"], base_rates["flat"]
            status = "ok"
            if cur < base * (1.0 - args.tolerance):
                status = "REGRESSED"
                failures.append(label)
            print(f"{status:>9}  {label}: flat {cur / 1e6:.2f}M/s "
                  f"vs baseline {base / 1e6:.2f}M/s")
    else:
        base_ratios = ratio_pairs(baseline)
        cur_ratios = ratio_pairs(current)
        seq_cur, seq_base = [], []
        for label, cur in sorted(cur_ratios.items()):
            base = base_ratios.get(label)
            if base is None:
                print(f"  skipped  {label}: no flat/linked pair in baseline")
                continue
            regressed = cur < base * (1.0 - args.tolerance)
            if args.all_pairs:
                compared += 1
                status = "REGRESSED" if regressed else "ok"
                if regressed:
                    failures.append(label)
            else:
                status = "info"
                if label.startswith("sequential"):
                    seq_cur.append(cur)
                    seq_base.append(base)
            print(f"{status:>9}  {label}: flat/linked {cur:.3f} "
                  f"vs baseline {base:.3f}")
        if not args.all_pairs and seq_cur:
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
