#!/usr/bin/env python3
"""Perf gate for the fleet's epoch-published query view.

Reads a fresh ``ablation_query_threads --json`` report, whose matrix runs
on ``CotsFleet`` (the serving path), and checks, within that single report
(so the gate is machine-independent by construction):

1. Schema: every timing row with query threads carries ``qps``, ``p50_us``
   and ``p99_us`` — the percentile columns DESIGN.md's report contract
   promises for the query matrix.
2. Speedup: for every (ingest threads, query threads) cell measured in both
   modes, the view row's point-query rate divided by the snapshot row's is
   the benefit of serving from the published view instead of the live
   shards (where IsElementInTopK folds every shard, each under its flag,
   per query). The gate passes when the GEOMETRIC MEAN of those per-cell
   ratios clears ``--min-ratio``. A geometric mean because CI runners with
   fewer cores than threads timeshare the ingest and query threads, which
   makes individual cells noisy in both directions; losing the view fast
   path (e.g. the lease never acquiring) collapses every cell at once,
   which the mean catches.

Exits 1 on a failed gate, 2 when nothing could be compared (schema drift —
a misconfigured pipeline must not pass vacuously).
"""

import argparse
import json
import math
import sys


def load_cells(path):
    """(threads, query_threads) -> {mode -> row} for query-matrix rows."""
    with open(path) as f:
        doc = json.load(f)
    cells = {}
    for row in doc.get("timings", []):
        mode = row.get("mode")
        if mode not in ("view", "snapshot"):
            continue
        key = (row.get("threads"), row.get("query_threads"))
        cells.setdefault(key, {})[mode] = row
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True,
                        help="ablation_query_threads --json report")
    parser.add_argument("--min-ratio", type=float, default=5.0,
                        help="minimum geomean view/snapshot qps ratio "
                             "(default 5; the committed baseline, a fleet "
                             "run on 4 hardware threads, reads 996)")
    args = parser.parse_args()

    cells = load_cells(args.current)

    schema_failures = []
    ratios = []
    for (threads, qthreads), modes in sorted(cells.items()):
        for mode, row in modes.items():
            if qthreads and qthreads > 0:
                for field in ("qps", "p50_us", "p99_us"):
                    if not row.get(field, 0) > 0:
                        schema_failures.append(
                            f"{row.get('label', '?')}: missing/zero {field}")
        if not qthreads or qthreads <= 0:
            continue
        if "view" not in modes or "snapshot" not in modes:
            print(f"  skipped  i={threads} q={qthreads}: "
                  f"only {sorted(modes)} measured")
            continue
        view_qps = modes["view"].get("qps", 0)
        snap_qps = modes["snapshot"].get("qps", 0)
        if view_qps <= 0 or snap_qps <= 0:
            continue
        ratio = view_qps / snap_qps
        ratios.append(ratio)
        print(f"     cell  i={threads:g} q={qthreads:g}: view "
              f"{view_qps / 1e6:.2f}M qps vs snapshot "
              f"{snap_qps / 1e6:.2f}M qps = {ratio:.1f}x  "
              f"(p99 {modes['view'].get('p99_us', 0):.3f}us vs "
              f"{modes['snapshot'].get('p99_us', 0):.3f}us)")

    if schema_failures:
        for failure in schema_failures:
            print(f"query_smoke: schema: {failure}", file=sys.stderr)
        return 2
    if not ratios:
        print("query_smoke: no view/snapshot cell pairs — check mode tags",
              file=sys.stderr)
        return 2

    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    if geomean < args.min_ratio:
        print(f"query_smoke: view/snapshot qps geomean {geomean:.2f}x over "
              f"{len(ratios)} cell(s) is below the {args.min_ratio:g}x floor",
              file=sys.stderr)
        return 1
    print(f"query_smoke: view/snapshot qps geomean {geomean:.2f}x over "
          f"{len(ratios)} cell(s) (floor {args.min_ratio:g}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
