"""Compare two result files of the benchmark, metric by metric.

    python3 perfbench/compare.py perfbench/out/before.json perfbench/out/after.json

A result file is what ``sweep.py`` writes: every run of every workload with
its seed.  For each workload and end-to-end metric this prints both medians,
the relative delta and each side's spread (interquartile range over the
median), and marks a pair whose medians differ by more than the metric's
bound from ``BENCHMARK.json``: ``WORSE`` or ``better`` by its direction.
The share of failed operations is compared too.  Exits 1 if any pair is
marked ``WORSE`` or a run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """{workload: {metric: (median, spread)}, plus "failed_share" and "correct"}."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        by_workload[run["workload"]].append(run["result"])
    out = {}
    for workload, results in by_workload.items():
        row: dict = {}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if not values:
                continue
            median = statistics.median(values)
            spread = float("nan")
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
            row[metric["name"]] = (median, spread)
        row["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
        row["correct"] = all(r["correct"] for r in results)
        out[workload] = row
    return out


def compare(before: dict, after: dict) -> bool:
    """Print the side-by-side table; True when nothing got worse."""
    metrics = after["benchmark"]["end_to_end"]
    left = summarize(before["runs"], metrics)
    right = summarize(after["runs"], metrics)
    ok = True
    print(f"{'workload':<14} {'metric':<14} {'before':>12} {'after':>12} {'delta':>8} "
          f"{'spread':>13} {'bound':>6}")
    for workload in right:
        if workload not in left:
            print(f"{workload:<14} (not in {before.get('label', 'before')})")
            continue
        for metric in metrics:
            name = metric["name"]
            if name not in left[workload] or name not in right[workload]:
                continue
            (m0, s0), (m1, s1) = left[workload][name], right[workload][name]
            delta = (m1 - m0) / m0 if m0 else float("inf")
            worse = delta > 0 if metric["better"] == "lower" else delta < 0
            mark = ""
            if abs(delta) > metric["bound"]:
                mark = "WORSE" if worse else "better"
                ok &= not worse
            print(f"{workload:<14} {name:<14} {m0:>12.5g} {m1:>12.5g} {delta:>+8.1%} "
                  f"{s0:>6.1%}/{s1:<6.1%} {metric['bound']:>6.0%} {mark}")
        shares = (left[workload]["failed_share"], right[workload]["failed_share"])
        note = "" if shares[0] == shares[1] else "  CHANGED"
        print(f"{workload:<14} {'failed share':<14} {shares[0]} -> {shares[1]}{note}")
        if not right[workload]["correct"]:
            print(f"{workload:<14} incorrect output in {after.get('label', 'after')}")
            ok = False
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        return 0 if compare(json.load(a), json.load(b)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
