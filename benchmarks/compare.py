"""Compare two benchmark result files written by ``run.py --out``.

    python3 benchmarks/compare.py BASE.json NEW.json

Prints one row per workload and metric found in both files: each side's
median and quartiles over its runs, and the ratio of the medians, new over
base.  Runs with ``--trace 1`` are compared on their per-layer metrics,
runs with ``--trace 0`` on the end-to-end ones; ``failed_frac`` is the
failed repetitions over the attempted ones, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_values(path: Path) -> dict:
    """{(workload, trace, metric): [value per run]}, failed_frac included."""
    records = json.loads(path.read_text())["records"]
    values = {}
    failed = {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        for name, value in rec["metrics"].items():
            values.setdefault(key + (name,), []).append(value)
        tally = failed.setdefault(key, [0, 0])
        tally[0] += rec["failed"]
        tally[1] += rec["attempted"]
    for key, (n_failed, n_attempted) in failed.items():
        values[key + ("failed_frac",)] = [n_failed / n_attempted]
    return values


def summary(values: list):
    """(median, q1, q3), with Python's quantiles (exclusive method)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare_rows(base: dict, new: dict) -> list:
    rows = []
    for key in sorted(set(base) & set(new), key=lambda k: (k[0], k[1], k[2])):
        b, n = summary(base[key]), summary(new[key])
        ratio = n[0] / b[0] if b[0] else None
        rows.append((key[0], key[2], b, n, ratio, len(base[key]), len(new[key])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare_rows(load_values(args.base), load_values(args.new))
    if not rows:
        print("no workload and metric in common", file=sys.stderr)
        return 1
    print(f"{'workload':22s} {'metric':38s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'new/base':>9s}  runs")
    for workload, metric, b, n, ratio, nb, nn in rows:
        ratio_text = f"{ratio:9.4f}" if ratio is not None else f"{'-':>9s}"
        print(f"{workload:22s} {metric:38s} "
              f"{b[0]:12.6g} [{b[1]:10.6g}, {b[2]:10.6g}] "
              f"{n[0]:12.6g} [{n[1]:10.6g}, {n[2]:10.6g}] {ratio_text}  {nb}/{nn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
