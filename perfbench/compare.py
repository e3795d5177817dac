"""Compare two sets of benchmark runs written with ``run.py --out``.

For every workload and metric, prints both medians, the ratio change/base,
each side's spread (distance between the first and third quartile over the
median) and a label:

- ``beyond-bound``: the change is worse than the base by more than the bound;
- ``within-bound``: it is not;
- ``unresolved``: either side's spread is wider than the bound (or a side has
  fewer than two runs), so the runs cannot tell.

Per-layer metrics have no bound and get only the ratio. Runs whose facts
(machine, thread pinning, library versions, kernel backend) differ between
the two files are flagged first.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

FACT_KEYS = ("nproc", "cpus_usable", "blas_threads", "omp_threads", "blas", "numpy",
             "python", "kernels_compiled")


def _load(path) -> dict:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def label(base, change, better: str, bound) -> str:
    if bound is None:
        return "-"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / mb if better == "lower" else (mb - mc) / mb
    return "beyond-bound" if worse > bound else "within-bound"


def main(base_path, change_path, spec: dict):
    base, change = _load(base_path), _load(change_path)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(change[key])} change runs")
        for fact in FACT_KEYS:
            seen = {json.dumps(r["facts"].get(fact)) for r in base[key] + change[key]}
            if len(seen) > 1:
                print(f"   FACTS DIFFER: {fact} takes {sorted(seen)}")
        print(f"   {'metric':<44} {'base':>12} {'change':>12} {'ratio':>8} "
              f"{'spread b':>9} {'spread c':>9}  label")
        for m in metrics[trace]:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in base[key]]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in change[key]]
            mb, mc = statistics.median(b), statistics.median(c)
            ratio = mc / mb if mb else float("nan")
            print(f"   {m['name']:<44} {mb:>12.6g} {mc:>12.6g} {ratio:>8.4f} "
                  f"{spread(b):>9.4f} {spread(c):>9.4f}  {label(b, c, m['better'], m.get('bound'))}")
    for key in sorted(set(base) ^ set(change)):
        print(f"== {key[0]} (trace {key[1]}): runs in only one file, not compared")
