"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a directory of run records (``.perfbench/runs/<digest>/``
as written by ``run.py``) or a list of record files separated by commas.
Only untraced runs are read. For each workload, one row gives every
end-to-end metric's median and quartiles on both sides and a verdict:

* ``gain``: the change wins at least 9 of 10 runs paired by seed (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: either side's spread (interquartile range over median)
  exceeds the metric's bound in BENCHMARK.json, and not every change run
  beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``same``: none of the above.

Failed calls are reported per side; a gain does not count when more calls
fail than at the parent.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(spec: str) -> list[dict]:
    paths = (sorted(glob.glob(os.path.join(spec, "*.json"))) if os.path.isdir(spec)
             else spec.split(","))
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record["trace"]:
            runs.append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return ""
    return f" p{100 * (n - 10) // n}={sorted(values)[n - 11]:.4g}"


def verdict(parent: dict, change: dict, bound: float,
            lower_better: bool, more_failures: bool) -> str:
    a, b = list(parent.values()), list(change.values())
    sign = 1.0 if lower_better else -1.0
    qa, qb = quartiles(a), quartiles(b)

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0
    seeds = sorted(set(parent) & set(change))
    pairs = [(change[s], parent[s]) for s in seeds]
    wins = sum(better(x, y) for x, y in pairs)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    all_better = all(better(x, y) for x in b for y in a)
    if spread > bound and not all_better:
        return "unresolved"
    if (pairs and wins >= 0.9 * len(pairs) and better(qb[1], qa[1])
            and abs(qb[1] - qa[1]) > qa[2] - qa[0] and not more_failures):
        return f"gain ({wins}/{len(pairs)} pairs)"
    if sign * (qb[1] - qa[1]) > bound * qa[1]:
        return "regression"
    return "same"


def by_seed(runs: list[dict], metric: str) -> dict[tuple[int, int], float]:
    """Metric values keyed by (seed, repeat number of that seed), for pairing."""
    values, seen = {}, {}
    for r in runs:
        k = seen[r["seed"]] = seen.get(r["seed"], -1) + 1
        values[(r["seed"], k)] = r["result"]["metrics"][metric]["value"]
    return values


def _cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g},{q3:.4g}] n={len(values)}{high_percentile(values)}"


def report(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[str]:
    metrics = spec["end_to_end"]
    lines = ["workload | failed calls parent/change | " + " | ".join(
        f"{m['name']} ({m['unit']}): parent -> change, verdict" for m in metrics)]
    for workload in [w["name"] for w in spec["workloads"]]:
        p = [r for r in parent_runs if r["workload"] == workload]
        c = [r for r in change_runs if r["workload"] == workload]
        if not p or not c:
            lines.append(f"{workload} | no runs on {'both sides' if not p and not c else 'one side'}")
            continue
        fails = [sum(r["result"]["failed"] for r in rs) / sum(r["result"]["attempted"]
                 for r in rs) for rs in (p, c)]
        cells = [workload, f"{fails[0]:.3g}/{fails[1]:.3g}"]
        for m in metrics:
            name = m["name"]
            pv, cv = by_seed(p, name), by_seed(c, name)
            v = verdict(pv, cv, m["bound"], m["better"] == "lower", fails[1] > fails[0])
            cells.append(f"{_cell(list(pv.values()))} -> {_cell(list(cv.values()))}, {v}")
        lines.append(" | ".join(cells))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print("\n".join(report(load_runs(argv[0]), load_runs(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
