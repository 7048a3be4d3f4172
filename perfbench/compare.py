"""Compare two sets of untraced result files, one verdict per metric and workload.

Runs are paired by seed.  A metric on a workload is:

- improved: the change wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ, in the better direction,
  by more than the parent's interquartile range;
- unresolved: the run-to-run spread (interquartile range over median, the
  wider of the two sides) exceeds the metric's bound, unless every run of
  the change reads better than every run of the parent; also when a side
  has fewer than two runs;
- worse: the change's median is worse than the parent's by more than the bound;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced, full-size results by workload, ordered by seed."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result["trace"] and not result["smoke"]:
            runs[result["workload"]].append(result)
    for results in runs.values():
        results.sort(key=lambda r: (r["seed"], r["run_id"]))
    return runs


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    if min(len(parent), len(change)) < 2:
        return "unresolved"
    worse_by = (lambda a, b: b - a) if better == "lower" else (lambda a, b: a - b)
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if worse_by(a, b) < 0)
    if wins >= 0.9 * len(pairs) and -worse_by(med_a, med_b) > q3 - q1:
        return "improved"
    all_better = all(worse_by(a, b) < 0 for a in parent for b in change)
    if max(_spread(parent), _spread(change)) > bound and not all_better:
        return "unresolved"
    if worse_by(med_a, med_b) > bound * abs(med_a):
        return "worse"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path, definition: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, []), change.get(workload, [])
        for metric in definition["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in a_runs]
            b = [r["end_to_end"][name] for r in b_runs]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent_median": statistics.median(a) if a else None,
                "change_median": statistics.median(b) if b else None,
                "runs": [len(a), len(b)],
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["bound"], metric["better"]),
            })
    for r in rows:
        a, b = r["parent_median"], r["change_median"]
        medians = (f"{a:.6g} -> {b:.6g} {r['unit']}" if a is not None and b is not None
                   else "missing")
        print(f"{r['workload']:14s} {r['metric']:12s} {medians:36s} "
              f"runs {r['runs'][0]}/{r['runs'][1]}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("improved", "unchanged", "worse", "unresolved")}
    print(json.dumps({"verdicts": counts, "rows": rows}))
    return 0
