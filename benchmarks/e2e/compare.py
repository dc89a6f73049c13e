"""``compare PARENT_DIR CHANGE_DIR``: the gain and no-regression rules.

Each directory holds the ``--out`` records of untraced runs of one commit.
Runs pair up by seed (or, without common seeds, in the order they
finished).  Per workload and end-to-end metric:

* **gain** -- at least ``MIN_PAIRS`` pairs, the change better in at least
  nine tenths of them (ties count for neither side), and the medians
  further apart than the parent's interquartile range;
* **regression** -- the change's median worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* **unresolved** -- the parent's own spread exceeds the bound, so a
  difference within it cannot be told from noise, unless every change
  run beats every parent run;
* **within bound** -- anything else.

Each workload is reported in its own rows, with medians and quartiles.
Returns 1 when any row is a regression or a run failed its checks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from benchmarks.e2e.report import END_TO_END, quantile

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _records(directory: Path) -> List[Dict[str, object]]:
    records = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            records.append(record)
    return records


def _bounds(root: Path) -> Dict[str, float]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {metric["name"]: float(metric["bound"]) for metric in spec.get("end_to_end", [])}


def _pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    by_seed = {record["seed"]: record for record in change}
    paired = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    if paired:
        return paired
    order = lambda record: record["finished"]  # noqa: E731
    return list(zip(sorted(parent, key=order), sorted(change, key=order)))


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int]:
    """The rule's verdict for one metric and the number of change wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    median_p, median_c = statistics.median(parent), statistics.median(change)
    iqr_p = quantile(parent, 0.75) - quantile(parent, 0.25)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(median_c - median_p) > iqr_p
    ):
        return "gain", wins
    worse_by = sign * (median_p - median_c) / abs(median_p) if median_p else 0.0
    if worse_by > bound:
        return "regression", wins
    if median_p and iqr_p / abs(median_p) > bound:
        all_better = (min(change) > max(parent)) if better == "higher" else (max(change) < min(parent))
        if not all_better:
            return "unresolved", wins
    return "within bound", wins


def compare(parent_dir: Path, change_dir: Path) -> int:
    from benchmarks.e2e.run import ROOT

    bounds = _bounds(ROOT)
    parent, change = _records(parent_dir), _records(change_dir)
    status = 0
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print(f"{'workload':<10} {'metric':<19} {'parent p50 [q1, q3]':>30} {'change p50 [q1, q3]':>30} "
          f"{'wins':>7}  verdict")
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        failed = [r["seed"] for r in p_runs + c_runs if not r["result"]["correct"]]
        if failed:
            print(f"{workload:<10} runs failed their checks (seeds {failed})")
            status = 1
        pairs = _pairs(p_runs, c_runs)
        for name, (unit, better) in END_TO_END.items():
            p_values = [r["end_to_end"][name] for r in p_runs]
            c_values = [r["end_to_end"][name] for r in c_runs]
            paired = [(p["end_to_end"][name], c["end_to_end"][name]) for p, c in pairs]
            result, wins = verdict(p_values, c_values, paired, better, bounds.get(name, 0.0))
            if result == "regression":
                status = 1

            def cell(values: List[float]) -> str:
                return (f"{statistics.median(values):.4g} [{quantile(values, 0.25):.4g}, "
                        f"{quantile(values, 0.75):.4g}] {unit}")

            print(f"{workload:<10} {name:<19} {cell(p_values):>30} {cell(c_values):>30} "
                  f"{wins:>3}/{len(paired):<3}  {result}")
    return status


__all__ = ["compare", "verdict"]
