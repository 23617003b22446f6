"""Diff two sets of result files, row by row (metric x workload).

    python3 benchmarks/e2e/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Each side's value is the median over its files' untraced runs.  A row is
``better`` / ``within-bound`` / ``worse`` by the bound ``BENCHMARK.json``
fixes for the metric, or ``unresolved`` when either side's own spread
(interquartile distance over its median) is wider than that bound — unless
every new run beats every base run, which is ``better``.  Every ratio is
printed with its base.  Exit code 1 on any ``worse`` row or on a higher
share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.stats import spread  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(paths: Sequence[str]) -> Tuple[Dict[Key, List[float]], Dict[str, List[float]]]:
    """``(workload, metric) -> values`` and ``workload -> failed shares``."""
    values: Dict[Key, List[float]] = {}
    failed: Dict[str, List[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            failed.setdefault(run["workload"], []).append(run["failed"] / run["attempted"])
            for metric, entry in run["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values, failed


def classify(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The row's verdict and the new median as a ratio of the base median."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median if base_median else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread(base), spread(new)) > bound:
        # too noisy for the bound to mean anything, unless every new run
        # beats every base run
        if better == "lower":
            wins = max(new) < min(base)
        else:
            wins = min(new) > max(base)
        return ("better" if wins else "unresolved"), ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "within-bound", ratio


def compare(contract: dict, base_paths: Sequence[str], new_paths: Sequence[str]) -> int:
    base, base_failed = load(base_paths)
    new, new_failed = load(new_paths)
    worse = 0
    print(f"{'workload':<14} {'metric':<22} {'base':>12} {'new':>12} {'new/base':>9}  "
          f"{'bound':>5}  verdict")
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            verdict, ratio = classify(base[key], new[key], metric["better"], metric["bound"])
            worse += verdict == "worse"
            print(
                f"{workload:<14} {metric['name']:<22} "
                f"{statistics.median(base[key]):>12.4f} {statistics.median(new[key]):>12.4f} "
                f"{ratio:>9.4f}  {metric['bound']:>5.2f}  {verdict}"
                f" (n={len(base[key])}/{len(new[key])}, {metric['unit']}, {metric['better']} is better)"
            )
        if workload in base_failed and workload in new_failed:
            before, after = max(base_failed[workload]), max(new_failed[workload])
            verdict = "worse" if after > before else "within-bound"
            worse += verdict == "worse"
            print(f"{workload:<14} {'failed_share':<22} {before:>12.6f} {after:>12.6f} "
                  f"{'':>9}  {0:>5.2f}  {verdict}")
    print(f"\n{worse} worse row(s)")
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    options = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(contract, options.base, options.new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
