"""Compare two sets of benchmark runs.

Usage::

    python3 hostbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories holding one ``result.json`` per run
(searched recursively), for example five runs of the parent commit and
five of the change made with ``run.py --out BASE/<n>``.  Runs pair up
by seed, then by path.  Each workload x end-to-end metric gets one row:
both sides' medians and quartiles, the share of pairs the change wins
(ties count for neither side), and a verdict against the metric's bound
in ``BENCHMARK.json``:

``better``
    the change wins at least nine tenths of the pairs and the medians
    differ, in its favour, by more than the base's quartile distance;
``unresolved``
    either side's spread (quartile distance over median) exceeds the
    bound, and not every run of one side beats every run of the other;
``worse``
    the change's median is worse than the base's by more than the bound;
``same``
    otherwise.

The virtual end-to-end metrics (``failed_frac``, ``goodput``,
``virt_p99_ms``, ``virt_overhead_ratio``) repeat exactly for a seed, so
each gets a row on the workloads it applies to, checked run against run
for every seed both sides ran: ``changed`` if any value differs,
``same`` if none does, ``unpaired`` if the sides share no seed.  A
change meant only to speed up the simulator must leave them ``same``.

Exit status: 0 when no row is ``worse``, ``unresolved`` or ``changed``,
1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench.run import VIRTUAL_APPLIES, load_benchmark  # noqa: E402

#: A win share at or above this is a claimed gain (with the medians
#: also clear of the base's own spread).
WIN_SHARE = 0.9
FAILING = ("worse", "unresolved", "changed")

#: One run: its seed, and its metrics by workload.
Run = Tuple[int, Dict[str, Dict[str, float]]]


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: Tuple[float, float, float]  # q1, median, q3
    new: Tuple[float, float, float]
    win_share: Optional[float]  # None on the exactly checked metrics
    verdict: str


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(q: Tuple[float, float, float]) -> float:
    if q[1] == 0:
        return 0.0 if q[2] == q[0] else float("inf")
    return abs((q[2] - q[0]) / q[1])


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """-> (verdict, win share) for one metric; ``better`` is its direction."""
    sign = 1.0 if better == "higher" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    share = wins / len(pairs) if pairs else 0.0
    qb, qn = quartiles(base), quartiles(new)
    gain = sign * (qn[1] - qb[1])
    if share >= WIN_SHARE and gain > qb[2] - qb[0]:
        return "better", share
    separated = (all(beats(n, b) for n in new for b in base)
                 or all(beats(b, n) for n in new for b in base))
    if max(_spread(qb), _spread(qn)) > bound and not separated:
        return "unresolved", share
    if qb[1] and -gain / abs(qb[1]) > bound:
        return "worse", share
    return "same", share


def exact_verdict(base: Sequence[Tuple[int, float]],
                  new: Sequence[Tuple[int, float]]) -> str:
    """-> verdict for a metric that repeats exactly for a seed, from both
    sides' (seed, value) readings."""
    shared = {seed for seed, _ in base} & {seed for seed, _ in new}
    if not shared:
        return "unpaired"
    values: Dict[int, set] = {}
    for seed, value in [*base, *new]:
        if seed in shared:
            values.setdefault(seed, set()).add(value)
    return "changed" if any(len(v) > 1 for v in values.values()) else "same"


def load_runs(directory: Path) -> List[Run]:
    """Every run's seed and metrics under a directory, ordered by (seed,
    path)."""
    runs = []
    for path in sorted(directory.rglob("result.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        runs.append((result["seed"], str(path), {
            workload: data["metrics"]
            for workload, data in result["workloads"].items()
        }))
    runs.sort(key=lambda run: run[:2])
    return [(seed, metrics) for seed, _, metrics in runs]


def compare(base_runs: List[Run], new_runs: List[Run],
            benchmark: Dict) -> List[Row]:
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        base = [(seed, run[workload]) for seed, run in base_runs
                if workload in run]
        new = [(seed, run[workload]) for seed, run in new_runs
               if workload in run]
        if not base or not new:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b = [run[name] for _, run in base]
            n = [run[name] for _, run in new]
            label, share = verdict(b, n, metric["better"], metric["bound"])
            rows.append(Row(workload, name, quartiles(b), quartiles(n),
                            share, label))
        for name, applies in VIRTUAL_APPLIES.items():
            if workload not in applies:
                continue
            b = [(seed, run[name]) for seed, run in base]
            n = [(seed, run[name]) for seed, run in new]
            rows.append(Row(
                workload, name, quartiles([v for _, v in b]),
                quartiles([v for _, v in n]), None, exact_verdict(b, n),
            ))
    return rows


def format_rows(rows: List[Row]) -> List[str]:
    def q(t: Tuple[float, float, float]) -> str:
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [f"{'workload':<20} {'metric':<19} {'base median [q1, q3]':>34} "
             f"{'new median [q1, q3]':>34} {'wins':>5}  verdict"]
    for row in rows:
        wins = "-" if row.win_share is None else f"{row.win_share:.0%}"
        lines.append(f"{row.workload:<20} {row.metric:<19} {q(row.base):>34} "
                     f"{q(row.new):>34} {wins:>5}  {row.verdict}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hostbench/compare.py",
        description="Compare two sets of host-cost benchmark runs.",
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    if not base_runs or not new_runs:
        parser.error("each side needs at least one result.json")
    rows = compare(base_runs, new_runs, load_benchmark())
    for line in format_rows(rows):
        print(line)
    bad = [row for row in rows if row.verdict in FAILING]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
