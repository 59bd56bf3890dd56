"""Run the host-cost benchmark of the FreePart simulator.

Usage, from the root of a checkout::

    python3 hostbench/run.py [--workload NAME ...] [--seed N]
                             [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs as passes, one after another, each pass in a fresh
single-threaded child process that builds its episodes from seeds
derived from ``--seed``, drives them, checks their outputs and measures
them (``workloads.py``).  Without ``--seconds`` a workload runs one
pass.  With it, ``S`` seconds is the budget of the whole run: each
workload gets an equal share of the time left, and makes passes, each
on fresh episodes, while the next one is expected to end within its
share.  Host times are at reference speed (``clock.py``).

``--trace`` (or ``--trace 1``) follows each untraced pass with a traced
one on the same episodes, which wraps the program's layers
(``layers.py``), writes ``<out>/<workload>.trace.json`` and
``<out>/<workload>.layers.txt``, and checks that tracing left every
virtual number unchanged.

Every metric is printed as ``<workload> <metric> <value> <unit>``; the
whole result goes to ``<out>/result.json``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or
with ``--trace`` its ``per_layer`` metrics).  Exit status: 0 when every
check passed, 1 when one failed or a pass aborted, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench.layers import LAYER_NAMES  # noqa: E402
from hostbench.workloads import COUNTS, WORKLOAD_NAMES  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "hostbench" / "out"
#: A pass takes seconds; one this slow is stuck and is killed.
CHILD_TIMEOUT_S = 150
HOST_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms",
                "peak_rss_mb")
#: Which clock each metric reads, apart from the layers' ``.calls``
#: (count) and ``.self_ms`` (host).  Host metrics vary run to run;
#: virtual metrics and counts repeat exactly for a seed.
CLOCKS = {
    **dict.fromkeys(HOST_METRICS + ("trace.overhead_ratio", "host.probe_ms"),
                    "host"),
    **dict.fromkeys(("goodput", "virt_p99_ms", "virt_overhead_ratio",
                     "serve.lane_wait_virt_p99_ms",
                     "serve.driver_lag_virt_p99_ms"), "virtual"),
    **dict.fromkeys(COUNTS + (
        "failed_frac", "core.transitions", "core.dispatch_cache.hit_rate",
        "sim.freeze_scan.buffers_per_transition",
        "sim.freeze_scan.frozen_ratio", "sim.live_buffers.max_per_agent",
    ), "count"),
}
#: The virtual end-to-end metrics and the workloads they apply to; on
#: the others they read 0.
VIRTUAL_APPLIES = {
    "failed_frac": WORKLOAD_NAMES,
    "goodput": ("serve_diurnal", "serve_burst_faults", "cluster_failover"),
    "virt_p99_ms": ("serve_diurnal", "serve_burst_faults",
                    "cluster_failover"),
    "virt_overhead_ratio": ("oneshot_suite",),
}


def clock_of(metric: str) -> str:
    """The metric's clock; a metric without one raises ``KeyError``."""
    if metric.endswith(".self_ms"):
        return "host"
    if metric.endswith(".calls"):
        return "count"
    return CLOCKS[metric]


class HarnessError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def load_benchmark(path: Path = BENCHMARK) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, pass_index: int, trace: bool,
              trace_path: Optional[Path]) -> Dict[str, Any]:
    """One pass in a fresh child process; returns its JSON result."""
    request = {
        "workload": workload, "seed": seed, "pass": pass_index,
        "trace": trace,
        "trace_path": str(trace_path) if trace_path else None,
    }
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    env = dict(
        os.environ, PYTHONPATH=path, PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    request["started_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hostbench.workloads",
             json.dumps(request)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(
            f"{workload} pass exceeded {CHILD_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload} pass exited with status {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: Optional[float],
                 trace: bool, out: Path) -> Dict[str, Any]:
    """Run passes of one workload and reduce them to its metrics.

    Without ``seconds`` it makes one pass.  With it, it makes another
    pass (with its traced twin) while that one, if it lasts as long as
    the longest so far, still ends within ``seconds`` of the start; the
    first pass is always made.

    Op times pool over the passes; set-up time and memory are medians
    over them.  Virtual metrics and counts come from pass 0, which every
    run makes, so they repeat exactly for a given seed.
    """
    from repro.serve.metrics import percentile

    trace_path = out / f"{workload}.trace.json" if trace else None
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    checks: List[str] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        index = len(plain)
        pass_started = time.monotonic()
        plain.append(run_child(workload, seed, index, False, None))
        if trace and not plain[-1]["aborted"]:
            traced.append(run_child(workload, seed, index, True, trace_path))
            differ = sorted(
                key for key, value in plain[-1]["virtual"].items()
                if traced[-1]["virtual"][key] != value
            )
            if differ:
                checks.append(f"pass {index}: tracing changed virtual "
                              f"metrics: {', '.join(differ)}")
        now = time.monotonic()
        longest = max(longest, now - pass_started)
        if any(p["aborted"] for p in plain + traced):
            break
        if seconds is None or now + longest - started > seconds:
            break
    passes = plain + traced
    checks += sorted({c for p in passes for c in p["checks"]})
    op_ms = sorted(ms for p in plain for ms in p["host"].pop("op_ms"))
    for p in traced:
        del p["host"]["op_ms"]
    timed_s = sum(p["host"]["timed_s"] for p in plain)

    def median(name: str) -> float:
        return statistics.median(p["host"][name] for p in plain)

    metrics: Dict[str, float] = {
        "setup_s": median("setup_s"),
        "ops_per_s": len(op_ms) / timed_s if timed_s else 0.0,
        "op_p50_ms": percentile(op_ms, 0.50),
        "op_p99_ms": percentile(op_ms, 0.99),
        "peak_rss_mb": median("peak_rss_mb"),
        "host.probe_ms": median("probe_ms"),
    }
    metrics.update((traced or plain)[0]["virtual"])
    if traced:
        metrics["trace.overhead_ratio"] = statistics.median([
            t["host"]["timed_s"] / p["host"]["timed_s"]
            for p, t in zip(plain, traced)
        ])
        tables = [{row["layer"]: row for row in t["layers"]} for t in traced]
        for layer in LAYER_NAMES:
            metrics[f"{layer}.calls"] = tables[0][layer]["calls"]
            metrics[f"{layer}.self_ms"] = statistics.median(
                table[layer]["self_ms"] for table in tables
            )
    aborted = next((p["aborted"] for p in passes if p["aborted"]), None)
    if aborted:
        checks.append(f"aborted: {aborted}")
    return {
        "workload": workload,
        "passes": passes,
        "checks": checks,
        "aborted": aborted,
        "attempted": sum(p["offered"] for p in passes),
        "failed": sum(p["unanswered"] for p in passes),
        "metrics": metrics,
    }


def format_table(result: Dict[str, Any]) -> List[str]:
    """The traced pass's per-layer table, one line per layer."""
    traced = [p for p in result["passes"] if p["traced"]]
    if not traced:
        return []
    lines = [f"{'layer':<24} {'calls':>9} {'total_ms':>11} "
             f"{'self_ms':>11} {'share':>7}"]
    for row in traced[0]["layers"]:
        total = "" if row["total_ms"] is None else f"{row['total_ms']:.1f}"
        lines.append(f"{row['layer']:<24} {row['calls']:>9} {total:>11} "
                     f"{row['self_ms']:>11.1f} {row['share']:>7.1%}")
    return lines


def report_lines(result: Dict[str, Any], units: Dict[str, str],
                 trace: bool) -> List[str]:
    workload = result["workload"]
    metrics = result["metrics"]
    shown = list(HOST_METRICS) + ["host.probe_ms"] + [
        name for name, applies in VIRTUAL_APPLIES.items()
        if workload in applies
    ]
    if trace:
        shown += sorted(
            name for name in metrics
            if name not in HOST_METRICS and name not in VIRTUAL_APPLIES
            and name not in shown
            and not name.endswith((".calls", ".self_ms"))
        )
    lines = [f"{workload} {name} {metrics[name]} {units[name]}"
             for name in shown]
    if trace:
        lines += [f"{workload} | {line}" for line in format_table(result)]
    lines += [f"{workload} check FAILED: {check}"
              for check in result["checks"]]
    return lines


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="hostbench/run.py",
        description="Host-cost benchmark of the FreePart simulator.",
    )
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the whole run, shared by its "
                             "workloads (default: one pass each)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    benchmark = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    workloads = args.workload or list(WORKLOAD_NAMES)
    args.out.mkdir(parents=True, exist_ok=True)
    results = {}
    deadline = None if args.seconds is None else time.monotonic() + args.seconds
    try:
        for index, workload in enumerate(workloads):
            # Each workload gets an equal share of the time left.
            share = None if deadline is None else \
                (deadline - time.monotonic()) / (len(workloads) - index)
            result = run_workload(workload, args.seed, share,
                                  bool(args.trace), args.out)
            results[workload] = result
            for line in report_lines(result, units, bool(args.trace)):
                print(line, flush=True)
            if args.trace:
                table = args.out / f"{workload}.layers.txt"
                table.write_text("\n".join(format_table(result)) + "\n")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": bool(args.trace), "workloads": results},
                  handle, indent=1)
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for metric in benchmark[section]:
            name = metric["name"]
            metrics[prefix + name] = {"value": result["metrics"][name],
                                      "unit": metric["unit"]}
    correct = all(not r["checks"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
