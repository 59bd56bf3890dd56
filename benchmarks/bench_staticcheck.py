"""Static linter throughput — files/sec and findings over the corpus.

Runs ``repro.staticcheck`` over the repo's own host programs
(``examples/`` + ``src/repro/apps/``) and the purpose-built violation
fixtures, reporting files scanned per second and the rule-findings
histogram.  Later PRs track linter speed here the way the Fig. 13
benches track runtime overhead.
"""

import os

import pytest

from benchmarks.conftest import emit
from repro.bench.tables import render_table
from repro.staticcheck import run_check
from repro.staticcheck.checker import iter_python_files

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = [
    os.path.join(REPO, "examples"),
    os.path.join(REPO, "src", "repro", "apps"),
    os.path.join(REPO, "tests", "fixtures", "staticcheck"),
]


def mean_seconds(benchmark):
    """The timed mean, or None under ``--benchmark-disable`` (the body
    then runs once, untimed, and ``benchmark.stats`` is None)."""
    stats = benchmark.stats
    return stats.stats.mean if stats is not None else None


def per_second(count, seconds):
    if seconds is None:
        return "untimed"
    return f"{count / seconds:,.0f}" if seconds else "inf"


@pytest.mark.benchmark(group="staticcheck")
def test_bench_staticcheck_throughput(benchmark):
    file_count = len(iter_python_files(CORPUS))

    result = benchmark.pedantic(
        lambda: run_check(CORPUS), rounds=1, iterations=1
    )

    seconds = mean_seconds(benchmark)
    rows = [[rule, count] for rule, count in sorted(result.by_rule().items())]
    rows.append(["files checked", result.files_checked])
    rows.append(["files/sec", per_second(file_count, seconds)])
    rows.append(["errors", result.errors])
    rows.append(["warnings", result.warnings])
    emit(render_table(
        "Static partition linter — corpus scan",
        ["metric", "value"], rows,
    ))

    # The corpus includes every violating fixture: every rule class
    # must surface, and the scan must cover the full file set.
    assert result.files_checked == file_count
    by_rule = result.by_rule()
    for rule in ("frozen-write", "phase-order", "syscall-pool",
                 "wrong-partition-deref", "dead-api", "uncategorizable",
                 "tenant-ref-leak", "cross-partition-leak",
                 "tenant-taint-escape", "frozen-alias-write"):
        assert by_rule.get(rule, 0) >= 1, rule


@pytest.mark.benchmark(group="staticcheck")
def test_bench_dataflow_pass(benchmark):
    """The interprocedural flow pass alone, isolated from parsing and
    the syntactic rules — what the taint walker costs per file."""
    from repro.staticcheck.callgraph import build_module
    from repro.staticcheck.dataflow import DataflowAnalysis
    from repro.staticcheck.inference import PartitionInferencer

    summaries = []
    for path in iter_python_files(CORPUS):
        summary = build_module(path)
        if summary.parse_error is None:
            summaries.append(summary)

    def flow_pass():
        reports = []
        for summary in summaries:
            inferencer = PartitionInferencer(summary)
            reports.append(DataflowAnalysis(summary, inferencer).run())
        return reports

    reports = benchmark.pedantic(flow_pass, rounds=3, iterations=1)

    seconds = mean_seconds(benchmark)
    leaks = sum(len(r.leaks) for r in reports)
    escapes = sum(len(r.escapes) for r in reports)
    alias_writes = sum(len(r.alias_writes) for r in reports)
    emit(render_table(
        "Interprocedural dataflow — flow pass only",
        ["metric", "value"],
        [
            ["modules analyzed", len(reports)],
            ["modules/sec", per_second(len(reports), seconds)],
            ["flow pass ms", "untimed" if seconds is None
             else f"{seconds * 1e3:,.2f}"],
            ["leak hits", leaks],
            ["escape hits", escapes],
            ["alias-write hits", alias_writes],
        ],
    ))

    assert len(reports) == len(summaries)
    assert leaks >= 1 and escapes >= 1 and alias_writes >= 1
