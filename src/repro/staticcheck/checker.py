"""File-level driver: discover sources, run every rule, collect findings.

``run_check`` is the library entry point behind ``repro check``: it
expands the given paths to ``.py`` files, builds each file's call-graph
summary, walks it once for its partition plan and flow hits, runs every
rule, applies ``# repro: ignore`` suppressions, and returns one
aggregated :class:`CheckResult` whose :attr:`~CheckResult.exit_code`
implements the CLI contract (0 clean or warnings only, 1 on error
findings).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import CallGraphBuilder
from repro.staticcheck.dataflow import DataflowAnalysis
from repro.staticcheck.inference import PartitionInferencer
from repro.staticcheck.privileges import (
    AgentPrivilege,
    collect_privileges,
    merge_privileges,
)
from repro.staticcheck.report import Finding, Severity, filter_suppressed
from repro.staticcheck.rules import ALL_RULES, Rule, RuleContext


@dataclass
class CheckResult:
    """Aggregated outcome of one ``repro check`` run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Per-agent minimal privileges merged over every checked file
    #: (feeds ``--emit-minimal-pools``).
    privileges: Dict[str, AgentPrivilege] = field(default_factory=dict)

    @property
    def errors(self) -> int:
        """Number of error-severity findings."""
        return sum(
            1 for finding in self.findings
            if finding.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(
            1 for finding in self.findings
            if finding.severity is Severity.WARNING
        )

    @property
    def exit_code(self) -> int:
        """0 when clean or warnings only; 1 when any error finding."""
        return 1 if self.errors else 0

    def by_rule(self) -> Dict[str, int]:
        """Finding counts per rule id (benchmark/report helper)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  Raises :class:`FileNotFoundError` for
    a path that does not exist (the CLI turns that into exit 2).
    """
    files: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            files.add(path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name for name in dirnames
                    if not name.startswith(".") and name != "__pycache__"
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        files.add(os.path.join(root, filename))
        else:
            raise FileNotFoundError(path)
    return sorted(files)


def check_source(
    path: str,
    source: str,
    rules: Optional[Sequence[Rule]] = None,
    strict_pools: bool = False,
) -> Tuple[List[Finding], int]:
    """Check one in-memory source text; returns ``(findings, suppressed)``."""
    findings, suppressed, _ = _check_source(path, source, rules, strict_pools)
    return findings, suppressed


def _check_source(
    path: str,
    source: str,
    rules: Optional[Sequence[Rule]] = None,
    strict_pools: bool = False,
) -> Tuple[List[Finding], int, Dict[str, AgentPrivilege]]:
    """Full single-file pipeline: findings, suppressions, privileges."""
    builder = CallGraphBuilder(path, source)
    summary = builder.build()
    if summary.parse_error is not None:
        return (
            [Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=path,
                line=1,
                col=0,
                message=f"cannot parse file: {summary.parse_error}",
            )],
            0,
            {},
        )
    inferencer = PartitionInferencer(summary)
    # One walk per function yields both its plan and its flow hits.
    dataflow = DataflowAnalysis(summary, inferencer).run()
    privileges = collect_privileges(dataflow.plans)
    context = RuleContext(
        path=path,
        summary=summary,
        reports=dataflow.plans,
        dataflow=dataflow,
        unused_specs=inferencer.unused_specs(),
        privileges=privileges,
        strict_pools=strict_pools,
    )
    raw: List[Finding] = []
    seen: Set[Tuple[str, int, int, str]] = set()
    for rule in (rules if rules is not None else ALL_RULES):
        for finding in rule.check(context):
            # Inline evaluation can surface the same site from both the
            # helper's own plan and its caller's; report each source
            # location once per rule.
            key = (finding.rule, finding.line, finding.col, finding.message)
            if key in seen:
                continue
            seen.add(key)
            raw.append(finding)
    kept, suppressed = filter_suppressed(raw, source.splitlines())
    kept.sort(key=Finding.sort_key)
    return kept, suppressed, privileges


def check_file(
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    strict_pools: bool = False,
) -> CheckResult:
    """Check one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    findings, suppressed, privileges = _check_source(
        path, source, rules, strict_pools
    )
    return CheckResult(
        findings=findings,
        files_checked=1,
        suppressed=suppressed,
        privileges=privileges,
    )


def run_check(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    strict_pools: bool = False,
) -> CheckResult:
    """Check every ``.py`` file under ``paths`` and aggregate."""
    result = CheckResult()
    privilege_maps = []
    for path in iter_python_files(paths):
        single = check_file(path, rules, strict_pools)
        result.findings.extend(single.findings)
        result.files_checked += 1
        result.suppressed += single.suppressed
        privilege_maps.append(single.privileges)
    result.privileges = merge_privileges(privilege_maps)
    result.findings.sort(key=Finding.sort_key)
    return result
