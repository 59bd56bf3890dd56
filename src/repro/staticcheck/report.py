"""Finding model, suppression comments, and text/JSON reporters.

Severities are deliberately two-level: ``error`` findings are policy
violations the runtime would punish (kill, SIGSEGV, denied syscall) and
make ``repro check`` exit nonzero; ``warning`` findings flag code that
works but defeats the point of partitioning (redundant copies, dead
specs).  A finding is silenced by a ``# repro: ignore`` comment on its
own source line — bare to silence every rule, or ``ignore[rule-a,
rule-b]`` to silence specific rules.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple


class Severity(enum.Enum):
    """How bad a finding is (drives exit codes and reporter labels)."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    function: Optional[str] = None

    @property
    def location(self) -> str:
        """``path:line:col`` for reporters and stable sorting."""
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str, str, str]:
        """Deterministic reporting order — a *total* order.

        File, line, rule id first (what a reader scans by), then message
        and function so two findings of the same rule on the same line
        still order identically run to run.
        """
        return (
            self.path, self.line, self.col, self.rule,
            self.message, self.function or "",
        )


#: ``# repro: ignore`` or ``# repro: ignore[rule-a, rule-b]``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[a-z0-9_\-,\s]*)\])?"
)


def suppressions_on(source_line: str) -> Optional[FrozenSet[str]]:
    """The rules a source line suppresses.

    ``None`` means the line suppresses nothing; an *empty* frozenset
    means a bare ``# repro: ignore`` that silences every rule; otherwise
    the union of the rules named across every ``ignore[...]`` group on
    the line.  ``ignore[]`` with empty brackets names no rules and so
    suppresses nothing — it is not a bare ignore.
    """
    matches = list(_SUPPRESS_RE.finditer(source_line))
    if not matches:
        return None
    named: set = set()
    for match in matches:
        rules = match.group("rules")
        if rules is None:
            return frozenset()
        named.update(
            part.strip() for part in rules.split(",") if part.strip()
        )
    if not named:
        return None
    return frozenset(named)


def filter_suppressed(
    findings: Sequence[Finding], source_lines: Sequence[str]
) -> Tuple[List[Finding], int]:
    """Drop findings whose source line carries a matching suppression.

    Returns ``(kept, suppressed_count)``.
    """
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        line_text = (
            source_lines[finding.line - 1]
            if 0 < finding.line <= len(source_lines) else ""
        )
        rules = suppressions_on(line_text)
        if rules is not None and (not rules or finding.rule in rules):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def render_text(result) -> str:
    """Human-readable report of a :class:`~repro.staticcheck.checker.CheckResult`."""
    lines: List[str] = []
    for finding in sorted(result.findings, key=Finding.sort_key):
        scope = f" (in {finding.function})" if finding.function else ""
        lines.append(
            f"{finding.location}: {finding.severity.value}: "
            f"{finding.message}{scope} [{finding.rule}]"
        )
    noun = "file" if result.files_checked == 1 else "files"
    summary = (
        f"{result.errors} error(s), {result.warnings} warning(s) "
        f"in {result.files_checked} {noun}"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result) -> str:
    """Machine-readable report (stable schema, version field first)."""
    payload = {
        "version": 1,
        "files_checked": result.files_checked,
        "errors": result.errors,
        "warnings": result.warnings,
        "suppressed": result.suppressed,
        "findings": [
            {
                "rule": finding.rule,
                "severity": finding.severity.value,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "function": finding.function,
            }
            for finding in sorted(result.findings, key=Finding.sort_key)
        ],
    }
    return json.dumps(payload, indent=2)
