"""Static partition linter and policy verifier for host programs.

``repro.staticcheck`` is the first component of the reproduction that
reads *arbitrary user pipelines* rather than registered API specs: it
parses real host-program source with the stdlib ``ast`` module, builds a
PyCG-style call graph of framework API call sites (Section 4.2 of the
paper does this with PyCG for Python frameworks), infers the partition
plan those sites imply via the hybrid categorizer, replays the predicted
framework state machine, and verifies the partition policy *ahead of
enforcement* — so frozen-state writes, out-of-order phases, out-of-pool
syscalls, wrong-partition dereferences, dead API calls, and cross-tenant
reference leaks surface at lint time instead of as runtime kills.

Entry points:

* :func:`~repro.staticcheck.checker.run_check` — the library API;
* ``repro check <paths>`` — the CLI (text/JSON reporters, severity
  levels, ``# repro: ignore[rule]`` suppressions, nonzero exit on
  error-level findings).
"""

from repro.staticcheck.callgraph import CallGraphBuilder, ModuleSummary
from repro.staticcheck.checker import CheckResult, check_file, run_check
from repro.staticcheck.inference import FunctionReport, PartitionInferencer
from repro.staticcheck.report import (
    Finding,
    Severity,
    render_json,
    render_text,
)
from repro.staticcheck.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "CallGraphBuilder",
    "CheckResult",
    "Finding",
    "FunctionReport",
    "ModuleSummary",
    "PartitionInferencer",
    "Rule",
    "Severity",
    "check_file",
    "render_json",
    "render_text",
    "run_check",
]
