"""Dynamic analysis: traced test-case executions (Section 4.2.2).

For every API with a test case (derived from the frameworks' example and
test suites, as the paper does with opencv_extra / torchtest / Caffe and
TensorFlow test suites), the analyzer runs the API in a **scratch kernel**
under a permissive filter with a tracer attached, and records:

* the observed data flows (after the copy-via-file reduction), and
* the distinct syscalls the execution issued (the per-API required-syscall
  profile of Fig. 12).

APIs without a test case are *uncovered* — Table 11 reports the coverage
ratio per framework, and the paper notes uncovered APIs are not used by
any evaluated program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.apitypes import APIType
from repro.core.dataflow import Flow, categorize_flows, reduce_file_copies
from repro.frameworks.base import ExecutionContext, FrameworkAPI, Tracer
from repro.sim.kernel import SimKernel


@dataclass
class DynamicResult:
    """Outcome of tracing one API's test case."""

    qualname: str
    covered: bool
    flows: Tuple[Flow, ...] = ()
    syscalls: Tuple[str, ...] = ()
    category: Optional[APIType] = None
    error: Optional[str] = None


class DynamicAnalyzer:
    """Executes test cases in isolated scratch kernels and traces them."""

    def __init__(self, repetitions: int = 1) -> None:
        self.repetitions = repetitions

    def analyze(self, api: FrameworkAPI) -> DynamicResult:
        spec = api.spec
        if spec.example_args is None:
            return DynamicResult(qualname=spec.qualname, covered=False)
        tracer = Tracer()
        error: Optional[str] = None
        for _ in range(max(1, self.repetitions)):
            kernel = SimKernel()
            process = kernel.spawn(
                f"trace:{spec.qualname}", role="analysis", charge=False
            )
            ctx = ExecutionContext(
                kernel, process, tracer=tracer, charge_costs=False
            )
            try:
                args, kwargs = spec.example_args(ctx)
                ctx.invoke(api, *args, **kwargs)
            except Exception as exc:  # trace what we can, report the failure
                error = f"{type(exc).__name__}: {exc}"
                break
        reduced = tuple(reduce_file_copies(tracer.flows.flows))
        return DynamicResult(
            qualname=spec.qualname,
            covered=True,
            flows=reduced,
            syscalls=tuple(tracer.distinct_syscalls()),
            category=categorize_flows(reduced),
            error=error,
        )


@dataclass
class CoverageReport:
    """Table 11 row: dynamic-analysis coverage of one framework."""

    framework: str
    covered: int
    total: int
    code_coverage: float

    @property
    def api_coverage(self) -> float:
        if self.total == 0:
            return 0.0
        return self.covered / self.total

    def format_row(self) -> str:
        return (
            f"{self.framework:<12} {self.api_coverage * 100:5.1f}% "
            f"({self.covered}/{self.total})  code≈{self.code_coverage * 100:4.0f}%"
        )


def coverage_report(framework) -> CoverageReport:
    """Measure dynamic-analysis coverage of one framework.

    API coverage is exact (tested APIs / all APIs).  The code-coverage
    column approximates line coverage the way Coverage.py / llvm-cov
    would see it: covered APIs contribute their full body, uncovered APIs
    contribute only their (counted) entry stubs.
    """
    total = len(framework)
    covered = len(framework.covered())
    if total == 0:
        return CoverageReport(framework.name, 0, 0, 0.0)
    # Entry stubs are reachable even for untested APIs, so line coverage
    # sits a little above pure API coverage.
    stub_fraction = 0.25
    code_coverage = (covered + stub_fraction * (total - covered)) / total
    return CoverageReport(
        framework=framework.name,
        covered=covered,
        total=total,
        code_coverage=code_coverage,
    )
