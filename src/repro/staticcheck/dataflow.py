"""Interprocedural partition-provenance taint analysis (the flow pass).

This pass walks the module AST (the tree cached on
:class:`~repro.staticcheck.callgraph.ModuleSummary`) with
:class:`~repro.staticcheck.callgraph.FunctionWalker`, attached to a
:class:`DataflowAnalysis`, in passes until the functions' gateway
parameters stop growing.  A function's walk in the last pass records
its partition plan (the
:class:`~repro.staticcheck.inference.FunctionReport` the per-site rules
in :mod:`~repro.staticcheck.rules` read) and tracks what a per-site rule
cannot see: a *value* produced in one partition and consumed in
another, and a frozen tag reached through a local alias.

Every expression gets a :class:`Taint` drawn from a finite join
semilattice:

* ``agents`` — the partition labels whose agents produced the value
  (set union on join);
* ``tenant`` — the value derives from work done on behalf of a tenant
  (a gateway call or materialization inside a tenant-scoped flow);
* ``materialized`` — the value is a host-side copy of agent data
  (``gateway.materialize`` result or something derived from one);
* ``payload`` — the value may carry actual data bytes (as opposed to
  a pure ObjectRef, whose payload stays in its partition).

Three hit families come out of the walk, one per new rule:

* :class:`LeakHit` — a materialized value produced by partition A is
  passed into an API that executes in partition B (``cross-partition-leak``);
* :class:`EscapeHit` — tenant-derived payload data reaches shared
  state or a host buffer (``tenant-taint-escape``; pure ObjectRefs are
  the existing ``tenant-ref-leak`` rule's territory);
* :class:`AliasWriteHit` — a ``host_write`` whose tag argument is a
  *local* string alias resolves to a frozen tag the per-site
  ``frozen-write`` rule cannot see (``frozen-alias-write``).

Propagation is a may-analysis: branches join, loop bodies are walked
twice so back-edge flows reach the loop head, and module-local calls
that receive gateway values or tainted arguments are evaluated inline
(depth-bounded, recursion-guarded) sharing the caller's machine, so a
helper's sites land in the caller's plan.  Call sites resolve through
one :class:`~repro.staticcheck.inference.PartitionInferencer`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.apitypes import FrameworkState
from repro.staticcheck.callgraph import (
    BOTTOM,
    FunctionWalker,
    ModuleSummary,
    Taint,
    WalkStats,
)
from repro.staticcheck.inference import (
    FunctionReport,
    PartitionInferencer,
    _Machine,
)

__all__ = [
    "BOTTOM", "AliasWriteHit", "DataflowAnalysis", "DataflowReport",
    "EscapeHit", "LeakHit", "Taint",
]

#: Bound on the passes of the gateway-parameter fixpoint.  A pass
#: carries a gateway down a helper chain as far as the definition order
#: allows: the whole chain when callers come first, one hop when
#: callees do.
MAX_PASSES = 5


# ----------------------------------------------------------------------
# Hits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LeakHit:
    """A materialized value crossing into a different partition's API."""

    line: int
    col: int
    value: str
    produced_in: Tuple[str, ...]
    consumed_in: str
    api: str
    function: str


@dataclass(frozen=True)
class EscapeHit:
    """Tenant-derived data reaching a shared or host sink."""

    line: int
    col: int
    target: str
    sink: str  # "shared" | "host"
    function: str


@dataclass(frozen=True)
class AliasWriteHit:
    """A host_write through a string alias of a frozen tag."""

    line: int
    col: int
    alias: str
    tag: str
    alloc_state: FrameworkState
    write_state: FrameworkState
    function: str


@dataclass
class DataflowReport:
    """Everything the flow pass learned about one module."""

    leaks: List[LeakHit] = field(default_factory=list)
    escapes: List[EscapeHit] = field(default_factory=list)
    alias_writes: List[AliasWriteHit] = field(default_factory=list)
    #: Per-function partition plan, recorded by the same walk.
    plans: Dict[str, FunctionReport] = field(default_factory=dict)
    #: Per-function join of returned taints (monotonicity test surface).
    returns: Dict[str, Taint] = field(default_factory=dict)
    stats: WalkStats = field(default_factory=WalkStats)


# ----------------------------------------------------------------------
# Analysis driver
# ----------------------------------------------------------------------


class DataflowAnalysis:
    """Run the flow-pass walks over the functions of one module summary."""

    def __init__(
        self,
        summary: ModuleSummary,
        inferencer: Optional[PartitionInferencer] = None,
        param_taints: Optional[Dict[str, Dict[str, Taint]]] = None,
    ) -> None:
        self.summary = summary
        self.inferencer = inferencer or PartitionInferencer(summary)
        #: qualname → {param name → injected taint} (property-test hook).
        self.param_taints = param_taints or {}
        self.report = DataflowReport()
        self._hit_keys: Set[Tuple] = set()

    def run(self) -> DataflowReport:
        """Walk the functions in passes, to the gateway fixpoint.

        A pass walks every summarized function, in definition order,
        with a fresh machine.  Right after each walk, the parameters its
        calls pass gateway values to join their functions' gateway
        parameters, so a function later in the order sees them in the
        same pass.  The loop stops after a pass that marks nothing, or
        after :data:`MAX_PASSES` passes; the last pass is the report.
        """
        summary = self.summary
        if summary.tree is None:
            return self.report
        for _ in range(MAX_PASSES):
            self.report = DataflowReport()
            self._hit_keys = set()
            marked = False
            for qualname, trace in summary.functions.items():
                plan = FunctionReport(trace=trace)
                walker = FunctionWalker(
                    summary, trace, self,
                    _Machine(plan, summary.annotated_tags),
                    param_taints=self.param_taints.get(qualname),
                )
                walker.walk()
                self.report.plans[qualname] = plan
                self.report.returns[qualname] = walker.returns
                for callee, params in walker.edges:
                    if not params <= callee.gateway_params:
                        callee.gateway_params |= params
                        marked = True
            if not marked:
                break
        self.report.leaks.sort(key=lambda h: (h.line, h.col, h.value))
        self.report.escapes.sort(key=lambda h: (h.line, h.col, h.target))
        self.report.alias_writes.sort(key=lambda h: (h.line, h.col, h.tag))
        return self.report

    # -- hit recording (dedup across loop passes and inline frames) ----

    def _first(self, key: Tuple) -> bool:
        if key in self._hit_keys:
            return False
        self._hit_keys.add(key)
        return True

    def add_leak(
        self,
        node: ast.AST,
        value: str,
        produced_in: Tuple[str, ...],
        consumed_in: str,
        api: str,
        function: str,
    ) -> None:
        line, col = node.lineno, node.col_offset
        if self._first(("leak", line, col, value, produced_in,
                        consumed_in, api)):
            self.report.leaks.append(LeakHit(
                line, col, value, produced_in, consumed_in, api, function,
            ))

    def add_escape(
        self, node: ast.AST, target: str, sink: str, function: str
    ) -> None:
        line, col = node.lineno, node.col_offset
        if self._first(("escape", line, col, target, sink)):
            self.report.escapes.append(EscapeHit(
                line, col, target, sink, function,
            ))

    def add_alias_write(
        self,
        node: ast.AST,
        alias: str,
        tag: str,
        alloc_state: FrameworkState,
        write_state: FrameworkState,
        function: str,
    ) -> None:
        line, col = node.lineno, node.col_offset
        if self._first(("alias", line, col, alias, tag)):
            self.report.alias_writes.append(AliasWriteHit(
                line, col, alias, tag, alloc_state, write_state, function,
            ))

