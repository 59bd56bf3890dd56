"""Per-layer host timing, recorded from outside the program.

A traced pass replaces public methods of the simulator at class level
with wrappers that read ``time.perf_counter``.  Nothing under ``src/``
changes, and :meth:`Patches.restore` puts every original back.

Each wrapped call becomes a span with a name, start, end, parent and op
id; the spans of one op share its id.  A span's self time is its
duration minus the durations of the wrapped calls beneath it, so the
self times of an op's spans, its leaf time and its root's self time add
up to the op's duration.  *Leaf* functions are the hottest ones, called
hundreds of thousands of times per pass: they are counted and timed in
aggregate only, which keeps the trace's memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, ``module:Attribute.path``, leaf).  Layers are named
#: after the modules; a name listed twice sums both methods.
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("sim.is_writable", "repro.sim.memory:AddressSpace.is_writable", True),
    ("sim.buffers_in_state",
     "repro.sim.memory:AddressSpace.buffers_in_state", True),
    ("sim.mprotect", "repro.sim.memory:AddressSpace.mprotect", True),
    ("sim.channel_send", "repro.sim.ipc:Channel.send", True),
    ("sim.transfer", "repro.sim.kernel:SimKernel.transfer", False),
    ("sim.spawn", "repro.sim.kernel:SimKernel.spawn", False),
    ("core.gateway_call", "repro.core.runtime:FreePartGateway.call", False),
    ("core.gateway_call", "repro.core.gateway:NativeGateway.call", False),
    ("core.observe_call",
     "repro.core.statemachine:TemporalStateMachine.observe_call", False),
    ("core.agent_execute", "repro.core.agent:AgentProcess.execute", False),
    ("core.agent_execute",
     "repro.core.agent:AgentProcess.execute_batch", False),
    ("core.agent_restart", "repro.core.agent:AgentProcess.restart", False),
    ("frameworks.invoke",
     "repro.frameworks.base:ExecutionContext.invoke", False),
    ("serve.submit", "repro.serve.server:PipelineServer.submit", False),
    ("serve.serve_one", "repro.serve.server:PipelineServer.serve_one", False),
    ("serve.lease", "repro.serve.pool:PoolSet.lease_set", False),
    ("serve.lease", "repro.serve.pool:PoolSet.restore_set", False),
    ("serve.call_many", "repro.serve.gateway:ServeGateway.call_many", False),
    ("serve.timeline_observe",
     "repro.serve.metrics:ServingTimeline.observe", False),
    ("serve.control",
     "repro.serve.autoscale:PoolAutoscaler.on_request", False),
    ("serve.control",
     "repro.serve.autoscale:BrownoutController.observe", False),
    ("serve.scale_to", "repro.serve.server:PipelineServer.scale_to", False),
    ("cluster.route", "repro.cluster.serve:ClusterServer.route", False),
    ("cluster.submit", "repro.cluster.serve:ClusterServer.submit", False),
    ("cluster.step", "repro.cluster.serve:ClusterServer.step", False),
    ("cluster.transfer", "repro.cluster.kernel:ClusterKernel.transfer", False),
    ("obs.series_observe",
     "repro.obs.timeseries:TimeSeriesRegistry.observe", True),
    ("obs.evaluate_slos", "repro.obs.slo:evaluate_slos", False),
    ("apps.setup", "repro.apps.base:PipelineApp.setup", False),
    ("apps.setup", "repro.apps.omrchecker:OMRCheckerApp.setup", False),
    ("apps.run", "repro.apps.base:PipelineApp.run", False),
    ("apps.run", "repro.apps.omrchecker:OMRCheckerApp.run", False),
)

#: Every layer name, in table order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: The pseudo-span that roots each op; its self time is the driver's
#: own work between the wrapped calls.
OP = "driver.op"


def _transition_tally(transition: Any, counts: Dict[str, int]) -> None:
    if transition is not None:
        counts["core.transitions"] += 1
        counts["sim.freeze_scan.frozen"] += transition.protected_buffers


def _scan_tally(buffers: Any, counts: Dict[str, int]) -> None:
    counts["sim.freeze_scan.scanned"] += len(buffers)


#: Counts taken from a wrapped call's return value, where the work
#: happens (a freeze scan's size is the length of the buffer list).
TALLIES: Dict[str, Callable[[Any, Dict[str, int]], None]] = {
    "core.observe_call": _transition_tally,
    "sim.buffers_in_state": _scan_tally,
}

# Span record fields (a list per span keeps 200k spans cheap).
_NAME, _START, _END, _PARENT, _OP, _CHILD, _OWNER = range(7)


class Patches:
    """Class-level method replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve(target: str) -> Tuple[Any, str]:
    """``module:Class.method`` -> (owning object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTrace:
    """The spans and counters of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._root: Optional[int] = None
        #: Leaf seconds inside each op, by op id.
        self.op_leaf_s: List[float] = []
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        self.total_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.counts: Dict[str, int] = {
            "core.transitions": 0,
            "sim.freeze_scan.frozen": 0,
            "sim.freeze_scan.scanned": 0,
        }

    # -- spans ----------------------------------------------------------

    def _open(self, name: str, start: float, owner: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, 0.0, parent, self._op, 0.0, owner])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")
        span = self.spans[index]
        span[_END] = end
        duration = end - span[_START]
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += duration
        name = span[_NAME]
        if name != OP:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - span[_CHILD]

    def span_wrapper(self, name: str, fn: Callable[..., Any],
                     method: bool) -> Callable[..., Any]:
        tally = TALLIES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            owner = id(args[0]) if method else 0
            if stack and spans[stack[-1]][_NAME] == name \
                    and spans[stack[-1]][_OWNER] == owner:
                # A super() call into the same layer on the same object
                # belongs to the span already open.
                return fn(*args, **kwargs)
            index = self._open(name, clock(), owner)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, clock())
            if tally is not None:
                tally(result, self.counts)
            return result

        return wrapper

    def leaf_wrapper(self, name: str,
                     fn: Callable[..., Any]) -> Callable[..., Any]:
        tally = TALLIES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration
                if stack:
                    spans[stack[-1]][_CHILD] += duration
                if self._op is not None:
                    self.op_leaf_s[self._op] += duration
            if tally is not None:
                tally(result, self.counts)
            return result

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every target in :data:`TARGETS`."""
        for name, target, leaf in TARGETS:
            owner, attr = resolve(target)
            method = isinstance(owner, type)
            if leaf:
                patches.wrap(owner, attr,
                             lambda fn, n=name: self.leaf_wrapper(n, fn))
            else:
                patches.wrap(owner, attr, lambda fn, n=name, m=method:
                             self.span_wrapper(n, fn, m))

    # -- ops ------------------------------------------------------------

    def op_begin(self, at: float) -> None:
        """Open the root span of the next op (closing the previous one)."""
        self.op_end(at)
        self._op = len(self.op_leaf_s)
        self.op_leaf_s.append(0.0)
        self._root = self._open(OP, at, 0)

    def op_end(self, at: float) -> None:
        if self._root is not None:
            self._close(self._root, at)
            self._root = None
            self._op = None

    # -- results --------------------------------------------------------

    def driver_self_s(self) -> float:
        return sum(
            span[_END] - span[_START] - span[_CHILD]
            for span in self.spans if span[_NAME] == OP
        )

    def table(self, timed_s: float) -> List[Dict[str, Any]]:
        """Per layer: calls, total ms, self ms and share of the timed phase."""
        rows = [
            {
                "layer": name,
                "calls": self.calls[name],
                "total_ms": self.total_s[name] * 1e3,
                "self_ms": self.self_s[name] * 1e3,
                "share": self.self_s[name] / timed_s if timed_s else 0.0,
            }
            for name in LAYER_NAMES
        ]
        driver = self.driver_self_s()
        rows.append({
            "layer": OP, "calls": len(self.op_leaf_s),
            "total_ms": None, "self_ms": driver * 1e3,
            "share": driver / timed_s if timed_s else 0.0,
        })
        return rows

    def write_chrome(self, path: str, origin: float) -> None:
        """Write the spans as Chrome trace events (``chrome://tracing``)."""
        events = [
            {
                "name": span[_NAME],
                "cat": span[_NAME].split(".")[0],
                "ph": "X",
                "ts": round((span[_START] - origin) * 1e6, 3),
                "dur": round((span[_END] - span[_START]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"op": span[_OP], "parent": span[_PARENT],
                         "self_us": round((span[_END] - span[_START]
                                           - span[_CHILD]) * 1e6, 3)},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
