"""Shared machinery for the five prior isolation techniques of Table 1.

Every baseline is an :class:`~repro.core.gateway.ApiGateway`, so the same
application code runs under each.  The common class provides partitioned
execution with **eager** data movement (none of the baselines have lazy
data copy): object arguments and results are serialized into the RPC
messages and physically copied between address spaces, which is exactly
the traffic Table 9 compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.apitypes import APIType
from repro.core.gateway import ApiGateway, CallRecord
from repro.errors import (
    FrameworkCrash,
    ProcessCrashed,
    SegmentationFault,
    SyscallDenied,
)
from repro.frameworks.base import DataObject, ExecutionContext, FrameworkAPI
from repro.sim.filters import SyscallFilter, permissive_filter
from repro.sim.ipc import ChannelPair
from repro.sim.kernel import SimKernel
from repro.sim.memory import Buffer
from repro.sim.process import SimProcess


@dataclass
class TechniqueInfo:
    """Descriptive metadata used by the Table 1/9/10 benches."""

    key: str
    label: str
    figure: str  # which Fig. 2 panel illustrates it


class Partitioned(ApiGateway):
    """Base gateway for techniques that run APIs in worker processes."""

    info = TechniqueInfo(key="base", label="abstract", figure="-")

    def __init__(self, kernel: SimKernel, host: Optional[SimProcess] = None) -> None:
        if host is None:
            host = kernel.spawn("host-program", role="host", charge=False)
        super().__init__(kernel, host)
        self._workers: Dict[str, SimProcess] = {}
        self._contexts: Dict[int, ExecutionContext] = {}
        self._channels: Dict[int, ChannelPair] = {}
        self.crashes = 0
        self.functionality_warnings: List[str] = []

    # -- worker management ------------------------------------------------

    def _worker(
        self, key: str, syscall_filter: Optional[SyscallFilter] = None
    ) -> SimProcess:
        process = self._workers.get(key)
        if process is None or not process.alive:
            process = self.kernel.spawn(
                f"worker:{key}",
                syscall_filter=syscall_filter if syscall_filter is not None
                else permissive_filter(),
                role="agent",
            )
            self._workers[key] = process
            self._contexts[process.pid] = ExecutionContext(self.kernel, process)
            self._channels[process.pid] = self.kernel.channel_pair(
                f"{self.info.key}:{key}"
            )
        return process

    @property
    def process_count(self) -> int:
        return 1 + len(self._workers)

    def total_crashes(self) -> int:
        return self.crashes

    def total_restarts(self) -> int:
        return 0

    # -- partitioning decision (subclass hook) -----------------------------

    def _partition_key(self, api: FrameworkAPI) -> Optional[str]:
        """Which worker runs this API; ``None`` = the host program itself."""
        raise NotImplementedError

    def _worker_filter(self, key: str) -> Optional[SyscallFilter]:
        return None  # permissive unless a technique restricts syscalls

    #: Techniques that keep results in the worker via shared memory set
    #: this False (library-level sharing, Fig. 2-c); True moves all data
    #: through the host on every call (Fig. 2-d).
    eager_data_copies = True

    # -- dispatch --------------------------------------------------------

    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        api = self._resolve_api(framework, name)
        spec = api.spec
        self.stats.record(CallRecord(
            framework=spec.framework, name=spec.name,
            qualname=spec.qualname, api_type=spec.ground_truth,
        ))
        key = self._partition_key(api)
        if key is None:
            ctx = self._host_context()
            return ctx.invoke(api, *args, **kwargs)
        process = self._worker(key, self._worker_filter(key))
        channel = self._channels[process.pid]
        ctx = self._contexts[process.pid]
        request_payload = args if self.eager_data_copies else tuple(
            "(shared)" for _ in args
        )
        channel.request.send(self.host.pid, "request", request_payload)
        channel.request.receive()
        if self.eager_data_copies:
            for value in args:
                if isinstance(value, DataObject):
                    self.kernel.transfer(
                        self.host, process, value,
                        tag="baseline-arg", lazy=False, count_message=False,
                    )
        try:
            result = ctx.invoke(api, *args, **kwargs)
        except (ProcessCrashed, SyscallDenied, SegmentationFault) as exc:
            process.crash(str(exc))
            self.crashes += 1
            raise FrameworkCrash(spec.qualname, exc) from exc
        response_payload = result if self.eager_data_copies else "(shared)"
        channel.response.send(process.pid, "response", response_payload)
        channel.response.receive()
        if self.eager_data_copies and isinstance(result, DataObject):
            self.kernel.transfer(
                process, self.host, result,
                tag="baseline-result", lazy=False, count_message=False,
            )
        return result

    def _host_context(self) -> ExecutionContext:
        ctx = self._contexts.get(self.host.pid)
        if ctx is None:
            ctx = ExecutionContext(self.kernel, self.host)
            self._contexts[self.host.pid] = ctx
        return ctx

    def materialize(self, value: Any) -> Any:
        if isinstance(value, DataObject):
            return value.data
        return value
