"""API gateways: how host programs invoke framework APIs.

An application (``repro.apps``) is written once against the
:class:`ApiGateway` interface; the gateway decides *where* each framework
API executes:

* :class:`NativeGateway` — everything in the host program process, no
  isolation (the unprotected baseline every overhead number is relative
  to, and the configuration in which exploits reach critical data);
* ``FreePartGateway`` (``repro.core.runtime``) — FreePart's agent
  processes, temporal permissions, and syscall restriction;
* the baseline gateways (``repro.baselines``) — the five prior techniques
  of Table 1.

The gateway also exposes the *host program's own* operations: allocating
and accessing critical data in the host address space (``template``,
``self.speed``, user profiles) and host-initiated networking.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.apitypes import APIType
from repro.frameworks.base import DataObject, ExecutionContext, FrameworkAPI
from repro.frameworks.registry import get_api
from repro.sim.kernel import SimKernel
from repro.sim.memory import Buffer
from repro.sim.process import SimProcess

#: Pseudo-framework for tracing annotations.  ``gateway.call("obs",
#: "mark", ...)`` is dispatched to the span tracer as an instant event,
#: never to the framework registry — host programs can mark phases in
#: their pipelines without registering an API.  The static checker's
#: dead-api rule skips these sites for the same reason.
OBS_FRAMEWORK = "obs"


@dataclass
class CallRecord:
    """One framework API invocation as seen by the gateway."""

    framework: str
    name: str
    qualname: str
    api_type: APIType


@dataclass
class ApiCall:
    """One framework API invocation described as data (not yet dispatched).

    The serving layer ships whole pipelines as sequences of these so the
    gateway can coalesce adjacent same-agent calls into batched IPC.
    """

    framework: str
    name: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()


class _Prev:
    """Sentinel: "the result of the previous call in this pipeline"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PREV"

    #: Wire size if it ever escapes onto a channel (it should not).
    nbytes = 8


#: Place in an ApiCall's args to reference the preceding call's result.
PREV = _Prev()


@dataclass
class GatewayStats:
    """The framework API calls one gateway dispatched, in call order
    (Table 6 / Table 12 inputs)."""

    calls: List[CallRecord] = field(default_factory=list)

    def record(self, record: CallRecord) -> None:
        """Append one call record."""
        self.calls.append(record)

    def total_calls(self) -> int:
        """Number of framework API calls recorded."""
        return len(self.calls)

    def unique_qualnames(self) -> List[str]:
        """Distinct called qualnames in first-seen order."""
        seen: List[str] = []
        for record in self.calls:
            if record.qualname not in seen:
                seen.append(record.qualname)
        return seen


class ApiGateway(abc.ABC):
    """The host program's view of the framework + host-code operations."""

    def __init__(self, kernel: SimKernel, host: SimProcess) -> None:
        self.kernel = kernel
        self.host = host
        self.stats = GatewayStats()
        self._host_buffers: Dict[str, int] = {}

    # -- tracing annotations -------------------------------------------

    def _obs_annotation(self, name: str, args: Tuple[Any, ...],
                        kwargs: Dict[str, Any]) -> None:
        """Dispatch an ``obs.*`` call site to the span tracer."""
        tracer = self.kernel.tracer
        if tracer.enabled:
            attrs = {f"arg{i}": repr(v) for i, v in enumerate(args)}
            attrs.update({k: repr(v) for k, v in kwargs.items()})
            tracer.instant(f"obs.{name}", category="annotation",
                           pid=self.host.pid, **attrs)
        return None

    # -- framework API dispatch ----------------------------------------

    @abc.abstractmethod
    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a framework API and return its (possibly remote) result."""

    @abc.abstractmethod
    def materialize(self, value: Any) -> Any:
        """Bring a (possibly remote) result's data into the host program."""

    def call_many(self, calls: "List[ApiCall]") -> List[Any]:
        """Dispatch a sequence of calls, returning one result per call.

        A :data:`PREV` argument stands for the previous call's result.
        The default loops over :meth:`call`; gateways that can coalesce
        adjacent same-agent calls into one IPC round trip (the serving
        layer's batching) override this.
        """
        results: List[Any] = []
        for index, call in enumerate(calls):
            args = tuple(
                self._resolve_prev(value, index, results)
                for value in call.args
            )
            kwargs = {
                key: self._resolve_prev(value, index, results)
                for key, value in call.kwargs
            }
            results.append(
                self.call(call.framework, call.name, *args, **kwargs)
            )
        return results

    @staticmethod
    def _resolve_prev(value: Any, index: int, results: List[Any]) -> Any:
        if value is PREV:
            if index == 0:
                raise ValueError("PREV used in the first call of a pipeline")
            return results[index - 1]
        return value

    def _resolve_api(self, framework: str, name: str) -> FrameworkAPI:
        return get_api(framework, name)

    # -- host program data (critical variables) -------------------------

    @property
    def state_label(self) -> str:
        """Origin-state label for buffers the host defines right now."""
        return "initialization"

    def host_alloc(self, tag: str, payload: Any) -> Buffer:
        """Define a host-program variable (e.g. ``template``)."""
        buffer = self.host.memory.alloc_object(
            payload, tag=tag, origin_state=self.state_label
        )
        self._host_buffers[tag] = buffer.buffer_id
        return buffer

    def host_read(self, tag: str) -> Any:
        """Read a host variable by tag."""
        return self.host.memory.load(self._host_buffer_id(tag))

    def host_write(self, tag: str, payload: Any) -> None:
        """Overwrite a host variable (page permissions apply)."""
        self.host.memory.store(self._host_buffer_id(tag), payload)

    def host_buffer(self, tag: str) -> Buffer:
        """The simulated buffer backing a host variable."""
        return self.host.memory.get_buffer(self._host_buffer_id(tag))

    def _host_buffer_id(self, tag: str) -> int:
        try:
            return self._host_buffers[tag]
        except KeyError:
            raise KeyError(f"host program has no variable tagged {tag!r}") from None

    # -- host program I/O -------------------------------------------------

    def host_read_file(self, path: str) -> Any:
        """Host-code file read (e.g. ``fread(fopen("userprofile.xml"))``)."""
        self.host.syscall("openat", path=path)
        self.host.syscall("read", path=path)
        payload = self.kernel.fs.read_file(path)
        self.host.syscall("close", path=path)
        return payload

    def host_write_file(self, path: str, payload: Any) -> None:
        """Host-code file write (results the app persists itself)."""
        self.host.syscall("openat", path=path)
        self.host.syscall("write", path=path)
        self.kernel.fs.write_file(path, payload)
        self.host.syscall("close", path=path)

    def send(self, destination: str, payload: Any) -> None:
        """Host-code networking (Fig. 10 line 12: notify a server)."""
        network = self.kernel.devices.network
        if not network.is_connected(self.host.pid):
            self.host.syscall("socket")
            self.host.syscall("connect", fd=network.fd)
            network.connect(self.host.pid, destination=destination)
        self.host.syscall("sendto", fd=network.fd)
        network.send(self.host.pid, destination, payload)

    # -- topology ---------------------------------------------------------

    @property
    def process_count(self) -> int:
        """Processes this technique runs the program across (host only
        by default; partitioned gateways override)."""
        return 1

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        """Release gateway resources (agents, channels)."""


class NativeGateway(ApiGateway):
    """No isolation: framework APIs run inside the host program process.

    This is the configuration the paper's overhead numbers normalize
    against, and the one in which every evaluated exploit succeeds.
    """

    def __init__(self, kernel: SimKernel, host: Optional[SimProcess] = None) -> None:
        if host is None:
            host = kernel.spawn("host-program", role="host", charge=False)
        super().__init__(kernel, host)
        self._ctx = ExecutionContext(kernel, self.host)

    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Run the API directly in the host process."""
        if framework == OBS_FRAMEWORK:
            return self._obs_annotation(name, args, kwargs)
        api = self._resolve_api(framework, name)
        spec = api.spec
        self.stats.record(CallRecord(
            framework=spec.framework, name=spec.name,
            qualname=spec.qualname, api_type=spec.ground_truth,
        ))
        return self._ctx.invoke(api, *args, **kwargs)

    def materialize(self, value: Any) -> Any:
        """Unwrap a data object to its payload (no copy needed)."""
        if isinstance(value, DataObject):
            return value.data
        return value
