"""Framework API model.

The mini-frameworks (``minicv``, ``minitorch``, ``minitf``, ``minicaffe``,
``miniutil``) declare their APIs as :class:`APISpec` records bound to real
(numpy-backed) implementations.  An API executes inside an
:class:`ExecutionContext` tied to one simulated process: every I/O helper
issues the corresponding syscalls through that process (so seccomp filters
apply) and records the resulting data flows (so the dynamic analysis can
observe them).

Vulnerabilities are modelled faithfully to the threat model: a vulnerable
API that receives a *crafted input* (an object exposing ``cve_id`` and
``trigger``) executes the exploit **in the process the API runs in** —
exactly the confinement question FreePart answers.
"""

from __future__ import annotations

import copy as _copy
import enum
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.apitypes import APIType
from repro.core.dataflow import Flow, FlowTrace, Storage, read, write
from repro.errors import ReproError
from repro.sim.devices import GUI_SOCKET_FD
from repro.sim.kernel import SimKernel
from repro.sim.memory import payload_nbytes
from repro.sim.process import SimProcess


class StatefulKind(enum.Enum):
    """Statefulness categories of Appendix A.2.4."""

    STATELESS = "stateless"
    INIT_ONLY = "init_only"       # state restored by re-running initialization
    GUI_STATE = "gui_state"       # state restored by re-running GUI calls
    DATA_STATE = "data_state"     # state must be checkpointed periodically


# ----------------------------------------------------------------------
# Data objects
# ----------------------------------------------------------------------


class DataObject:
    """Base class for framework data objects passed across API boundaries.

    Instances are the things the lazy-data-copy optimization passes by
    reference: they carry a payload (usually an ndarray) whose simulated
    size drives copy costs.
    """

    kind = "object"

    def __init__(self, data: Any = None) -> None:
        self.data = data

    @property
    def nbytes(self) -> int:
        return payload_nbytes(self.data)

    def copy(self) -> "DataObject":
        """Deep copy: a new object with duplicated payload."""
        duplicate = _copy.copy(self)
        duplicate.data = _copy.deepcopy(self.data)
        return duplicate

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nbytes={self.nbytes})"


class Mat(DataObject):
    """OpenCV-style image matrix."""

    kind = "mat"

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(np.shape(self.data)) if self.data is not None else ()


class Tensor(DataObject):
    """PyTorch/TensorFlow-style tensor."""

    kind = "tensor"

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(np.shape(self.data)) if self.data is not None else ()


class Blob(DataObject):
    """Caffe-style blob."""

    kind = "blob"


class Model(DataObject):
    """A loaded model: weights plus metadata.

    ``data`` is a dict of weight arrays.  ``payload`` may carry a trojan
    (the StegoNet case study hides a malicious payload in the weights).
    """

    kind = "model"

    def __init__(
        self,
        data: Optional[Dict[str, np.ndarray]] = None,
        architecture: str = "generic",
        trojan: Any = None,
    ) -> None:
        super().__init__(data if data is not None else {})
        self.architecture = architecture
        self.trojan = trojan


class Frame(Mat):
    """A camera frame (a Mat with capture metadata)."""

    kind = "frame"

    def __init__(self, data: Any = None, index: int = 0) -> None:
        super().__init__(data)
        self.index = index


def is_data_object(value: Any) -> bool:
    """True for framework data objects and raw ndarrays."""
    return isinstance(value, (DataObject, np.ndarray))


def coerce_model(value: Any) -> Model:
    """View an arbitrary payload as a Model (serializers accept both)."""
    if isinstance(value, Model):
        return value
    if isinstance(value, DataObject):
        return Model({"raw": np.asarray(value.data)}, architecture=value.kind)
    return Model({"raw": np.asarray(value)}, architecture="raw")


def is_crafted(value: Any) -> bool:
    """Duck-typed check for exploit-carrying inputs."""
    return getattr(value, "cve_id", None) is not None and hasattr(value, "trigger")


# ----------------------------------------------------------------------
# API specification
# ----------------------------------------------------------------------

ExampleArgs = Callable[["ExecutionContext"], Tuple[tuple, dict]]
Implementation = Callable[..., Any]


@dataclass(frozen=True)
class APISpec:
    """Declarative description of one framework API."""

    name: str                      # bare function name, e.g. "imread"
    framework: str                 # "opencv" | "pytorch" | "tensorflow" | "caffe" | ...
    qualname: str                  # e.g. "cv2.imread"
    ground_truth: APIType          # the type a perfect analysis finds
    flows: Tuple[Flow, ...] = ()   # declared data-flow pattern (Fig. 8)
    syscalls: Tuple[str, ...] = () # syscalls needed on every execution
    init_syscalls: Tuple[str, ...] = ()  # needed only on first execution
    stateful: StatefulKind = StatefulKind.STATELESS
    neutral: bool = False          # type-neutral utility API (Section 4.2)
    static_opaque: bool = False    # flows hidden behind indirect calls
    base_cost_ns: int = 20_000     # virtual compute cost per call
    cost_ns_per_byte: float = 0.05 # virtual compute cost per payload byte
    vulnerabilities: Tuple[str, ...] = ()  # CVE ids exploitable through it
    example_args: Optional[ExampleArgs] = None  # dynamic-analysis test case
    doc: str = ""

    @property
    def has_test_case(self) -> bool:
        return self.example_args is not None

    def with_vulnerabilities(self, *cve_ids: str) -> "APISpec":
        """A copy of this spec carrying the given CVE ids."""
        return replace(self, vulnerabilities=tuple(cve_ids))


class FrameworkAPI:
    """A spec bound to its implementation."""

    def __init__(self, spec: APISpec, impl: Implementation) -> None:
        self.spec = spec
        self.impl = impl

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def qualname(self) -> str:
        return self.spec.qualname

    def __call__(self, ctx: "ExecutionContext", *args: Any, **kwargs: Any) -> Any:
        return ctx.invoke(self, *args, **kwargs)

    def __repr__(self) -> str:
        return f"FrameworkAPI({self.spec.qualname})"


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


@dataclass
class Tracer:
    """Records the flows and syscalls of traced API executions."""

    flows: FlowTrace = field(default_factory=FlowTrace)
    syscalls: List[str] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)

    def record_flow(self, flow: Flow) -> None:
        """Append one observed data flow."""
        self.flows.record(flow)

    def record_syscall(self, name: str) -> None:
        """Append one executed syscall name."""
        self.syscalls.append(name)

    def record_call(self, qualname: str) -> None:
        """Append one invoked API qualname."""
        self.calls.append(qualname)

    def distinct_syscalls(self) -> List[str]:
        """Distinct syscalls in first-seen order."""
        seen: List[str] = []
        for name in self.syscalls:
            if name not in seen:
                seen.append(name)
        return seen


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------


class ExecutionContext:
    """Everything an API implementation needs to run inside one process."""

    def __init__(
        self,
        kernel: SimKernel,
        process: SimProcess,
        tracer: Optional[Tracer] = None,
        state_label: str = "initialization",
        charge_costs: bool = True,
    ) -> None:
        self.kernel = kernel
        self.process = process
        self.tracer = tracer
        self.state_label = state_label
        self.charge_costs = charge_costs
        self.current_spec: Optional[APISpec] = None
        self._init_seen: set = set()

    # -- invocation ----------------------------------------------------

    def invoke(self, api: FrameworkAPI, *args: Any, **kwargs: Any) -> Any:
        """Run an API in this context: costs, init syscalls, exploit scan."""
        spec = api.spec
        previous = self.current_spec
        self.current_spec = spec
        if self.tracer is not None:
            self.tracer.record_call(spec.qualname)
        span_tracer = self.kernel.tracer
        try:
            # Hot (~35k calls/suite pass): a guard costs less than a no-op span.
            if span_tracer.enabled:
                with span_tracer.span(
                    spec.qualname, category="compute",
                    pid=self.process.pid,
                    api_type=spec.ground_truth.value,
                ):
                    return self._invoke_body(api, spec, args, kwargs)
            return self._invoke_body(api, spec, args, kwargs)
        finally:
            self.current_spec = previous

    def _invoke_body(
        self, api: FrameworkAPI, spec: APISpec, args: tuple, kwargs: dict
    ) -> Any:
        # One walk over the arguments: the data objects' bytes set the
        # compute charge, and the crafted inputs (never data objects)
        # go to the exploit guard once the API has initialised.
        arg_bytes = 0
        crafted = []
        for value in (args + tuple(kwargs.values()) if kwargs else args):
            if isinstance(value, (DataObject, np.ndarray)):
                arg_bytes += value.nbytes
            elif is_crafted(value):
                crafted.append(value)
        if self.charge_costs:
            self.kernel.clock.advance(
                spec.base_cost_ns + int(spec.cost_ns_per_byte * arg_bytes)
            )
        if spec.qualname not in self._init_seen:
            self._first_execution_syscalls(spec)
        for value in crafted:
            self.guard(value)
        return api.impl(self, *args, **kwargs)

    def _first_execution_syscalls(self, spec: APISpec) -> None:
        """Issue the init-only syscalls on an API's first run here.

        Initialization needs are per-*process* (a library is mprotect'ed
        into place once, the GUI socket is connected once), so syscalls
        another API of this process already performed are skipped — this
        is what lets the runtime close the init grace phase after the
        agent's first request.
        """
        self._init_seen.add(spec.qualname)
        already_done = set(self.process.syscalls_used())
        for name in spec.init_syscalls:
            if name not in already_done:
                self.syscall(name)

    # -- stateful-API internal state (Appendix A.2.4) ---------------------

    def stateful_counter(self, key: str, increment: int = 1) -> int:
        """Advance and return a per-process counter for a stateful API.

        Training-style APIs (estimator.train, optimizer.step, ...) keep
        their progress here; it is destroyed with the process on a crash
        and only survives through the agent's periodic checkpoints.
        """
        value = int(self.process.framework_state.get(key, 0)) + increment
        self.process.framework_state[key] = value
        return value

    # -- exploit guard ---------------------------------------------------

    def guard(self, value: Any) -> Any:
        """Fire an exploit if ``value`` targets the current API.

        Returns the benign cover payload for crafted inputs (whether or
        not the exploit fired), so non-vulnerable APIs can still process
        attack-supplied data, and returns other values unchanged.
        """
        if not is_crafted(value):
            return value
        spec = self.current_spec
        if spec is not None and value.cve_id in spec.vulnerabilities:
            value.trigger(self)
        return getattr(value, "cover", value)

    # -- syscall + flow recording ----------------------------------------

    def syscall(
        self,
        name: str,
        fd: Optional[int] = None,
        path: Optional[str] = None,
        nbytes: int = 0,
    ) -> None:
        """Enter a syscall through this context's process and trace it."""
        self.process.syscall(name, fd=fd, path=path, nbytes=nbytes)
        if self.tracer is not None:
            self.tracer.record_syscall(name)

    def record_flow(self, flow: Flow) -> None:
        """Record one observed data flow on the tracer, if any."""
        if self.tracer is not None:
            self.tracer.record_flow(flow)

    # -- storage helpers (each = syscalls + a recorded flow) -------------

    def read_file(self, path: str) -> Any:
        """Load a file: W(MEM, R(FILE))."""
        self.syscall("openat", path=path)
        self.syscall("fstat", path=path)
        entry = self.kernel.fs.stat(path)
        self.syscall("lseek", path=path)
        self.syscall("read", path=path, nbytes=entry.nbytes)
        self.syscall("brk")  # allocate the decoded buffer
        payload = self.kernel.fs.read_file(path, pid=self.process.pid)
        self.syscall("close", path=path)
        self.record_flow(write(Storage.MEM, Storage.FILE, nbytes=entry.nbytes))
        return payload

    def write_file(self, path: str, payload: Any) -> None:
        """Store to a file: W(FILE, R(MEM))."""
        nbytes = payload_nbytes(payload)
        self.syscall("openat", path=path)
        self.syscall("write", path=path, nbytes=nbytes)
        self.kernel.fs.write_file(path, payload, pid=self.process.pid)
        self.syscall("close", path=path)
        self.record_flow(write(Storage.FILE, Storage.MEM, nbytes=nbytes))

    def stage_via_tempfile(self, payload: Any, label: str = "") -> Any:
        """Copy data through a temporary cache file (Section 4.2.1).

        The cache is a memory-backed file (``memfd_create``), so loaders
        that stage downloads stay within the loading agent's allowlist —
        which excludes the disk-write syscalls (Section 5.3).  The file
        flows are still recorded with a shared label so the analyzer can
        apply the copy-via-file reduction.
        """
        tmp = self.kernel.fs.tempfile()
        label = label or tmp
        nbytes = payload_nbytes(payload)
        self.syscall("memfd_create", path=tmp)
        self.kernel.fs.write_file(tmp, payload, pid=self.process.pid)
        self.record_flow(
            Flow(source=Storage.MEM, dest=Storage.FILE, label=label, nbytes=nbytes)
        )
        self.syscall("read", path=tmp, nbytes=nbytes)
        result = self.kernel.fs.read_file(tmp, pid=self.process.pid)
        self.syscall("close", path=tmp)
        self.record_flow(
            Flow(source=Storage.FILE, dest=Storage.MEM, label=label, nbytes=nbytes)
        )
        return result

    def camera_frame(self) -> Optional[np.ndarray]:
        """Grab a frame: W(MEM, R(DEV))."""
        camera = self.kernel.devices.camera
        if not camera.opened:
            camera.open()
            self.syscall("openat", path="/dev/video0")
        self.syscall("ioctl", fd=camera.fd)
        self.syscall("select", fd=camera.fd)
        frame = camera.read_frame()
        if frame is not None:
            self.record_flow(
                write(Storage.MEM, Storage.DEV, label="camera",
                      nbytes=payload_nbytes(frame))
            )
        return frame

    def download(self, url: str) -> Any:
        """Fetch from the network: W(MEM, R(DEV))."""
        network = self.kernel.devices.network
        if not network.is_connected(self.process.pid):
            self.syscall("socket")
            self.syscall("connect", fd=network.fd)
            network.connect(self.process.pid, destination=url)
        self.syscall("recvfrom", fd=network.fd)
        payload = network.download(url)
        self.record_flow(
            write(Storage.MEM, Storage.DEV, label="network",
                  nbytes=payload_nbytes(payload))
        )
        return payload

    def gui_show(self, window: str, image: Any) -> None:
        """Display an image: W(GUI, R(MEM))."""
        gui = self.kernel.gui
        if not gui.is_connected(self.process.pid):
            self.syscall("connect", fd=GUI_SOCKET_FD)
            gui.connect(self.process.pid)
        self.syscall("sendto", fd=GUI_SOCKET_FD, nbytes=payload_nbytes(image))
        self.syscall("futex")
        gui.show(window, image)
        self.record_flow(
            write(Storage.GUI, Storage.MEM, label=window,
                  nbytes=payload_nbytes(image))
        )

    def gui_access(self, nbytes: int = 0, label: str = "") -> None:
        """Touch GUI state without displaying: R(GUI)."""
        gui = self.kernel.gui
        if not gui.is_connected(self.process.pid):
            self.syscall("connect", fd=GUI_SOCKET_FD)
            gui.connect(self.process.pid)
        self.syscall("select", fd=GUI_SOCKET_FD)
        self.record_flow(read(Storage.GUI, label=label, nbytes=nbytes))

    def gui_write(self, nbytes: int = 0, label: str = "") -> None:
        """Mutate GUI state (window move/title): W(GUI, R(MEM))."""
        gui = self.kernel.gui
        if not gui.is_connected(self.process.pid):
            self.syscall("connect", fd=GUI_SOCKET_FD)
            gui.connect(self.process.pid)
        self.syscall("sendto", fd=GUI_SOCKET_FD, nbytes=nbytes)
        self.record_flow(
            write(Storage.GUI, Storage.MEM, label=label, nbytes=nbytes)
        )

    def mem_compute(self, nbytes: int = 0, label: str = "") -> None:
        """Record a memory-to-memory computation: W(MEM, R(MEM))."""
        if nbytes:
            self.syscall("brk")
        if self.tracer is not None:  # the flow only matters to the tracer
            self.tracer.record_flow(
                write(Storage.MEM, Storage.MEM, label=label, nbytes=nbytes)
            )


# ----------------------------------------------------------------------
# Framework registry
# ----------------------------------------------------------------------


class Framework:
    """A named collection of framework APIs."""

    def __init__(self, name: str, version: str = "1.0") -> None:
        self.name = name
        self.version = version
        self._apis: Dict[str, FrameworkAPI] = {}

    def register(self, spec: APISpec) -> Callable[[Implementation], FrameworkAPI]:
        """Decorator binding an implementation to a spec."""

        def bind(impl: Implementation) -> FrameworkAPI:
            api = FrameworkAPI(spec, impl)
            if spec.name in self._apis:
                raise ReproError(
                    f"{self.name} already has an API named {spec.name!r}"
                )
            self._apis[spec.name] = api
            return api

        return bind

    def add(self, spec: APISpec, impl: Implementation) -> FrameworkAPI:
        """Register an implementation under a spec (non-decorator form)."""
        return self.register(spec)(impl)

    def get(self, name: str) -> FrameworkAPI:
        """Look up an API by bare name (ReproError if absent)."""
        try:
            return self._apis[name]
        except KeyError:
            raise ReproError(
                f"framework {self.name!r} has no API named {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._apis

    def __iter__(self) -> Iterator[FrameworkAPI]:
        return iter(self._apis.values())

    def __len__(self) -> int:
        return len(self._apis)

    @property
    def api_names(self) -> List[str]:
        return list(self._apis)

    def apis_of_type(self, api_type: APIType) -> List[FrameworkAPI]:
        """All APIs whose ground-truth type matches."""
        return [a for a in self if a.spec.ground_truth is api_type]

    def covered(self) -> List[FrameworkAPI]:
        """APIs with a dynamic-analysis test case (Table 11 numerator)."""
        return [a for a in self if a.spec.has_test_case]

    def vulnerable_apis(self) -> List[FrameworkAPI]:
        """APIs carrying at least one CVE."""
        return [a for a in self if a.spec.vulnerabilities]

    def replace_spec(self, name: str, spec: APISpec) -> None:
        """Swap the spec of a registered API (used to attach CVEs)."""
        api = self.get(name)
        self._apis[name] = FrameworkAPI(spec, api.impl)
