"""Application model for the evaluation programs (Table 6).

An application is a *schedule of framework API call sites* plus host-code
glue, written once against the :class:`~repro.core.gateway.ApiGateway`
interface so the identical program runs unprotected, under FreePart, or
under any baseline technique.

Call sites are static program locations (Table 6's "Total" column counts
sites, not dynamic executions — the paper observes "multiple call sites
of a single framework API" from duplicated code).  Sites inside the main
loop execute once per workload item; initialization sites execute once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.core.gateway import ApiGateway
from repro.core.rpc import RemoteHandle
from repro.core.runtime import RunReport
from repro.frameworks.base import DataObject, Mat, Model
from repro.sim.kernel import SimKernel


class ArgSpec(enum.Enum):
    """How the engine supplies arguments to a call site."""

    SOURCE_PATH = "source_path"      # loader: (input_path) -> data
    SOURCE_DIR = "source_dir"        # loader: (dataset_dir) -> data
    SOURCE_CAMERA = "source_camera"  # loader: (capture_handle) -> frame
    SOURCE_NONE = "source_none"      # loader/ctor: () -> data
    UNARY = "unary"                  # processing: (current) -> current
    BINARY = "binary"                # processing: (current, current)
    DETECT = "detect"                # processing: (classifier, current)
    NONE = "none"                    # processing: () -> side value
    SHOW = "show"                    # visualizing: (window, current)
    GUI_ONLY = "gui_only"            # visualizing: ()
    WINDOW_NAME = "window_name"      # visualizing: (window)
    SINK = "sink"                    # storing: (output_path, current)
    SINK_OBJ = "sink_obj"            # storing: (current, output_path)
    SINK_LIST = "sink_list"          # storing: (output_path, [current])


@dataclass(frozen=True)
class CallSite:
    """One static framework-API call site in the program."""

    framework: str
    api: str
    argspec: ArgSpec
    api_type: APIType
    loop: bool = True      # inside the per-item main loop?
    repeat: int = 1        # dynamic executions per loop pass (hot loops)


@dataclass(frozen=True)
class TypeCounts:
    """unique / total call-site counts for one API type (Table 6 cell)."""

    unique: int = 0
    total: int = 0


@dataclass(frozen=True)
class AppSpec:
    """Metadata of one evaluation application (a Table 6 row)."""

    sample_id: int
    name: str
    main_framework: str
    language: str
    sloc: int
    size_bytes: int
    description: str
    loading: TypeCounts = TypeCounts()
    processing: TypeCounts = TypeCounts()
    visualizing: TypeCounts = TypeCounts()
    storing: TypeCounts = TypeCounts()
    secondary_frameworks: Tuple[str, ...] = ()

    def counts_for(self, api_type: APIType) -> TypeCounts:
        return {
            APIType.LOADING: self.loading,
            APIType.PROCESSING: self.processing,
            APIType.VISUALIZING: self.visualizing,
            APIType.STORING: self.storing,
        }.get(api_type, TypeCounts())


@dataclass(frozen=True)
class Workload:
    """How much input the app processes in one run."""

    items: int = 4
    image_size: int = 32
    seed: int = 0
    keys: str = ""  # key presses queued into the GUI


@dataclass
class AppResult:
    """What the application itself produced."""

    outputs: Dict[str, Any] = field(default_factory=dict)
    items_processed: int = 0
    crashes_survived: int = 0


class Application:
    """Base class: subclasses override :meth:`setup` and :meth:`run`."""

    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec

    def setup(self, kernel: SimKernel, workload: Workload) -> None:
        """Create the input files/devices this app consumes."""

    def run(self, gateway: ApiGateway, workload: Workload) -> AppResult:
        raise NotImplementedError

    @property
    def schedule(self) -> Tuple[CallSite, ...]:
        """The static call sites (for Table 6 accounting); may be empty
        for fully hand-written apps that report sites another way."""
        return ()

    @property
    def annotations(self) -> tuple:
        """MemoryLayout annotations of this app's protected host data
        (Section 4.4.3: users must describe custom data structures for
        the temporal permission enforcement)."""
        return ()

    def schedule_counts(self) -> Dict[APIType, TypeCounts]:
        """unique/total per type, computed from the schedule."""
        by_type: Dict[APIType, Dict[str, int]] = {}
        for site in self.schedule:
            key = f"{site.framework}.{site.api}"
            by_type.setdefault(site.api_type, {})
            by_type[site.api_type][key] = by_type[site.api_type].get(key, 0) + 1
        return {
            api_type: TypeCounts(unique=len(sites), total=sum(sites.values()))
            for api_type, sites in by_type.items()
        }


#: Results larger than this are computed but not carried forward as the
#: pipeline's current data (prevents repeated growth operators — tile,
#: concat, upsample — from inflating the working set unboundedly, the way
#: real programs crop/stride between stages).
MAX_CARRIED_BYTES = 512 * 1024


class PipelineApp(Application):
    """Generic pipeline application driven by a call-site schedule.

    The engine keeps a *current* data handle; loading sites replace it,
    unary/binary processing sites transform it, visualizing sites show
    it, storing sites persist it.  Sites whose result is not a data
    object (scalars, rect lists) leave the current handle unchanged,
    mirroring how real programs compute summaries off to the side.
    """

    def __init__(self, spec: AppSpec, schedule: Sequence[CallSite]) -> None:
        super().__init__(spec)
        self._schedule = tuple(schedule)

    @property
    def schedule(self) -> Tuple[CallSite, ...]:
        return self._schedule

    # -- input preparation ----------------------------------------------

    def input_path(self, item: int) -> str:
        return f"/data/{self.spec.name}/input-{item}.png"

    def dataset_dir(self) -> str:
        return f"/data/{self.spec.name}/dataset"

    def output_path(self, item: int, site_index: int) -> str:
        return f"/out/{self.spec.name}/result-{item}-{site_index}"

    def setup(self, kernel: SimKernel, workload: Workload) -> None:
        rng = np.random.default_rng(workload.seed + self.spec.sample_id)
        for item in range(workload.items):
            image = rng.integers(
                0, 256, size=(workload.image_size, workload.image_size, 3)
            ).astype(np.float64)
            kernel.fs.write_file(self.input_path(item), image)
        kernel.fs.write_file(
            f"{self.dataset_dir()}/index", [f"batch-{i}" for i in range(2)]
        )
        for i in range(2):
            kernel.fs.write_file(
                f"{self.dataset_dir()}/batch-{i}",
                rng.normal(size=(workload.image_size, workload.image_size)),
            )
        if workload.keys:
            kernel.gui.queue_keys(workload.keys)
        # Host the remote content the hub/get_file loaders pull.
        network = kernel.devices.network
        network.host_content(
            "https://model-zoo.example/resnet.pt",
            Model({"w": rng.normal(size=(4, 4))}, architecture="resnet-zoo"),
        )
        network.host_content(
            "https://datasets.example/flowers.tgz", rng.normal(size=(8, 8))
        )

    # -- execution ---------------------------------------------------------

    #: Every evaluated program keeps some configuration in host memory —
    #: the critical data the Section 5.3 corruption analysis targets.
    CONFIG_TAG = "app.config"

    def run(self, gateway: ApiGateway, workload: Workload) -> AppResult:
        result = AppResult()
        gateway.host_alloc(self.CONFIG_TAG, {
            "app": self.spec.name, "mode": "eval", "threshold": 0.5,
        })
        init_sites = [s for s in self._schedule if not s.loop]
        loop_sites = [s for s in self._schedule if s.loop]
        state: Dict[str, Any] = {"current": None, "classifier": None}

        for index, site in enumerate(init_sites):
            self._execute_site(gateway, site, state, item=0, site_index=index,
                               result=result)

        for item in range(workload.items):
            for index, site in enumerate(loop_sites):
                for _ in range(max(site.repeat, 1)):
                    self._execute_site(
                        gateway, site, state, item=item,
                        site_index=index, result=result,
                    )
            result.items_processed += 1
        return result

    def _execute_site(
        self,
        gateway: ApiGateway,
        site: CallSite,
        state: Dict[str, Any],
        item: int,
        site_index: int,
        result: AppResult,
    ) -> None:
        value = self._dispatch(gateway, site, state, item, site_index)
        carryable = self._carryable(value)
        if site.argspec in (
            ArgSpec.SOURCE_PATH, ArgSpec.SOURCE_DIR,
            ArgSpec.SOURCE_CAMERA, ArgSpec.SOURCE_NONE,
        ):
            if carryable:
                state["current"] = value
            if (
                self._is_model(value)
                or site.api.startswith("CascadeClassifier")
                or site.api == "Net"
            ):
                state["classifier"] = value
        elif site.argspec in (ArgSpec.UNARY, ArgSpec.BINARY, ArgSpec.DETECT):
            if carryable:
                state["current"] = value
        if site.api_type is APIType.STORING:
            result.outputs[f"{site.api}:{item}:{site_index}"] = True

    def _dispatch(
        self,
        gateway: ApiGateway,
        site: CallSite,
        state: Dict[str, Any],
        item: int,
        site_index: int,
    ) -> Any:
        current = state.get("current")
        if current is None:
            current = self._seed_value(gateway)
            state["current"] = current
        spec = site.argspec
        if spec is ArgSpec.SOURCE_PATH:
            return gateway.call(site.framework, site.api, self.input_path(item))
        if spec is ArgSpec.SOURCE_DIR:
            return gateway.call(site.framework, site.api, self.dataset_dir())
        if spec is ArgSpec.SOURCE_CAMERA:
            capture = state.get("capture")
            if capture is None:
                capture = gateway.call(site.framework, "VideoCapture", 0)
                state["capture"] = capture
            return gateway.call(site.framework, site.api, capture)
        if spec is ArgSpec.SOURCE_NONE:
            return gateway.call(site.framework, site.api)
        if spec is ArgSpec.UNARY:
            return gateway.call(site.framework, site.api, current)
        if spec is ArgSpec.BINARY:
            return gateway.call(site.framework, site.api, current, current)
        if spec is ArgSpec.DETECT:
            classifier = state.get("classifier")
            if classifier is None:
                # All detector-style sites accept a generic model object;
                # the OpenCV constructor is the one every evaluated app
                # (main or secondary framework) has available.
                classifier = gateway.call("opencv", "CascadeClassifier")
                state["classifier"] = classifier
            return gateway.call(site.framework, site.api, classifier, current)
        if spec is ArgSpec.NONE:
            return gateway.call(site.framework, site.api)
        if spec is ArgSpec.SHOW:
            return gateway.call(
                site.framework, site.api, f"{self.spec.name}-window", current
            )
        if spec is ArgSpec.GUI_ONLY:
            return gateway.call(site.framework, site.api)
        if spec is ArgSpec.WINDOW_NAME:
            return gateway.call(
                site.framework, site.api, f"{self.spec.name}-window"
            )
        if spec is ArgSpec.SINK:
            return gateway.call(
                site.framework, site.api,
                self.output_path(item, site_index), current,
            )
        if spec is ArgSpec.SINK_OBJ:
            return gateway.call(
                site.framework, site.api,
                current, self.output_path(item, site_index),
            )
        if spec is ArgSpec.SINK_LIST:
            return gateway.call(
                site.framework, site.api,
                self.output_path(item, site_index), [current],
            )
        raise ValueError(f"unhandled argspec {spec}")

    def _seed_value(self, gateway: ApiGateway) -> Any:
        """A starting data object for schedules that process before loading."""
        rng = np.random.default_rng(self.spec.sample_id)
        return Mat(rng.normal(size=(16, 16)))

    @staticmethod
    def _carryable(value: Any) -> bool:
        """Whether a result can become the current data: a data object
        (or a handle to one), not a model, of 1..MAX_CARRIED_BYTES."""
        if isinstance(value, RemoteHandle):
            if value.ref.kind == "model":
                return False
            nbytes = value.ref.payload_bytes
        elif isinstance(value, (DataObject, np.ndarray)):
            if isinstance(value, Model):
                return False
            nbytes = int(value.nbytes)
        else:
            return False
        return 0 < nbytes <= MAX_CARRIED_BYTES

    @staticmethod
    def _is_model(value: Any) -> bool:
        """Model objects feed detectors, not the image pipeline."""
        if isinstance(value, Model):
            return True
        return isinstance(value, RemoteHandle) and value.ref.kind == "model"


def execute_app(
    app: Application,
    gateway: ApiGateway,
    workload: Optional[Workload] = None,
    setup: bool = True,
) -> RunReport:
    """Run an application and collect the virtual-metrics report."""
    workload = workload if workload is not None else Workload()
    kernel = gateway.kernel
    if setup:
        app.setup(kernel, workload)
    start_ns = kernel.clock.now_ns
    ipc_before = kernel.ipc.snapshot()
    failed = False
    error = ""
    result: Optional[AppResult] = None
    try:
        result = app.run(gateway, workload)
    except Exception as exc:  # the run itself is the experiment
        failed = True
        error = f"{type(exc).__name__}: {exc}"
    ipc_delta = kernel.ipc.delta_since(ipc_before)
    machine = getattr(gateway, "machine", None)
    return RunReport(
        app_name=app.spec.name,
        gateway=type(gateway).__name__,
        virtual_seconds=(kernel.clock.now_ns - start_ns) / 1e9,
        ipc_messages=ipc_delta.messages,
        ipc_bytes=ipc_delta.message_bytes,
        lazy_copies=ipc_delta.lazy_copies,
        lazy_copy_bytes=ipc_delta.lazy_copy_bytes,
        nonlazy_copies=ipc_delta.nonlazy_copies,
        nonlazy_copy_bytes=ipc_delta.nonlazy_copy_bytes,
        zero_copy_transfers=ipc_delta.zero_copy_transfers,
        zero_copy_bytes=ipc_delta.zero_copy_bytes,
        cow_downgrades=ipc_delta.cow_downgrades,
        cow_bytes=ipc_delta.cow_bytes,
        framed_messages=ipc_delta.framed_messages,
        api_calls=gateway.stats.total_calls(),
        transitions=machine.transition_count() if machine else 0,
        protected_buffers=machine.protected_total if machine else 0,
        crashes=getattr(gateway, "total_crashes", lambda: 0)(),
        restarts=getattr(gateway, "total_restarts", lambda: 0)(),
        processes=getattr(gateway, "process_count", 1),
        failed=failed,
        error=error,
        result=result,
    )
