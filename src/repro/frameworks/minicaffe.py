"""minicaffe — the Caffe analogue.

Proto/HDF5 loading, net construction + forward/backward processing, and
proto/HDF5 storing (Table 4's Caffe rows).  Caffe has no visualizing
APIs.  A subset of the shared operator library is registered under the
``caffe.layers`` prefix to model the layer catalogue.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.frameworks._oplib import (
    FILE_LOAD_SYSCALLS,
    NN_OPS,
    PROCESSING_SYSCALLS,
    STORE_SYSCALLS,
    UNARY_OPS,
    as_array,
    declare,
    register_tensor_ops,
)
from repro.frameworks.base import (
    Blob,
    ExecutionContext,
    Framework,
    Model,
    StatefulKind,
)

CAFFE = Framework("caffe", version="1.0")

_SAMPLE_PROTO_PATH = "/testdata/caffe/net.prototxt"
_SAMPLE_WEIGHTS_PATH = "/testdata/caffe/net.caffemodel"
_SAMPLE_HDF5_PATH = "/testdata/caffe/data.h5"


def sample_blob(seed: int = 23, size: int = 10) -> Blob:
    """A deterministic test blob."""
    rng = np.random.default_rng(seed)
    return Blob(rng.normal(size=(size, size)))


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(_SAMPLE_PROTO_PATH):
        fs.write_file(_SAMPLE_PROTO_PATH, {"layers": ["conv1", "relu1", "fc1"]})
    if not fs.exists(_SAMPLE_WEIGHTS_PATH):
        rng = np.random.default_rng(51)
        fs.write_file(
            _SAMPLE_WEIGHTS_PATH,
            Model({"conv1": rng.normal(size=(3, 3))}, architecture="caffenet"),
        )
    if not fs.exists(_SAMPLE_HDF5_PATH):
        rng = np.random.default_rng(52)
        fs.write_file(_SAMPLE_HDF5_PATH, rng.normal(size=(6, 6)))


def _blob_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((sample_blob(),), {})


register_tensor_ops(
    CAFFE,
    families=[UNARY_OPS, NN_OPS],
    qualprefixes=["caffe.layers", "caffe.layers"],
    object_cls=Blob,
    example_args=_blob_example,
    skip=("erf", "grid_sample", "pixel_shuffle"),
)


_register = partial(declare, CAFFE, prefix="caffe", base_cost_ns=40_000)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _proto_loader(name: str, path_default: str) -> None:
    def impl(ctx: ExecutionContext, path: str = path_default) -> Any:
        return ctx.guard(ctx.read_file(path))

    def example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
        _ensure_sample_files(ctx)
        return ((path_default,), {})

    _register(
        name, impl, APIType.LOADING,
        syscalls=FILE_LOAD_SYSCALLS,
        base_cost_ns=90_000,
        example=example,
        doc=f"caffe.{name}: parse a persisted structure from disk.",
    )


_proto_loader("ReadProtoFromTextFile", _SAMPLE_PROTO_PATH)
_proto_loader("ReadProtoFromBinaryFile", _SAMPLE_WEIGHTS_PATH)
_proto_loader("hdf5_load_nd_dataset", _SAMPLE_HDF5_PATH)
_proto_loader("ReadImageToDatum", _SAMPLE_HDF5_PATH)


def _net(ctx: ExecutionContext, proto_path: str = _SAMPLE_PROTO_PATH,
         weights_path: str = _SAMPLE_WEIGHTS_PATH) -> Model:
    proto = ctx.guard(ctx.read_file(proto_path))
    weights = ctx.guard(ctx.read_file(weights_path))
    layers = proto.get("layers", []) if isinstance(proto, dict) else []
    data: Dict[str, np.ndarray] = {}
    if isinstance(weights, Model):
        data.update(weights.data)
    return Model(data, architecture="+".join(layers) or "caffenet",
                 trojan=getattr(weights, "trojan", None))


def _net_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_PROTO_PATH, _SAMPLE_WEIGHTS_PATH), {})


_register(
    "Net", _net, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=200_000,
    example=_net_example,
    doc="Construct a net from a prototxt + caffemodel pair.",
)


# ----------------------------------------------------------------------
# Processing
# ----------------------------------------------------------------------


def _forward(ctx: ExecutionContext, net: Model, blob: Any) -> Blob:
    blob = ctx.guard(blob)
    arr = as_array(blob).astype(np.float64)
    for weight in net.data.values():
        kernel = np.asarray(weight, dtype=np.float64)
        scale = float(np.abs(kernel).mean() + 0.1)
        arr = np.maximum(arr * min(scale, 2.0), 0)
    ctx.mem_compute(nbytes=int(arr.nbytes))
    return Blob(arr)


def _forward_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(53)
    return ((Model({"conv1": rng.normal(size=(3, 3))}), sample_blob(54)), {})


_register(
    "Forward", _forward, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=200_000,
    example=_forward_example,
    doc="Run the net forward.",
)


def _backward(ctx: ExecutionContext, net: Model, blob: Any) -> Blob:
    blob = ctx.guard(blob)
    arr = as_array(blob).astype(np.float64)
    grads = np.gradient(arr)[0] if arr.size > 1 else arr
    ctx.mem_compute(nbytes=int(np.asarray(grads).nbytes))
    return Blob(np.asarray(grads))


_register(
    "Backward", _backward, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=250_000,
    example=_forward_example,
    doc="Run the net backward (stateful: gradient blobs).",
)


def _copy_trained_layers(ctx: ExecutionContext, net: Any, source: Any) -> Model:
    from repro.frameworks.base import coerce_model

    net = coerce_model(ctx.guard(net))
    source = coerce_model(ctx.guard(source))
    net.data.update(source.data)
    ctx.mem_compute(nbytes=sum(
        int(np.asarray(w).nbytes) for w in source.data.values()
    ))
    return net


def _copy_layers_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(55)
    return (
        (Model({}, architecture="a"), Model({"fc": rng.normal(size=(2, 2))})),
        {},
    )


_register(
    "CopyTrainedLayersFrom", _copy_trained_layers, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=120_000,
    example=_copy_layers_example,
    doc="Copy weights between nets in memory (Table 4 DP example).",
)


def _solver_step(ctx: ExecutionContext, net: Model, blob: Any) -> float:
    blob = ctx.guard(blob)
    loss = float(np.mean(np.square(as_array(blob))))
    ctx.mem_compute(nbytes=64)
    return loss


_register(
    "Solver_step", _solver_step, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="caffe.Solver.step",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=300_000,
    example=_forward_example,
    doc="One solver iteration (stateful: momentum buffers).",
)


def _blobs(ctx: ExecutionContext, net: Model) -> Dict[str, Blob]:
    ctx.mem_compute(nbytes=64)
    return {name: Blob(np.asarray(w, dtype=np.float64).copy())
            for name, w in net.data.items()}


def _blobs_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(56)
    return ((Model({"conv1": rng.normal(size=(2, 2))}),), {})


_register(
    "Net_blobs", _blobs, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="caffe.Net.blobs",
    example=_blobs_example,
    doc="Expose the net's intermediate blobs.",
)


# ----------------------------------------------------------------------
# Storing
# ----------------------------------------------------------------------


def _hdf5_save_string(ctx: ExecutionContext, path: str, value: str) -> None:
    ctx.write_file(path, str(ctx.guard(value)))


def _hdf5_save_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/caffe/out.h5", "payload"), {})


_register(
    "hdf5_save_string", _hdf5_save_string, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    example=_hdf5_save_example,
    doc="Write a string attribute into an HDF5 file.",
)


def _write_proto(ctx: ExecutionContext, proto: Any, path: str) -> None:
    proto = ctx.guard(proto)
    if isinstance(proto, dict):
        payload = dict(proto)
    else:
        payload = {"proto": type(proto).__name__}
    ctx.write_file(path, payload)


def _write_proto_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (({"layers": ["conv1"]}, "/out/caffe/out.prototxt"), {})


_register(
    "WriteProtoToTextFile", _write_proto, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    example=_write_proto_example,
    doc="Serialize a proto message as text.",
)


def _snapshot(ctx: ExecutionContext, net: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    net = coerce_model(ctx.guard(net))
    ctx.write_file(path, Model(dict(net.data), architecture=net.architecture))


def _snapshot_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(57)
    return ((Model({"fc": rng.normal(size=(2, 2))}), "/out/caffe/snap.caffemodel"), {})


_register(
    "Snapshot", _snapshot, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="caffe.Solver.snapshot",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=150_000,
    example=_snapshot_example,
    doc="Snapshot solver state to disk.",
)
