"""minitorch — the PyTorch analogue.

Loading (model/dataset I/O), a large data-processing operator surface
(built from the shared operator library plus torch-specific entry
points), and storing (checkpoints, TensorBoard).  PyTorch has no
visualizing APIs (Table 4 footnote).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.frameworks._oplib import (
    BINARY_OPS,
    FILE_LOAD_SYSCALLS,
    NET_LOAD_SYSCALLS,
    NN_OPS,
    PROCESSING_SYSCALLS,
    REDUCTION_OPS,
    SHAPE_OPS,
    STORE_SYSCALLS,
    UNARY_OPS,
    as_array,
    declare,
    declare_operator,
    register_tensor_ops,
)
from repro.frameworks.base import (
    ExecutionContext,
    Framework,
    Model,
    StatefulKind,
    Tensor,
)

PYTORCH = Framework("pytorch", version="1.8")

_SAMPLE_MODEL_PATH = "/testdata/pytorch/model.pt"
_SAMPLE_DATASET_DIR = "/testdata/pytorch/mnist"
_MODEL_ZOO_URL = "https://model-zoo.example/resnet.pt"


def sample_tensor(seed: int = 21, size: int = 12) -> Tensor:
    """A deterministic test tensor."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(size, size)))


def sample_weights(seed: int = 31) -> Dict[str, np.ndarray]:
    """A deterministic weights dict for model tests."""
    rng = np.random.default_rng(seed)
    return {
        "conv1.weight": rng.normal(size=(3, 3)),
        "fc.weight": rng.normal(size=(4, 4)),
    }


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(_SAMPLE_MODEL_PATH):
        fs.write_file(_SAMPLE_MODEL_PATH, Model(sample_weights(), architecture="resnet"))
    index_path = f"{_SAMPLE_DATASET_DIR}/index"
    if not fs.exists(index_path):
        rng = np.random.default_rng(41)
        fs.write_file(index_path, ["batch-0", "batch-1"])
        for i in range(2):
            fs.write_file(
                f"{_SAMPLE_DATASET_DIR}/batch-{i}", rng.normal(size=(4, 8, 8))
            )
    network = ctx.kernel.devices.network
    try:
        network.download(_MODEL_ZOO_URL)
    except Exception:
        network.host_content(
            _MODEL_ZOO_URL, Model(sample_weights(51), architecture="resnet-zoo")
        )


def _tensor_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((sample_tensor(),), {})


register_tensor_ops(
    PYTORCH,
    families=[UNARY_OPS, REDUCTION_OPS, BINARY_OPS, SHAPE_OPS, NN_OPS],
    qualprefixes=["torch", "torch", "torch", "torch", "torch.nn.functional"],
    object_cls=Tensor,
    example_args=_tensor_example,
)


_register = partial(declare, PYTORCH, prefix="torch", base_cost_ns=40_000)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _load(ctx: ExecutionContext, path: str) -> Any:
    payload = ctx.guard(ctx.read_file(path))
    if isinstance(payload, Model):
        return Model(dict(payload.data), architecture=payload.architecture,
                     trojan=payload.trojan)
    return payload


def _model_path_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_MODEL_PATH,), {})


_register(
    "load", _load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=120_000,
    example=_model_path_example,
    doc="Deserialize a checkpoint or model from disk.",
)


def _fetch_through_cache(ctx: ExecutionContext, url: str, cache: str) -> Any:
    payload = ctx.guard(ctx.download(url))
    return ctx.stage_via_tempfile(payload, label=cache)


#: torch.hub picks its fetcher by URL scheme at run time.
_FETCHERS = {"http": _fetch_through_cache, "https": _fetch_through_cache}


def _hub_load(ctx: ExecutionContext, url: str = _MODEL_ZOO_URL) -> Any:
    return _FETCHERS[url.partition(":")[0]](ctx, url, "hub-cache")


def _url_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_MODEL_ZOO_URL,), {})


_register(
    "hub_load", _hub_load, APIType.LOADING,
    syscalls=NET_LOAD_SYSCALLS,
    qualname="torch.hub.load",
    base_cost_ns=200_000,
    example=_url_example,
    doc="Download a model from a hub URL through a cache file.",
)

_register(
    "model_zoo_load_url", _hub_load, APIType.LOADING,
    syscalls=NET_LOAD_SYSCALLS,
    qualname="torch.utils.model_zoo.load_url",
    base_cost_ns=200_000,
    example=_url_example,
    doc="Download weights from the model zoo through a cache file.",
)


def _dataset_loader(name: str, qualname: str) -> None:
    def impl(ctx: ExecutionContext, root: str = _SAMPLE_DATASET_DIR) -> Any:
        index = ctx.guard(ctx.read_file(f"{root}/index"))
        batches = [ctx.read_file(f"{root}/{entry}") for entry in index]
        return [Tensor(as_array(b)) for b in batches]

    def example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
        _ensure_sample_files(ctx)
        return ((_SAMPLE_DATASET_DIR,), {})

    _register(
        name, impl, APIType.LOADING,
        syscalls=FILE_LOAD_SYSCALLS,
        qualname=qualname,
        base_cost_ns=150_000,
        example=example,
        doc=f"{qualname}: load a dataset from disk.",
    )


_dataset_loader("datasets_MNIST", "torchvision.datasets.MNIST")
_dataset_loader("datasets_CIFAR10", "torchvision.datasets.CIFAR10")
_dataset_loader("datasets_ImageFolder", "torchvision.datasets.ImageFolder")


def _data_loader(ctx: ExecutionContext, dataset: Any, batch_size: int = 2) -> Any:
    # The loader prefetches its shard index from disk (the paper treats
    # torch.utils.data.DataLoader as a data-loading API alongside
    # datasets.MNIST; see Appendix A.6).
    _ensure_sample_files(ctx)
    ctx.read_file(f"{_SAMPLE_DATASET_DIR}/index")
    if isinstance(dataset, list):
        return [dataset[i:i + batch_size] for i in range(0, len(dataset), batch_size)]
    return [dataset]


def _dataloader_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return (([sample_tensor(1), sample_tensor(2)],), {})


_register(
    "DataLoader", _data_loader, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="torch.utils.data.DataLoader",
    base_cost_ns=60_000,
    example=_dataloader_example,
    doc="Batch a dataset, prefetching shard metadata from disk.",
)


# ----------------------------------------------------------------------
# Torch-specific processing
# ----------------------------------------------------------------------


_simple_processing = partial(
    declare_operator, _register, Tensor, base_cost_ns=25_000, example=_tensor_example,
)


_simple_processing("tensor", lambda x=0.0: np.atleast_1d(as_array(x)).astype(np.float64),
                   doc="Construct a tensor from data.")
_simple_processing("from_numpy", lambda x: as_array(x).astype(np.float64))
_simple_processing("zeros", lambda n=4: np.zeros(int(n)),
                   example=lambda ctx: ((4,), {}))
_simple_processing("ones", lambda n=4: np.ones(int(n)),
                   example=lambda ctx: ((4,), {}))
_simple_processing("arange", lambda n=4: np.arange(int(n), dtype=np.float64),
                   example=lambda ctx: ((4,), {}))
_simple_processing("randn_like", lambda x: np.zeros_like(as_array(x), dtype=np.float64))
_simple_processing("cat", lambda x: np.concatenate([np.atleast_1d(as_array(x))] * 2))
_simple_processing("chunk", lambda x: np.array_split(np.atleast_1d(as_array(x)), 2))
_simple_processing("topk", lambda x, k=3: np.sort(as_array(x).reshape(-1))[::-1][:k].copy())
_simple_processing("argsort", lambda x: np.argsort(as_array(x).reshape(-1)))
_simple_processing("gather", lambda x: np.atleast_1d(as_array(x)).reshape(-1)[:2].copy())
_simple_processing("masked_fill", lambda x: np.where(as_array(x) > 0, 0.0, as_array(x)))
_simple_processing("bmm", lambda x: np.atleast_2d(as_array(x)) @ np.atleast_2d(as_array(x)).T)
_simple_processing("einsum", lambda x: np.atleast_2d(as_array(x)).sum(axis=0))
_simple_processing("detach", lambda x: as_array(x).copy())
_simple_processing("item", lambda x: float(np.asarray(as_array(x)).reshape(-1)[0]))
_simple_processing("numel", lambda x: int(np.asarray(as_array(x)).size))
_simple_processing("combinations", lambda x: np.stack(
    np.meshgrid(np.atleast_1d(as_array(x))[:3], np.atleast_1d(as_array(x))[:3]), axis=-1
).reshape(-1, 2))
_simple_processing("nn_Conv2d", lambda x=None: np.full((3, 3), 1 / 9.0),
                   qualname="torch.nn.Conv2d",
                   example=lambda ctx: ((), {}),
                   doc="Construct a convolution module (its kernel).")
_simple_processing("nn_Linear", lambda x=None: np.eye(4),
                   qualname="torch.nn.Linear", example=lambda ctx: ((), {}))
_simple_processing("nn_BatchNorm2d", lambda x=None: np.ones(4),
                   qualname="torch.nn.BatchNorm2d", example=lambda ctx: ((), {}))
_simple_processing("Module_forward", lambda x: as_array(x) * 0.5 + 0.1,
                   qualname="torch.nn.Module.forward", base_cost_ns=150_000)
_simple_processing("backward", lambda x: np.gradient(np.atleast_1d(as_array(x)).astype(np.float64))
                   if np.asarray(x).size > 1 else np.zeros(1),
                   qualname="torch.Tensor.backward", base_cost_ns=200_000,
                   stateful=StatefulKind.DATA_STATE,
                   doc="Accumulate gradients (stateful: autograd buffers).")
_simple_processing("optimizer_step", lambda x: as_array(x) * 0.99,
                   qualname="torch.optim.Optimizer.step",
                   stateful=StatefulKind.DATA_STATE, base_cost_ns=80_000)
_simple_processing("zero_grad", lambda x: np.zeros_like(as_array(x), dtype=np.float64),
                   qualname="torch.optim.Optimizer.zero_grad")
_simple_processing("clip_grad_norm", lambda x: np.clip(as_array(x), -1.0, 1.0),
                   qualname="torch.nn.utils.clip_grad_norm_")
_simple_processing("no_grad", lambda: True, qualname="torch.no_grad",
                   example=lambda ctx: ((), {}))
_simple_processing("manual_seed", lambda n=0: int(n),
                   qualname="torch.manual_seed",
                   stateful=StatefulKind.INIT_ONLY,
                   example=lambda ctx: ((7,), {}),
                   doc="Seed the RNG (init-only state).")
_simple_processing("set_num_threads", lambda n=1: int(n),
                   qualname="torch.set_num_threads",
                   stateful=StatefulKind.INIT_ONLY,
                   example=lambda ctx: ((2,), {}))


def _load_state_dict(ctx: ExecutionContext, model: Model, weights: Any) -> Model:
    weights = ctx.guard(weights)
    if isinstance(weights, Model):
        weights = weights.data
    model.data.update(weights)
    ctx.mem_compute(nbytes=sum(int(w.nbytes) for w in model.data.values() if hasattr(w, "nbytes")))
    return model


def _state_dict_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Model({}, architecture="resnet"), sample_weights()), {})


_register(
    "load_state_dict", _load_state_dict, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="torch.nn.Module.load_state_dict",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=90_000,
    example=_state_dict_example,
    doc="Copy weights into a module (memory-to-memory).",
)


# ----------------------------------------------------------------------
# Storing
# ----------------------------------------------------------------------


def _save(ctx: ExecutionContext, obj: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    obj = ctx.guard(obj)
    if isinstance(obj, Model):
        payload: Any = Model(dict(obj.data), architecture=obj.architecture)
    elif isinstance(obj, (list, dict)):
        payload = coerce_model(np.zeros(1))
    else:
        payload = as_array(obj).copy()
    ctx.write_file(path, payload)


def _save_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Model(sample_weights(61)), "/out/pytorch/model-out.pt"), {})


_register(
    "save", _save, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    base_cost_ns=120_000,
    example=_save_example,
    doc="Serialize an object to disk.",
)


def _summary_writer(ctx: ExecutionContext, logdir: str = "/out/tensorboard") -> Any:
    ctx.write_file(f"{logdir}/events.out", [])
    return {"logdir": logdir, "events": []}


def _writer_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/tensorboard",), {})


_register(
    "SummaryWriter", _summary_writer, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="torch.utils.tensorboard.writer.SummaryWriter",
    stateful=StatefulKind.DATA_STATE,
    example=_writer_example,
    doc="Open a TensorBoard event-file writer.",
)


def _add_scalar(ctx: ExecutionContext, writer: Any, tag: str, value: float) -> None:
    writer["events"].append((tag, float(value)))
    ctx.write_file(f"{writer['logdir']}/events.out", list(writer["events"]))


def _add_scalar_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (({"logdir": "/out/tensorboard", "events": []}, "loss", 0.5), {})


_register(
    "SummaryWriter_add_scalar", _add_scalar, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="torch.utils.tensorboard.writer.SummaryWriter.add_scalar",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=20_000,
    example=_add_scalar_example,
    doc="Append a scalar to the event file.",
)


def _onnx_export(ctx: ExecutionContext, model: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    model = coerce_model(ctx.guard(model))
    ctx.write_file(path, {"architecture": model.architecture,
                          "weights": dict(model.data)})


def _onnx_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Model(sample_weights(71)), "/out/pytorch/model.onnx"), {})


_register(
    "onnx_export", _onnx_export, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="torch.onnx.export",
    base_cost_ns=150_000,
    example=_onnx_example,
    doc="Export a model to ONNX.",
)
