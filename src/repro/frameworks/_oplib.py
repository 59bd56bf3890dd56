"""How the built-in mini-frameworks declare their APIs, and the operator
library the ML frameworks share.

:func:`declare` registers an API under its final spec: both costs scaled
by :data:`COMPUTE_COST_SCALE`, and the CVEs :mod:`repro.attacks.cves`
binds to it attached.  :func:`declare_operator` declares a
memory-to-memory operator.  The ML frameworks (minitorch, minitf,
minicaffe) share families of operators (elementwise math, reductions,
shape ops, neural-network layers), implemented here once over ndarrays
and bound into a framework by :func:`register_tensor_ops`: all of these
are *data processing* APIs (``W(MEM, R(MEM))`` only).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Type

import numpy as np

from repro.attacks.cves import cves_for_api
from repro.core.apitypes import APIType
from repro.frameworks.base import (
    APISpec,
    DataObject,
    ExampleArgs,
    ExecutionContext,
    Framework,
    Implementation,
    StatefulKind,
)

#: The syscalls each kind of API issues through the ExecutionContext
#: helpers: a pure in-memory operator (allocator traffic only), a file
#: load, a download staged through a cache file, a file store, and the
#: GUI helpers plus what their first call in a process needs.
PROCESSING_SYSCALLS = ("brk",)
FILE_LOAD_SYSCALLS = ("openat", "fstat", "read", "close", "brk", "lseek")
NET_LOAD_SYSCALLS = ("socket", "connect", "recvfrom", "memfd_create", "read", "close", "brk")
STORE_SYSCALLS = ("openat", "write", "close", "brk")
GUI_SYSCALLS = ("sendto", "futex", "select", "brk")
GUI_INIT_SYSCALLS = ("connect", "mprotect")

#: Global compute-cost calibration.  The per-API costs in the framework
#: modules encode *relative* expense; this factor scales them so the
#: ratio between API compute time and the isolation costs (IPC, copies)
#: matches the regime the paper measured on real frameworks — real image
#: operators take hundreds of microseconds while an IPC round trip takes
#: a handful, which is what yields the ~3.7% overhead of Fig. 13.
COMPUTE_COST_SCALE = 8

ArrayFn = Callable[..., np.ndarray]


def declare(
    framework: Framework,
    name: str,
    impl: Implementation,
    api_type: APIType,
    *,
    syscalls: Tuple[str, ...],
    base_cost_ns: int,
    prefix: str = "",
    qualname: str = "",
    init_syscalls: Tuple[str, ...] = (),
    neutral: bool = False,
    stateful: StatefulKind = StatefulKind.STATELESS,
    cost_ns_per_byte: float = 0.05,
    example: Optional[ExampleArgs] = None,
    doc: str = "",
) -> None:
    """Register one built-in API under its final spec: both costs
    scaled, its CVEs attached, and a qualname of ``prefix.name`` unless
    one is given."""
    spec = APISpec(
        name=name,
        framework=framework.name,
        qualname=qualname or f"{prefix}.{name}",
        ground_truth=api_type,
        syscalls=syscalls,
        init_syscalls=init_syscalls,
        stateful=stateful,
        neutral=neutral,
        base_cost_ns=base_cost_ns * COMPUTE_COST_SCALE,
        cost_ns_per_byte=cost_ns_per_byte * COMPUTE_COST_SCALE,
        vulnerabilities=tuple(
            record.cve_id for record in cves_for_api(framework.name, name)
        ),
        example_args=example,
        doc=doc,
    )
    framework.add(spec, impl)


def declare_operator(
    register: Callable[..., None],
    result_cls: Type[DataObject],
    name: str,
    fn: Callable[..., Any],
    *,
    arrays: bool = False,
    **spec: Any,
) -> None:
    """Declare ``fn`` as a memory-to-memory operator through ``register``.

    The implementation guards every argument (and, with ``arrays``,
    hands ``fn`` ndarrays), records the computation, and wraps an
    ndarray result in ``result_cls``.  ``spec`` goes to ``register``.
    """

    def impl(ctx: ExecutionContext, *args: Any, **kwargs: Any) -> Any:
        values = [as_array(ctx.guard(a)) if arrays else ctx.guard(a) for a in args]
        result = fn(*values, **kwargs)
        nbytes = int(getattr(result, "nbytes", 8))
        ctx.mem_compute(nbytes=nbytes)
        if isinstance(result, np.ndarray):
            return result_cls(result)
        return result

    register(name, impl, APIType.PROCESSING, syscalls=PROCESSING_SYSCALLS, **spec)


def as_array(value: Any) -> np.ndarray:
    """Coerce a DataObject / ndarray / scalar to an ndarray."""
    if isinstance(value, DataObject):
        value = value.data
    return np.asarray(value)


def _binary(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ArrayFn:
    def apply(a: Any, b: Any) -> np.ndarray:
        return fn(as_array(a), as_array(b))

    return apply


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _pool2d(x: np.ndarray, size: int = 2, reducer: ArrayFn = np.max) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h, w = x.shape[:2]
    h2, w2 = (h // size) * size, (w // size) * size
    trimmed = x[:h2, :w2]
    reshaped = trimmed.reshape(h2 // size, size, w2 // size, size, *x.shape[2:])
    return reducer(reducer(reshaped, axis=3), axis=1)


def _conv2d(x: np.ndarray, kernel: Optional[np.ndarray] = None) -> np.ndarray:
    from scipy import ndimage

    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        x = np.atleast_2d(x)
    if kernel is None:
        kernel = np.full((3, 3), 1.0 / 9.0)
    kernel = np.asarray(kernel, dtype=np.float64)
    if x.ndim == 3:
        channels = [
            ndimage.convolve(x[..., c], kernel, mode="nearest")
            for c in range(x.shape[2])
        ]
        return np.stack(channels, axis=-1)
    return ndimage.convolve(x, kernel, mode="nearest")


def _batch_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (x - x.mean()) / np.sqrt(x.var() + eps)


def _dropout(x: np.ndarray, rate: float = 0.5) -> np.ndarray:
    # Deterministic "inference mode" dropout: scale only.
    return np.asarray(x, dtype=np.float64) * (1.0 - rate)


def _linear(x: np.ndarray, out_features: int = 8) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    weights = np.arange(1, x.size * out_features + 1, dtype=np.float64)
    weights = weights.reshape(x.size, out_features) / (x.size * out_features)
    return x @ weights


def _embedding(indices: np.ndarray, dim: int = 8) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    table = np.outer(
        np.arange(int(indices.max(initial=0)) + 1, dtype=np.float64) + 1.0,
        np.linspace(0.1, 1.0, dim),
    )
    return table[indices % len(table)]


def _cross_entropy(logits: np.ndarray, target: Optional[np.ndarray] = None) -> float:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    probs = _softmax(logits, axis=-1)
    if target is None:
        target = np.zeros(len(probs), dtype=np.int64)
    target = np.asarray(target, dtype=np.int64).reshape(-1)
    picked = probs[np.arange(len(probs)), target % probs.shape[1]]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


#: ``math.erf`` as an object ufunc: one C call per element, no Python frame.
_erf_ufunc = np.frompyfunc(math.erf, 1, 1)

#: name → (callable over arrays, arity) for elementwise/unary operators.
UNARY_OPS: Dict[str, ArrayFn] = {
    "abs": np.abs,
    "exp": lambda x: np.exp(np.clip(x, -60, 60)),
    "log": lambda x: np.log(np.abs(x) + 1e-9),
    "sqrt": lambda x: np.sqrt(np.abs(x)),
    "square": np.square,
    "negative": np.negative,
    "sign": np.sign,
    "floor": np.floor,
    "ceil": np.ceil,
    "round": np.round,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "relu": _relu,
    "softplus": lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0),
    "reciprocal": lambda x: 1.0 / (np.asarray(x, dtype=np.float64) + 1e-9),
    "clamp": lambda x: np.clip(x, 0.0, 1.0),
    "erf": lambda x: np.asarray(
        _erf_ufunc(np.asarray(x, dtype=np.float64)), dtype=np.float64
    ),
}


REDUCTION_OPS: Dict[str, ArrayFn] = {
    "sum": np.sum,
    "mean": np.mean,
    "max": np.max,
    "min": np.min,
    "argmax": np.argmax,
    "argmin": np.argmin,
    "std": np.std,
    "var": np.var,
    "prod": lambda x: np.prod(np.clip(x, -10, 10)),
    "norm": np.linalg.norm,
    "median": np.median,
    "cumsum": np.cumsum,
    "count_nonzero": np.count_nonzero,
}

BINARY_OPS: Dict[str, ArrayFn] = {
    "add": _binary(np.add),
    "sub": _binary(np.subtract),
    "mul": _binary(np.multiply),
    "div": _binary(lambda a, b: a / (b + 1e-9)),
    "pow": _binary(lambda a, b: np.power(np.abs(a) + 1e-9, np.clip(b, -4, 4))),
    "maximum": _binary(np.maximum),
    "minimum": _binary(np.minimum),
    "matmul": _binary(lambda a, b: np.atleast_2d(a) @ np.atleast_2d(b).T),
    "dot": _binary(lambda a, b: np.dot(a.reshape(-1), b.reshape(-1))),
    "where_gt": _binary(lambda a, b: np.where(a > b, a, b)),
}

SHAPE_OPS: Dict[str, ArrayFn] = {
    "reshape": lambda x: np.asarray(x).reshape(-1),
    "transpose": lambda x: np.transpose(np.atleast_2d(x)),
    "flatten": lambda x: np.asarray(x).reshape(-1),
    "squeeze": np.squeeze,
    "unsqueeze": lambda x: np.expand_dims(x, 0),
    "concat": lambda x: np.concatenate([np.atleast_1d(x), np.atleast_1d(x)]),
    "stack": lambda x: np.stack([np.atleast_1d(x), np.atleast_1d(x)]),
    "split": lambda x: np.array_split(np.atleast_1d(x), 2)[0],
    "pad": lambda x: np.pad(np.atleast_1d(x), 1),
    "tile": lambda x: np.tile(np.atleast_1d(x), 2),
    "flip": lambda x: np.flip(x),
    "roll": lambda x: np.roll(x, 1),
    "sort": lambda x: np.sort(np.asarray(x).reshape(-1)),
    "unique": lambda x: np.unique(x),
    "broadcast": lambda x: np.broadcast_to(np.asarray(x).reshape(-1)[:1], (4,)).copy(),
}

NN_OPS: Dict[str, ArrayFn] = {
    "conv2d": _conv2d,
    "conv3d": lambda x: _conv2d(np.atleast_2d(np.asarray(x, dtype=np.float64))),
    "avg_pool": lambda x: _pool2d(np.atleast_2d(x), reducer=np.mean),
    "max_pool": lambda x: _pool2d(np.atleast_2d(x), reducer=np.max),
    "batch_norm": _batch_norm,
    "layer_norm": _batch_norm,
    "instance_norm": _batch_norm,
    "dropout": _dropout,
    "linear": _linear,
    "embedding": _embedding,
    "softmax": lambda x: _softmax(np.asarray(x, dtype=np.float64)),
    "log_softmax": lambda x: np.log(_softmax(np.asarray(x, dtype=np.float64)) + 1e-12),
    "cross_entropy": _cross_entropy,
    "mse_loss": lambda x: float(np.mean(np.square(np.asarray(x, dtype=np.float64)))),
    "nll_loss": lambda x: float(-np.mean(np.asarray(x, dtype=np.float64))),
    "leaky_relu": lambda x: np.where(np.asarray(x) > 0, x, 0.01 * np.asarray(x)),
    "elu": lambda x: np.where(np.asarray(x) > 0, x, np.expm1(np.clip(x, -60, 0))),
    "gelu": lambda x: np.asarray(x) * _sigmoid(1.702 * np.asarray(x, dtype=np.float64)),
    "upsample": lambda x: np.repeat(np.repeat(np.atleast_2d(x), 2, axis=0), 2, axis=1),
    "pixel_shuffle": lambda x: np.atleast_2d(x).repeat(2, axis=0),
    "grid_sample": lambda x: np.atleast_2d(np.asarray(x, dtype=np.float64))[::1],
    "interpolate": lambda x: np.repeat(np.atleast_1d(x), 2),
}


def binary_example_from(example_args: ExampleArgs) -> ExampleArgs:
    """Duplicate a unary example's tensor into a two-argument test case."""

    def example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
        args, kwargs = example_args(ctx)
        return (args[0], args[0]), kwargs

    return example


def register_tensor_ops(
    framework: Framework,
    families: Sequence[Dict[str, ArrayFn]],
    qualprefixes: Sequence[str],
    object_cls: Type[DataObject],
    example_args: ExampleArgs,
    skip: Iterable[str] = (),
) -> None:
    """Register operator families into ``framework``.

    ``qualprefixes`` pairs with ``families`` (e.g. ``"torch.nn"`` for the
    NN family).  Every generated API is data-processing, stateless, and
    covered by a dynamic-analysis test case (``example_args``).
    """
    register = partial(declare, framework)
    two_arg_example = binary_example_from(example_args)
    for family, prefix in zip(families, qualprefixes):
        case = two_arg_example if family is BINARY_OPS else example_args
        for name, fn in family.items():
            if name not in skip:
                declare_operator(
                    register, object_cls, name, fn, arrays=True,
                    prefix=prefix, base_cost_ns=15_000, example=case,
                    doc=f"{prefix}.{name}: memory-to-memory tensor operator",
                )
