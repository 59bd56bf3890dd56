"""minitf — the TensorFlow analogue.

Loading (``get_file`` downloads through a cache file and is categorized
as loading via the copy-via-file reduction of Section 4.2.1), a large
processing surface (shared operator library under ``tf.*`` qualnames plus
estimator training, which is the paper's canonical *stateful* processing
API), and storing (weights/images).  TensorFlow has no visualizing APIs.
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

TENSORFLOW = Framework("tensorflow", version="2.4")

_SAMPLE_DATASET_DIR = "/testdata/tensorflow/images"
_SAMPLE_MODEL_PATH = "/testdata/tensorflow/saved_model"
_DATASET_URL = "https://datasets.example/flowers.tgz"


def sample_tensor(seed: int = 22, size: int = 12) -> Tensor:
    """A deterministic test tensor."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(size, size)))


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(f"{_SAMPLE_DATASET_DIR}/index"):
        rng = np.random.default_rng(42)
        fs.write_file(f"{_SAMPLE_DATASET_DIR}/index", ["img-0", "img-1"])
        for i in range(2):
            fs.write_file(f"{_SAMPLE_DATASET_DIR}/img-{i}", rng.normal(size=(8, 8, 3)))
    if not fs.exists(_SAMPLE_MODEL_PATH):
        rng = np.random.default_rng(43)
        fs.write_file(
            _SAMPLE_MODEL_PATH,
            Model({"dense.kernel": rng.normal(size=(4, 4))}, architecture="keras"),
        )
    network = ctx.kernel.devices.network
    try:
        network.download(_DATASET_URL)
    except Exception:
        rng = np.random.default_rng(44)
        network.host_content(_DATASET_URL, rng.normal(size=(8, 8)))


def _tensor_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((sample_tensor(),), {})


register_tensor_ops(
    TENSORFLOW,
    families=[UNARY_OPS, REDUCTION_OPS, BINARY_OPS, SHAPE_OPS, NN_OPS],
    qualprefixes=["tf", "tf", "tf.math", "tf", "tf.nn"],
    object_cls=Tensor,
    example_args=_tensor_example,
)


_register = partial(declare, TENSORFLOW, prefix="tf", base_cost_ns=40_000)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _retrieve_through_cache(ctx: ExecutionContext, url: str, cache: str) -> Any:
    payload = ctx.guard(ctx.download(url))
    return ctx.stage_via_tempfile(payload, label=cache)


#: keras picks its URL opener by scheme at run time.
_OPENERS = {"http": _retrieve_through_cache, "https": _retrieve_through_cache}


def _get_file(ctx: ExecutionContext, url: str = _DATASET_URL) -> Any:
    """Download → cache file → read back (the Fig. 8 reduction example)."""
    return _OPENERS[url.partition(":")[0]](ctx, url, "keras-cache")


def _url_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_DATASET_URL,), {})


_register(
    "utils_get_file", _get_file, APIType.LOADING,
    syscalls=NET_LOAD_SYSCALLS,
    qualname="tf.keras.utils.get_file",
    base_cost_ns=200_000,
    example=_url_example,
    doc="Download a dataset through a local cache file.",
)


def _image_dataset_from_directory(
    ctx: ExecutionContext, root: str = _SAMPLE_DATASET_DIR
) -> Any:
    index = ctx.guard(ctx.read_file(f"{root}/index"))
    return [Tensor(as_array(ctx.read_file(f"{root}/{name}"))) for name in index]


def _dir_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_DATASET_DIR,), {})


_register(
    "image_dataset_from_directory", _image_dataset_from_directory, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="tf.keras.preprocessing.image_dataset_from_directory",
    base_cost_ns=150_000,
    example=_dir_example,
    doc="Load an image dataset from a directory tree.",
)


def _load_model(ctx: ExecutionContext, path: str = _SAMPLE_MODEL_PATH) -> Model:
    payload = ctx.guard(ctx.read_file(path))
    if isinstance(payload, Model):
        return Model(dict(payload.data), architecture=payload.architecture,
                     trojan=payload.trojan)
    return Model({"raw": as_array(payload)})


def _model_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_MODEL_PATH,), {})


_register(
    "keras_models_load_model", _load_model, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="tf.keras.models.load_model",
    base_cost_ns=180_000,
    example=_model_example,
    doc="Load a saved Keras model.",
)


def _tfrecord_dataset(ctx: ExecutionContext, path: str = _SAMPLE_MODEL_PATH) -> Any:
    payload = ctx.guard(ctx.read_file(path))
    return [payload]


_register(
    "data_TFRecordDataset", _tfrecord_dataset, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="tf.data.TFRecordDataset",
    base_cost_ns=100_000,
    example=_model_example,
    doc="Stream records from a TFRecord file.",
)


def _train_load_checkpoint(ctx: ExecutionContext, path: str = _SAMPLE_MODEL_PATH) -> Any:
    return ctx.guard(ctx.read_file(path))


_register(
    "train_load_checkpoint", _train_load_checkpoint, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="tf.train.load_checkpoint",
    base_cost_ns=120_000,
    example=_model_example,
    doc="Load a training checkpoint.",
)


# ----------------------------------------------------------------------
# TF-specific processing
# ----------------------------------------------------------------------


_simple_processing = partial(
    declare_operator, _register, Tensor, base_cost_ns=25_000, example=_tensor_example,
)


_simple_processing("convert_to_tensor",
                   lambda x: np.atleast_1d(as_array(x)).astype(np.float64))
_simple_processing("constant", lambda x=0.0: np.atleast_1d(as_array(x)).astype(np.float64))
_simple_processing("Variable", lambda x: as_array(x).astype(np.float64).copy(),
                   stateful=StatefulKind.DATA_STATE)


def _one_hot(x: Any, depth: Any = 4) -> np.ndarray:
    """Rows of the ``depth`` identity at the clipped indices, written as
    one scatter of ones into zeros instead of indexing ``np.eye``."""
    depth = int(depth)
    indices = np.clip(
        np.atleast_1d(as_array(x)).astype(np.int64), 0, depth - 1
    ) % depth
    out = np.zeros(indices.size * depth)
    out[np.arange(indices.size) * depth + indices.ravel()] = 1.0
    return out.reshape(indices.shape + (depth,))


_simple_processing("one_hot", _one_hot)
_simple_processing("cast", lambda x: as_array(x).astype(np.float32))
_simple_processing("expand_dims_batch", lambda x: np.expand_dims(as_array(x), 0),
                   qualname="tf.expand_dims")
_simple_processing("reduce_all", lambda x: bool(np.all(as_array(x) > -np.inf)))
_simple_processing("image_resize", lambda x: np.repeat(
    np.repeat(np.atleast_2d(as_array(x)), 2, axis=0), 2, axis=1),
    qualname="tf.image.resize")
_simple_processing("image_rgb_to_grayscale",
                   lambda x: np.atleast_3d(as_array(x)).mean(axis=2),
                   qualname="tf.image.rgb_to_grayscale")
_simple_processing("image_per_image_standardization",
                   lambda x: (as_array(x) - as_array(x).mean())
                   / (as_array(x).std() + 1e-9),
                   qualname="tf.image.per_image_standardization")
_simple_processing("random_normal", lambda shape=4: np.zeros(int(shape)),
                   qualname="tf.random.normal", example=lambda ctx: ((4,), {}))
_simple_processing("GradientTape", lambda: {"watched": []},
                   qualname="tf.GradientTape",
                   example=lambda ctx: ((), {}),
                   stateful=StatefulKind.DATA_STATE)
_simple_processing("keras_Model_fit", lambda x: float(np.mean(np.square(as_array(x)))),
                   qualname="tf.keras.Model.fit",
                   stateful=StatefulKind.DATA_STATE,
                   base_cost_ns=400_000,
                   doc="One training epoch (stateful: optimizer slots).")
_simple_processing("keras_Model_predict", lambda x: as_array(x) * 0.5,
                   qualname="tf.keras.Model.predict", base_cost_ns=150_000)
def _estimator_train(ctx: ExecutionContext, batch: Any) -> Dict[str, float]:
    """One training step; the global step lives in process state and is
    what the periodic checkpoints preserve across restarts (A.2.4)."""
    batch = ctx.guard(batch)
    step = ctx.stateful_counter("tf.estimator.DNNClassifier.train/global_step")
    loss = float(np.mean(np.square(as_array(batch)))) / step
    ctx.mem_compute(nbytes=64)
    return {"global_step": step, "loss": loss}


_register(
    "estimator_DNNClassifier_train", _estimator_train, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="tf.estimator.DNNClassifier.train",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=400_000,
    example=_tensor_example,
    doc="Estimator training step (the paper's stateful example).",
)
_simple_processing("debugging_enable_dump_debug_info",
                   lambda x=None: True,
                   qualname="tf.debugging.experimental.enable_dump_debug_info",
                   stateful=StatefulKind.DATA_STATE,
                   example=lambda ctx: ((), {}),
                   doc="Profiling hook (state shared across APIs, A.6).")
_simple_processing("Session_run", lambda x: as_array(x) * 1.0,
                   qualname="tf.compat.v1.Session.run", base_cost_ns=120_000)


# ----------------------------------------------------------------------
# Storing
# ----------------------------------------------------------------------


def _save_weights(ctx: ExecutionContext, model: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    model = coerce_model(ctx.guard(model))
    ctx.write_file(path, Model(dict(model.data), architecture=model.architecture))


def _save_weights_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(45)
    return ((Model({"w": rng.normal(size=(4, 4))}), "/out/tensorflow/weights.h5"), {})


_register(
    "Model_save_weights", _save_weights, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="tf.keras.Model.save_weights",
    base_cost_ns=150_000,
    example=_save_weights_example,
    doc="Serialize model weights.",
)


def _save_img(ctx: ExecutionContext, path: str, image: Any) -> None:
    image = ctx.guard(image)
    ctx.write_file(path, as_array(image).copy())


def _save_img_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/tensorflow/image.png", sample_tensor(46)), {})


_register(
    "preprocessing_image_save_img", _save_img, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="tf.keras.preprocessing.image.save_img",
    base_cost_ns=80_000,
    example=_save_img_example,
    doc="Write an image array to disk.",
)


def _checkpoint_save(ctx: ExecutionContext, state: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    state = coerce_model(ctx.guard(state))
    ctx.write_file(path, Model(dict(state.data), architecture=state.architecture))


def _checkpoint_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(47)
    return ((Model({"w": rng.normal(size=(2, 2))}), "/out/tensorflow/ckpt"), {})


_register(
    "train_Checkpoint_save", _checkpoint_save, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="tf.train.Checkpoint.save",
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=150_000,
    example=_checkpoint_example,
    doc="Save a training checkpoint.",
)
