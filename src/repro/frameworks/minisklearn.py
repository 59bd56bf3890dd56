"""minisklearn — the Scikit-learn analogue.

The paper's introduction lists Scikit-learn among the frameworks
data-processing applications depend on; this module gives the
reproduction a classical-ML surface: dataset loaders, estimators
(fit/predict/transform), preprocessing, clustering, metrics, and joblib
persistence.  All processing APIs are pure memory-to-memory; the loaders
and ``joblib`` functions carry the file flows.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.frameworks._oplib import (
    FILE_LOAD_SYSCALLS,
    PROCESSING_SYSCALLS,
    STORE_SYSCALLS,
    declare,
    declare_operator,
)
from repro.frameworks.base import (
    ExecutionContext,
    Framework,
    Model,
    StatefulKind,
    Tensor,
)

SKLEARN = Framework("sklearn", version="0.24")

_SAMPLE_DATASET_PATH = "/testdata/sklearn/iris.csv"
_SAMPLE_MODEL_PATH = "/testdata/sklearn/model.joblib"


def sample_matrix(seed: int = 29, rows: int = 12, cols: int = 4) -> Tensor:
    """A deterministic feature matrix."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(rows, cols)))


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(_SAMPLE_DATASET_PATH):
        rng = np.random.default_rng(30)
        fs.write_file(_SAMPLE_DATASET_PATH, rng.normal(size=(12, 4)))
    if not fs.exists(_SAMPLE_MODEL_PATH):
        rng = np.random.default_rng(31)
        fs.write_file(
            _SAMPLE_MODEL_PATH,
            Model({"coef": rng.normal(size=(4,))}, architecture="logreg"),
        )


def _matrix_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((sample_matrix(),), {})


_register = partial(declare, SKLEARN, prefix="sklearn", base_cost_ns=30_000)


def _as_matrix(value: Any) -> np.ndarray:
    if hasattr(value, "data"):
        value = value.data
    return np.atleast_2d(np.asarray(value, dtype=np.float64))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _load_dataset(ctx: ExecutionContext, path: str = _SAMPLE_DATASET_PATH) -> Tensor:
    payload = ctx.guard(ctx.read_file(path))
    return Tensor(np.asarray(payload, dtype=np.float64))


def _dataset_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_DATASET_PATH,), {})


_register(
    "datasets_load_files", _load_dataset, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="sklearn.datasets.load_files",
    base_cost_ns=90_000,
    example=_dataset_example,
    doc="Load a dataset directory into a feature matrix.",
)

_register(
    "datasets_fetch_openml", _load_dataset, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="sklearn.datasets.fetch_openml",
    base_cost_ns=150_000,
    example=_dataset_example,
    doc="Fetch a dataset from the local OpenML cache.",
)


def _joblib_load(ctx: ExecutionContext, path: str = _SAMPLE_MODEL_PATH) -> Any:
    payload = ctx.guard(ctx.read_file(path))
    if isinstance(payload, Model):
        return Model(dict(payload.data), architecture=payload.architecture,
                     trojan=payload.trojan)
    return payload


def _model_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_MODEL_PATH,), {})


_register(
    "joblib_load", _joblib_load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    qualname="joblib.load",
    base_cost_ns=100_000,
    example=_model_example,
    doc="Deserialize a persisted estimator.",
)


# ----------------------------------------------------------------------
# Processing (estimators and transforms)
# ----------------------------------------------------------------------


_processing = partial(
    declare_operator, _register, Tensor, base_cost_ns=40_000, example=_matrix_example,
)


def _standardize(x: Any) -> np.ndarray:
    m = _as_matrix(x)
    return (m - m.mean(axis=0)) / (m.std(axis=0) + 1e-9)


def _minmax(x: Any) -> np.ndarray:
    m = _as_matrix(x)
    span = np.ptp(m, axis=0) + 1e-9
    return (m - m.min(axis=0)) / span


def _pca_fit_transform(x: Any, components: int = 2) -> np.ndarray:
    m = _as_matrix(x)
    centered = m - m.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:components].T


def _kmeans_fit_predict(x: Any, clusters: int = 2) -> np.ndarray:
    m = _as_matrix(x)
    clusters = max(1, min(clusters, len(m)))
    centers = m[np.linspace(0, len(m) - 1, clusters).astype(int)].copy()
    labels = np.zeros(len(m), dtype=np.int64)
    for _ in range(4):
        distances = ((m[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        for index in range(clusters):
            members = m[labels == index]
            if len(members):
                centers[index] = members.mean(axis=0)
    return labels


def _logreg_fit(x: Any) -> Model:
    m = _as_matrix(x)
    targets = (m.sum(axis=1) > np.median(m.sum(axis=1))).astype(np.float64)
    # One ridge-regularized least-squares step as the fitted separator.
    gram = m.T @ m + 1e-3 * np.eye(m.shape[1])
    coef = np.linalg.solve(gram, m.T @ targets)
    return Model({"coef": coef}, architecture="logreg")


def _predict(model: Any, x: Any) -> np.ndarray:
    coef = np.asarray(
        model.data.get("coef") if isinstance(model, Model)
        else _as_matrix(model).ravel()[: _as_matrix(x).shape[1]]
    )
    m = _as_matrix(x)
    coef = coef[: m.shape[1]]
    return (m[:, : len(coef)] @ coef > 0).astype(np.int64)


def _train_test_split(x: Any, ratio: float = 0.75) -> Tuple[np.ndarray, np.ndarray]:
    m = _as_matrix(x)
    cut = max(1, int(len(m) * ratio))
    return m[:cut].copy(), m[cut:].copy()


def _accuracy(a: Any, b: Any) -> float:
    left = np.asarray(_as_matrix(a)).ravel()
    right = np.asarray(_as_matrix(b)).ravel()
    size = min(len(left), len(right))
    if size == 0:
        return 0.0
    return float((left[:size].round() == right[:size].round()).mean())


_processing("StandardScaler_fit_transform", _standardize,
            qualname="sklearn.preprocessing.StandardScaler.fit_transform",
            stateful=StatefulKind.DATA_STATE,
            doc="Standardize features (keeps fitted mean/std).")
_processing("MinMaxScaler_fit_transform", _minmax,
            qualname="sklearn.preprocessing.MinMaxScaler.fit_transform",
            stateful=StatefulKind.DATA_STATE)
_processing("PCA_fit_transform", _pca_fit_transform,
            qualname="sklearn.decomposition.PCA.fit_transform",
            base_cost_ns=120_000)
_processing("KMeans_fit_predict", _kmeans_fit_predict,
            qualname="sklearn.cluster.KMeans.fit_predict",
            stateful=StatefulKind.DATA_STATE, base_cost_ns=150_000)
_processing("LogisticRegression_fit", _logreg_fit,
            qualname="sklearn.linear_model.LogisticRegression.fit",
            stateful=StatefulKind.DATA_STATE, base_cost_ns=200_000)
_processing("train_test_split", _train_test_split,
            qualname="sklearn.model_selection.train_test_split")
_processing("metrics_accuracy_score", _accuracy,
            qualname="sklearn.metrics.accuracy_score",
            example=lambda ctx: ((sample_matrix(1), sample_matrix(1)), {}))


def _predict_impl(ctx: ExecutionContext, model: Any, x: Any) -> Tensor:
    model = ctx.guard(model)
    x = ctx.guard(x)
    result = _predict(model, x)
    ctx.mem_compute(nbytes=int(result.nbytes))
    return Tensor(result)


def _predict_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(33)
    return ((Model({"coef": rng.normal(size=(4,))}), sample_matrix(34)), {})


_register(
    "predict", _predict_impl, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    qualname="sklearn.base.ClassifierMixin.predict",
    base_cost_ns=60_000,
    example=_predict_example,
    doc="Predict labels with a fitted estimator.",
)


# ----------------------------------------------------------------------
# Storing
# ----------------------------------------------------------------------


def _joblib_dump(ctx: ExecutionContext, obj: Any, path: str) -> None:
    from repro.frameworks.base import coerce_model

    model = coerce_model(ctx.guard(obj))
    ctx.write_file(path, Model(dict(model.data), architecture=model.architecture))


def _dump_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    rng = np.random.default_rng(35)
    return ((Model({"coef": rng.normal(size=(4,))}), "/out/sklearn/model.joblib"), {})


_register(
    "joblib_dump", _joblib_dump, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="joblib.dump",
    base_cost_ns=100_000,
    example=_dump_example,
    doc="Persist a fitted estimator.",
)


def _export_text(ctx: ExecutionContext, obj: Any, path: str) -> None:
    obj = ctx.guard(obj)
    ctx.write_file(path, repr(type(obj).__name__))


_register(
    "export_report", _export_text, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    qualname="sklearn.metrics.classification_report_to_file",
    example=lambda ctx: ((sample_matrix(36), "/out/sklearn/report.txt"), {}),
    doc="Write a classification report to disk.",
)
