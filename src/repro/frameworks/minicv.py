"""minicv — the OpenCV analogue.

A numpy/scipy-backed computer-vision framework exposing the API surface
the paper's evaluation needs: image/video loading, ~80 image-processing
operators, GUI windows, and image/video storing.  Every API issues its
real syscalls through the execution context and records its data flows,
so the hybrid analysis categorizes it from observed behaviour.

``scipy.ndimage`` loads with the first scipy-backed operator that runs
(or with :mod:`repro.apps`, which imports it up front), not with this
module: importing it costs about 0.2 s and 27 MiB over numpy.  The
Gaussian family runs on numpy alone, so serving, cluster and
load-generation processes never load scipy.

API naming follows OpenCV (``imread``, ``GaussianBlur``,
``CascadeClassifier`` + ``CascadeClassifier_load`` +
``CascadeClassifier_detectMultiScale`` for the class's methods).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.apitypes import APIType
from repro.core.dataflow import Storage, write
from repro.frameworks._oplib import (
    FILE_LOAD_SYSCALLS,
    GUI_INIT_SYSCALLS,
    GUI_SYSCALLS,
    PROCESSING_SYSCALLS,
    STORE_SYSCALLS,
    as_array,
    declare,
    declare_operator,
)
from repro.frameworks.base import (
    DataObject,
    ExecutionContext,
    Frame,
    Framework,
    Mat,
    Model,
    StatefulKind,
)

OPENCV = Framework("opencv", version="4.1")

#: A camera read (``ExecutionContext.camera_frame``).
_CAMERA_SYSCALLS = ("openat", "ioctl", "select", "brk")


def _float(value: Any) -> np.ndarray:
    return as_array(value).astype(np.float64)


def _gray(value: Any) -> np.ndarray:
    arr = _float(value)
    if arr.ndim == 3:
        arr = arr.mean(axis=2)
    return np.atleast_2d(arr)


class _DeferredNdimage:
    """``scipy.ndimage`` until an operator first reads an attribute of
    it; that read imports scipy and rebinds this module's ``ndimage`` to
    the real module, so later calls pay nothing extra."""

    def __getattr__(self, name: str) -> Any:
        global ndimage
        from scipy import ndimage

        return getattr(ndimage, name)


ndimage = _DeferredNdimage()


@lru_cache(maxsize=64)
def _gaussian_weights(sigma: float) -> np.ndarray:
    """The correlation weights ``ndimage.gaussian_filter`` builds for
    ``sigma`` on every call and axis, built once (read-only, shared).

    scipy's formula: radius ``int(4 * sigma + 0.5)`` (truncate 4), the
    normalised ``exp(-0.5 / sigma**2 * x**2)``, reversed for correlation.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[::-1].copy()
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=256)
def _reflect_taps(length: int, sigma: float,
                  ndim: int) -> Tuple[np.ndarray, np.ndarray]:
    """What a reflect-mode pass of σ's weights along an axis of
    ``length`` reads, for an ``ndim``-D array (both read-only, shared).

    The index holds each output's source positions, one row per tap: the
    centre, the left taps ``k-r … k-1``, the right taps ``k+r … k+1``.
    The weights are the centre's ``w_c`` and each pair's ``w_0 …
    w_{r-1}``, shaped to broadcast over the gathered rows.  scipy's
    reflect mode mirrors the line about both edges (``dcba|abcd|dcba``),
    so a position repeats with period ``2 * length`` and a short axis
    reflects more than once.
    """
    weights = _gaussian_weights(sigma)
    radius = len(weights) // 2
    offsets = np.r_[0, -radius:0, radius:0:-1]
    position = (np.arange(length) + offsets[:, None]) % (2 * length)
    index = np.where(position < length, position, 2 * length - 1 - position)
    pair_weights = np.r_[weights[radius], weights[:radius]]
    pair_weights = pair_weights.reshape((radius + 1,) + (1,) * ndim)
    index.flags.writeable = pair_weights.flags.writeable = False
    return index, pair_weights


def _gaussian(arr: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(arr, sigma)`` of a float64 array, bit
    for bit and C-contiguous, on numpy alone.

    Like scipy it filters axis 0, then 1, and so on, each pass scipy's
    symmetric reflect-mode ``correlate1d`` in scipy's accumulation
    order: ``x[k]·w_c``, then ``+= (x[k-j] + x[k+j])·w_{c-j}`` for
    ``j = r … 1``.  One gather reads every tap; the pair sums, the
    weighting and the r additions each take one vectorised pass.  Each
    pass works along axis 0, so its result is rotated to bring the next
    axis to the front (a transpose for a 2-D array), and the last
    rotation restores the original order.
    """
    sigma = float(sigma)
    if sigma <= 1e-15:  # scipy filters no axis: a copy
        return arr.copy()
    rotate = (*range(1, arr.ndim), 0)
    for _ in range(arr.ndim):
        index, weights = _reflect_taps(arr.shape[0], sigma, arr.ndim)
        pairs = len(weights)
        taps = arr.take(index, 0)
        head = taps[:pairs]
        sums = head[1:]
        np.add(sums, taps[pairs:], sums)
        np.multiply(head, weights, head)
        if arr.size > 1:
            # numpy sums a leading axis row by row, in order (from -0.0,
            # which keeps a zero's sign), but a lone axis pairwise.
            out = np.add.reduce(head, 0, initial=-0.0)
        else:
            out = taps[0]
            for row in sums:
                np.add(out, row, out)
        arr = out.transpose(rotate)
    return arr.copy()


# ----------------------------------------------------------------------
# Example-argument builders (dynamic-analysis test cases)
# ----------------------------------------------------------------------

_SAMPLE_IMAGE_PATH = "/testdata/opencv/sample.png"
_SAMPLE_FLOW_PATH = "/testdata/opencv/sample.flo"
_SAMPLE_XML_PATH = "/testdata/opencv/classifier.xml"


def sample_image(seed: int = 7, size: int = 16) -> np.ndarray:
    """A deterministic RGB test image."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size, 3)).astype(np.float64)


def _ensure_sample_files(ctx: ExecutionContext) -> None:
    fs = ctx.kernel.fs
    if not fs.exists(_SAMPLE_IMAGE_PATH):
        fs.write_file(_SAMPLE_IMAGE_PATH, sample_image())
    if not fs.exists(_SAMPLE_FLOW_PATH):
        fs.write_file(_SAMPLE_FLOW_PATH, sample_image(seed=8)[:, :, :2])
    if not fs.exists(_SAMPLE_XML_PATH):
        fs.write_file(_SAMPLE_XML_PATH, {"threshold": 150.0, "min_area": 2})


def _mat_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Mat(sample_image()),), {})


def _two_mat_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Mat(sample_image(1)), Mat(sample_image(2))), {})


def _path_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_IMAGE_PATH,), {})


def _store_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/opencv/example-out.png", Mat(sample_image(3))), {})


def _window_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("test-window", Mat(sample_image(4))), {})


def _name_only_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("test-window",), {})


def _no_arg_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((), {})


# ----------------------------------------------------------------------
# Registration helpers
# ----------------------------------------------------------------------


_register = partial(declare, OPENCV, prefix="cv2", base_cost_ns=30_000)
#: A memory-to-memory Mat operator.
_mat_op = partial(declare_operator, _register, Mat, example=_mat_example)


# ----------------------------------------------------------------------
# Data loading APIs
# ----------------------------------------------------------------------


def _imread(ctx: ExecutionContext, path: str) -> Mat:
    payload = ctx.guard(ctx.read_file(path))
    return Mat(as_array(payload).copy())


_register(
    "imread", _imread, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=60_000,
    example=_path_example,
    doc="Decode an image file into a Mat.",
)


def _imreadmulti(ctx: ExecutionContext, path: str) -> List[Mat]:
    payload = ctx.guard(ctx.read_file(path))
    arr = as_array(payload)
    return [Mat(arr.copy()), Mat(np.flip(arr, axis=0).copy())]


_register(
    "imreadmulti", _imreadmulti, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=80_000,
    example=_path_example,
    doc="Decode a multi-page image file.",
)


def _cvLoad(ctx: ExecutionContext, path: str) -> Any:
    payload = ctx.guard(ctx.read_file(path))
    if isinstance(payload, np.ndarray):
        return Mat(payload.copy())
    return payload


_register(
    "cvLoad", _cvLoad, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=50_000,
    example=_path_example,
    doc="Legacy loader for images and persisted structures.",
)


def _readOpticalFlow(ctx: ExecutionContext, path: str) -> Mat:
    payload = ctx.guard(ctx.read_file(path))
    return Mat(as_array(payload).copy())


def _flow_path_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_FLOW_PATH,), {})


_register(
    "readOpticalFlow", _readOpticalFlow, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    example=_flow_path_example,
    doc="Read a .flo optical-flow file.",
)


class VideoCaptureHandle(DataObject):
    """Handle to an open capture device or video file."""

    kind = "video_capture"

    def __init__(self, source: Any = 0) -> None:
        super().__init__(None)
        self.source = source
        self.opened = True


def _VideoCapture(ctx: ExecutionContext, source: Any = 0) -> VideoCaptureHandle:
    ctx.syscall("openat", path="/dev/video0")
    ctx.syscall("ioctl", fd=ctx.kernel.devices.camera.fd)
    ctx.syscall("mmap")
    ctx.kernel.devices.camera.open()
    ctx.record_flow(write(Storage.MEM, Storage.DEV, label="camera"))
    return VideoCaptureHandle(source)


def _capture_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((0,), {})


_register(
    "VideoCapture", _VideoCapture, APIType.LOADING,
    syscalls=("openat", "ioctl", "mmap", "brk"),
    base_cost_ns=100_000,
    example=_capture_example,
    doc="Open a camera or video stream.",
)


def _VideoCapture_read(
    ctx: ExecutionContext, capture: VideoCaptureHandle
) -> Optional[Frame]:
    frame = ctx.camera_frame()
    if frame is None:
        return None
    frame = ctx.guard(frame)
    index = ctx.kernel.devices.camera.frames_read
    return Frame(as_array(frame).astype(np.float64), index=index)


def _capture_read_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    ctx.kernel.devices.camera.open()
    return ((VideoCaptureHandle(0),), {})


_register(
    "VideoCapture_read", _VideoCapture_read, APIType.LOADING,
    syscalls=_CAMERA_SYSCALLS,
    base_cost_ns=40_000,
    example=_capture_read_example,
    doc="Grab and decode the next frame.",
)


def _VideoCapture_grab(ctx: ExecutionContext, capture: VideoCaptureHandle) -> bool:
    frame = ctx.camera_frame()
    return frame is not None


_register(
    "VideoCapture_grab", _VideoCapture_grab, APIType.LOADING,
    syscalls=_CAMERA_SYSCALLS,
    base_cost_ns=15_000,
    example=_capture_read_example,
    doc="Grab the next frame without decoding it.",
)


def _FileStorage_read(ctx: ExecutionContext, path: str) -> Any:
    return ctx.guard(ctx.read_file(path))


def _xml_path_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((_SAMPLE_XML_PATH,), {})


_register(
    "FileStorage_read", _FileStorage_read, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    example=_xml_path_example,
    doc="Read a persisted YAML/XML structure.",
)


def _CascadeClassifier_load(
    ctx: ExecutionContext, classifier: Model, path: str
) -> bool:
    payload = ctx.guard(ctx.read_file(path))
    if isinstance(payload, dict):
        classifier.data.update(payload)
    return True


def _classifier_load_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    _ensure_sample_files(ctx)
    return ((Model({"threshold": 150.0}, architecture="cascade"), _SAMPLE_XML_PATH), {})


_register(
    "CascadeClassifier_load", _CascadeClassifier_load, APIType.LOADING,
    syscalls=FILE_LOAD_SYSCALLS,
    base_cost_ns=70_000,
    example=_classifier_load_example,
    doc="Load cascade parameters from an XML file.",
)


# ----------------------------------------------------------------------
# Data processing APIs — detection / structural (hand-written)
# ----------------------------------------------------------------------


def _CascadeClassifier(ctx: ExecutionContext, name: str = "cascade") -> Model:
    ctx.mem_compute(nbytes=256)
    return Model({"threshold": 150.0, "min_area": 2}, architecture=name)


def _classifier_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("cascade",), {})


_register(
    "CascadeClassifier", _CascadeClassifier, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    example=_classifier_example,
    doc="Construct an (empty) cascade classifier object.",
)


def _detect_regions(
    gray: np.ndarray, threshold: float, min_area: int
) -> List[Tuple[int, int, int, int]]:
    mask = gray >= threshold
    labelled, count = ndimage.label(mask)
    rects = []
    for slc in ndimage.find_objects(labelled):
        if slc is None:
            continue
        y, x = slc[0], slc[1]
        h, w = y.stop - y.start, x.stop - x.start
        if h * w >= min_area:
            rects.append((int(x.start), int(y.start), int(w), int(h)))
    return rects


def _detectMultiScale(
    ctx: ExecutionContext, classifier: Model, image: Any, **kwargs: Any
) -> List[Tuple[int, int, int, int]]:
    image = ctx.guard(image)
    gray = _gray(image)
    threshold = float(classifier.data.get("threshold", 150.0))
    min_area = int(classifier.data.get("min_area", 2))
    rects = _detect_regions(gray, threshold, min_area)
    ctx.mem_compute(nbytes=int(gray.nbytes))
    return rects


def _detect_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (
        (Model({"threshold": 150.0, "min_area": 2}), Mat(sample_image(5))),
        {},
    )


_register(
    "CascadeClassifier_detectMultiScale", _detectMultiScale, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=120_000,
    cost_ns_per_byte=0.15,
    example=_detect_example,
    doc="Detect objects at multiple scales (region proposal on bright blobs).",
)


def _findContours(ctx: ExecutionContext, image: Any) -> List[np.ndarray]:
    gray = _gray(ctx.guard(image))
    mask = gray > gray.mean()
    labelled, count = ndimage.label(mask)
    contours = []
    for slc in ndimage.find_objects(labelled):
        if slc is None:
            continue
        y, x = slc
        contour = np.array(
            [
                [x.start, y.start],
                [x.stop - 1, y.start],
                [x.stop - 1, y.stop - 1],
                [x.start, y.stop - 1],
            ],
            dtype=np.int64,
        )
        contours.append(contour)
    ctx.mem_compute(nbytes=int(gray.nbytes))
    return contours


_register(
    "findContours", _findContours, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=90_000,
    example=_mat_example,
    doc="Find contours of thresholded regions (rectangular approximation).",
)


def _matchTemplate(ctx: ExecutionContext, image: Any, template: Any) -> Mat:
    from scipy import signal

    img = _gray(ctx.guard(image))
    tpl = _gray(ctx.guard(template))
    tpl = tpl[: img.shape[0], : img.shape[1]]
    response = signal.fftconvolve(img, tpl[::-1, ::-1], mode="valid")
    ctx.mem_compute(nbytes=int(response.nbytes))
    return Mat(response)


def _template_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Mat(sample_image(6)), Mat(sample_image(7, size=4))), {})


_register(
    "matchTemplate", _matchTemplate, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=150_000,
    cost_ns_per_byte=0.2,
    example=_template_example,
    doc="Cross-correlation template matching.",
)


def _kmeans(ctx: ExecutionContext, data: Any, k: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    points = _float(ctx.guard(data)).reshape(-1, 1)
    k = max(1, min(int(k), len(points)))
    centers = points[np.linspace(0, len(points) - 1, k).astype(int)].copy()
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(3):
        distances = np.abs(points - centers.reshape(1, -1, 1)[0].T)
        labels = np.argmin(distances, axis=1)
        for idx in range(k):
            members = points[labels == idx]
            if len(members):
                centers[idx] = members.mean(axis=0)
    ctx.mem_compute(nbytes=int(points.nbytes))
    return labels, centers


def _kmeans_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((Mat(sample_image(9)), 2), {})


_register(
    "kmeans", _kmeans, APIType.PROCESSING,
    syscalls=PROCESSING_SYSCALLS,
    base_cost_ns=100_000,
    example=_kmeans_example,
    doc="Lloyd's k-means on flattened pixel intensities.",
)


def _draw_rectangle(image: Any, pt1=(2, 2), pt2=(10, 10), color=255.0, thickness=1) -> np.ndarray:
    arr = _float(image).copy()
    if arr.ndim < 2:
        arr = np.atleast_2d(arr)
    x1, y1 = int(pt1[0]), int(pt1[1])
    x2, y2 = int(pt2[0]), int(pt2[1])
    x1, x2 = sorted((max(x1, 0), min(x2, arr.shape[1] - 1)))
    y1, y2 = sorted((max(y1, 0), min(y2, arr.shape[0] - 1)))
    arr[y1:y1 + thickness, x1:x2 + 1] = color
    arr[y2:y2 + 1, x1:x2 + 1] = color
    arr[y1:y2 + 1, x1:x1 + thickness] = color
    arr[y1:y2 + 1, x2:x2 + 1] = color
    return arr


def _stamp_text(image: Any, text: str = "", org=(1, 1), color=255.0) -> np.ndarray:
    arr = _float(image).copy()
    if arr.ndim < 2:
        arr = np.atleast_2d(arr)
    x, y = int(org[0]), int(org[1])
    length = min(max(len(str(text)), 1) * 2, arr.shape[1] - x - 1)
    if 0 <= y < arr.shape[0] and length > 0:
        arr[y, x:x + length] = color
    return arr


# ----------------------------------------------------------------------
# Data processing APIs — table-driven Mat operators
# ----------------------------------------------------------------------


def _threshold(image: Any, thresh: float = 127.0, maxval: float = 255.0) -> np.ndarray:
    arr = _float(image)
    return np.where(arr > thresh, maxval, 0.0)


def _adaptive_threshold(image: Any, maxval: float = 255.0, block: int = 3) -> np.ndarray:
    arr = _gray(image)
    local_mean = ndimage.uniform_filter(arr, size=max(3, block))
    return np.where(arr > local_mean, maxval, 0.0)


def _canny(image: Any, low: float = 50.0, high: float = 150.0) -> np.ndarray:
    arr = _gray(image)
    gx = ndimage.sobel(arr, axis=1)
    gy = ndimage.sobel(arr, axis=0)
    magnitude = np.hypot(gx, gy)
    return np.where(magnitude > high, 255.0, np.where(magnitude > low, 128.0, 0.0))


def _morphology_ex(image: Any, op: str = "open", size: int = 3) -> np.ndarray:
    arr = _gray(image)
    if op in ("open", 2):
        return ndimage.grey_dilation(ndimage.grey_erosion(arr, size=size), size=size)
    if op in ("close", 3):
        return ndimage.grey_erosion(ndimage.grey_dilation(arr, size=size), size=size)
    if op in ("gradient", 4):
        return ndimage.grey_dilation(arr, size=size) - ndimage.grey_erosion(arr, size=size)
    return ndimage.grey_erosion(arr, size=size)


def _warp_perspective(image: Any, matrix: Any = None, **kwargs: Any) -> np.ndarray:
    arr = _gray(image)
    if matrix is None:
        matrix = np.eye(3)
    m = as_array(matrix).astype(np.float64)
    affine = m[:2, :2]
    offset = m[:2, 2]
    scale = m[2, 2] if m.shape == (3, 3) and m[2, 2] != 0 else 1.0
    return ndimage.affine_transform(arr, affine / scale, offset=offset, order=1)


def _get_perspective_transform(src: Any, dst: Any) -> np.ndarray:
    src_pts = _float(src).reshape(-1, 2)[:4]
    dst_pts = _float(dst).reshape(-1, 2)[:4]
    shift = dst_pts.mean(axis=0) - src_pts.mean(axis=0)
    matrix = np.eye(3)
    matrix[:2, 2] = shift
    return matrix


def _get_rotation_matrix(center: Any = (8, 8), angle: float = 90.0, scale: float = 1.0) -> np.ndarray:
    theta = np.deg2rad(float(angle))
    alpha, beta = scale * np.cos(theta), scale * np.sin(theta)
    cx, cy = float(center[0]), float(center[1])
    return np.array(
        [
            [alpha, beta, (1 - alpha) * cx - beta * cy],
            [-beta, alpha, beta * cx + (1 - alpha) * cy],
        ]
    )


def _calc_hist(image: Any, bins: int = 16) -> np.ndarray:
    hist, _ = np.histogram(_gray(image), bins=bins, range=(0, 256))
    return hist.astype(np.float64)


def _equalize_hist(image: Any) -> np.ndarray:
    arr = _gray(image)
    hist, bin_edges = np.histogram(arr, bins=256, range=(0, 256))
    cdf = hist.cumsum().astype(np.float64)
    if cdf[-1] == 0:
        return arr
    cdf = 255.0 * cdf / cdf[-1]
    return np.interp(arr.ravel(), bin_edges[:-1], cdf).reshape(arr.shape)


def _hough_lines(image: Any, threshold: float = 100.0) -> np.ndarray:
    edges = _canny(image)
    rows = np.where(edges.sum(axis=1) > threshold)[0]
    return np.array([[r, 0.0] for r in rows], dtype=np.float64)


def _hough_circles(image: Any) -> np.ndarray:
    gray = _gray(image)
    cy, cx = np.unravel_index(np.argmax(gray), gray.shape)
    return np.array([[cx, cy, 3.0]], dtype=np.float64)


def _good_features(image: Any, max_corners: int = 8) -> np.ndarray:
    gray = _gray(image)
    response = np.abs(ndimage.laplace(gray))
    flat = np.argsort(response.ravel())[::-1][:max_corners]
    ys, xs = np.unravel_index(flat, gray.shape)
    return np.stack([xs, ys], axis=1).astype(np.float64)


def _optical_flow_farneback(prev: Any, curr: Any) -> np.ndarray:
    a, b = _gray(prev), _gray(curr)
    b = b[: a.shape[0], : a.shape[1]]
    a = a[: b.shape[0], : b.shape[1]]
    diff = b - a
    gy, gx = np.gradient(a)
    denom = gx ** 2 + gy ** 2 + 1e-6
    return np.stack([-diff * gx / denom, -diff * gy / denom], axis=-1)


def _connected_components(image: Any) -> Tuple[int, np.ndarray]:
    gray = _gray(image)
    labelled, count = ndimage.label(gray > gray.mean())
    return int(count), labelled


def _flood_fill(image: Any, seed=(0, 0), value: float = 255.0) -> np.ndarray:
    arr = _gray(image).copy()
    target = arr[int(seed[1]), int(seed[0])]
    mask = np.isclose(arr, target)
    labelled, _ = ndimage.label(mask)
    region = labelled == labelled[int(seed[1]), int(seed[0])]
    arr[region] = value
    return arr


def _pca_compute(data: Any, components: int = 2) -> np.ndarray:
    arr = _float(data).reshape(-1, max(1, np.shape(data)[-1] if np.ndim(data) > 1 else 1))
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvecs[:, ::-1][:, :components]


_SIMPLE_MAT_OPS: Dict[str, Callable[..., Any]] = {
    "GaussianBlur": lambda img, sigma=1.0: _gaussian(_float(img), sigma),
    "blur": lambda img, size=3: ndimage.uniform_filter(_float(img), size=size),
    "medianBlur": lambda img, size=3: ndimage.median_filter(_float(img), size=size),
    "bilateralFilter": lambda img, sigma=1.0: _gaussian(_float(img), sigma),
    "boxFilter": lambda img, size=3: ndimage.uniform_filter(_float(img), size=size),
    "erode": lambda img, size=3: ndimage.grey_erosion(_gray(img), size=size),
    "dilate": lambda img, size=3: ndimage.grey_dilation(_gray(img), size=size),
    "morphologyEx": _morphology_ex,
    "getStructuringElement": lambda shape=0, size=3: np.ones((int(size), int(size))),
    "threshold": _threshold,
    "adaptiveThreshold": _adaptive_threshold,
    "inRange": lambda img, low=50.0, high=200.0: (
        ((_gray(img) >= low) & (_gray(img) <= high)) * 255.0
    ),
    "Canny": _canny,
    "Sobel": lambda img, axis=0: ndimage.sobel(_gray(img), axis=axis),
    "Scharr": lambda img, axis=0: ndimage.sobel(_gray(img), axis=axis) * 1.25,
    "Laplacian": lambda img: ndimage.laplace(_gray(img)),
    "filter2D": lambda img: ndimage.convolve(_gray(img), np.full((3, 3), 1 / 9.0)),
    "sepFilter2D": lambda img: ndimage.uniform_filter1d(
        ndimage.uniform_filter1d(_gray(img), 3, axis=0), 3, axis=1
    ),
    "pyrDown": lambda img: ndimage.zoom(_gray(img), 0.5, order=1),
    "pyrUp": lambda img: ndimage.zoom(_gray(img), 2.0, order=1),
    "resize": lambda img, fx=0.5, fy=0.5: ndimage.zoom(_gray(img), (fy, fx), order=1),
    "warpAffine": lambda img, m=None: _warp_perspective(img, m),
    "warpPerspective": _warp_perspective,
    "getPerspectiveTransform": _get_perspective_transform,
    "getAffineTransform": _get_perspective_transform,
    "getRotationMatrix2D": _get_rotation_matrix,
    "remap": lambda img: np.flip(_gray(img), axis=0),
    "undistort": lambda img: _gaussian(_gray(img), 0.5),
    "flip": lambda img, code=0: np.flip(_float(img), axis=int(code)),
    "rotate": lambda img, code=0: np.rot90(_float(img), k=int(code) + 1),
    "transpose": lambda img: np.swapaxes(_float(img), 0, 1),
    "normalize": lambda img: (_float(img) - _float(img).min())
    / (np.ptp(_float(img)) + 1e-9),
    "equalizeHist": _equalize_hist,
    "calcHist": _calc_hist,
    "compareHist": lambda a, b: float(
        np.corrcoef(_calc_hist(a), _calc_hist(b))[0, 1]
    ),
    "addWeighted": lambda a, b, alpha=0.5, beta=0.5: alpha * _float(a)
    + beta * _float(b)[: np.shape(_float(a))[0]],
    "add": lambda a, b: _float(a) + _float(b),
    "subtract": lambda a, b: _float(a) - _float(b),
    "multiply": lambda a, b: _float(a) * _float(b),
    "divide": lambda a, b: _float(a) / (_float(b) + 1e-9),
    "absdiff": lambda a, b: np.abs(_float(a) - _float(b)),
    "bitwise_and": lambda a, b: np.minimum(_float(a), _float(b)),
    "bitwise_or": lambda a, b: np.maximum(_float(a), _float(b)),
    "bitwise_xor": lambda a, b: np.abs(_float(a) - _float(b)),
    "bitwise_not": lambda a: 255.0 - _float(a),
    "minMaxLoc": lambda a: (
        float(_gray(a).min()),
        float(_gray(a).max()),
    ),
    "mean": lambda a: float(_float(a).mean()),
    "meanStdDev": lambda a: (float(_float(a).mean()), float(_float(a).std())),
    "reduce": lambda a, axis=0: _float(a).sum(axis=int(axis)),
    "split": lambda a: [
        np.atleast_3d(_float(a))[..., c].copy()
        for c in range(np.atleast_3d(_float(a)).shape[2])
    ],
    "merge": lambda a: np.stack([_gray(a), _gray(a), _gray(a)], axis=-1),
    "LUT": lambda a: 255.0 - np.clip(_float(a), 0, 255),
    "drawContours": lambda img: _draw_rectangle(img),
    "contourArea": lambda contour: float(
        abs(
            (as_array(contour)[:, 0].max() - as_array(contour)[:, 0].min())
            * (as_array(contour)[:, 1].max() - as_array(contour)[:, 1].min())
        )
    ),
    "arcLength": lambda contour: float(
        2
        * (
            (as_array(contour)[:, 0].max() - as_array(contour)[:, 0].min())
            + (as_array(contour)[:, 1].max() - as_array(contour)[:, 1].min())
        )
    ),
    "boundingRect": lambda contour: (
        int(as_array(contour)[:, 0].min()),
        int(as_array(contour)[:, 1].min()),
        int(np.ptp(as_array(contour)[:, 0]) + 1),
        int(np.ptp(as_array(contour)[:, 1]) + 1),
    ),
    "minAreaRect": lambda contour: (
        (float(as_array(contour)[:, 0].mean()), float(as_array(contour)[:, 1].mean())),
        (float(np.ptp(as_array(contour)[:, 0]) + 1), float(np.ptp(as_array(contour)[:, 1]) + 1)),
        0.0,
    ),
    "convexHull": lambda contour: as_array(contour).astype(np.float64),
    "approxPolyDP": lambda contour, eps=1.0: as_array(contour)[::2].astype(np.float64),
    "moments": lambda img: {
        "m00": float(_gray(img).sum()),
        "m10": float((np.arange(_gray(img).shape[1]) * _gray(img)).sum()),
        "m01": float((np.arange(_gray(img).shape[0])[:, None] * _gray(img)).sum()),
    },
    "fitLine": lambda pts: np.array([1.0, 0.0, float(_float(pts).mean()), 0.0]),
    "HoughLines": _hough_lines,
    "HoughCircles": _hough_circles,
    "cornerHarris": lambda img: np.abs(ndimage.laplace(_gray(img))),
    "goodFeaturesToTrack": _good_features,
    "distanceTransform": lambda img: ndimage.distance_transform_edt(_gray(img) > 0),
    "floodFill": _flood_fill,
    "integral": lambda img: _gray(img).cumsum(axis=0).cumsum(axis=1),
    "dft": lambda img: np.abs(np.fft.fft2(_gray(img))),
    "idft": lambda img: np.abs(np.fft.ifft2(_gray(img))),
    "rectangle": _draw_rectangle,
    "putText": _stamp_text,
    "line": lambda img: _draw_rectangle(img, (0, 0), (np.shape(_gray(img))[1] - 1, 0)),
    "circle": lambda img: _draw_rectangle(img, (4, 4), (8, 8)),
    "calcOpticalFlowFarneback": _optical_flow_farneback,
    "calcOpticalFlowPyrLK": _optical_flow_farneback,
    "BackgroundSubtractorMOG2_apply": lambda img: (
        (_gray(img) > _gray(img).mean()) * 255.0
    ),
    "connectedComponents": _connected_components,
    "PCACompute": _pca_compute,
    "solve": lambda a: np.linalg.pinv(
        _gray(a) + 1e-3 * np.eye(_gray(a).shape[0], _gray(a).shape[1])
    ),
    "invert": lambda a: np.linalg.pinv(_gray(a)),
    "gemm": lambda a, b: _gray(a) @ _gray(b).T,
    "perspectiveTransform": lambda pts, m=None: _float(pts) + 1.0,
    "convertScaleAbs": lambda img, alpha=1.0, beta=0.0: np.abs(alpha * _float(img) + beta),
    "copyMakeBorder": lambda img, pad=1: np.pad(_gray(img), int(pad), mode="edge"),
}

#: Operators that need two Mat arguments in their test case.
_TWO_MAT_NAMES = {
    "compareHist", "addWeighted", "add", "subtract", "multiply", "divide",
    "absdiff", "bitwise_and", "bitwise_or", "bitwise_xor",
    "calcOpticalFlowFarneback", "calcOpticalFlowPyrLK", "gemm",
    "getPerspectiveTransform", "getAffineTransform",
}

#: Operators whose test case is a contour array rather than an image.
_CONTOUR_NAMES = {
    "contourArea", "arcLength", "boundingRect", "minAreaRect",
    "convexHull", "approxPolyDP", "fitLine",
}

#: APIs intentionally left without a dynamic test case (Table 11: the
#: coverage of OpenCV's dynamic analysis is ~80%, and the paper notes the
#: uncovered APIs are not used by any evaluated program).
_UNCOVERED = {
    "grabCut", "watershed", "stereoBM", "stereoSGBM", "seamlessClone",
    "detailEnhance", "stylization", "edgePreservingFilter",
    "createCLAHE", "decolor", "pencilSketch", "colorChange",
    "illuminationChange", "textureFlattening", "inpaint",
    "fastNlMeansDenoising", "anisotropicDiffusion", "findChessboardCorners",
    "calibrateCamera", "solvePnP", "estimateAffine2D", "findHomography",
}


def _contour_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    contour = np.array([[1, 1], [6, 1], [6, 5], [1, 5]], dtype=np.int64)
    return ((contour,), {})


def _no_cover_op(name: str) -> Callable[..., Any]:
    def fallback(img: Any = None, *args: Any, **kwargs: Any) -> np.ndarray:
        return _gray(img if img is not None else np.zeros((4, 4)))

    return fallback


for _name, _fn in _SIMPLE_MAT_OPS.items():
    if _name in _TWO_MAT_NAMES:
        _example = _two_mat_example
    elif _name in _CONTOUR_NAMES:
        _example = _contour_example
    elif _name == "getStructuringElement":
        _example = _no_arg_example
    elif _name == "getRotationMatrix2D":
        _example = _no_arg_example
    else:
        _example = _mat_example
    _mat_op(_name, _fn, example=_example, doc=f"cv2.{_name}")

for _name in sorted(_UNCOVERED):
    _mat_op(_name, _no_cover_op(_name), example=None, doc=f"cv2.{_name}")

# Type-neutral utility APIs (Section 4.2): memory-to-memory helpers that
# are used adjacent to every other type; their partition placement follows
# their calling context.
_mat_op("cvtColor", lambda img, code=0: _gray(img), neutral=True,
        doc="Color-space conversion (type-neutral).")
_mat_op("copyTo", lambda img: _float(img).copy(), neutral=True,
        doc="Deep copy of a Mat (type-neutral).")
_mat_op("cvCreateMemStorage", lambda size=0: np.zeros(max(int(size), 1)),
        neutral=True, example=_no_arg_example,
        doc="Legacy memory-pool allocator (type-neutral).")
_mat_op("cvAlloc", lambda size=16: np.zeros(int(size)), neutral=True,
        example=_no_arg_example, doc="Legacy allocator (type-neutral).")


# ----------------------------------------------------------------------
# Visualizing APIs
# ----------------------------------------------------------------------


def _namedWindow(ctx: ExecutionContext, name: str) -> None:
    ctx.gui_write(label=name)
    ctx.kernel.gui.named_window(name)


_register(
    "namedWindow", _namedWindow, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_name_only_example,
    doc="Create a named window.",
)


def _imshow(ctx: ExecutionContext, name: str, image: Any) -> None:
    image = ctx.guard(image)
    ctx.gui_show(name, as_array(image).copy())


_register(
    "imshow", _imshow, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    base_cost_ns=50_000,
    example=_window_example,
    doc="Display an image in a window.",
)


def _moveWindow(ctx: ExecutionContext, name: str, x: int = 0, y: int = 0) -> None:
    ctx.gui_write(label=name)
    ctx.kernel.gui.named_window(name)
    ctx.kernel.gui.move_window(name, x, y)


def _move_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("test-window", 5, 5), {})


_register(
    "moveWindow", _moveWindow, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_move_example,
    doc="Move a window.",
)


def _resizeWindow(ctx: ExecutionContext, name: str, w: int = 64, h: int = 64) -> None:
    ctx.gui_write(label=name)
    ctx.kernel.gui.named_window(name)


_register(
    "resizeWindow", _resizeWindow, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_move_example,
    doc="Resize a window.",
)


def _setWindowTitle(ctx: ExecutionContext, name: str, title: str = "") -> None:
    ctx.gui_write(label=name)
    ctx.kernel.gui.set_title(name, title)


def _title_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("test-window", "title"), {})


_register(
    "setWindowTitle", _setWindowTitle, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_title_example,
    doc="Set a window's title.",
)


def _destroyWindow(ctx: ExecutionContext, name: str) -> None:
    ctx.gui_write(label=name)
    ctx.kernel.gui.windows.pop(name, None)


_register(
    "destroyWindow", _destroyWindow, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_name_only_example,
    doc="Destroy one window.",
)


def _destroyAllWindows(ctx: ExecutionContext) -> int:
    ctx.gui_write(label="*")
    return ctx.kernel.gui.destroy_all()


_register(
    "destroyAllWindows", _destroyAllWindows, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    stateful=StatefulKind.GUI_STATE,
    example=_no_arg_example,
    doc="Destroy every window.",
)


def _pollKey(ctx: ExecutionContext) -> str:
    ctx.gui_access(label="keys")
    return ctx.kernel.gui.poll_key()


_register(
    "pollKey", _pollKey, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    base_cost_ns=8_000,
    example=_no_arg_example,
    doc="Poll for a pressed key.",
)


def _waitKey(ctx: ExecutionContext, delay: int = 0) -> str:
    ctx.gui_access(label="keys")
    return ctx.kernel.gui.poll_key()


_register(
    "waitKey", _waitKey, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    base_cost_ns=8_000,
    example=_no_arg_example,
    doc="Wait for a pressed key.",
)


def _getMouseWheelDelta(ctx: ExecutionContext) -> int:
    ctx.gui_access(label="mouse")
    return 0


_register(
    "getMouseWheelDelta", _getMouseWheelDelta, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    base_cost_ns=5_000,
    example=_no_arg_example,
    doc="Read the mouse-wheel delta.",
)


def _selectROI(ctx: ExecutionContext, name: str, image: Any) -> Tuple[int, int, int, int]:
    image = ctx.guard(image)
    ctx.gui_show(name, as_array(image).copy())
    ctx.gui_access(label=name)
    h, w = _gray(image).shape[:2]
    return (0, 0, w // 2, h // 2)


_register(
    "selectROI", _selectROI, APIType.VISUALIZING,
    syscalls=GUI_SYSCALLS,
    init_syscalls=GUI_INIT_SYSCALLS,
    example=_window_example,
    doc="Interactively select a region of interest.",
)


# ----------------------------------------------------------------------
# Storing APIs
# ----------------------------------------------------------------------


def _imwrite(ctx: ExecutionContext, path: str, image: Any) -> bool:
    image = ctx.guard(image)
    ctx.write_file(path, as_array(image).copy())
    return True


_register(
    "imwrite", _imwrite, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    base_cost_ns=60_000,
    example=_store_example,
    doc="Encode and write an image file.",
)


def _imwritemulti(ctx: ExecutionContext, path: str, images: Any) -> bool:
    arrays = [as_array(ctx.guard(i)).copy() for i in images]
    ctx.write_file(path, arrays)
    return True


def _store_multi_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/opencv/multi-out.tiff", [Mat(sample_image(11))]), {})


_register(
    "imwritemulti", _imwritemulti, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    base_cost_ns=90_000,
    example=_store_multi_example,
    doc="Write a multi-page image file.",
)


class VideoWriterHandle(DataObject):
    """Handle accumulating frames for one output video file."""

    kind = "video_writer"

    def __init__(self, path: str) -> None:
        super().__init__([])
        self.path = path


def _VideoWriter(ctx: ExecutionContext, path: str) -> VideoWriterHandle:
    ctx.write_file(path, [])
    return VideoWriterHandle(path)


def _writer_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/opencv/out.avi",), {})


_register(
    "VideoWriter", _VideoWriter, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    stateful=StatefulKind.DATA_STATE,
    example=_writer_example,
    doc="Open a video file for writing.",
)


def _VideoWriter_write(
    ctx: ExecutionContext, writer: VideoWriterHandle, frame: Any
) -> None:
    frame = ctx.guard(frame)
    writer.data.append(as_array(frame).copy())
    ctx.write_file(writer.path, list(writer.data))


def _writer_write_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return ((VideoWriterHandle("/out/opencv/out.avi"), Mat(sample_image(12))), {})


_register(
    "VideoWriter_write", _VideoWriter_write, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    stateful=StatefulKind.DATA_STATE,
    base_cost_ns=45_000,
    example=_writer_write_example,
    doc="Append a frame to an output video.",
)


def _writeOpticalFlow(ctx: ExecutionContext, path: str, flow: Any) -> bool:
    flow = ctx.guard(flow)
    ctx.write_file(path, as_array(flow).copy())
    return True


def _flow_store_example(ctx: ExecutionContext) -> Tuple[tuple, dict]:
    return (("/out/opencv/out.flo", Mat(sample_image(13)[:, :, :2])), {})


_register(
    "writeOpticalFlow", _writeOpticalFlow, APIType.STORING,
    syscalls=STORE_SYSCALLS,
    example=_flow_store_example,
    doc="Write a .flo optical-flow file.",
)
