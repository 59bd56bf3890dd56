"""Behavioural tests of the OpenCV-analogue implementations."""

import numpy as np
import pytest
from scipy import ndimage

from repro.frameworks.base import ExecutionContext, Mat, Model, Tracer
from repro.frameworks.minicv import (
    OPENCV, _gaussian, _gaussian_weights, sample_image,
)
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


@pytest.fixture
def ctx(kernel):
    return ExecutionContext(kernel, kernel.spawn("t", charge=False), tracer=Tracer())


def call(ctx, name, *args, **kwargs):
    return ctx.invoke(OPENCV.get(name), *args, **kwargs)


def test_imread_returns_file_contents(ctx):
    image = sample_image()
    ctx.kernel.fs.write_file("/img.png", image)
    result = call(ctx, "imread", "/img.png")
    assert isinstance(result, Mat)
    assert np.array_equal(result.data, image)


def test_imwrite_then_imread_roundtrip(ctx):
    image = Mat(sample_image(3))
    assert call(ctx, "imwrite", "/out.png", image) is True
    back = call(ctx, "imread", "/out.png")
    assert np.array_equal(back.data, image.data)


def test_gaussian_blur_smooths(ctx):
    noisy = Mat(sample_image(5))
    blurred = call(ctx, "GaussianBlur", noisy, sigma=2.0)
    assert blurred.data.std() < noisy.data.std()


def test_threshold_binarizes(ctx):
    result = call(ctx, "threshold", Mat(sample_image(6)), 127.0, 255.0)
    assert set(np.unique(result.data)) <= {0.0, 255.0}


def test_erode_dilate_monotone(ctx):
    image = Mat(sample_image(7))
    eroded = call(ctx, "erode", image)
    dilated = call(ctx, "dilate", image)
    assert eroded.data.mean() <= dilated.data.mean()


def test_canny_detects_edge(ctx):
    flat = np.zeros((16, 16))
    flat[:, 8:] = 255.0
    edges = call(ctx, "Canny", Mat(flat))
    assert edges.data.max() == 255.0
    assert edges.data[0, 0] == 0.0


def test_flip_is_involution(ctx):
    image = Mat(sample_image(9))
    twice = call(ctx, "flip", call(ctx, "flip", image, 0), 0)
    assert np.array_equal(twice.data, image.data.astype(float))


def test_equalize_hist_spreads_range(ctx):
    narrow = Mat(np.full((8, 8), 100.0) + np.arange(64).reshape(8, 8) * 0.1)
    result = call(ctx, "equalizeHist", narrow)
    assert np.ptp(result.data) > np.ptp(narrow.data)


def test_resize_halves(ctx):
    image = Mat(sample_image(10))
    small = call(ctx, "resize", image)
    assert small.data.shape[0] == image.data.shape[0] // 2


def test_detect_multi_scale_finds_bright_blob(ctx):
    field = np.zeros((20, 20))
    field[4:8, 6:11] = 255.0
    classifier = Model({"threshold": 150.0, "min_area": 2})
    rects = call(ctx, "CascadeClassifier_detectMultiScale",
                 classifier, Mat(field))
    assert rects == [(6, 4, 5, 4)]


def test_detect_multi_scale_empty_on_dark_image(ctx):
    classifier = Model({"threshold": 150.0, "min_area": 2})
    rects = call(ctx, "CascadeClassifier_detectMultiScale",
                 classifier, Mat(np.zeros((8, 8))))
    assert rects == []


def test_classifier_load_reads_params(ctx):
    ctx.kernel.fs.write_file("/c.xml", {"threshold": 99.0})
    classifier = call(ctx, "CascadeClassifier")
    assert call(ctx, "CascadeClassifier_load", classifier, "/c.xml") is True
    assert classifier.data["threshold"] == 99.0


def test_find_contours_count(ctx):
    field = np.zeros((20, 20))
    field[2:5, 2:5] = 255.0
    field[10:14, 10:15] = 255.0
    contours = call(ctx, "findContours", Mat(field))
    assert len(contours) == 2


def test_bounding_rect_of_contour(ctx):
    contour = np.array([[2, 3], [7, 3], [7, 9], [2, 9]])
    rect = call(ctx, "boundingRect", contour)
    assert rect == (2, 3, 6, 7)


def test_rectangle_draws_border(ctx):
    canvas = Mat(np.zeros((16, 16)))
    drawn = call(ctx, "rectangle", canvas, (2, 2), (10, 10))
    assert drawn.data[2, 5] == 255.0
    assert drawn.data[0, 0] == 0.0


def test_puttext_stamps_row(ctx):
    canvas = Mat(np.zeros((16, 16)))
    drawn = call(ctx, "putText", canvas, "hi", (1, 3))
    assert drawn.data[3, 1] == 255.0


def test_video_capture_reads_frames(ctx):
    ctx.kernel.devices.camera._frame_limit = 2
    capture = call(ctx, "VideoCapture", 0)
    first = call(ctx, "VideoCapture_read", capture)
    second = call(ctx, "VideoCapture_read", capture)
    assert first is not None and second is not None
    assert call(ctx, "VideoCapture_read", capture) is None


def test_imshow_updates_gui(ctx):
    call(ctx, "imshow", "win", Mat(sample_image(11)))
    assert ctx.kernel.gui.window("win").shown_count == 1


def test_pollkey_consumes_queue(ctx):
    ctx.kernel.gui.queue_keys("q")
    assert call(ctx, "pollKey") == "q"
    assert call(ctx, "pollKey") == ""


def test_video_writer_appends_frames(ctx):
    writer = call(ctx, "VideoWriter", "/out.avi")
    call(ctx, "VideoWriter_write", writer, Mat(sample_image(12)))
    call(ctx, "VideoWriter_write", writer, Mat(sample_image(13)))
    stored = ctx.kernel.fs.read_file("/out.avi")
    assert len(stored) == 2


def test_cvtcolor_is_neutral_and_grayscales(ctx):
    spec = OPENCV.get("cvtColor").spec
    assert spec.neutral
    gray = call(ctx, "cvtColor", Mat(sample_image(14)))
    assert gray.data.ndim == 2


def test_match_template_peak_location(ctx):
    image = np.zeros((16, 16))
    image[5:9, 5:9] = 255.0
    template = np.full((4, 4), 255.0)
    response = call(ctx, "matchTemplate", Mat(image), Mat(template))
    peak = np.unravel_index(np.argmax(response.data), response.data.shape)
    assert peak == (5, 5)


def test_kmeans_two_clusters(ctx):
    data = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
    labels, centers = call(ctx, "kmeans", Mat(data), 2)
    assert len(set(labels[:3])) == 1
    assert len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_connected_components_count(ctx):
    field = np.zeros((10, 10))
    field[1:3, 1:3] = 255.0
    field[6:8, 6:8] = 255.0
    count, labelled = call(ctx, "connectedComponents", Mat(field))
    assert count == 2


def test_uncovered_apis_have_no_examples():
    for name in ("grabCut", "watershed", "inpaint"):
        assert not OPENCV.get(name).spec.has_test_case


# The Gaussian family runs scipy's reflect-mode correlation on numpy,
# in scipy's accumulation order; every result must equal
# ``ndimage.gaussian_filter``'s byte for byte (signed zeros too) and be
# C-contiguous like scipy's, so that later reductions sum in the same
# order.  The last input is a transposed view.
GAUSSIAN_INPUTS = [
    np.random.default_rng(seed).normal(scale=60.0, size=shape)
    for seed, shape in ((1, (16, 16)), (2, (9, 13)), (3, (16, 16, 3)))
] + [np.random.default_rng(4).normal(scale=60.0, size=(11, 7)).T]


def assert_same_bytes(result, expected):
    assert (result.dtype, result.shape) == (expected.dtype, expected.shape)
    assert result.tobytes() == expected.tobytes()
    assert result.flags.c_contiguous


@pytest.mark.parametrize("name", ["GaussianBlur", "bilateralFilter"])
@pytest.mark.parametrize("sigma", [0, 0.5, 1, 1.5, 2])
@pytest.mark.parametrize("index", range(len(GAUSSIAN_INPUTS)))
def test_gaussian_family_equals_scipy(ctx, name, sigma, index):
    image = GAUSSIAN_INPUTS[index]
    result = call(ctx, name, Mat(image), sigma=sigma).data
    expected = ndimage.gaussian_filter(image.astype(np.float64), sigma=sigma)
    assert_same_bytes(result, expected)


@pytest.mark.parametrize("index", range(len(GAUSSIAN_INPUTS)))
def test_undistort_equals_scipy(ctx, index):
    image = GAUSSIAN_INPUTS[index]
    gray = image.mean(axis=2) if image.ndim == 3 else image
    result = call(ctx, "undistort", Mat(image)).data
    expected = ndimage.gaussian_filter(np.atleast_2d(gray), sigma=0.5)
    assert_same_bytes(result, expected)


def seeded(shape):
    return np.random.default_rng(5).normal(scale=60.0, size=shape)


# What a reflect index can get wrong: axes as short as the radius or
# shorter (they reflect more than once), σ from scipy's cut-off (1e-15,
# no axis filtered) to 5 (radius 20), 1-D and 3-D arrays, signed zeros
# and a transposed view; and single elements at large σ, whose taps
# numpy would sum pairwise.
KERNEL_CASES = [
    *[(seeded(shape), sigma) for sigma in (1, 2)
      for shape in ((1, 1), (1, 6), (6, 1), (2, 6), (6, 2), (3, 6), (6, 3),
                    (2, 3))],
    *[(seeded((9, 13)), sigma)
      for sigma in (0.0, 1e-16, 1e-15, 0.05, 0.12, 0.37, 0.5, 0.8, 1.3, 1.9,
                    2.5, 3.7, 4.4, 5.0)],
    *[(seeded(shape), sigma) for sigma in (0.5, 1, 2.5)
      for shape in ((1,), (2,), (3,), (17,), (4, 5, 3), (2, 3, 1),
                    (7, 6, 5))],
    *[(np.full((5, 7), -0.0), sigma) for sigma in (0.5, 1, 2)],
    *[(seeded((7, 11)).T, sigma) for sigma in (0.5, 1, 2)],
    *[(seeded(shape), sigma) for sigma in (3.7, 5)
      for shape in ((1,), (1, 1), (1, 1, 1))],
]


@pytest.mark.parametrize("image, sigma", KERNEL_CASES)
def test_gaussian_kernel_equals_scipy(image, sigma):
    assert_same_bytes(_gaussian(image, sigma),
                      ndimage.gaussian_filter(image, sigma))


def test_cached_gaussian_weights_are_read_only():
    weights = _gaussian_weights(1.5)
    assert weights is _gaussian_weights(1.5)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0
