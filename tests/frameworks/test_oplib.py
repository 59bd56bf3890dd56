"""The shared operator library's elementwise kernels."""

import math

import numpy as np
import pytest

from repro.frameworks._oplib import UNARY_OPS

EDGES = [0.0, -0.0, 1e-300, -1e-300, 0.5, -2.5, 6.0, 1e300, -1e300,
         math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", [
    np.float64(0.5),
    np.array(-1.25),
    np.array(EDGES),
    np.array(EDGES).reshape(3, 4),
    [1, 2, 3],
])
def test_erf_matches_math_erf_elementwise(value):
    result = UNARY_OPS["erf"](value)
    flat = np.asarray(value, dtype=np.float64)
    expected = np.array([math.erf(v) for v in flat.ravel()]).reshape(flat.shape)
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.float64
    assert result.shape == flat.shape
    assert np.array_equal(result, expected, equal_nan=True)
    assert np.array_equal(np.signbit(result), np.signbit(expected))  # ±0


def test_erf_of_an_empty_array_is_empty():
    result = UNARY_OPS["erf"](np.zeros((0, 3)))
    assert result.dtype == np.float64
    assert result.shape == (0, 3)
