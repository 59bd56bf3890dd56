"""``tf.one_hot`` and ``erf`` against the expressions they replaced.

Both kernels were rewritten for speed.  The old expressions stay here as
the oracles, and each rewrite must give the same dtype, shape and bytes
over seeded inputs: the suite's shapes, several depths, and empty, 0-d
and non-contiguous arrays (and ±inf and NaN for ``erf``).
"""

import math

import numpy as np
import pytest

from repro.frameworks._oplib import UNARY_OPS, as_array
from repro.frameworks.minitf import _one_hot

_erf_ufunc = np.frompyfunc(math.erf, 1, 1)


def old_one_hot(x, depth=4):
    return np.eye(int(depth))[
        np.clip(np.atleast_1d(as_array(x)).astype(np.int64), 0, int(depth) - 1)
        % int(depth)
    ]


def old_erf(x):
    return np.asarray(
        _erf_ufunc(np.asarray(x, dtype=np.float64)), dtype=np.float64
    )


#: Input shapes ``oneshot_suite`` passes to the two kernels.
SUITE_SHAPES = [
    (4, 4, 4, 4),
    (1, 1, 4, 32, 4),
    (1, 1, 4, 4, 4, 4, 4, 4, 4),
    (2, 2, 4, 32, 4, 4, 16),
]


def inputs(seed):
    """Seeded arrays: the suite's shapes in both float widths, plus the
    empty, 0-d and non-contiguous cases."""
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in SUITE_SHAPES:
        values = rng.normal(scale=4.0, size=shape)
        arrays += [values, values.astype(np.float32)]
    grid = rng.normal(scale=4.0, size=(6, 10))
    arrays += [
        np.zeros((0,)), np.zeros((3, 0)), np.float64(rng.normal()),
        np.asarray(rng.normal()), grid.T, grid[::2, 1::3], grid[:, ::-1],
    ]
    return arrays


def assert_same(new, old):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("depth", [1, 2, 4, 7])
def test_one_hot_matches_the_identity_rows(seed, depth):
    for x in inputs(seed):
        assert_same(_one_hot(x, depth), old_one_hot(x, depth))
    assert_same(_one_hot(np.arange(-3, 12)), old_one_hot(np.arange(-3, 12)))


@pytest.mark.parametrize("seed", [0, 1])
def test_erf_matches_the_object_ufunc(seed):
    erf = UNARY_OPS["erf"]
    for x in inputs(seed):
        assert_same(erf(x), old_erf(x))
        assert erf(x).strides == old_erf(x).strides
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 6.0])
    assert_same(erf(special), old_erf(special))
