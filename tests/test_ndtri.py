import math

import numpy as np
import pytest

from lowrank_iht._ndtri import ndtri


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("points", [
    np.linspace(0.0, 1.0, 100_001)[1:-1],
    np.logspace(-300, math.log10(0.5), 20_001),
    1.0 - np.logspace(-16, math.log10(0.5), 20_001),
    np.array([0.90, 0.95, 0.975, 0.5, math.exp(-2), 1.0 - math.exp(-2),
              math.exp(-32), np.nextafter(math.exp(-32), 0.0), 5e-324,
              1.0 - 2.0 ** -53]),
], ids=["dense_grid", "lower_tail", "upper_tail", "named_points"])
def test_ndtri_is_bit_identical_to_scipy(points):
    special = pytest.importorskip("scipy.special")
    got = _bits([ndtri(p) for p in points])
    want = _bits(special.ndtri(points))
    mismatched = points[got != want]
    assert mismatched.size == 0, f"differs from scipy at p = {mismatched[:5]}"


def test_ndtri_is_infinite_at_the_ends_and_rejects_the_outside():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    for p in (-1e-300, 1.0 + 2.0 ** -52, math.nan):
        with pytest.raises(ValueError):
            ndtri(p)


def test_ndtri_inverts_the_normal_cdf():
    # scipy-free: Phi(ndtri(p)) = p through math.erfc, and the symmetry
    # ndtri(1 - p) = -ndtri(p) holds exactly wherever 1 - p is exact
    for p in (1e-300, 1e-20, 1e-9, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        x = ndtri(p)
        assert 0.5 * math.erfc(-x / math.sqrt(2.0)) == pytest.approx(p, rel=1e-13)
    for p in (2.0 ** -10, 0.125, 0.25, 0.375):
        assert ndtri(1.0 - p) == -ndtri(p)
