"""Complex 3-vector helpers (density) and the scalar/vector/tensor split
of a coupling that the check suite applies to the package's modes
(validation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfemit.density import as_cvector, ellipticity_vector, vector_norm
from surfemit.validation import RateDecomposition, decompose_coupling

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def cvectors():
    return st.lists(finite, min_size=6, max_size=6).map(
        lambda v: np.array(v[:3]) + 1j * np.array(v[3:]))


SQ2 = np.sqrt(2.0)


def test_vector_norm_scales_only_out_of_range_squares():
    v = np.array([0.3 + 0.1j, -0.2, 0.7j])
    assert vector_norm(v) == float(np.sqrt(np.sum(np.abs(v) ** 2)))
    for s in (1e200, 1e-200):
        assert vector_norm(v * s) == pytest.approx(vector_norm(v) * s,
                                                   rel=1e-13)
    tiny = 5e-324
    assert vector_norm([3 * tiny, complex(0, 4 * tiny), 0]) == 5 * tiny
    assert vector_norm([1e308 + 1e308j, 0, 0]) == pytest.approx(SQ2 * 1e308)
    assert vector_norm([0, 0, 0]) == 0.0
    assert np.isnan(vector_norm([np.nan, 1.0, 0.0]))


def test_as_cvector_rejects_wrong_shape():
    with pytest.raises(ValueError):
        as_cvector([1.0, 2.0])


def test_ellipticity_frozen_examples():
    circ_xy = np.array([1.0, 1.0j, 0.0]) / SQ2
    assert np.allclose(ellipticity_vector(circ_xy), [0.0, 0.0, -1.0])
    eps_xz = np.array([1.0, 0.0, 1.0j]) / SQ2
    assert np.allclose(ellipticity_vector(eps_xz), [0.0, 1.0, 0.0])
    assert np.allclose(ellipticity_vector([0.3, -1.2, 0.7]), 0.0)


@given(cvectors(), cvectors())
@settings(max_examples=300)
def test_decomposition_sums_to_coupling(d, e):
    dec = decompose_coupling(d, e, 1.0)
    direct = abs(np.sum(d * e)) ** 2
    scale = max(vector_norm(d) ** 2 * vector_norm(e) ** 2, 1e-30)
    assert abs(dec.total - direct) <= 1e-12 * scale


@given(st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3))
def test_vector_part_vanishes_for_real_pairs(d, e):
    dec = decompose_coupling(np.array(d), np.array(e), 2.5)
    assert dec.vector_part == pytest.approx(0.0, abs=1e-13)


def test_decompose_coupling_rejects_negative_weight():
    with pytest.raises(ValueError):
        decompose_coupling([1, 0, 0], [0, 1, 0], -1.0)


# (scalar, vector, tensor) parts at N = 1, computed by the spherical-basis
# contraction sum_q (-1)^q T_q S_{-q} of the compound tensors
# {d* (x) d}_Kq and {e* (x) e}_Kq that the Cartesian split replaced
PINNED = [
    ([1, 0, 1j], [0.6, 0.3, -0.8j],
     (0.7266666666666667, 0.96, 0.2733333333333334)),
    ([0.3 + 0.1j, -0.2j, 0.8], [1.0, 0.5 + 0.5j, -0.25j],
     (0.40625, 0.06, -0.26625000000000004)),
    ([0.3, -1.2, 0.7], [-0.4 + 0.9j, 0.2, 1.1 - 0.3j],
     (1.5554000000000003, 0.0, -1.3836999999999997)),
]


@pytest.mark.parametrize("d, e, parts", PINNED)
def test_decomposition_matches_the_spherical_route(d, e, parts):
    dec = decompose_coupling(d, e, 1.0)
    scale = vector_norm(d) ** 2 * vector_norm(e) ** 2
    got = (dec.scalar_part, dec.vector_part, dec.tensor_part)
    assert np.max(np.abs(np.subtract(got, parts))) <= 1e-15 * scale


def test_rate_decomposition_total():
    dec = RateDecomposition(1.0, 0.25, -0.5)
    assert dec.total == 0.75
