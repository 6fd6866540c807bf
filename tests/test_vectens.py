"""Complex 3-vector helpers (density) and the irreducible tensor algebra
of the check suite (validation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfemit.density import as_cvector, ellipticity_vector, vector_norm
from surfemit.validation import (RateDecomposition, cartesian_components,
                                 compound_tensor, decompose_coupling,
                                 scalar_product, spherical_components,
                                 tensor_scalar_product)

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


def test_spherical_components_basis_vectors():
    assert np.allclose(spherical_components([1, 0, 0]),
                       [1 / SQ2, 0, -1 / SQ2])
    assert np.allclose(spherical_components([0, 1, 0]),
                       [-1j / SQ2, 0, -1j / SQ2])
    assert np.allclose(spherical_components([0, 0, 1]), [0, 1, 0])


def test_as_cvector_rejects_wrong_shape():
    with pytest.raises(ValueError):
        as_cvector([1.0, 2.0])


@given(cvectors())
def test_spherical_cartesian_roundtrip(v):
    back = cartesian_components(spherical_components(v))
    assert np.allclose(back, v, atol=1e-12)


@given(cvectors(), cvectors())
def test_scalar_product_matches_spherical_contraction(a, b):
    direct = scalar_product(a, b)
    sa = spherical_components(a)
    sb = spherical_components(b)
    q = np.array([-1, 0, 1])
    contracted = np.sum((-1.0) ** q * sa * sb[::-1])
    assert abs(direct - contracted) <= 1e-12 * max(1.0, abs(direct))


def test_ellipticity_frozen_examples():
    circ_xy = np.array([1.0, 1.0j, 0.0]) / SQ2
    assert np.allclose(ellipticity_vector(circ_xy), [0.0, 0.0, -1.0])
    eps_xz = np.array([1.0, 0.0, 1.0j]) / SQ2
    assert np.allclose(ellipticity_vector(eps_xz), [0.0, 1.0, 0.0])
    assert np.allclose(ellipticity_vector([0.3, -1.2, 0.7]), 0.0)


def test_compound_tensor_rank0_is_norm():
    v = np.array([0.3 + 0.1j, -0.2j, 0.8])
    t0 = compound_tensor(v, 0)
    assert t0.shape == (1,)
    assert np.isclose(t0[0], -vector_norm(v) ** 2 / np.sqrt(3.0))


@given(cvectors())
def test_compound_tensor_rank2_hermiticity(v):
    t2 = compound_tensor(v, 2)
    q = np.arange(-2, 3)
    assert np.allclose(np.conj(t2), (-1.0) ** q * t2[::-1], atol=1e-12)


def test_compound_tensor_rejects_bad_rank():
    with pytest.raises(ValueError):
        compound_tensor([1, 0, 0], 3)


def test_tensor_scalar_product_shape_check():
    with pytest.raises(ValueError):
        tensor_scalar_product(np.zeros(3), np.zeros(5))


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


def test_rate_decomposition_total():
    dec = RateDecomposition(1.0, 0.25, -0.5)
    assert dec.total == 0.75
