import numpy as np
import pytest

from surfemit.density import ellipticity_vector
from surfemit.optics import InterfaceConfig, fresnel, transmittance
from surfemit.validation import (brewster_xi, interference_norm, khat,
                                 khat_cross_xhat, mode_ellipticity,
                                 mode_field_p, mode_polarization_p,
                                 spin_density)


# the largest n1 whose fourth power is finite
N1_MAX = 1.1579208923731618e77


def test_config_validation():
    with pytest.raises(ValueError):
        InterfaceConfig(n1=0.9, lambda0_nm=852.0)
    with pytest.raises(ValueError):
        InterfaceConfig(n1=1.45, lambda0_nm=-1.0)
    for n1 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="n1 must be finite"):
            InterfaceConfig(n1=n1, lambda0_nm=852.0)
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError, match="lambda0_nm must be finite"):
            InterfaceConfig(n1=1.45, lambda0_nm=lam)
    # (n1^2 + 1) xi^2 with xi^2 up to n1^2 - 1 would overflow in the kernels
    for n1 in (1e160, 1.35e154, 1e100, 1e78, np.nextafter(N1_MAX, np.inf)):
        with pytest.raises(ValueError, match=r"n1\^4 must be finite"):
            InterfaceConfig(n1, 852.0)
    assert InterfaceConfig(N1_MAX, 852.0).n1 == N1_MAX


def test_config_derived_quantities(cfg):
    assert cfg.n2 == 1.0
    assert cfg.k0_nm == pytest.approx(2.0 * np.pi / 852.0)
    assert cfg.xi_max == pytest.approx(np.sqrt(1.45 ** 2 - 1.0))


def test_fresnel_grazing_limit(cfg):
    r_s, r_p = fresnel(cfg, 0.0)
    assert r_s == pytest.approx(-1.0, abs=1e-15)
    assert r_p == pytest.approx(-1.0, abs=1e-15)


def test_fresnel_normal_incidence(cfg):
    r_s, r_p = fresnel(cfg, 1.0)
    assert r_s == pytest.approx((1.0 - 1.45) / (1.0 + 1.45), abs=1e-15)
    assert r_p == pytest.approx(-r_s, abs=1e-15)
    assert r_s == pytest.approx(-0.18367346938775508)


def test_brewster_zero(cfg):
    xi_b = brewster_xi(cfg)
    assert xi_b == pytest.approx(1.0 / np.sqrt(1.45 ** 2 + 1.0))
    assert xi_b == pytest.approx(0.5677332929021646)
    _, r_p = fresnel(cfg, xi_b)
    assert abs(r_p) < 1e-14


def test_fresnel_s_nonpositive_and_p_single_sign_change(cfg):
    xi = np.linspace(0.0, 1.0, 2001)
    r_s, r_p = fresnel(cfg, xi)
    assert np.all(r_s <= 1e-15)
    changes = np.sum(np.diff(np.sign(r_p[r_p != 0.0])) != 0)
    assert changes == 1


def test_transmittance_endpoints_and_range(cfg):
    xi = np.linspace(0.0, cfg.xi_max, 1001)
    t_s, t_p = transmittance(cfg, xi)
    assert t_s[0] == 0.0 and t_p[0] == 0.0
    assert abs(t_s[-1]) < 1e-13 and abs(t_p[-1]) < 1e-13
    assert np.all(t_s >= 0.0) and np.all(t_p >= 0.0)
    # s transmission peaks at exactly 1 where xi equals the decay constant
    assert np.max(t_s) == pytest.approx(1.0, abs=1e-6)


def test_transmittance_peak_location(cfg):
    xi_star = np.sqrt((1.45 ** 2 - 1.0) / 2.0)
    t_s, _ = transmittance(cfg, xi_star)
    assert t_s == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("coefficients", [fresnel, transmittance])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_reject_nonfinite_xi(cfg, coefficients, bad):
    with pytest.raises(ValueError, match="xi must be finite"):
        coefficients(cfg, np.array([0.2, bad]))


def test_khat_conventions():
    assert np.allclose(khat(0.0), [0.0, 1.0, 0.0])
    assert np.allclose(khat(np.pi / 2.0), [0.0, 0.0, 1.0])
    assert np.allclose(khat_cross_xhat(0.0), [0.0, 0.0, -1.0])
    phi = 0.83
    assert np.allclose(np.cross(khat(phi), [1.0, 0.0, 0.0]),
                       khat_cross_xhat(phi))


def test_mode_point_validation(cfg):
    for route in (mode_polarization_p, mode_ellipticity, spin_density,
                  mode_field_p):
        with pytest.raises(ValueError, match="branch"):
            route(cfg, "guided", 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="xi"):
            route(cfg, "radiation", -0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="xi"):
            route(cfg, "radiation", 1.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="xi"):
            route(cfg, "evanescent", cfg.xi_max + 1e-6, 0.0, 0.0)


def test_s_polarization_is_real_unit(cfg, rng):
    for _ in range(10):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        e = khat_cross_xhat(phi)
        assert np.isrealobj(e)
        assert np.linalg.norm(e) == pytest.approx(1.0)
        assert abs(np.dot(e, khat(phi))) < 1e-14
        assert abs(e[0]) < 1e-14


def test_p_polarization_raises_for_unsupported_points(cfg):
    with pytest.raises(ValueError, match="degenerate"):
        mode_polarization_p(cfg, "radiation", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        mode_ellipticity(cfg, "radiation", 0.0, 0.0, 0.0)


def test_interference_norm_positive_and_matches_polarization(cfg):
    xi = np.linspace(1e-6, 1.0, 500)
    for x in (0.0, 130.0, 900.0):
        z = interference_norm(cfg, xi, x)
        assert np.all(z > 0.0)


def test_mode_ellipticity_matches_brute_force(cfg, rng):
    for _ in range(10):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 300.0)
        if rng.random() < 0.5:
            point = ("evanescent", rng.uniform(1e-3, cfg.xi_max - 1e-3), phi)
        else:
            point = ("radiation", rng.uniform(1e-3, 1.0), phi)
        closed = mode_ellipticity(cfg, *point, x)
        brute = ellipticity_vector(mode_polarization_p(cfg, *point, x))
        assert np.allclose(closed, brute, atol=1e-13)


def test_spin_reverses_with_inplane_direction(cfg, rng):
    for _ in range(8):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi = rng.uniform(1e-3, cfg.xi_max - 1e-3)
        a = spin_density(cfg, "evanescent", xi, phi, 70.0)
        b = spin_density(cfg, "evanescent", xi, phi + np.pi, 70.0)
        assert np.allclose(a, -b, atol=1e-14)


def test_mode_field_reduces_to_polarization_times_amplitude(cfg):
    x = 120.0
    field = mode_field_p(cfg, "evanescent", 0.6, 0.7, x)
    pol = mode_polarization_p(cfg, "evanescent", 0.6, 0.7, x)
    overlap = np.vdot(pol, field)
    assert np.linalg.norm(field - overlap * pol) < 1e-12 * np.linalg.norm(field)
