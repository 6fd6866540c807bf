import numpy as np
import pytest

from helpers import random_dipole, random_real_dipole, rel_err
from surfemit import DipolePolarization, f_evan, f_rad, pattern, zeta_f
from surfemit.density import (DIPOLE_PRESETS, PATTERN_ZONES, critical_theta,
                              delta_f, delta_f_equivalences,
                              f_evan_limit_kappa1, f_rad_limit_kappa1)


def textbook_evan(cfg, u, xi, phi, x):
    """Direct transcription of the per-mode evanescent densities."""
    n1 = cfg.n1
    eta_p = np.sqrt(n1 ** 2 - 1.0 - xi ** 2)
    t_s = 2.0 * xi * eta_p / (n1 ** 2 - 1.0)
    t_p = (2.0 * n1 ** 2 / (n1 ** 2 - 1.0)) * xi * eta_p / (
        (n1 ** 2 + 1.0) * xi ** 2 + 1.0)
    kappa = np.sqrt(1.0 + xi ** 2)
    sp = abs(u[1] * np.sin(phi) - u[2] * np.cos(phi)) ** 2
    w = u[1] * np.cos(phi) + u[2] * np.sin(phi)
    damp = np.exp(-2.0 * xi * cfg.k0_nm * x)
    pref = 3.0 / (4.0 * np.pi * xi)
    f_s = pref * t_s * damp * sp
    f_p = pref * t_p * damp * abs(kappa * u[0] - 1j * xi * w) ** 2
    return f_s, f_p


def textbook_rad(cfg, u, xi, phi, x):
    """Direct transcription of the per-input radiation densities."""
    n1 = cfg.n1
    eta = np.sqrt(n1 ** 2 - 1.0 + xi ** 2)
    r_s = (xi - eta) / (xi + eta)
    r_p = (n1 ** 2 * xi - eta) / (n1 ** 2 * xi + eta)
    kappa = np.sqrt(1.0 - xi ** 2)
    sp = abs(u[1] * np.sin(phi) - u[2] * np.cos(phi)) ** 2
    w = u[1] * np.cos(phi) + u[2] * np.sin(phi)
    plus = kappa * u[0] + xi * w
    minus = kappa * u[0] - xi * w
    th = xi * cfg.k0_nm * x
    pref = 3.0 / (8.0 * np.pi * xi)
    f_s1 = pref * (1.0 - r_s ** 2) * sp
    f_s2 = pref * abs(np.exp(-1j * th) + r_s * np.exp(1j * th)) ** 2 * sp
    f_p1 = pref * (1.0 - r_p ** 2) * abs(minus) ** 2
    f_p2 = pref * abs(np.exp(-1j * th) * plus
                      + r_p * np.exp(1j * th) * minus) ** 2
    f_mat = pref * ((1.0 - r_s ** 2) * sp
                    + (1.0 - r_p ** 2) * abs(plus) ** 2)
    f_vac = pref * (abs(np.exp(-1j * th) + r_s * np.exp(1j * th)) ** 2 * sp
                    + abs(np.exp(1j * th) * minus
                          + r_p * np.exp(-1j * th) * plus) ** 2)
    return f_s1, f_s2, f_p1, f_p2, f_mat, f_vac


def test_evanescent_matches_textbook_form(cfg, rng):
    for _ in range(25):
        dip = random_dipole(rng)
        xi = rng.uniform(0.02, cfg.xi_max - 0.02)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 500.0)
        f_s, f_p, f_tot = f_evan(cfg, dip, xi, phi, x)
        ref_s, ref_p = textbook_evan(cfg, dip.u, xi, phi, x)
        assert rel_err(f_s, ref_s) < 1e-12
        assert rel_err(f_p, ref_p) < 1e-12
        assert rel_err(f_tot, ref_s + ref_p) < 1e-12


def test_radiation_matches_textbook_form(cfg, rng):
    for _ in range(25):
        dip = random_dipole(rng)
        xi = rng.uniform(0.02, 0.98)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 500.0)
        br = f_rad(cfg, dip, xi, phi, x)
        ref = textbook_rad(cfg, dip.u, xi, phi, x)
        got = (br.f_rad_s1, br.f_rad_s2, br.f_rad_p1, br.f_rad_p2,
               br.f_rad_mat, br.f_rad_vac)
        for g, r in zip(got, ref):
            assert rel_err(g, r) < 1e-12


def test_sum_rules(cfg, rng):
    for _ in range(15):
        dip = random_dipole(rng)
        xi = rng.uniform(0.02, 0.98)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 500.0)
        br = f_rad(cfg, dip, xi, phi, x)
        assert rel_err(br.f_rad_s1 + br.f_rad_s2, br.f_rad_s) < 1e-12
        assert rel_err(br.f_rad_p1 + br.f_rad_p2, br.f_rad_p) < 1e-12
        assert rel_err(br.f_rad_s + br.f_rad_p, br.f_rad) < 1e-12
        assert rel_err(br.f_rad_mat + br.f_rad_vac, br.f_rad) < 1e-12


def test_densities_nonnegative(cfg, rng):
    for _ in range(15):
        dip = random_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=8)
        x = rng.uniform(0.0, 400.0)
        xi_e = rng.uniform(0.0, cfg.xi_max, size=8)
        for part in f_evan(cfg, dip, xi_e, phi, x):
            assert np.all(np.asarray(part) >= -1e-15)
        xi_r = rng.uniform(0.0, 1.0, size=8)
        br = f_rad(cfg, dip, xi_r, phi, x)
        for name in ("f_rad_s1", "f_rad_s2", "f_rad_p1", "f_rad_p2",
                     "f_rad_mat", "f_rad_vac", "f_rad"):
            assert np.all(np.asarray(getattr(br, name)) >= -1e-15)


def test_branch_point_limits_agree(cfg, rng):
    phi = np.linspace(0.0, 2.0 * np.pi, 17)
    for _ in range(6):
        dip = random_dipole(rng)
        lim_e = f_evan_limit_kappa1(cfg, dip, phi)
        lim_r = f_rad_limit_kappa1(cfg, dip, phi)
        assert np.allclose(lim_e, lim_r, rtol=1e-14)
        near = f_evan(cfg, dip, 1e-8, phi, 90.0)[2]
        assert np.allclose(near, lim_e, rtol=1e-6)
        near_r = f_rad(cfg, dip, 1e-8, phi, 90.0).f_rad
        assert np.allclose(near_r, lim_r, rtol=1e-6)


def test_frozen_limit_value_normal_dipole(cfg):
    dip = DipolePolarization.from_preset("x")
    lim = f_evan_limit_kappa1(cfg, dip, 0.3)
    assert lim == pytest.approx(0.956066479573457, rel=1e-12)
    # closed form 3 n1^2 / (2 pi sqrt(n1^2 - 1))
    assert lim == pytest.approx(
        3.0 * 1.45 ** 2 / (2.0 * np.pi * np.sqrt(1.45 ** 2 - 1.0)))


def test_side_difference_matches_closed_form(cfg, rng):
    for _ in range(15):
        dip = random_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 400.0)
        xi_e = rng.uniform(0.02, cfg.xi_max - 0.02)
        xi_r = rng.uniform(0.02, 0.98)
        for channel, xi in (("evan", xi_e), ("rad", xi_r), ("mat", xi_r),
                            ("vac", xi_r)):
            closed = delta_f(cfg, dip, xi, phi, x, channel)
            if channel == "evan":
                a = f_evan(cfg, dip, xi, phi, x)[2]
                b = f_evan(cfg, dip, xi, phi + np.pi, x)[2]
            else:
                attr = {"rad": "f_rad", "mat": "f_rad_mat",
                        "vac": "f_rad_vac"}[channel]
                a = getattr(f_rad(cfg, dip, xi, phi, x), attr)
                b = getattr(f_rad(cfg, dip, xi, phi + np.pi, x), attr)
            assert abs((a - b) - closed) < 1e-11 * max(a, b, 1e-3)


def test_delta_f_unknown_channel(cfg):
    with pytest.raises(ValueError, match="channel"):
        delta_f(cfg, DipolePolarization.from_preset("x"), 0.3, 0.0, 0.0,
                "sideways")


def test_s_density_inversion_symmetric(cfg, rng):
    dip = random_dipole(rng)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=12)
    f1 = f_evan(cfg, dip, 0.4, phi, 80.0)[0]
    f2 = f_evan(cfg, dip, 0.4, phi + np.pi, 80.0)[0]
    assert np.allclose(f1, f2, rtol=1e-13)
    b1 = f_rad(cfg, dip, 0.4, phi, 80.0)
    b2 = f_rad(cfg, dip, 0.4, phi + np.pi, 80.0)
    assert np.allclose(b1.f_rad_s, b2.f_rad_s, rtol=1e-13)


def test_output_split_is_time_reverse_of_input_split(cfg, rng):
    """mat/vac channels equal the per-input ones after u -> u*, phi -> phi+pi."""
    for _ in range(10):
        dip = random_dipole(rng)
        dip_c = DipolePolarization(np.conj(dip.u))
        xi = rng.uniform(0.02, 0.98)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 400.0)
        b = f_rad(cfg, dip, xi, phi, x)
        bt = f_rad(cfg, dip_c, xi, phi + np.pi, x)
        assert rel_err(b.f_rad_mat, bt.f_rad_s1 + bt.f_rad_p1) < 1e-12
        assert rel_err(b.f_rad_vac, bt.f_rad_s2 + bt.f_rad_p2) < 1e-12


def test_three_route_equivalence(cfg, rng):
    for _ in range(25):
        dip = random_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 400.0)
        for branch, xi in (("evanescent", rng.uniform(0.02, cfg.xi_max - 0.02)),
                           ("radiation", rng.uniform(0.02, 0.98))):
            closed, cross, spin = delta_f_equivalences(cfg, dip, xi, phi, x,
                                                       branch)
            scale = max(abs(closed), abs(cross), abs(spin), 1e-12)
            assert abs(closed - cross) < 1e-11 * scale
            assert abs(closed - spin) < 1e-11 * scale


def test_zeta_evanescent_height_independent(cfg, rng):
    dip = random_dipole(rng)
    xi, phi = 0.5, 1.2
    z1 = zeta_f(cfg, dip, xi, phi, 10.0, "evan")
    z2 = zeta_f(cfg, dip, xi, phi, 700.0, "evan")
    assert np.isclose(float(z1), float(z2), rtol=1e-12)


def test_zeta_nan_when_denominator_vanishes(cfg):
    # the vacuum-interference part vanishes identically at the branch
    # point, so its asymmetry factor is undefined there
    dip_x = DipolePolarization.from_preset("x")
    z = zeta_f(cfg, dip_x, 0.0, 0.3, 120.0, "vac")
    assert np.isnan(float(z))
    z_ok = zeta_f(cfg, DipolePolarization.from_preset("eps-xz"), 0.5, 0.4,
                  120.0, "evan")
    assert np.isfinite(float(z_ok))


def test_critical_angle_value(cfg):
    assert np.degrees(critical_theta(cfg)) == pytest.approx(43.60282, abs=1e-4)


def test_pattern_zone_boundaries_continuous(cfg, rng):
    dip = random_dipole(rng)
    x = 140.0
    thc = critical_theta(cfg)
    # vacuum / forbidden junction at theta = pi/2: both vanish like cos(theta)
    p_vac = pattern(cfg, dip, 0.5 * np.pi, 0.7, x, "rad_vacuum")
    p_evan = pattern(cfg, dip, 0.5 * np.pi, 0.7, x, "evan_forbidden")
    assert abs(float(p_vac)) < 1e-14
    assert abs(float(p_evan)) < 1e-14
    # forbidden / material junction at theta = pi - arcsin(1/n1); the
    # angle-to-xi map amplifies the fp error of theta to sqrt(eps), so
    # agreement bottoms out around 1e-8
    t_b = np.pi - thc
    a = pattern(cfg, dip, t_b, 0.7, x, "evan_forbidden")
    b = pattern(cfg, dip, t_b, 0.7, x, "rad_material")
    assert rel_err(float(a), float(b)) < 1e-6


def test_pattern_zone_domain_errors(cfg):
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="rad_vacuum"):
        pattern(cfg, dip, 2.0, 0.0, 0.0, "rad_vacuum")
    with pytest.raises(ValueError, match="evan_forbidden"):
        pattern(cfg, dip, 0.3, 0.0, 0.0, "evan_forbidden")
    with pytest.raises(ValueError, match="rad_material"):
        pattern(cfg, dip, 0.3, 0.0, 0.0, "rad_material")
    with pytest.raises(ValueError, match="rad_vacuum"):
        pattern(cfg, dip, 0.3, 0.0, 0.0, "upward")


_KERNELS = {
    "f_evan": lambda cfg, dip, xi, x: f_evan(cfg, dip, xi, 0.3, x),
    "f_rad": lambda cfg, dip, xi, x: f_rad(cfg, dip, xi, 0.3, x),
    "delta_f": lambda cfg, dip, xi, x: delta_f(cfg, dip, xi, 0.3, x, "rad"),
    "pattern": lambda cfg, dip, xi, x: pattern(
        cfg, dip, np.arccos(xi), 0.3, x, "rad_vacuum"),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_kernels_reject_bad_heights(cfg, kernel, bad):
    dip = DipolePolarization.from_preset("eps-xz")
    with pytest.raises(ValueError, match="x_nm must be finite"):
        _KERNELS[kernel](cfg, dip, 0.5, bad)


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_kernels_reject_nonfinite_xi(cfg, kernel):
    dip = DipolePolarization.from_preset("eps-xz")
    with pytest.raises(ValueError, match="finite"):
        _KERNELS[kernel](cfg, dip, np.array([0.5, np.nan]), 100.0)


def test_pattern_nonnegative_everywhere(cfg, rng):
    dip = random_dipole(rng)
    thc = critical_theta(cfg)
    for zone, lo, hi in (("rad_vacuum", 0.0, 0.5 * np.pi),
                         ("evan_forbidden", 0.5 * np.pi, np.pi - thc),
                         ("rad_material", np.pi - thc, np.pi)):
        theta = np.linspace(lo, hi, 200)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=theta.size)
        p = pattern(cfg, dip, theta, phi, 60.0, zone)
        assert np.all(p >= -1e-15)


def test_dipole_presets_and_validation():
    assert set(DIPOLE_PRESETS) == {"x", "y", "z", "theta-xz", "eps-xz"}
    with pytest.raises(ValueError, match="nonzero"):
        DipolePolarization([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="preset"):
        DipolePolarization.from_preset("w")
    with pytest.warns(UserWarning, match="normalizing"):
        dip = DipolePolarization([2.0, 0.0, 0.0])
    assert np.allclose(dip.u, [1.0, 0.0, 0.0])
    eps = DipolePolarization.from_preset("eps-xz")
    assert np.allclose(eps.ellipticity, [0.0, 1.0, 0.0])


def test_real_dipole_has_no_side_difference(cfg, rng):
    for _ in range(8):
        dip = random_real_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi_e = rng.uniform(0.02, cfg.xi_max - 0.02)
        xi_r = rng.uniform(0.02, 0.98)
        x = rng.uniform(0.0, 400.0)
        assert delta_f(cfg, dip, xi_e, phi, x, "evan") == 0.0
        assert delta_f(cfg, dip, xi_r, phi, x, "rad") == 0.0


def test_zone_tuple_exported():
    assert PATTERN_ZONES == ("rad_vacuum", "evan_forbidden", "rad_material")
