import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_dipole, rel_err
from surfemit import (DipolePolarization, InterfaceConfig, QuadratureSpec,
                      asymmetry, axis_rates, delta_rates, gamma_evan,
                      gamma_mat_vac, gamma_rad, gamma_total, oracle_integrate,
                      rate_report, side_rates)
from surfemit.optics import fresnel, transmittance
from surfemit.rates import (ORACLE_CHANNELS, RateReport, _zeta,
                            axis_coefficients)


def test_peak_enhancement_frozen(cfg):
    dip = DipolePolarization.from_preset("x")
    g = gamma_total(cfg, dip, 0.0)
    assert g == pytest.approx(2.1764054035574567, rel=1e-9)


def test_contact_rates_frozen(cfg):
    dip = DipolePolarization.from_preset("x")
    assert gamma_evan(cfg, dip, 0.0) == pytest.approx(1.4492859642691207,
                                                      rel=1e-9)
    assert gamma_rad(cfg, dip, 0.0) == pytest.approx(0.7271194392883362,
                                                     rel=1e-9)


def test_weak_contrast_limit():
    # for n1 -> 1 and a surface-normal dipole the evanescent rate goes
    # to xi_max = sqrt(n1^2 - 1) at leading order; the radiative channel
    # loses the same amount (grazing p reflection stays -1 at any
    # contrast), so only the total returns to the free-space value
    cfg = InterfaceConfig(n1=1.0 + 1e-6, lambda0_nm=852.0)
    dip = DipolePolarization.from_preset("x")
    xi_max = np.sqrt(cfg.n1 ** 2 - 1.0)
    assert gamma_evan(cfg, dip, 50.0) == pytest.approx(xi_max, rel=1e-2)
    assert gamma_rad(cfg, dip, 50.0) == pytest.approx(1.0 - xi_max, rel=1e-3)
    assert gamma_total(cfg, dip, 50.0) == pytest.approx(1.0, abs=1e-4)


def test_far_tail_regression(cfg):
    # the evanescent channel decays algebraically, ~(2 k0 x)^-2
    dip = DipolePolarization.from_preset("x")
    val = gamma_evan(cfg, dip, 20.0 * 852.0)
    assert val == pytest.approx(9.507862243301828e-05, rel=1e-6)
    assert val < 2e-4


def test_negative_distance_rejected(cfg):
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="nonnegative"):
        gamma_evan(cfg, dip, -5.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1e-9])
@pytest.mark.parametrize("rate", [
    gamma_evan, gamma_rad, gamma_total, delta_rates, side_rates,
    gamma_mat_vac, asymmetry, rate_report,
    lambda cfg, dip, x: axis_rates(cfg, x),
    lambda cfg, dip, x: oracle_integrate(cfg, dip, x, "rad"),
])
def test_public_rates_reject_bad_heights(cfg, rate, x):
    dip = DipolePolarization.from_preset("eps-xz")
    with pytest.raises(ValueError, match="x_nm must be finite and "
                                         "nonnegative"):
        rate(cfg, dip, x)


def test_total_is_sum_of_channels(cfg, rng):
    for _ in range(4):
        dip = random_dipole(rng)
        x = rng.uniform(0.0, 900.0)
        direct = gamma_total(cfg, dip, x)
        split = gamma_evan(cfg, dip, x) + gamma_rad(cfg, dip, x)
        assert rel_err(direct, split) < 1e-10


def test_axis_rates_match_general_formulas(cfg):
    for x in (0.0, 85.0, 440.0):
        perp_e, par_e, perp_r, par_r = axis_rates(cfg, x)
        ux = DipolePolarization.from_preset("x")
        uy = DipolePolarization.from_preset("y")
        assert rel_err(gamma_evan(cfg, ux, x), perp_e) < 1e-10
        assert rel_err(gamma_evan(cfg, uy, x), par_e) < 1e-10
        assert rel_err(gamma_rad(cfg, ux, x), perp_r) < 1e-10
        assert rel_err(gamma_rad(cfg, uy, x), par_r) < 1e-10


def test_axis_coefficients_match_kernels(cfg):
    xi = 0.37
    t_s, t_p = transmittance(cfg, xi)
    perp, par = axis_coefficients(cfg, xi, "evanescent")
    assert perp == pytest.approx((1.0 + xi ** 2) * t_p, rel=1e-15)
    assert par == pytest.approx(t_s + xi ** 2 * t_p, rel=1e-15)
    r_s, r_p = fresnel(cfg, xi)
    perp, par = axis_coefficients(cfg, xi, "radiation")
    assert perp == pytest.approx((1.0 - xi ** 2) * r_p, rel=1e-15)
    assert par == pytest.approx(r_s - xi ** 2 * r_p, rel=1e-15)
    with pytest.raises(ValueError):
        axis_coefficients(cfg, xi, "bound")


def test_rates_depend_only_on_ux_squared(cfg, rng):
    for _ in range(3):
        x = rng.uniform(0.0, 600.0)
        ux = rng.uniform(0.1, 0.95)
        rest = np.sqrt(1.0 - ux ** 2)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        mix = rng.uniform(0.0, 1.0)
        d1 = DipolePolarization([ux, rest * np.cos(alpha),
                                 rest * np.sin(alpha)])
        d2 = DipolePolarization([ux * np.exp(1j * alpha),
                                 rest * np.sqrt(mix),
                                 1j * rest * np.sqrt(1.0 - mix)])
        assert rel_err(gamma_evan(cfg, d1, x), gamma_evan(cfg, d2, x)) < 1e-10
        assert rel_err(gamma_rad(cfg, d1, x), gamma_rad(cfg, d2, x)) < 1e-10
        s1 = gamma_mat_vac(cfg, d1, x)
        s2 = gamma_mat_vac(cfg, d2, x)
        assert rel_err(s1.gamma_rad_mat, s2.gamma_rad_mat) < 1e-10
        assert rel_err(s1.gamma_rad_vac, s2.gamma_rad_vac) < 1e-10


def test_deltas_depend_only_on_im_uxuz(cfg, rng):
    x = 170.0
    # same Im(ux* uz) = 0.3, different vectors
    d1 = DipolePolarization(np.array([0.6, 0.4, 0.5j]) /
                            np.linalg.norm([0.6, 0.4, 0.5]))
    im1 = float(np.imag(np.conj(d1.u[0]) * d1.u[2]))
    d2_raw = np.array([0.5, 0.6j, (im1 / 0.5) * 1j + 0.2])
    d2 = DipolePolarization(d2_raw / np.linalg.norm(d2_raw))
    im2 = float(np.imag(np.conj(d2.u[0]) * d2.u[2]))
    de1, dr1, dt1 = delta_rates(cfg, d1, x)
    de2, dr2, dt2 = delta_rates(cfg, d2, x)
    # deltas scale linearly with Im(ux* uz)
    assert rel_err(de1 * im2, de2 * im1) < 1e-10
    assert rel_err(dr1 * im2, dr2 * im1) < 1e-10
    assert rel_err(dt1 * im2, dt2 * im1) < 1e-10


def test_delta_mat_depends_only_on_re_uxuz(cfg):
    x = 260.0
    d1 = DipolePolarization(np.array([0.5, 0.2, 0.6]) /
                            np.linalg.norm([0.5, 0.2, 0.6]))
    re1 = float(np.real(np.conj(d1.u[0]) * d1.u[2]))
    raw = np.array([0.5j, 0.4, 0.6j])
    d2 = DipolePolarization(raw / np.linalg.norm(raw))
    re2 = float(np.real(np.conj(d2.u[0]) * d2.u[2]))
    m1 = gamma_mat_vac(cfg, d1, x)
    m2 = gamma_mat_vac(cfg, d2, x)
    assert abs(m1.delta_rad_mat * re2 - m2.delta_rad_mat * re1) < 1e-12


def test_material_split_constant_in_distance(cfg):
    dip = DipolePolarization.from_preset("theta-xz")
    mats = [gamma_mat_vac(cfg, dip, x).gamma_rad_mat
            for x in (0.0, 111.0, 222.0, 555.0, 800.0)]
    dmats = [gamma_mat_vac(cfg, dip, x).delta_rad_mat
             for x in (0.0, 111.0, 222.0, 555.0, 800.0)]
    assert max(mats) - min(mats) < 1e-10
    assert max(dmats) - min(dmats) < 1e-10


def test_side_rates_compose(cfg, rng):
    dip = random_dipole(rng)
    x = 140.0
    gep, gem, grp, grm, gp, gm = side_rates(cfg, dip, x)
    assert rel_err(gep + gem, gamma_evan(cfg, dip, x)) < 1e-12
    assert rel_err(grp + grm, gamma_rad(cfg, dip, x)) < 1e-12
    assert rel_err(gp + gm, gamma_total(cfg, dip, x)) < 1e-10
    de, dr, dt = delta_rates(cfg, dip, x)
    assert rel_err(gep - gem, de) < 1e-9 or abs(de) < 1e-15
    assert rel_err(grp - grm, dr) < 1e-9 or abs(dr) < 1e-15


def test_report_is_self_consistent(cfg, rng):
    dip = random_dipole(rng)
    x = 330.0
    r = rate_report(cfg, dip, x)
    assert r.gamma_total == pytest.approx(r.gamma_evan + r.gamma_rad,
                                          rel=1e-14)
    assert r.gamma_evan == pytest.approx(r.gamma_evan_plus +
                                         r.gamma_evan_minus, rel=1e-12)
    assert r.gamma_rad == pytest.approx(r.gamma_rad_plus + r.gamma_rad_minus,
                                        rel=1e-12)
    assert r.gamma_rad == pytest.approx(r.gamma_rad_mat + r.gamma_rad_vac,
                                        rel=1e-12)
    assert r.delta_total == pytest.approx(r.delta_evan + r.delta_rad,
                                          rel=1e-14)
    assert r.delta_rad == pytest.approx(r.delta_rad_mat + r.delta_rad_vac,
                                        rel=1e-12)
    assert len(RateReport.COLUMNS) == 23
    for name in RateReport.COLUMNS:
        assert hasattr(r, name)


def test_asymmetry_ratios(cfg):
    dip = DipolePolarization.from_preset("eps-xz")
    x = 90.0
    z_evan, z_rad, z_tot = asymmetry(cfg, dip, x)
    de, dr, dt = delta_rates(cfg, dip, x)
    assert z_evan == pytest.approx(de / gamma_evan(cfg, dip, x), rel=1e-12)
    assert z_rad == pytest.approx(dr / gamma_rad(cfg, dip, x), rel=1e-12)
    assert z_tot == pytest.approx(dt / gamma_total(cfg, dip, x), rel=1e-12)


def test_zeta_undefined_below_floor():
    assert _zeta(1e-15, 5e-13) is None
    assert _zeta(0.0, 0.0) is None
    assert _zeta(0.5, 2.0) == 0.25


def test_oracle_agreement_single_case(cfg, rng):
    dip = random_dipole(rng)
    x = 205.0
    assert rel_err(gamma_evan(cfg, dip, x),
                   oracle_integrate(cfg, dip, x, "evan")) < 1e-7
    assert rel_err(gamma_rad(cfg, dip, x),
                   oracle_integrate(cfg, dip, x, "rad")) < 1e-7
    split = gamma_mat_vac(cfg, dip, x)
    assert rel_err(split.gamma_rad_mat,
                   oracle_integrate(cfg, dip, x, "mat")) < 1e-7
    assert rel_err(split.gamma_rad_vac,
                   oracle_integrate(cfg, dip, x, "vac")) < 1e-7


def test_oracle_half_plane_side_rates(cfg):
    dip = DipolePolarization.from_preset("eps-xz")
    x = 75.0
    gep, gem, grp, grm, _, _ = side_rates(cfg, dip, x)
    plus = oracle_integrate(cfg, dip, x, "evan", phi_range=(0.0, np.pi))
    minus = oracle_integrate(cfg, dip, x, "evan",
                             phi_range=(np.pi, 2.0 * np.pi))
    assert rel_err(gep, plus) < 1e-7
    assert rel_err(gem, minus) < 1e-7
    rplus = oracle_integrate(cfg, dip, x, "rad", phi_range=(0.0, np.pi))
    rminus = oracle_integrate(cfg, dip, x, "rad",
                              phi_range=(np.pi, 2.0 * np.pi))
    assert rel_err(grp, rplus) < 1e-7
    assert rel_err(grm, rminus) < 1e-7


def test_oracle_mat_plus_vac_equals_rad(cfg, rng):
    dip = random_dipole(rng)
    x = 310.0
    mat = oracle_integrate(cfg, dip, x, "mat")
    vac = oracle_integrate(cfg, dip, x, "vac")
    rad = oracle_integrate(cfg, dip, x, "rad")
    assert rel_err(mat + vac, rad) < 1e-9


def test_oracle_memory_bounded(cfg):
    # n_phi phi nodes per xi node: the integrand blocks its nodes so that
    # a 92 um radiation oracle stays near the size of one block
    dip = DipolePolarization.from_preset("eps-xz")
    tracemalloc.start()
    try:
        oracle_integrate(cfg, dip, 92000.0, "rad")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("n1", [1.2, 2.5])
def test_oracle_default_phi_rule_matches_64_nodes(n1):
    # the phi density is a degree-2 trigonometric polynomial, so the
    # default 32-node rule is exact to roundoff on circle and wedges
    cfg = InterfaceConfig(n1=n1, lambda0_nm=852.0)
    for preset in ("y", "eps-xz"):
        dip = DipolePolarization.from_preset(preset)
        for x, channel, wedge in itertools.product(
                (0.0, 852.0), ORACLE_CHANNELS,
                ((0.0, 2.0 * np.pi), (0.0, np.pi), (np.pi, 2.0 * np.pi))):
            ref = oracle_integrate(cfg, dip, x, channel, wedge, n_phi=64)
            got = oracle_integrate(cfg, dip, x, channel, wedge)
            assert abs(got - ref) <= 1e-14 * abs(ref)


def test_oracle_channel_validation(cfg):
    dip = DipolePolarization.from_preset("x")
    assert ORACLE_CHANNELS == ("evan", "rad", "mat", "vac")
    with pytest.raises(ValueError, match="channel"):
        oracle_integrate(cfg, dip, 10.0, "bound")


def test_vacuum_channel_oscillates_about_free_half(cfg):
    # far from the surface the vacuum output oscillates about 1 - gamma_mat
    dip = DipolePolarization.from_preset("theta-xz")
    x0 = 50.0 * 852.0
    vals = [gamma_mat_vac(cfg, dip, x).gamma_rad_vac
            for x in np.arange(x0, x0 + 430.0, 5.0)]
    mid = 0.5 * (max(vals) + min(vals))
    mat = gamma_mat_vac(cfg, dip, x0).gamma_rad_mat
    assert abs(mid - (1.0 - mat)) < 1e-3


def test_nonnegative_rates_random(cfg, rng):
    for _ in range(5):
        dip = random_dipole(rng)
        x = rng.uniform(0.0, 2000.0)
        assert gamma_evan(cfg, dip, x) >= 0.0
        assert gamma_total(cfg, dip, x) >= 0.0


def test_quadrature_spec_threads_through(cfg):
    dip = DipolePolarization.from_preset("x")
    loose = QuadratureSpec(rtol=1e-6, atol=1e-10, max_subdivisions=50)
    tight = QuadratureSpec()
    a = gamma_total(cfg, dip, 312.0, loose)
    b = gamma_total(cfg, dip, 312.0, tight)
    assert rel_err(a, b) < 1e-6
