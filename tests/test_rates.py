import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_dipole, rel_err
from surfemit import (DipolePolarization, InterfaceConfig, QuadratureSpec,
                      SweepRequest, axis_rates, oracle_integrate, rate_report,
                      sweep_rates)
from surfemit.density import CHANNELS, delta_f, f_evan, f_rad
from surfemit.optics import fresnel, transmittance
from surfemit.rates import (RateReport, _stacked_integrand, _zeta,
                            axis_coefficients, rate_columns)


def sweep(cfg, dip, xs):
    """The sweep_rates table of dip at heights xs, every row converged."""
    t = sweep_rates(SweepRequest(config=cfg, dipole=dip, x_nm=xs))
    assert np.all(t.column("status") == 0.0)
    return t


def test_peak_enhancement_frozen(cfg):
    dip = DipolePolarization.from_preset("x")
    g = rate_report(cfg, dip, 0.0).gamma_total
    assert g == pytest.approx(2.1764054035574567, rel=1e-9)


def test_contact_rates_frozen(cfg):
    r = rate_report(cfg, DipolePolarization.from_preset("x"), 0.0)
    assert r.gamma_evan == pytest.approx(1.4492859642691207, rel=1e-9)
    assert r.gamma_rad == pytest.approx(0.7271194392883362, rel=1e-9)


def test_weak_contrast_limit():
    # for n1 -> 1 and a surface-normal dipole the evanescent rate goes
    # to xi_max = sqrt(n1^2 - 1) at leading order; the radiative channel
    # loses the same amount (grazing p reflection stays -1 at any
    # contrast), so only the total returns to the free-space value
    cfg = InterfaceConfig(n1=1.0 + 1e-6, lambda0_nm=852.0)
    dip = DipolePolarization.from_preset("x")
    xi_max = np.sqrt(cfg.n1 ** 2 - 1.0)
    r = rate_report(cfg, dip, 50.0)
    assert r.gamma_evan == pytest.approx(xi_max, rel=1e-2)
    assert r.gamma_rad == pytest.approx(1.0 - xi_max, rel=1e-3)
    assert r.gamma_total == pytest.approx(1.0, abs=1e-4)


def test_far_tail_regression(cfg):
    # the evanescent channel decays algebraically, ~(2 k0 x)^-2
    dip = DipolePolarization.from_preset("x")
    val = rate_report(cfg, dip, 20.0 * 852.0).gamma_evan
    assert val == pytest.approx(9.507862243301828e-05, rel=1e-6)
    assert val < 2e-4


def test_negative_distance_rejected(cfg):
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="nonnegative"):
        rate_report(cfg, dip, -5.0)


def test_height_beyond_the_seed_panel_bound_rejected(cfg):
    # 1e12 nm asks for 4.7e9 radiation seed panels (35 GiB)
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="^x_nm must be below about"):
        rate_report(cfg, dip, 1e12)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1e-9, -100.0])
@pytest.mark.parametrize("rate", [
    rate_report,
    lambda cfg, dip, x: axis_rates(cfg, x),
    lambda cfg, dip, x: oracle_integrate(cfg, dip, x, "rad"),
    lambda cfg, dip, x: rate_columns(cfg, dip, [0.0, x]),
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
        r = rate_report(cfg, dip, x)
        assert rel_err(r.gamma_total, r.gamma_evan + r.gamma_rad) < 1e-10


def test_rate_columns_takes_heights_in_any_order(cfg):
    # each run is seeded for its largest height, so the heights are
    # sorted first and the rows returned in the caller's order
    dip = DipolePolarization.from_preset("y")
    up = rate_columns(cfg, dip, [0.0, 2e5])
    down = rate_columns(cfg, dip, [2e5, 0.0])
    assert down[3].all()
    for a, b in zip(up, down):
        np.testing.assert_array_equal(a[::-1], b)


def test_axis_rates_match_general_formulas(cfg):
    for x in (0.0, 85.0, 440.0):
        perp_e, par_e, perp_r, par_r = axis_rates(cfg, x)
        ux = DipolePolarization.from_preset("x")
        uy = DipolePolarization.from_preset("y")
        perp, par = rate_report(cfg, ux, x), rate_report(cfg, uy, x)
        assert rel_err(perp.gamma_evan, perp_e) < 1e-10
        assert rel_err(par.gamma_evan, par_e) < 1e-10
        assert rel_err(perp.gamma_rad, perp_r) < 1e-10
        assert rel_err(par.gamma_rad, par_r) < 1e-10


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


@pytest.mark.parametrize("n1", [1.2, 1.45, 2.5, 100.0])
def test_phi_integrals_of_the_densities_are_the_rate_kernels(n1, rng):
    # at each xi, a 16-node Gauss rule in phi integrates xi f over the
    # circle to 3/4 of the rate row of _stacked_integrand (plus the
    # free-space term on the radiation branch) and xi delta_f over the
    # half circle to (6/pi) Im(u_x* u_z) times the side row.  Residuals
    # scale by the largest term of the circle integral: the side rows
    # are differences of densities of that size
    cfg = InterfaceConfig(n1, 852.0)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    worst = 0.0
    for _ in range(10):
        dip = random_dipole(rng)
        ux2 = abs(dip.u[0]) ** 2
        im_xz = np.imag(np.conj(dip.u[0]) * dip.u[2])
        x = rng.uniform(0.0, 4.65) / (cfg.k0_nm * max(cfg.xi_max, 1.0))
        for branch, top in (("evanescent", cfg.xi_max), ("radiation", 1.0)):
            xi = top * rng.uniform(1e-3, 1.0 - 1e-3, 8)
            rate, side = _stacked_integrand(
                cfg, ux2, branch, np.array([[2.0 * cfg.k0_nm * x]]))(xi)[:, 0]
            phi, w = np.pi * (nodes + 1.0), np.pi * weights
            if branch == "evanescent":
                channel, free = "evan", 0.0
                f = f_evan(cfg, dip, xi[:, None], phi, x)[2]
            else:
                channel = "rad"
                free = (1.0 - ux2) * (1.0 + xi ** 2) + 2.0 * ux2 * (1.0 - xi ** 2)
                f = f_rad(cfg, dip, xi[:, None], phi, x).f_rad
            size = 0.75 * (free + np.abs(rate))
            worst = max(worst, np.max(
                np.abs(xi * (f @ w) - 0.75 * (free + rate)) / size))
            half = delta_f(cfg, dip, xi[:, None], phi / 2.0, x, channel)
            worst = max(worst, np.max(np.abs(
                xi * (half @ w) / 2.0 - 6.0 / np.pi * im_xz * side) / size))
    assert worst < 1e-13


def test_deltas_depend_only_on_im_uxuz(cfg, rng):
    x = 170.0
    # same Im(ux* uz) = 0.3, different vectors
    d1 = DipolePolarization(np.array([0.6, 0.4, 0.5j]) /
                            np.linalg.norm([0.6, 0.4, 0.5]))
    im1 = float(np.imag(np.conj(d1.u[0]) * d1.u[2]))
    d2_raw = np.array([0.5, 0.6j, (im1 / 0.5) * 1j + 0.2])
    d2 = DipolePolarization(d2_raw / np.linalg.norm(d2_raw))
    im2 = float(np.imag(np.conj(d2.u[0]) * d2.u[2]))
    r1, r2 = rate_report(cfg, d1, x), rate_report(cfg, d2, x)
    de1, dr1, dt1 = r1.delta_evan, r1.delta_rad, r1.delta_total
    de2, dr2, dt2 = r2.delta_evan, r2.delta_rad, r2.delta_total
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
    m1, m2 = rate_report(cfg, d1, x), rate_report(cfg, d2, x)
    assert abs(m1.delta_rad_mat * re2 - m2.delta_rad_mat * re1) < 1e-12


def test_material_split_constant_in_distance(cfg):
    t = sweep(cfg, DipolePolarization.from_preset("theta-xz"),
              (0.0, 111.0, 222.0, 555.0, 800.0))
    mats, dmats = t.column("gamma_rad_mat"), t.column("delta_rad_mat")
    assert max(mats) - min(mats) < 1e-10
    assert max(dmats) - min(dmats) < 1e-10


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


def test_side_rates_compose(cfg, rng):
    dip = random_dipole(rng)
    r = rate_report(cfg, dip, 140.0)
    assert rel_err(r.gamma_evan_plus + r.gamma_evan_minus, r.gamma_evan) < 1e-12
    assert rel_err(r.gamma_rad_plus + r.gamma_rad_minus, r.gamma_rad) < 1e-12
    assert rel_err(r.gamma_plus + r.gamma_minus, r.gamma_total) < 1e-10
    for side, delta in ((r.gamma_evan_plus - r.gamma_evan_minus, r.delta_evan),
                        (r.gamma_rad_plus - r.gamma_rad_minus, r.delta_rad)):
        assert rel_err(side, delta) < 1e-9 or abs(delta) < 1e-15


def test_asymmetry_ratios(cfg):
    r = rate_report(cfg, DipolePolarization.from_preset("eps-xz"), 90.0)
    for zeta, delta, gamma in ((r.zeta_evan, r.delta_evan, r.gamma_evan),
                               (r.zeta_rad, r.delta_rad, r.gamma_rad),
                               (r.zeta_total, r.delta_total, r.gamma_total)):
        assert zeta == pytest.approx(delta / gamma, rel=1e-12)


def test_zeta_undefined_below_floor(cfg, monkeypatch):
    z = _zeta(np.array([1e-15, 0.0, 0.5]), np.array([5e-13, 0.0, 2.0]))
    assert np.isnan(z[0]) and np.isnan(z[1]) and z[2] == 0.25
    # rate_report gives None where its row of rate_columns has NaN
    monkeypatch.setattr("surfemit.rates._ZETA_FLOOR", 10.0)
    r = rate_report(cfg, DipolePolarization.from_preset("eps-xz"), 90.0)
    assert (r.zeta_evan, r.zeta_rad, r.zeta_total) == (None, None, None)


def test_oracle_agreement_single_case(cfg, rng):
    dip = random_dipole(rng)
    x = 205.0
    split = rate_report(cfg, dip, x)
    assert rel_err(split.gamma_evan,
                   oracle_integrate(cfg, dip, x, "evan")) < 1e-7
    assert rel_err(split.gamma_rad,
                   oracle_integrate(cfg, dip, x, "rad")) < 1e-7
    assert rel_err(split.gamma_rad_mat,
                   oracle_integrate(cfg, dip, x, "mat")) < 1e-7
    assert rel_err(split.gamma_rad_vac,
                   oracle_integrate(cfg, dip, x, "vac")) < 1e-7


def test_oracle_half_plane_side_rates(cfg):
    dip = DipolePolarization.from_preset("eps-xz")
    x = 75.0
    r = rate_report(cfg, dip, x)
    gep, gem = r.gamma_evan_plus, r.gamma_evan_minus
    grp, grm = r.gamma_rad_plus, r.gamma_rad_minus
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
                (0.0, 852.0), CHANNELS,
                ((0.0, 2.0 * np.pi), (0.0, np.pi), (np.pi, 2.0 * np.pi))):
            ref = oracle_integrate(cfg, dip, x, channel, wedge, n_phi=64)
            got = oracle_integrate(cfg, dip, x, channel, wedge)
            assert abs(got - ref) <= 1e-14 * abs(ref)


def test_oracle_channel_validation(cfg):
    dip = DipolePolarization.from_preset("x")
    assert CHANNELS == ("evan", "rad", "mat", "vac")
    with pytest.raises(ValueError, match="channel"):
        oracle_integrate(cfg, dip, 10.0, "bound")


def test_vacuum_channel_oscillates_about_free_half(cfg):
    # far from the surface the vacuum output oscillates about 1 - gamma_mat
    dip = DipolePolarization.from_preset("theta-xz")
    x0 = 50.0 * 852.0
    t = sweep(cfg, dip, np.arange(x0, x0 + 430.0, 5.0))
    vals = t.column("gamma_rad_vac")
    mid = 0.5 * (max(vals) + min(vals))
    mat = t.column("gamma_rad_mat")[0]
    assert abs(mid - (1.0 - mat)) < 1e-3


def test_nonnegative_rates_random(cfg, rng):
    for _ in range(5):
        dip = random_dipole(rng)
        x = rng.uniform(0.0, 2000.0)
        r = rate_report(cfg, dip, x)
        assert r.gamma_evan >= 0.0
        assert r.gamma_total >= 0.0


def test_quadrature_spec_threads_through(cfg):
    dip = DipolePolarization.from_preset("x")
    loose = QuadratureSpec(rtol=1e-6, atol=1e-10, max_subdivisions=50)
    tight = QuadratureSpec()
    a = rate_report(cfg, dip, 312.0, loose).gamma_total
    b = rate_report(cfg, dip, 312.0, tight).gamma_total
    assert rel_err(a, b) < 1e-6
