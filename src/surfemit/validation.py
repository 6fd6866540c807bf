"""Self-check suite behind the `validate` CLI subcommand.

Each check exercises one library invariant or cross-route identity with
a fixed random seed, so the pass/fail table is reproducible.  Checks
return a CheckResult with a short numeric detail; run_checks collects
them all without stopping at the first failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (CHANNELS, DipolePolarization, channel_density, delta_f,
                      delta_f_equivalences, f_evan, f_evan_limit_kappa1, f_rad,
                      pattern)
from .optics import (InterfaceConfig, ModePoint, brewster_xi, fresnel,
                     khat, mode_polarization_p, mode_polarization_s,
                     spin_density, transmittance)
from .quadrature import QuadratureSpec
from .rates import oracle_integrate, rate_report
from .vectens import decompose_coupling, ellipticity_vector

DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_cvec(rng, n=3):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _random_dipole(rng) -> DipolePolarization:
    u = _random_cvec(rng)
    return DipolePolarization(u / np.linalg.norm(u))


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale


def _check_tensor_decomposition(cfg, rng, quad):
    worst = 0.0
    for _ in range(200):
        d = _random_cvec(rng)
        e = _random_cvec(rng)
        dec = decompose_coupling(d, e, 1.0)
        direct = abs(np.sum(d * e)) ** 2
        scale = float(np.sum(np.abs(d) ** 2) * np.sum(np.abs(e) ** 2))
        worst = max(worst, abs(dec.total - direct) / scale)
    return worst < 1e-12, f"max scaled error {worst:.3e}"


def _check_tensor_real_pairs(cfg, rng, quad):
    worst = 0.0
    for _ in range(50):
        d = rng.normal(size=3)
        e = rng.normal(size=3)
        dec = decompose_coupling(d, e, 1.0)
        worst = max(worst, abs(dec.vector_part))
    return worst < 1e-14, f"max |vector part| {worst:.3e}"


def _check_fresnel_limits(cfg, rng, quad):
    rs0, rp0 = fresnel(cfg, 0.0)
    rsb, rpb = fresnel(cfg, brewster_xi(cfg))
    rs1, rp1 = fresnel(cfg, 1.0)
    errs = [abs(rs0 + 1.0), abs(rp0 + 1.0), abs(rpb), abs(rs1 + rp1)]
    grid = np.linspace(0.0, 1.0, 501)
    rs, _ = fresnel(cfg, grid)
    ok = max(errs) < 1e-14 and np.all(rs <= 1e-15)
    return bool(ok), f"endpoint errors {max(errs):.3e}"


def _check_transmittance_range(cfg, rng, quad):
    grid = np.linspace(0.0, cfg.xi_max, 501)
    ts, tp = transmittance(cfg, grid)
    edge = max(abs(ts[0]), abs(tp[0]), abs(ts[-1]), abs(tp[-1]))
    ok = np.all(ts >= -1e-15) and np.all(tp >= -1e-15) and edge < 1e-13
    return bool(ok), f"endpoint residual {edge:.3e}"


def _check_mode_polarizations_unit(cfg, rng, quad):
    worst = 0.0
    for _ in range(40):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = "s" if rng.random() < 0.5 else "p"
        if rng.random() < 0.5:
            point = ModePoint("evanescent",
                              rng.uniform(1e-3, cfg.xi_max - 1e-3), phi, q, 1)
        else:
            j = 2 if q == "p" else (1 if rng.random() < 0.5 else 2)
            point = ModePoint("radiation", rng.uniform(1e-3, 1.0), phi, q, j)
        if point.q == "s":
            e = mode_polarization_s(point)
        else:
            e = mode_polarization_p(cfg, point, rng.uniform(0.0, 400.0))
        worst = max(worst, abs(float(np.sum(np.abs(e) ** 2)) - 1.0))
    return worst < 1e-12, f"max |norm-1| {worst:.3e}"


def _check_spin_transverse(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        point = ModePoint("evanescent",
                          rng.uniform(1e-3, cfg.xi_max - 1e-3), phi, "p", 1)
        s = spin_density(cfg, point, 0.0)
        e = mode_polarization_p(cfg, point, 0.0)
        ell = ellipticity_vector(e)
        worst = max(worst, abs(float(np.dot(s, khat(phi)))))
        cross = np.linalg.norm(np.cross(s, ell))
        scale = max(np.linalg.norm(s) * np.linalg.norm(ell), 1e-30)
        worst = max(worst, cross / scale)
    return worst < 1e-12, f"max residual {worst:.3e}"


def _check_density_sum_rules(cfg, rng, quad):
    worst = 0.0
    for _ in range(30):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 600.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi_e = rng.uniform(1e-3, cfg.xi_max - 1e-3)
        f_s, f_p, f_tot = f_evan(cfg, dip, xi_e, phi, x)
        worst = max(worst, _rel(f_s + f_p, f_tot))
        if min(f_s, f_p, f_tot) < -1e-15:
            return False, "negative evanescent density"
        br = f_rad(cfg, dip, rng.uniform(1e-3, 1.0 - 1e-3), phi, x)
        worst = max(worst, _rel(br.f_rad_s1 + br.f_rad_s2, br.f_rad_s))
        worst = max(worst, _rel(br.f_rad_p1 + br.f_rad_p2, br.f_rad_p))
        worst = max(worst, _rel(br.f_rad_s + br.f_rad_p, br.f_rad))
        worst = max(worst, _rel(br.f_rad_mat + br.f_rad_vac, br.f_rad))
        low = min(br.f_rad_s1, br.f_rad_s2, br.f_rad_p1, br.f_rad_p2,
                  br.f_rad_mat, br.f_rad_vac)
        if low < -1e-15:
            return False, "negative radiation density"
    return worst < 1e-12, f"max relative residual {worst:.3e}"


def _check_density_side_difference(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 600.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi_e = rng.uniform(1e-3, cfg.xi_max - 1e-3)
        xi_r = rng.uniform(1e-3, 1.0 - 1e-3)
        for channel in CHANNELS:
            xi = xi_e if channel == "evan" else xi_r
            closed = delta_f(cfg, dip, xi, phi, x, channel)
            here = channel_density(cfg, dip, xi, phi, x, channel)
            there = channel_density(cfg, dip, xi, phi + np.pi, x, channel)
            scale = max(abs(here), abs(there), 1e-30)
            worst = max(worst, abs((here - there) - closed) / scale)
    return worst < 1e-11, f"max scaled residual {worst:.3e}"


def _check_delta_equivalence_routes(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 600.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for branch, xi in (("evanescent",
                            rng.uniform(1e-3, cfg.xi_max - 1e-3)),
                           ("radiation", rng.uniform(1e-3, 1.0 - 1e-3))):
            closed, cross, spin = delta_f_equivalences(cfg, dip, xi, phi, x,
                                                       branch)
            scale = max(abs(closed), abs(cross), abs(spin), 1e-30)
            worst = max(worst,
                        max(abs(closed - cross), abs(closed - spin)) / scale)
    return worst < 1e-11, f"max scaled spread {worst:.3e}"


def _check_branch_point_continuity(cfg, rng, quad):
    worst = 0.0
    for _ in range(10):
        dip = _random_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 400.0)
        # both branches approach the one kappa = 1 limit
        lim = f_evan_limit_kappa1(cfg, dip, phi)
        near_e = f_evan(cfg, dip, 1e-8, phi, x)[2]
        near_r = f_rad(cfg, dip, 1e-8, phi, x).f_rad
        worst = max(worst, _rel(near_e, lim), _rel(near_r, lim))
    return worst < 1e-6, f"max relative gap {worst:.3e}"


def _check_rate_composition(cfg, rng, quad):
    worst = 0.0
    for _ in range(3):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 800.0)
        r = rate_report(cfg, dip, x, quad)
        worst = max(worst, _rel(r.gamma_evan + r.gamma_rad, r.gamma_total))
        worst = max(worst, _rel(r.gamma_evan_plus + r.gamma_evan_minus,
                                r.gamma_evan))
        worst = max(worst, _rel(r.gamma_rad_plus + r.gamma_rad_minus,
                                r.gamma_rad))
        worst = max(worst, _rel(r.gamma_plus + r.gamma_minus, r.gamma_total))
        worst = max(worst, _rel(r.gamma_rad_mat + r.gamma_rad_vac,
                                r.gamma_rad))
        worst = max(worst, _rel(r.delta_rad_mat + r.delta_rad_vac,
                                r.delta_rad))
        worst = max(worst, _rel(r.delta_evan + r.delta_rad, r.delta_total))
        if r.gamma_total < 0.0 or r.gamma_evan < 0.0:
            return False, "negative rate"
    return worst < 1e-9, f"max relative residual {worst:.3e}"


def _check_rate_ux2_dependence(cfg, rng, quad):
    x = rng.uniform(0.0, 500.0)
    ux = rng.uniform(0.2, 0.9)
    rest = math.sqrt(1.0 - ux * ux)
    alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
    mix = rng.uniform(0.0, 1.0)
    u1 = [ux, rest * math.cos(alpha), rest * math.sin(alpha)]
    u2 = [ux * np.exp(1j * beta), rest * math.sqrt(mix),
          1j * rest * math.sqrt(1.0 - mix)]
    r1 = rate_report(cfg, DipolePolarization(u1), x, quad)
    r2 = rate_report(cfg, DipolePolarization(u2), x, quad)
    worst = max(_rel(r1.gamma_evan, r2.gamma_evan),
                _rel(r1.gamma_rad, r2.gamma_rad),
                _rel(r1.gamma_total, r2.gamma_total),
                _rel(r1.gamma_rad_mat, r2.gamma_rad_mat),
                _rel(r1.gamma_rad_vac, r2.gamma_rad_vac))
    return worst < 1e-10, f"max relative spread {worst:.3e}"


def _check_material_rate_constant(cfg, rng, quad):
    dip = _random_dipole(rng)
    values = [rate_report(cfg, dip, x, quad).gamma_rad_mat
              for x in (0.0, 137.0, 400.0, 795.0)]
    spread = max(values) - min(values)
    return spread < 1e-10, f"spread {spread:.3e}"


def _check_oracle_evanescent(cfg, rng, quad):
    dip = _random_dipole(rng)
    x = rng.uniform(5.0, 300.0)
    closed = rate_report(cfg, dip, x, quad).gamma_evan
    brute = oracle_integrate(cfg, dip, x, "evan")
    err = _rel(closed, brute)
    return err < 1e-7, f"relative deviation {err:.3e}"


def _check_oracle_directional(cfg, rng, quad):
    dip = DipolePolarization.from_preset("eps-xz")
    x = 150.0
    closed = rate_report(cfg, dip, x, quad).delta_rad
    plus = oracle_integrate(cfg, dip, x, "rad", phi_range=(0.0, np.pi))
    minus = oracle_integrate(cfg, dip, x, "rad",
                             phi_range=(np.pi, 2.0 * np.pi))
    err = abs((plus - minus) - closed) / max(abs(closed), 1e-30)
    return err < 1e-7, f"relative deviation {err:.3e}"


def _check_pattern_nonnegative(cfg, rng, quad):
    dip = _random_dipole(rng)
    x = rng.uniform(0.0, 300.0)
    tc = math.asin(1.0 / cfg.n1)
    zones = (("rad_vacuum", 0.0, 0.5 * np.pi),
             ("evan_forbidden", 0.5 * np.pi, np.pi - tc),
             ("rad_material", np.pi - tc, np.pi))
    low = 0.0
    for zone, lo, hi in zones:
        theta = np.linspace(lo, hi, 101)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=theta.size)
        low = min(low, float(np.min(pattern(cfg, dip, theta, phi, x, zone))))
    return low > -1e-14, f"min value {low:.3e}"


def _check_large_distance_unity(cfg, rng, quad):
    x = 50.0 * cfg.lambda0_nm
    r = rate_report(cfg, DipolePolarization([1.0, 0.0, 0.0]), x, quad)
    err = abs(r.gamma_total - 1.0)
    return err < 0.005, f"|gamma_total - 1| = {err:.3e}"


def run_checks(cfg: InterfaceConfig | None = None,
               quad: QuadratureSpec | None = None,
               seed: int = DEFAULT_SEED) -> list:
    """Run every self-check; returns CheckResult list in a fixed order."""
    if cfg is None:
        cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    if quad is None:
        quad = QuadratureSpec()
    rng = np.random.default_rng(seed)
    checks = [
        ("tensor_decomposition", _check_tensor_decomposition),
        ("tensor_real_pairs", _check_tensor_real_pairs),
        ("fresnel_limits", _check_fresnel_limits),
        ("transmittance_range", _check_transmittance_range),
        ("mode_polarizations_unit", _check_mode_polarizations_unit),
        ("spin_transverse", _check_spin_transverse),
        ("density_sum_rules", _check_density_sum_rules),
        ("density_side_difference", _check_density_side_difference),
        ("delta_equivalence_routes", _check_delta_equivalence_routes),
        ("branch_point_continuity", _check_branch_point_continuity),
        ("pattern_nonnegative", _check_pattern_nonnegative),
        ("rate_composition", _check_rate_composition),
        ("rate_ux2_dependence", _check_rate_ux2_dependence),
        ("material_rate_constant", _check_material_rate_constant),
        ("oracle_evanescent", _check_oracle_evanescent),
        ("oracle_directional", _check_oracle_directional),
        ("large_distance_unity", _check_large_distance_unity),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn(cfg, rng, quad)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results


def format_report(results) -> str:
    """Fixed-width pass/fail table plus a one-line summary."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag}  {r.name:<{width}}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
