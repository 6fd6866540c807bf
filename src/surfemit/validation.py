"""The check suite behind `surfemit validate`, and the check-only routes.

The computation modules hold the closed forms that rates, grids and
patterns use.  What exists only to check them lives here: the geometry
of one p mode (unit polarization, ellipticity, spin density and field
profile, each a function of (cfg, branch, xi, phi, x_nm)), the
kappa -> 1 limit of the densities, the three routes to delta_f (among
them the paper's spin-orbit overlap of dipole and mode ellipticity), and
the scalar/vector/tensor split of a coupling, which the checks apply to
the package's own p modes.  An s mode needs no route: its polarization
is the real Khat x xhat (khat_cross_xhat) and carries no spin.

CHECKS is the ordered list of checks.  Each draws from its own generator,
seeded by the suite seed and its name, so `surfemit validate` and the
tests, which run one check at a time, see the same draws.  Mode
coordinates are drawn as fractions of their branch and the branch-point
probe scales with n1, so a check samples the same regions at any index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .density import (CHANNELS, DipolePolarization, _s_coupling, as_cvector,
                      channel_density, delta_f, ellipticity_vector, f_evan,
                      f_rad, pattern)
from .optics import (InterfaceConfig, _bounded, _transmission, fresnel,
                     transmittance)
from .quadrature import QuadratureSpec
from .rates import oracle_integrate, rate_report

DEFAULT_SEED = 20260817


def khat(phi) -> np.ndarray:
    """Unit in-plane propagation direction for azimuth phi."""
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.zeros_like(phi), np.cos(phi), np.sin(phi)], axis=-1)


def khat_cross_xhat(phi) -> np.ndarray:
    """The direction Khat x xhat = (0, sin(phi), -cos(phi))."""
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.zeros_like(phi), np.sin(phi), -np.cos(phi)], axis=-1)


def brewster_xi(cfg: InterfaceConfig) -> float:
    """Radiation-branch xi at which r_p vanishes, 1/sqrt(n1^2 + 1)."""
    return float(1.0 / np.sqrt(cfg.n1 ** 2 + 1.0))


def _mode_xi(cfg: InterfaceConfig, branch: str, xi, what: str):
    """(xi, kappa) of the p mode at xi, xi bounded to its branch: kappa is
    sqrt(1 + xi^2) on the evanescent branch and sqrt(1 - xi^2) on the
    radiation branch, whose modes are the j=2 ones (incident from
    vacuum)."""
    if branch == "evanescent":
        xi = float(_bounded(xi, cfg.xi_max, what))
        return xi, float(np.sqrt(1.0 + xi ** 2))
    if branch == "radiation":
        xi = float(_bounded(xi, 1.0, what))
        return xi, float(np.sqrt(1.0 - xi ** 2))
    raise ValueError(f"unknown branch {branch!r}")


def interference_norm(cfg: InterfaceConfig, xi, x_nm: float):
    """Norm Z of the vacuum-side p2 superposition at height x.

    Z = 1 + r_p^2 + 2 r_p (1 - 2 xi^2) cos(2 xi k0 x).  Positive for all
    xi in (0, 1]; vanishes at xi = 0 where r_p = -1.
    """
    _, r_p = fresnel(cfg, xi)
    xi = np.asarray(xi, dtype=float)
    return 1.0 + r_p ** 2 + 2.0 * r_p * (1.0 - 2.0 * xi ** 2) * np.cos(
        2.0 * xi * cfg.k0_nm * x_nm)


def mode_polarization_p(cfg: InterfaceConfig, branch: str, xi, phi,
                        x_nm: float) -> np.ndarray:
    """Unit polarization of the p mode (xi, phi) of a branch at the
    emitter height x_nm.  (The s mode's is the real Khat x xhat.)

    Evanescent branch (j=1): (kappa xhat - i xi Khat)/sqrt(1 + 2 xi^2),
    independent of x up to the overall decaying scalar.
    Radiation branch (j=2): the two-wave superposition
    [kappa xhat + xi Khat + r_p e^{2 i xi k0 x} (kappa xhat - xi Khat)]/sqrt(Z).

    Raises for the degenerate radiation point xi = 0.
    """
    xi, kappa = _mode_xi(cfg, branch, xi, "mode_polarization_p")
    kv = khat(phi)
    xv = np.array([1.0, 0.0, 0.0])
    if branch == "evanescent":
        return (kappa * xv - 1j * xi * kv) / np.sqrt(1.0 + 2.0 * xi ** 2)
    if xi == 0.0:
        raise ValueError("radiation p2 polarization is degenerate at xi = 0 (Z = 0)")
    _, r_p = fresnel(cfg, xi)
    phase = np.exp(2j * xi * cfg.k0_nm * x_nm)
    z = interference_norm(cfg, xi, x_nm)
    vec = (kappa * xv + xi * kv) + r_p * phase * (kappa * xv - xi * kv)
    return vec / np.sqrt(z)


def mode_ellipticity(cfg: InterfaceConfig, branch: str, xi, phi,
                     x_nm: float) -> np.ndarray:
    """The real vector i [eps* x eps] of the p-mode unit polarization.

    Same convention as density.ellipticity_vector, so this equals
    ellipticity_vector(mode_polarization_p(...)).  Closed forms:
    evanescent, -2 xi sqrt(1 + xi^2)/(1 + 2 xi^2) (Khat x xhat);
    radiation, -(4/Z) xi sqrt(1 - xi^2) r_p sin(2 xi k0 x) (Khat x xhat).
    """
    xi, kappa = _mode_xi(cfg, branch, xi, "mode_ellipticity")
    tv = khat_cross_xhat(phi)
    if branch == "evanescent":
        return (-2.0 * xi * kappa / (1.0 + 2.0 * xi ** 2)) * tv
    if xi == 0.0:
        raise ValueError("radiation p2 ellipticity is degenerate at xi = 0 (Z = 0)")
    _, r_p = fresnel(cfg, xi)
    z = float(interference_norm(cfg, xi, x_nm))
    return (-4.0 / z) * xi * kappa * r_p * np.sin(
        2.0 * xi * cfg.k0_nm * x_nm) * tv


def spin_density(cfg: InterfaceConfig, branch: str, xi, phi,
                 x_nm: float) -> np.ndarray:
    """Local electric spin density of the p mode (xi, phi) of a branch at
    the emitter position.  (s modes carry none: their polarization is
    real.)

    Normalized per unit field energy density of the incident wave, with
    the conventional eps0/omega prefactor divided out.

    Evanescent p modes:
        (T_p/xi) eta xi sqrt(1+xi^2) e^{-2 xi k0 x} (Khat x xhat),
    with (T_p/xi) eta = (2 n1^2/(n1^2-1)) (n1^2-1-xi^2)/((n1^2+1) xi^2 + 1),
    radiation p modes (j=2):
        xi sqrt(1-xi^2) r_p sin(2 xi k0 x) (Khat x xhat).
    """
    xi, kappa = _mode_xi(cfg, branch, xi, "spin_density")
    tv = khat_cross_xhat(phi)
    if branch == "evanescent":
        eta, _, tp_over_xi = _transmission(cfg, xi)
        return tp_over_xi * eta * xi * kappa * np.exp(
            -2.0 * xi * cfg.k0_nm * x_nm) * tv
    _, r_p = fresnel(cfg, xi)
    return xi * kappa * r_p * np.sin(2.0 * xi * cfg.k0_nm * x_nm) * tv


def mode_field_p(cfg: InterfaceConfig, branch: str, xi, phi,
                 x_nm: float) -> np.ndarray:
    """Unnormalized field profile of the p mode (xi, phi) of a branch at
    the emitter height.

    Evanescent (j=1): e^{-xi k0 x} t_p (kappa xhat - i xi Khat) with the
    transmission amplitude t_p = 2 n1 eta / (eta + i n1^2 xi).
    Radiation (j=2): e^{-i xi k0 x} (kappa xhat + xi Khat)
                     + r_p e^{i xi k0 x} (kappa xhat - xi Khat).
    """
    xi, kappa = _mode_xi(cfg, branch, xi, "mode_field_p")
    kv = khat(phi)
    xv = np.array([1.0, 0.0, 0.0])
    if branch == "evanescent":
        eta = _transmission(cfg, xi)[0]
        t_p = 2.0 * cfg.n1 * eta / (eta + 1j * cfg.n1 ** 2 * xi)
        return np.exp(-xi * cfg.k0_nm * x_nm) * t_p * (kappa * xv - 1j * xi * kv)
    _, r_p = fresnel(cfg, xi)
    ph = np.exp(1j * xi * cfg.k0_nm * x_nm)
    return (kappa * xv + xi * kv) / ph + r_p * ph * (kappa * xv - xi * kv)


def f_evan_limit_kappa1(cfg: InterfaceConfig, dip: DipolePolarization, phi):
    """Boundary value of f_evan as kappa -> 1 (xi -> 0 on the branch),
    which f_rad takes as well, so both branches join continuously.

    (3/(2 pi sqrt(n1^2-1))) [n1^2 |u_x|^2 + |u_y|^2 sin^2(phi)
    + |u_z|^2 cos^2(phi) - Re(u_y* u_z) sin(2 phi)], independent of x.
    """
    phi = np.asarray(phi, dtype=float)
    u = dip.u
    n1sq = cfg.n1 ** 2
    pref = 3.0 / (2.0 * np.pi * np.sqrt(n1sq - 1.0))
    return pref * (n1sq * np.abs(u[0]) ** 2 + _s_coupling(u, phi))


@dataclass(frozen=True)
class RateDecomposition:
    """Scalar, vector and rank-2 tensor parts of a coupling rate.

    The three parts sum to the full rate N |d . e|^2.
    """

    scalar_part: float
    vector_part: float
    tensor_part: float

    @property
    def total(self) -> float:
        return self.scalar_part + self.vector_part + self.tensor_part


def decompose_coupling(d, e, n: float) -> RateDecomposition:
    """Split N |d . e|^2 into irreducible scalar/vector/tensor parts.

    d and e are complex 3-vectors (dipole and field polarizations), n a
    nonnegative weight (mode count / density prefactor).  With
    A = d (x) d* and B = e (x) e*, |d . e|^2 = sum_ij A_ij B_ij splits into
    (N/3) tr A tr B, (N/2) Re([d* x d] . [e* x e]) and
    N sum_ij S(A)_ij S(B)_ij, with S the symmetric traceless part.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = as_cvector(d)
    e = as_cvector(e)
    # A and B are Hermitian, so their symmetric parts are Re A and Re B
    a, b = np.outer(d, d.conj()).real, np.outer(e, e.conj()).real
    tr_a, tr_b = float(np.trace(a)), float(np.trace(b))
    vector = n / 2.0 * float(
        np.real(np.sum(np.cross(d.conj(), d) * np.cross(e.conj(), e))))
    tensor = n * float(np.sum((a - tr_a / 3.0 * np.eye(3))
                              * (b - tr_b / 3.0 * np.eye(3))))
    return RateDecomposition(n / 3.0 * tr_a * tr_b, vector, tensor)


def delta_f_equivalences(cfg: InterfaceConfig, dip: DipolePolarization,
                         xi: float, phi: float, x_nm: float, branch: str):
    """Three independent routes to the same central-inversion difference.

    Returns (closed, cross, spin):

    * closed: the trigonometric closed form (delta_f),
    * cross: twice the vector part of decompose_coupling, prefactor times
      [u* x u] . [U* x U] with U the p-mode field profile at the emitter,
    * spin: prefactor times i[u* x u] . S with S the normalized local
      electric spin density of the mode.

    branch is 'evanescent' or 'radiation'.  The three agree to numerical
    precision at interior points of either branch.
    """
    if branch not in ("evanescent", "radiation"):
        raise ValueError(f"unknown branch {branch!r}")
    evan = branch == "evanescent"
    closed = float(delta_f(cfg, dip, xi, phi, x_nm, "evan" if evan else "rad"))
    # 3/(8 pi norm) |u . U|^2 is the p density, norm eta or xi
    norm = float(_transmission(cfg, xi)[0]) if evan else xi
    if norm <= 0.0:
        return closed, 0.0, 0.0
    field = mode_field_p(cfg, branch, xi, phi, x_nm)
    cross = 2.0 * decompose_coupling(
        dip.u, field, 3.0 / (8.0 * np.pi * norm)).vector_part
    spin = float((3.0 / (2.0 * np.pi * norm)) * np.dot(
        ellipticity_vector(dip.u), spin_density(cfg, branch, xi, phi, x_nm)))
    return closed, cross, spin


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_dipole(rng, real: bool = False) -> DipolePolarization:
    """A random unit dipole: elliptic, or linear if real."""
    u = rng.normal(size=3) if real else (rng.normal(size=3)
                                         + 1j * rng.normal(size=3))
    return DipolePolarization(u / np.linalg.norm(u))


def _branch_xi(rng, top: float, size=None):
    """Random xi in a branch [0, top], kept 1e-3 of the branch from its
    ends."""
    return top * rng.uniform(1e-3, 1.0 - 1e-3, size)


def _rel(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over the elements."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
    return float(np.max(np.abs(np.subtract(a, b)) / scale))


def _check_mode_coupling(cfg, rng, quad, real=False):
    # decompose_coupling with the package's p modes: the parts sum to the
    # mode's density (f_evan's p part or f_rad_p2) and twice the vector
    # part is delta_f, exactly 0 for a real dipole.  Residuals scale by the
    # parts' size N |u|^2 |U|^2, which the density can be far below,
    # floored at 1e-300.  x stays below 4.65/(k0 max(xi_max, 1)), 600 nm
    # at n1 = 1.45, so e^{-xi k0 x} >= e^{-4.65} keeps the evanescent
    # couplings above that floor at any index
    worst = 0.0
    for _ in range(25):
        dip = _random_dipole(rng, real)
        x = rng.uniform(0.0, 4.65) / (cfg.k0_nm * max(cfg.xi_max, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for branch, evan in (("evanescent", True), ("radiation", False)):
            xi = _branch_xi(rng, cfg.xi_max if evan else 1.0)
            norm = float(_transmission(cfg, xi)[0]) if evan else xi
            dec = decompose_coupling(dip.u,
                                     mode_field_p(cfg, branch, xi, phi, x),
                                     3.0 / (8.0 * np.pi * norm))
            density = float(f_evan(cfg, dip, xi, phi, x)[1] if evan
                            else f_rad(cfg, dip, xi, phi, x).f_rad_p2)
            odd = float(delta_f(cfg, dip, xi, phi, x,
                                "evan" if evan else "rad"))
            if real and (dec.vector_part != 0.0 or odd != 0.0):
                return False, (f"linear dipole: vector part "
                               f"{dec.vector_part:.3e}, delta_f {odd:.3e}")
            scale = max(3.0 * dec.scalar_part, 1e-300)
            worst = max(worst, abs(dec.total - density) / scale,
                        abs(2.0 * dec.vector_part - odd) / scale)
    return worst < 1e-11, f"max scaled residual {worst:.3e}"


def _check_fresnel_limits(cfg, rng, quad):
    rs0, rp0 = fresnel(cfg, 0.0)
    rsb, rpb = fresnel(cfg, brewster_xi(cfg))
    rs1, rp1 = fresnel(cfg, 1.0)
    errs = [abs(rs0 + 1.0), abs(rp0 + 1.0), abs(rpb), abs(rs1 + rp1)]
    grid = np.linspace(0.0, 1.0, 501)
    rs, _ = fresnel(cfg, grid)
    ok = max(errs) <= 1e-15 and np.all(rs <= 1e-15)
    return bool(ok), f"endpoint errors {max(errs):.3e}"


def _check_transmittance_range(cfg, rng, quad):
    grid = np.linspace(0.0, cfg.xi_max, 501)
    ts, tp = transmittance(cfg, grid)
    edge = max(abs(ts[0]), abs(tp[0]), abs(ts[-1]), abs(tp[-1]))
    ok = np.all(ts >= -1e-15) and np.all(tp >= -1e-15) and edge < 1e-13
    return bool(ok), f"endpoint residual {edge:.3e}"


def _check_mode_polarizations_unit(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(0.0, 400.0)
        xi_e, xi_r = _branch_xi(rng, cfg.xi_max), rng.uniform(1e-3, 1.0)
        for e in (khat_cross_xhat(phi),
                  mode_polarization_p(cfg, "evanescent", xi_e, phi, x),
                  mode_polarization_p(cfg, "radiation", xi_r, phi, x)):
            worst = max(worst, abs(float(np.sum(np.abs(e) ** 2)) - 1.0))
    return worst < 1e-12, f"max |norm-1| {worst:.3e}"


def _check_spin_transverse(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi = _branch_xi(rng, cfg.xi_max)
        s = spin_density(cfg, "evanescent", xi, phi, 0.0)
        e = mode_polarization_p(cfg, "evanescent", xi, phi, 0.0)
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
        phi = rng.uniform(0.0, 2.0 * np.pi, 8)
        # anywhere on both branches, down to xi = 0
        evan = f_evan(cfg, dip, cfg.xi_max * rng.random(8), phi, x)
        br = f_rad(cfg, dip, rng.random(8), phi, x)
        worst = max(worst, _rel(evan[0] + evan[1], evan[2]),
                    _rel(br.f_rad_s1 + br.f_rad_s2, br.f_rad_s),
                    _rel(br.f_rad_p1 + br.f_rad_p2, br.f_rad_p),
                    _rel(br.f_rad_s + br.f_rad_p, br.f_rad),
                    _rel(br.f_rad_mat + br.f_rad_vac, br.f_rad))
        low = min(np.min(f) for f in (
            *evan, br.f_rad_s1, br.f_rad_s2, br.f_rad_p1, br.f_rad_p2,
            br.f_rad_mat, br.f_rad_vac, br.f_rad))
        if low < -1e-15:
            return False, f"negative density {low:.3e}"
    return worst < 1e-12, f"max relative residual {worst:.3e}"


def _check_density_side_difference(cfg, rng, quad):
    worst = 0.0
    for _ in range(20):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 600.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi_e = _branch_xi(rng, cfg.xi_max)
        xi_r = _branch_xi(rng, 1.0)
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
    for _ in range(25):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 600.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for branch, top in (("evanescent", cfg.xi_max), ("radiation", 1.0)):
            closed, cross, spin = delta_f_equivalences(
                cfg, dip, _branch_xi(rng, top), phi, x, branch)
            scale = max(abs(closed), abs(cross), abs(spin), 1e-30)
            worst = max(worst,
                        max(abs(closed - cross), abs(closed - spin)) / scale)
    return worst < 1e-11, f"max scaled spread {worst:.3e}"


def _check_branch_point_continuity(cfg, rng, quad):
    # the gap to the limit grows like xi max(n1, 1/xi_max)
    probe = 1e-8 / max(cfg.n1, 1.0 / cfg.xi_max)
    worst = 0.0
    for _ in range(10):
        dip = _random_dipole(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi, 17)
        x = rng.uniform(0.0, 400.0)
        # both branches approach the one kappa = 1 limit
        lim = f_evan_limit_kappa1(cfg, dip, phi)
        near_e = f_evan(cfg, dip, probe, phi, x)[2]
        near_r = f_rad(cfg, dip, probe, phi, x).f_rad
        worst = max(worst, _rel(near_e, lim), _rel(near_r, lim))
    return worst < 1e-6, f"max relative gap {worst:.3e}"


def _check_rate_composition(cfg, rng, quad):
    worst = 0.0
    for _ in range(3):
        dip = _random_dipole(rng)
        x = rng.uniform(0.0, 800.0)
        r = rate_report(cfg, dip, x, quad)
        worst = max(worst, *(_rel(parts, whole) for parts, whole in (
            (r.gamma_evan + r.gamma_rad, r.gamma_total),
            (r.gamma_evan_plus + r.gamma_evan_minus, r.gamma_evan),
            (r.gamma_rad_plus + r.gamma_rad_minus, r.gamma_rad),
            (r.gamma_plus + r.gamma_minus, r.gamma_total),
            (r.gamma_rad_mat + r.gamma_rad_vac, r.gamma_rad),
            (r.delta_rad_mat + r.delta_rad_vac, r.delta_rad),
            (r.delta_evan + r.delta_rad, r.delta_total))))
        if r.gamma_total < 0.0 or r.gamma_evan < 0.0:
            return False, "negative rate"
    return worst < 1e-9, f"max relative residual {worst:.3e}"


def _check_rate_ux2_dependence(cfg, rng, quad):
    worst = 0.0
    for _ in range(3):
        x = rng.uniform(0.0, 600.0)
        ux = rng.uniform(0.1, 0.95)
        rest = math.sqrt(1.0 - ux * ux)
        alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
        mix = rng.uniform(0.0, 1.0)
        u1 = [ux, rest * math.cos(alpha), rest * math.sin(alpha)]
        u2 = [ux * np.exp(1j * beta), rest * math.sqrt(mix),
              1j * rest * math.sqrt(1.0 - mix)]
        r1 = rate_report(cfg, DipolePolarization(u1), x, quad)
        r2 = rate_report(cfg, DipolePolarization(u2), x, quad)
        worst = max(worst, _rel(r1.gamma_evan, r2.gamma_evan),
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
        theta = np.linspace(lo, hi, 200)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=theta.size)
        low = min(low, float(np.min(pattern(cfg, dip, theta, phi, x, zone))))
    return low >= -1e-15, f"min value {low:.3e}"


def _check_large_distance_unity(cfg, rng, quad):
    x = 50.0 * cfg.lambda0_nm
    r = rate_report(cfg, DipolePolarization([1.0, 0.0, 0.0]), x, quad)
    err = abs(r.gamma_total - 1.0)
    return err < 0.005, f"|gamma_total - 1| = {err:.3e}"


CHECKS = (
    # the package's mode couplings, for an elliptic and a linear dipole
    ("tensor_decomposition", _check_mode_coupling),
    ("tensor_real_pairs", partial(_check_mode_coupling, real=True)),
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
)


def run_check(name: str, check, cfg: InterfaceConfig,
              quad: QuadratureSpec = QuadratureSpec(),
              seed: int = DEFAULT_SEED) -> CheckResult:
    """One check of CHECKS, drawing from a generator seeded by seed and
    its name; an exception is a failure whose detail names it."""
    rng = np.random.default_rng([seed, *name.encode()])
    try:
        passed, detail = check(cfg, rng, quad)
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, bool(passed), detail)


def run_checks(cfg: InterfaceConfig | None = None,
               quad: QuadratureSpec | None = None,
               seed: int = DEFAULT_SEED) -> list:
    """Run every check of CHECKS; returns CheckResult list in that order."""
    if cfg is None:
        cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    if quad is None:
        quad = QuadratureSpec()
    return [run_check(name, check, cfg, quad, seed) for name, check in CHECKS]


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
