"""Integrated emission rates from the closed-form spectral kernels.

Every rate is assembled from four height-dependent integrals of
azimuthally pre-integrated kernels in the out-of-plane mode coordinate
xi, plus four cached static moments.  The azimuthal integration is
analytic: total rates depend on the dipole polarization only through
|u_x|^2, side differences through Im(u_x* u_z), and the
dielectric-output difference through Re(u_x* u_z).  A single height
and a whole sweep (`rate_columns`) go through the same adaptive
integrator, a sweep as one stack of rows per branch.  `oracle_integrate`
deliberately avoids all of that and performs the raw two-dimensional
quadrature over the angular densities of the density module; it exists
solely to cross-check the closed forms.

Conventions: rates in units of the free-space rate, distances in nm,
"plus"/"minus" refer to emission into the z > 0 / z < 0 half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .density import DipolePolarization, f_evan, f_rad
from .optics import (InterfaceConfig, axis_coefficients, check_height,
                     fresnel, transmittance)
from .quadrature import (BATCH_ELEMENTS, QuadratureSpec, branch_rule,
                         height_chunks, integrate, integrate_rows)

_ZETA_FLOOR = 1e-12

ORACLE_CHANNELS = ("evan", "rad", "mat", "vac")


@dataclass(frozen=True)
class MaterialVacuumSplit:
    """Radiation rates resolved by output side of the interface."""

    gamma_rad_mat: float
    gamma_rad_vac: float
    delta_rad_mat: float
    delta_rad_vac: float
    gamma_rad_mat_plus: float
    gamma_rad_mat_minus: float
    gamma_rad_vac_plus: float
    gamma_rad_vac_minus: float


@dataclass(frozen=True)
class RateReport:
    """Every integrated rate at one emitter height, in gamma0 units.

    Composition identities hold by construction: gamma_total is the sum
    of the evanescent and radiation rates, side rates are half-sum and
    half-difference of channel rate and channel delta, and the mat/vac
    pair sums back to the radiation channel.  zeta values are None when
    the corresponding denominator is below 1e-12.
    """

    gamma_evan: float
    gamma_rad: float
    gamma_total: float
    delta_evan: float
    delta_rad: float
    delta_total: float
    gamma_evan_plus: float
    gamma_evan_minus: float
    gamma_rad_plus: float
    gamma_rad_minus: float
    gamma_plus: float
    gamma_minus: float
    gamma_rad_mat: float
    gamma_rad_vac: float
    delta_rad_mat: float
    delta_rad_vac: float
    gamma_rad_mat_plus: float
    gamma_rad_mat_minus: float
    gamma_rad_vac_plus: float
    gamma_rad_vac_minus: float
    zeta_evan: float | None
    zeta_rad: float | None
    zeta_total: float | None


RateReport.COLUMNS = tuple(f.name for f in fields(RateReport))


def _ux2(dip: DipolePolarization) -> float:
    return float(np.abs(dip.u[0]) ** 2)


def _im_xz(dip: DipolePolarization) -> float:
    return float(np.imag(np.conj(dip.u[0]) * dip.u[2]))


def _re_xz(dip: DipolePolarization) -> float:
    return float(np.real(np.conj(dip.u[0]) * dip.u[2]))


def _coefficients(cfg: InterfaceConfig, xi, branch: str):
    """(c_s, c_p, sq) at xi: (T_s, T_p, xi^2) on the evanescent branch,
    (r_s, r_p, -xi^2) on the radiation branch."""
    if branch == "evanescent":
        t_s, t_p = transmittance(cfg, xi)
        return t_s, t_p, xi ** 2
    r_s, r_p = fresnel(cfg, xi)
    return r_s, r_p, -xi ** 2


def _rate_kernel(ux2: float, xi, coef):
    """Total-rate kernel of either branch,
    (1-|u_x|^2) c_s + [|u_x|^2 (2 + sq) + sq] c_p."""
    c_s, c_p, sq = coef
    return (1.0 - ux2) * c_s + (ux2 * (2.0 + sq) + sq) * c_p


def _side_kernel(ux2: float, xi, coef):
    """Side-difference kernel of either branch, xi sqrt(1 + sq) c_p."""
    _, c_p, sq = coef
    return xi * np.sqrt(np.maximum(1.0 + sq, 0.0)) * c_p


def _decay(phase):
    return np.exp(-phase)


# The four height-dependent integrals, in the order rate_report takes
# them: name -> (branch, factor of the phase 2 k0 x xi, kernel).
_INTEGRALS = {
    "evan": ("evanescent", _decay, _rate_kernel),
    "osc": ("radiation", np.cos, _rate_kernel),
    "delta_evan": ("evanescent", _decay, _side_kernel),
    "delta_rad": ("radiation", np.sin, _side_kernel),
}


def _branch_integral(cfg: InterfaceConfig, branch: str, g, x_nm: float,
                     quad: QuadratureSpec) -> float:
    """Integral of g(xi) over a branch, with the panels seeded for x_nm."""
    check_height(x_nm)
    return integrate(*branch_rule(cfg, branch, g, 2.0 * cfg.k0_nm * x_nm),
                     quad)


def _integral(cfg: InterfaceConfig, ux2: float, x_nm: float,
              quad: QuadratureSpec, name: str) -> float:
    """One of the _INTEGRALS at one height."""
    branch, factor, kernel = _INTEGRALS[name]
    two_k0x = 2.0 * cfg.k0_nm * x_nm

    def g(xi):
        return factor(two_k0x * xi) * kernel(
            ux2, xi, _coefficients(cfg, xi, branch))

    return _branch_integral(cfg, branch, g, x_nm, quad)


def _zeta(delta, gamma):
    """delta/gamma, undefined (as opposed to zero) where |gamma| < 1e-12:
    None for one height, NaN cells for an array of heights."""
    gamma = np.asarray(gamma, dtype=float)
    defined = np.abs(gamma) >= _ZETA_FLOOR
    if gamma.ndim == 0:
        return float(delta / gamma) if defined else None
    return np.where(defined, delta / np.where(defined, gamma, 1.0), np.nan)


def _columns(cfg: InterfaceConfig, dip: DipolePolarization,
             quad: QuadratureSpec, evan, osc, delta_evan, delta_rad) -> tuple:
    """Every RateReport field, in field order, from the four integrals
    (floats, or arrays over heights) and the static moments."""
    g_evan = 0.75 * evan
    osc = 0.75 * osc
    g_rad = 1.0 + osc
    g_tot = g_evan + g_rad

    pref = 6.0 / np.pi
    im_xz = _im_xz(dip)
    d_evan = pref * im_xz * delta_evan
    d_rad = pref * im_xz * delta_rad
    d_tot = d_evan + d_rad

    ux2 = _ux2(dip)
    m_s, m_p2, m_px, j_p = _static_moments(cfg, quad)
    static = (1.0 - ux2) * m_s + ux2 * m_p2 + m_px
    g_mat = 0.5 - 0.375 * static
    g_vac = 0.5 + 0.375 * static + osc
    d_mat = (1.0 / np.pi) * _re_xz(dip) * (1.0 - 3.0 * j_p)
    d_vac = -d_mat + d_rad

    return (g_evan, g_rad, g_tot, d_evan, d_rad, d_tot,
            0.5 * (g_evan + d_evan), 0.5 * (g_evan - d_evan),
            0.5 * (g_rad + d_rad), 0.5 * (g_rad - d_rad),
            0.5 * (g_tot + d_tot), 0.5 * (g_tot - d_tot),
            g_mat, g_vac, d_mat, d_vac,
            0.5 * (g_mat + d_mat), 0.5 * (g_mat - d_mat),
            0.5 * (g_vac + d_vac), 0.5 * (g_vac - d_vac),
            _zeta(d_evan, g_evan), _zeta(d_rad, g_rad), _zeta(d_tot, g_tot))


def gamma_evan(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Rate of emission into evanescent modes, all directions.

    (3/4) * integral over xi in [0, sqrt(n1^2-1)] of
    {(1-|u_x|^2) T_s + [|u_x|^2 (2+xi^2) + xi^2] T_p} e^{-2 xi k0 x}.
    """
    return 0.75 * _integral(cfg, _ux2(dip), x_nm, quad, "evan")


def gamma_rad(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Rate of emission into radiation modes, all directions.

    1 + (3/4) * integral over xi in [0, 1] of
    {(1-|u_x|^2) r_s + [|u_x|^2 (2-xi^2) - xi^2] r_p} cos(2 xi k0 x),
    the free-space rate plus the emitted/reflected interference.
    """
    return 1.0 + 0.75 * _integral(cfg, _ux2(dip), x_nm, quad, "osc")


def gamma_total(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
                quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Total emission rate, the sum of both channels."""
    return (gamma_evan(cfg, dip, x_nm, quad)
            + gamma_rad(cfg, dip, x_nm, quad))


def delta_rates(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
                quad: QuadratureSpec = QuadratureSpec()):
    """Side differences (delta_evan, delta_rad, delta_total).

    Each is the z > 0 rate minus the z < 0 rate for its channel; all
    three are proportional to Im(u_x* u_z).
    """
    pref = (6.0 / np.pi) * _im_xz(dip)
    d_evan = pref * _integral(cfg, 0.0, x_nm, quad, "delta_evan")
    d_rad = pref * _integral(cfg, 0.0, x_nm, quad, "delta_rad")
    return d_evan, d_rad, d_evan + d_rad


def side_rates(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
               quad: QuadratureSpec = QuadratureSpec()):
    """Half-space resolved rates (evan+, evan-, rad+, rad-, total+, total-)."""
    r = rate_report(cfg, dip, x_nm, quad)
    return (r.gamma_evan_plus, r.gamma_evan_minus, r.gamma_rad_plus,
            r.gamma_rad_minus, r.gamma_plus, r.gamma_minus)


@lru_cache(maxsize=64)
def _static_moments(cfg: InterfaceConfig, quad: QuadratureSpec):
    """Distance-independent reflection moments of the radiation branch.

    Returns (m_s, m_p2, m_px, j_p):
      m_s  = int r_s^2 dxi
      m_p2 = int (2 - 3 xi^2) r_p^2 dxi
      m_px = int xi^2 r_p^2 dxi
      j_p  = int xi sqrt(1 - xi^2) r_p^2 dxi
    """

    def sq_s(xi):
        r_s, _ = fresnel(cfg, xi)
        return r_s ** 2

    def sq_p2(xi):
        _, r_p = fresnel(cfg, xi)
        return (2.0 - 3.0 * xi ** 2) * r_p ** 2

    def sq_px(xi):
        _, r_p = fresnel(cfg, xi)
        return xi ** 2 * r_p ** 2

    def sq_j(xi):
        _, r_p = fresnel(cfg, xi)
        return xi * np.sqrt(np.maximum(1.0 - xi ** 2, 0.0)) * r_p ** 2

    edges = (0.0, 1.0)
    return (integrate(sq_s, edges, quad),
            integrate(sq_p2, edges, quad),
            integrate(sq_px, edges, quad),
            _branch_integral(cfg, "radiation", sq_j, 0.0, quad))


def gamma_mat_vac(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
                  quad: QuadratureSpec = QuadratureSpec()) -> MaterialVacuumSplit:
    """Radiation rates resolved by output side.

    The dielectric-output rate and its side difference are independent
    of the emitter height; the vacuum-output pair carries the whole
    interference oscillation and the whole spin-driven asymmetry.
    """
    ux2 = _ux2(dip)
    # the split involves neither evanescent integral
    values = dict(zip(RateReport.COLUMNS, _columns(
        cfg, dip, quad, 0.0, _integral(cfg, ux2, x_nm, quad, "osc"), 0.0,
        _integral(cfg, ux2, x_nm, quad, "delta_rad"))))
    return MaterialVacuumSplit(**{f.name: float(values[f.name])
                                  for f in fields(MaterialVacuumSplit)})


def asymmetry(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
              quad: QuadratureSpec = QuadratureSpec()):
    """Asymmetry factors (zeta_evan, zeta_rad, zeta_total) = delta/gamma.

    A factor is None (undefined, as opposed to zero) when its
    denominator is smaller than 1e-12.
    """
    r = rate_report(cfg, dip, x_nm, quad)
    return r.zeta_evan, r.zeta_rad, r.zeta_total


def rate_report(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
                quad: QuadratureSpec = QuadratureSpec()) -> RateReport:
    """Assemble the full RateReport at one emitter height."""
    ux2 = _ux2(dip)
    values = _columns(cfg, dip, quad, *(
        _integral(cfg, ux2, x_nm, quad, name) for name in _INTEGRALS))
    return RateReport(*values)


def rate_columns(cfg: InterfaceConfig, dip: DipolePolarization, xs,
                 quad: QuadratureSpec = QuadratureSpec()):
    """RateReport columns at every height of xs (ascending) by shared panels.

    Heights are split into runs (quadrature.height_chunks).  For each
    run and branch the x-independent kernels are evaluated once per
    node of one adaptive panel set, seeded for the run's largest
    height; each height enters only through its row of e^{-2 k0 x xi},
    cos or sin factors.

    Returns (columns, passed): columns has one row per height and the
    columns of RateReport.COLUMNS, NaN where an asymmetry factor is
    undefined; passed is False where any of the four integrals missed
    the error target max(atol, rtol |I|) within the subdivision budget.
    """
    ux2 = _ux2(dip)
    two_k0x = 2.0 * cfg.k0_nm * np.asarray(xs, dtype=float)
    integrals = np.empty((len(_INTEGRALS), two_k0x.size))
    passed = np.ones(two_k0x.size, dtype=bool)
    for branch in ("evanescent", "radiation"):
        picks = [i for i, spec in enumerate(_INTEGRALS.values())
                 if spec[0] == branch]
        for rows in height_chunks(two_k0x):
            run = two_k0x[rows, None]
            values, _, ok = integrate_rows(
                *branch_rule(cfg, branch,
                             _stacked_integrand(cfg, ux2, branch, run),
                             run[-1, 0]),
                len(picks) * run.shape[0], quad)
            integrals[picks, rows] = values.reshape(len(picks), -1)
            passed[rows] &= ok.reshape(len(picks), -1).all(axis=0)
    columns = np.broadcast_arrays(*_columns(cfg, dip, quad, *integrals))
    return np.column_stack(columns), passed


def _stacked_integrand(cfg: InterfaceConfig, ux2: float, branch: str,
                       two_k0x):
    """The branch's _INTEGRALS at a column of heights: xi -> array of
    shape (integral, height, xi), from one optics evaluation."""
    terms = [(factor, kernel) for b, factor, kernel in _INTEGRALS.values()
             if b == branch]

    def g(xi):
        coef = _coefficients(cfg, xi, branch)
        phase = two_k0x * xi
        return np.stack([factor(phase) * kernel(ux2, xi, coef)
                         for factor, kernel in terms])

    return g


def axis_rates(cfg: InterfaceConfig, x_nm: float,
               quad: QuadratureSpec = QuadratureSpec()):
    """Cross-formula route for the two axis-aligned special cases.

    Returns (gamma_evan_perp, gamma_evan_par, gamma_rad_perp,
    gamma_rad_par): the evanescent and radiation rates for a dipole
    normal to the interface and for one lying in the interface plane,
    computed from the dedicated single-coefficient kernels rather than
    the general |u_x|^2 decomposition.
    """
    two_k0x = 2.0 * cfg.k0_nm * x_nm

    def axis(branch: str, which: int, factor) -> float:
        def g(xi):
            return (axis_coefficients(cfg, xi, branch)[which]
                    * factor(two_k0x * xi))

        return _branch_integral(cfg, branch, g, x_nm, quad)

    return (1.5 * axis("evanescent", 0, _decay),
            0.75 * axis("evanescent", 1, _decay),
            1.0 + 1.5 * axis("radiation", 0, np.cos),
            1.0 + 0.75 * axis("radiation", 1, np.cos))


def oracle_integrate(cfg: InterfaceConfig, dip: DipolePolarization,
                     x_nm: float, channel: str,
                     phi_range=(0.0, 2.0 * np.pi),
                     quad: QuadratureSpec | None = None,
                     n_phi: int = 64) -> float:
    """Brute-force 2D quadrature of an angular density over a phi wedge.

    Integrates xi * f_channel(xi, phi) with a fixed n_phi-node
    Gauss-Legendre rule in phi nested inside the adaptive xi
    integrator.  This route never touches the closed-form kernels and
    serves as the independent oracle for every rate in this module.

    channel is one of 'evan', 'rad', 'mat', 'vac'.
    """
    if channel not in ORACLE_CHANNELS:
        raise ValueError(
            f"unknown channel {channel!r}; choose from {ORACLE_CHANNELS}")
    lo, hi = float(phi_range[0]), float(phi_range[1])
    if not hi > lo:
        raise ValueError("phi_range must be an increasing pair")
    if quad is None:
        quad = QuadratureSpec(rtol=1e-9, atol=1e-15, max_subdivisions=400)
    nodes, weights = np.polynomial.legendre.leggauss(n_phi)
    phi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    w_phi = 0.5 * (hi - lo) * weights
    field = {"rad": "f_rad", "mat": "f_rad_mat", "vac": "f_rad_vac"}.get(
        channel)

    def density(xi):
        if field is None:
            return f_evan(cfg, dip, xi, phi[None, :], x_nm)[2]
        return getattr(f_rad(cfg, dip, xi, phi[None, :], x_nm), field)

    def g(xi):
        # each node costs n_phi density values; keep a block of nodes
        # within BATCH_ELEMENTS of them
        step = max(1, BATCH_ELEMENTS // n_phi)
        return np.concatenate([
            xi[i:i + step] * (density(xi[i:i + step, None]) @ w_phi)
            for i in range(0, xi.size, step)])

    branch = "evanescent" if field is None else "radiation"
    return _branch_integral(cfg, branch, g, x_nm, quad)
