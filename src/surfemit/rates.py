"""Integrated emission rates from the closed-form spectral kernels.

Every rate is assembled from four height-dependent integrals of
azimuthally pre-integrated kernels in the out-of-plane mode coordinate
xi, plus four cached static moments.  The azimuthal integration is
analytic: total rates depend on the dipole polarization only through
|u_x|^2, side differences through Im(u_x* u_z), and the
dielectric-output difference through Re(u_x* u_z).  One route
integrates them: `rate_columns` takes a sweep of heights as one stack
of rows per branch, and `rate_report` is its one-height case, every
RateReport field from a sweep of one row.  Two routes cross-check it:
`axis_rates` integrates the single-coefficient kernels of a
surface-normal and an in-plane dipole, and `oracle_integrate`
deliberately avoids all of that and performs the raw two-dimensional
quadrature over the angular densities of the density module.

Conventions: rates in units of the free-space rate, distances in nm,
"plus"/"minus" refer to emission into the z > 0 / z < 0 half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .density import CHANNELS, DipolePolarization, channel_density
from .optics import InterfaceConfig, check_height, fresnel, transmittance
from .quadrature import (BATCH_ELEMENTS, QuadratureError, QuadratureSpec,
                         branch_rule, height_chunks, integrate,
                         integrate_rows)

_ZETA_FLOOR = 1e-12


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


def axis_coefficients(cfg: InterfaceConfig, xi, branch: str):
    """Combinations weighting a surface-normal vs an in-plane dipole,
    ((1 + sq) c_p, c_s + sq c_p) of _coefficients:
    evanescent, ((1 + xi^2) T_p, T_s + xi^2 T_p);
    radiation, ((1 - xi^2) r_p, r_s - xi^2 r_p).
    """
    if branch not in ("evanescent", "radiation"):
        raise ValueError(f"unknown branch {branch!r}")
    c_s, c_p, sq = _coefficients(cfg, xi, branch)
    return (1.0 + sq) * c_p, c_s + sq * c_p


# The four height-dependent integrals, in the order _columns takes them
_INTEGRALS = ("evan", "osc", "delta_evan", "delta_rad")


def _branch_integral(cfg: InterfaceConfig, branch: str, g, x_nm: float,
                     quad: QuadratureSpec) -> float:
    """Integral of g(xi) over a branch, with the panels seeded for x_nm."""
    check_height(x_nm)
    return integrate(*branch_rule(cfg, branch, g, 2.0 * cfg.k0_nm * x_nm),
                     quad)


def _zeta(delta, gamma):
    """delta/gamma over heights, NaN (undefined, as opposed to zero)
    where |gamma| < 1e-12."""
    defined = np.abs(gamma) >= _ZETA_FLOOR
    return np.where(defined, delta / np.where(defined, gamma, 1.0), np.nan)


def _columns(cfg: InterfaceConfig, dip: DipolePolarization,
             quad: QuadratureSpec, evan, osc, delta_evan, delta_rad) -> tuple:
    """Every RateReport field, in field order, from the four integrals
    (arrays over heights) and the static moments.

    gamma_evan = (3/4) evan, gamma_rad = 1 + (3/4) osc (free space plus
    the interference), and delta = (6/pi) Im(u_x* u_z) times its
    integral.  The dielectric-output pair depends on no height: the
    vacuum-output pair carries the whole oscillation and asymmetry.
    """
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


def rate_columns(cfg: InterfaceConfig, dip: DipolePolarization, xs,
                 quad: QuadratureSpec = QuadratureSpec()):
    """RateReport columns at every height of xs by shared panels.

    The heights are sorted and split into runs
    (quadrature.height_chunks).  For each run and branch the
    x-independent kernels are evaluated once per node of one adaptive
    panel set, seeded for the run's largest height; each height enters
    only through its row of e^{-2 k0 x xi}, cos or sin factors.

    Returns (columns, integrals, errors, passed).  columns has one row
    per height and the columns of RateReport.COLUMNS, NaN where an
    asymmetry factor is undefined.  The other three have one row per
    height and one column per integral of _INTEGRALS: its value, its
    summed panel error, and whether that error met the target
    max(atol, rtol |I|) within the subdivision budget.  Rows come in
    the order of xs.
    """
    check_height(xs)
    ux2 = _ux2(dip)
    order = np.argsort(xs, kind="stable")
    two_k0x = 2.0 * cfg.k0_nm * np.asarray(xs, dtype=float)[order]
    shape = (len(_INTEGRALS), two_k0x.size)
    integrals, errors = np.empty(shape), np.empty(shape)
    passed = np.empty(shape, dtype=bool)
    # picks: the branch's rows of _INTEGRALS, rate then side integral
    for branch, picks in (("evanescent", [0, 2]), ("radiation", [1, 3])):
        for rows in height_chunks(two_k0x):
            run = two_k0x[rows, None]
            found = integrate_rows(
                *branch_rule(cfg, branch,
                             _stacked_integrand(cfg, ux2, branch, run),
                             run[-1, 0]),
                len(picks) * run.shape[0], quad)
            for out, part in zip((integrals, errors, passed), found):
                out[picks, rows] = part.reshape(len(picks), -1)
    integrals, errors, passed = (out[:, np.argsort(order)]
                                 for out in (integrals, errors, passed))
    columns = np.broadcast_arrays(*_columns(cfg, dip, quad, *integrals))
    return np.column_stack(columns), integrals.T, errors.T, passed.T


def rate_report(cfg: InterfaceConfig, dip: DipolePolarization, x_nm: float,
                quad: QuadratureSpec = QuadratureSpec()) -> RateReport:
    """The full RateReport at one emitter height, the one row of
    rate_columns.

    Raises QuadratureError, carrying the value and error of the first
    integral that missed its target, when the row did not pass.
    """
    (row,), (values,), (errors,), (passed,) = rate_columns(
        cfg, dip, [x_nm], quad)
    if not passed.all():
        i = int(np.argmin(passed))
        raise QuadratureError(
            f"{_INTEGRALS[i]} integral stalled at error "
            f"{errors[i]:.3e} after {quad.max_subdivisions} panel "
            "subdivisions", float(values[i]), float(errors[i]))
    return RateReport(*(None if np.isnan(v) else v for v in row.tolist()))


def _stacked_integrand(cfg: InterfaceConfig, ux2: float, branch: str,
                       two_k0x):
    """The branch's rate and side integrands at a column of heights:
    xi -> array of shape (integral, height, xi), from one optics
    evaluation.

    With (c_s, c_p, sq) of _coefficients, the total-rate kernel
    (1-|u_x|^2) c_s + [|u_x|^2 (2 + sq) + sq] c_p and the side kernel
    xi sqrt(1 + sq) c_p, times e^{-phase} on the evanescent branch and
    cos(phase), sin(phase) on the radiation branch, phase = 2 k0 x xi.
    """

    def g(xi):
        c_s, c_p, sq = _coefficients(cfg, xi, branch)
        phase = two_k0x * xi
        rate = (1.0 - ux2) * c_s + (ux2 * (2.0 + sq) + sq) * c_p
        side = xi * np.sqrt(np.maximum(1.0 + sq, 0.0)) * c_p
        if branch == "evanescent":
            decay = np.exp(-phase)
            return np.stack([decay * rate, decay * side])
        return np.stack([np.cos(phase) * rate, np.sin(phase) * side])

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

    def axis(branch: str, which: int) -> float:
        def g(xi):
            phase = two_k0x * xi
            return (axis_coefficients(cfg, xi, branch)[which]
                    * (np.exp(-phase) if branch == "evanescent"
                       else np.cos(phase)))

        return _branch_integral(cfg, branch, g, x_nm, quad)

    return (1.5 * axis("evanescent", 0), 0.75 * axis("evanescent", 1),
            1.0 + 1.5 * axis("radiation", 0),
            1.0 + 0.75 * axis("radiation", 1))


def oracle_integrate(cfg: InterfaceConfig, dip: DipolePolarization,
                     x_nm: float, channel: str,
                     phi_range=(0.0, 2.0 * np.pi),
                     quad: QuadratureSpec | None = None,
                     n_phi: int = 32) -> float:
    """Brute-force 2D quadrature of an angular density over a phi wedge.

    Integrates xi * f_channel(xi, phi) with a fixed n_phi-node
    Gauss-Legendre rule in phi nested inside the adaptive xi
    integrator.  At fixed xi the density is a trigonometric polynomial
    of degree 2 in phi, so the default 32 nodes already agree with 64
    to roundoff, on a full circle and on a wedge.  This route never
    touches the closed-form kernels and serves as the independent
    oracle for every rate in this module.

    channel is one of 'evan', 'rad', 'mat', 'vac'.
    """
    if channel not in CHANNELS:
        raise ValueError(
            f"unknown channel {channel!r}; choose from {CHANNELS}")
    lo, hi = float(phi_range[0]), float(phi_range[1])
    if not hi > lo:
        raise ValueError("phi_range must be an increasing pair")
    if quad is None:
        quad = QuadratureSpec(rtol=1e-9, atol=1e-15, max_subdivisions=400)
    nodes, weights = np.polynomial.legendre.leggauss(n_phi)
    phi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    w_phi = 0.5 * (hi - lo) * weights

    def g(xi):
        # each node costs n_phi density values; keep a block of nodes
        # within BATCH_ELEMENTS of them
        step = max(1, BATCH_ELEMENTS // n_phi)
        return np.concatenate([
            xi[i:i + step] * (channel_density(
                cfg, dip, xi[i:i + step, None], phi[None, :], x_nm, channel)
                @ w_phi)
            for i in range(0, xi.size, step)])

    branch = "evanescent" if channel == "evan" else "radiation"
    return _branch_integral(cfg, branch, g, x_nm, quad)
