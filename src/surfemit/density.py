"""Angular densities of the spontaneous emission rate near the interface.

All densities are expressed in units of the free-space rate per
(xi dxi dphi), i.e. the channel rates are gamma_ch = integral of
xi * f_ch(xi, phi) over the branch.  The dipole orientation enters
through the unit polarization vector u = (u_x, u_y, u_z).

Evaluation strategy.  Every density carries a 1/xi prefactor multiplied
by kernels vanishing at least linearly at xi -> 0.  The ratio is folded
analytically, e.g. (1 - r_s^2)/xi = 4 eta/(xi + eta)^2, and interference
brackets are evaluated as squared moduli of complex mode couplings such
as |e^{-i a} + r e^{i a}|^2 = 1 + r^2 + 2 r cos(2a).  The resulting
expressions are algebraically identical to the textbook forms, regular
at xi = 0 (where they reproduce the kappa -> 1 boundary value exactly)
and manifestly nonnegative.  All functions broadcast over xi and phi.

The check-only routes to these densities, the kappa -> 1 limit and the
spin-orbit routes to delta_f, live with the checks in surfemit.validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .optics import (InterfaceConfig, _bounded, _reflection, _transmission,
                     check_height, transmittance)

_C8 = 3.0 / (8.0 * np.pi)
_C4 = 3.0 / (4.0 * np.pi)

PATTERN_ZONES = ("rad_vacuum", "evan_forbidden", "rad_material")

DIPOLE_PRESETS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
    "theta-xz": (1.0, 0.0, 1.0),
    "eps-xz": (1.0, 0.0, 1j),
}


def as_cvector(v) -> np.ndarray:
    """Coerce input to a (3,) complex array, rejecting other shapes."""
    a = np.asarray(v, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-component vector, got shape {a.shape}")
    return a


def vector_norm(v) -> float:
    """Euclidean norm; rescaled by the largest real or imaginary part
    only when the plain sum of squares overflows or underflows."""
    a = as_cvector(v)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    parts = np.abs([a.real, a.imag])
    big = float(np.max(parts))
    if not 0.0 < norm < math.inf and 0.0 < big < math.inf:
        norm = big * float(np.sqrt(np.sum((parts / big) ** 2)))
    return norm


def ellipticity_vector(a) -> np.ndarray:
    """The real vector i [A* x A], characterizing the ellipticity of A.

    Vanishes iff A is a real vector times a phase (linear polarization).
    """
    a = as_cvector(a)
    return (1j * np.cross(a.conj(), a)).real


@dataclass(frozen=True, eq=False)
class DipolePolarization:
    """Unit complex polarization vector of the emitting dipole.

    The input is normalized on construction; a warning is emitted when
    the supplied norm deviates from 1 by more than 1e-9.  A zero vector
    and one whose norm is not finite are rejected.
    """

    u: np.ndarray

    def __post_init__(self):
        v = as_cvector(self.u)
        norm = vector_norm(v)
        if not 0.0 < norm < math.inf:
            raise ValueError("dipole polarization must be nonzero and finite")
        if abs(norm - 1.0) > 1e-9:
            warnings.warn(
                f"dipole polarization norm {norm:.6g} != 1; normalizing",
                stacklevel=2)
        if norm < 1e-300:  # v / norm multiplies by 1/norm, which overflows
            v, norm = v * 2.0 ** 600, norm * 2.0 ** 600
        object.__setattr__(self, "u", v / norm)

    @classmethod
    def from_preset(cls, name: str) -> "DipolePolarization":
        try:
            direction = DIPOLE_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown dipole preset {name!r}; choose from "
                f"{sorted(DIPOLE_PRESETS)}") from None
        # presets are directions, not unit vectors; normalization is
        # deliberate here, so the non-unit-norm warning does not apply
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cls(np.array(direction, dtype=complex))

    @property
    def ellipticity(self) -> np.ndarray:
        """The real vector i [u* x u]."""
        return ellipticity_vector(self.u)


@dataclass(frozen=True, eq=False)
class DensityBreakdown:
    """Radiation-channel angular densities at one mode point (units of
    gamma0), as f_rad returns them.

    The per-input radiation densities (s1, s2, p1, p2) are labelled by the
    incident side (1 = dielectric, 2 = vacuum) and the output-resolved
    pair (mat, vac) by where the emitted photon ends up.
    """

    f_rad_s1: np.ndarray | float = 0.0
    f_rad_s2: np.ndarray | float = 0.0
    f_rad_p1: np.ndarray | float = 0.0
    f_rad_p2: np.ndarray | float = 0.0
    f_rad_s: np.ndarray | float = 0.0
    f_rad_p: np.ndarray | float = 0.0
    f_rad: np.ndarray | float = 0.0
    f_rad_mat: np.ndarray | float = 0.0
    f_rad_vac: np.ndarray | float = 0.0


def _s_coupling(u, phi):
    """|u . (Khat x xhat)|^2 = |u_y sin(phi) - u_z cos(phi)|^2."""
    return np.abs(u[1] * np.sin(phi) - u[2] * np.cos(phi)) ** 2


def _inplane_coupling(u, phi):
    """Complex projection u_y cos(phi) + u_z sin(phi) of u onto Khat."""
    return u[1] * np.cos(phi) + u[2] * np.sin(phi)


def f_evan(cfg: InterfaceConfig, dip: DipolePolarization, xi, phi, x_nm: float):
    """Evanescent-channel angular densities (f_s, f_p, f_total).

    Parameters
    ----------
    cfg : InterfaceConfig
    dip : DipolePolarization
    xi, phi : float or array (broadcastable)
        Mode coordinates; xi in [0, sqrt(n1^2 - 1)].
    x_nm : float
        Emitter height above the surface in nm.

    Returns
    -------
    tuple of arrays/floats
        (f_evan_s, f_evan_p, f_evan), each in gamma0 per (xi dxi dphi).
    """
    check_height(x_nm)
    xi = _bounded(xi, cfg.xi_max, "f_evan")
    phi = np.asarray(phi, dtype=float)
    u = dip.u
    _, ts_over_xi, tp_over_xi = _transmission(cfg, xi)
    damp = np.exp(-2.0 * cfg.k0_nm * x_nm * xi)
    kappa = np.sqrt(1.0 + xi ** 2)
    w = _inplane_coupling(u, phi)
    p_coupling = np.abs(kappa * u[0] - 1j * xi * w) ** 2
    f_s = _C4 * ts_over_xi * damp * _s_coupling(u, phi)
    f_p = _C4 * tp_over_xi * damp * p_coupling
    return f_s, f_p, f_s + f_p


def _p_ratio(n1sq, xi, eta):
    """(1 - r_p^2)/xi = 4 n1^2 eta/(n1^2 xi + eta)^2, regular at xi = 0."""
    return 4.0 * n1sq * eta / (n1sq * xi + eta) ** 2


def f_rad(cfg: InterfaceConfig, dip: DipolePolarization, xi, phi,
          x_nm: float) -> DensityBreakdown:
    """Radiation-channel angular densities at one mode point.

    Returns a DensityBreakdown with the four per-input densities
    (f_rad_s1, f_rad_s2, f_rad_p1, f_rad_p2), the polarization aggregates
    (f_rad_s, f_rad_p, f_rad) and the output-resolved pair
    (f_rad_mat, f_rad_vac).  All fields broadcast over xi and phi.
    """
    check_height(x_nm)
    xi = _bounded(xi, 1.0, "f_rad")
    phi = np.asarray(phi, dtype=float)
    u = dip.u
    n1sq = cfg.n1 ** 2
    eta, r_s, r_p = _reflection(cfg, xi)
    # exact regular ratios: (1 - r^2)/xi for each polarization
    cs1 = 4.0 * eta / (xi + eta) ** 2
    cp1 = _p_ratio(n1sq, xi, eta)

    kappa = np.sqrt(np.maximum(1.0 - xi ** 2, 0.0))
    w = _inplane_coupling(u, phi)
    cplus = kappa * u[0] + xi * w    # coupling to the upward input wave
    cminus = kappa * u[0] - xi * w   # coupling to the reflected wave

    ph = np.exp(1j * xi * cfg.k0_nm * x_nm)
    phc = np.conj(ph)
    sp = _s_coupling(u, phi)

    xi_arr = np.asarray(xi)
    safe = np.where(xi_arr > 0.0, xi_arr, 1.0)
    inv_xi = np.where(xi_arr > 0.0, 1.0 / safe, 0.0)

    amp_s2 = np.abs(phc + r_s * ph) ** 2
    amp_p2 = np.abs(phc * cplus + r_p * ph * cminus) ** 2
    amp_vac = np.abs(ph * cminus + r_p * phc * cplus) ** 2

    f_s1 = _C8 * cs1 * sp
    f_s2 = _C8 * amp_s2 * sp * inv_xi
    f_p1 = _C8 * cp1 * np.abs(cminus) ** 2
    f_p2 = _C8 * amp_p2 * inv_xi
    f_mat = _C8 * (cs1 * sp + cp1 * np.abs(cplus) ** 2)
    f_vac = _C8 * (amp_s2 * sp + amp_vac) * inv_xi

    f_s = f_s1 + f_s2
    f_p = f_p1 + f_p2
    return DensityBreakdown(
        f_rad_s1=f_s1, f_rad_s2=f_s2, f_rad_p1=f_p1, f_rad_p2=f_p2,
        f_rad_s=f_s, f_rad_p=f_p, f_rad=f_s + f_p,
        f_rad_mat=f_mat, f_rad_vac=f_vac)


_RAD_FIELDS = {"rad": "f_rad", "mat": "f_rad_mat", "vac": "f_rad_vac"}
CHANNELS = ("evan",) + tuple(_RAD_FIELDS)


def channel_density(cfg: InterfaceConfig, dip: DipolePolarization, xi, phi,
                    x_nm: float, channel: str):
    """The total density of one channel family: f_evan's total for
    'evan', f_rad's f_rad, f_rad_mat or f_rad_vac for 'rad', 'mat' or
    'vac'."""
    if channel == "evan":
        return f_evan(cfg, dip, xi, phi, x_nm)[2]
    if channel not in _RAD_FIELDS:
        raise ValueError(
            f"unknown channel {channel!r}; choose from {CHANNELS}")
    return getattr(f_rad(cfg, dip, xi, phi, x_nm), _RAD_FIELDS[channel])


def delta_f(cfg: InterfaceConfig, dip: DipolePolarization, xi, phi,
            x_nm: float, channel: str):
    """Central-inversion difference f(xi, phi) - f(xi, phi + pi).

    channel selects the density family: 'evan', 'rad', 'mat' or 'vac'.
    Closed forms; positive values mean more emission into azimuth phi
    than into the opposite one.
    """
    check_height(x_nm)
    phi = np.asarray(phi, dtype=float)
    u = dip.u
    w = _inplane_coupling(u, phi)
    if channel == "evan":
        xi = _bounded(xi, cfg.xi_max, "delta_f")
        _, t_p = transmittance(cfg, xi)
        damp = np.exp(-2.0 * cfg.k0_nm * x_nm * xi)
        return (3.0 / np.pi) * np.sqrt(1.0 + xi ** 2) * t_p * damp * np.imag(
            np.conj(u[0]) * w)
    if channel not in _RAD_FIELDS:
        raise ValueError(f"unknown channel {channel!r}")
    xi = _bounded(xi, 1.0, "delta_f")
    eta, _, r_p = _reflection(cfg, xi)
    kappa = np.sqrt(np.maximum(1.0 - xi ** 2, 0.0))
    # the Im(u_x* w) term of the p2 interference, all of the total's delta_f
    rad = (3.0 / np.pi) * kappa * r_p * np.sin(
        2.0 * xi * cfg.k0_nm * x_nm) * np.imag(np.conj(u[0]) * w)
    if channel == "rad":
        return rad
    # the Re(u_x* w) term of the p1 wave, which leaves through the material
    mat = (3.0 / (2.0 * np.pi)) * kappa * xi * _p_ratio(
        cfg.n1 ** 2, xi, eta) * np.real(np.conj(u[0]) * w)
    return mat if channel == "mat" else rad - mat


def zeta_f(cfg: InterfaceConfig, dip: DipolePolarization, xi, phi,
           x_nm: float, channel: str):
    """Angular asymmetry factor delta_f / (f(phi) + f(phi + pi)).

    Defined wherever the inversion-symmetric part is nonzero; returns
    NaN where it vanishes.  On the evanescent branch the factor is
    independent of the emitter height.
    """
    phi = np.asarray(phi, dtype=float)
    tot = channel_density(cfg, dip, xi, phi, x_nm, channel) + channel_density(
        cfg, dip, xi, phi + np.pi, x_nm, channel)
    num = delta_f(cfg, dip, xi, phi, x_nm, channel)
    tot_arr = np.asarray(tot, dtype=float)
    safe = np.where(tot_arr != 0.0, tot_arr, 1.0)
    return np.where(tot_arr != 0.0, np.asarray(num) / safe, np.nan)


def critical_theta(cfg: InterfaceConfig) -> float:
    """Critical angle arcsin(1/n1) of the dielectric, in radians."""
    return float(np.arcsin(1.0 / cfg.n1))


def pattern(cfg: InterfaceConfig, dip: DipolePolarization, theta, phi,
            x_nm: float, zone: str):
    """Far-field emission pattern P(theta, phi) per unit solid angle.

    theta is the polar angle from the +x axis (the surface normal on the
    vacuum side).  Zones partition the full sphere:

    * 'rad_vacuum':     theta in [0, pi/2], photons escaping into vacuum,
      P = cos(theta) f_rad_vac with xi = cos(theta);
    * 'evan_forbidden': theta in [pi/2, pi - arcsin(1/n1)], light that
      tunnels through the gap and propagates into the dielectric beyond
      the critical angle, P = -n1^2 cos(theta) f_evan with
      xi = sqrt(n1^2 sin^2(theta) - 1);
    * 'rad_material':   theta in [pi - arcsin(1/n1), pi], sub-critical
      propagation into the dielectric, P = -n1^2 cos(theta) f_rad_mat
      with xi = sqrt(1 - n1^2 sin^2(theta)).

    A theta outside the requested zone raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    thc = critical_theta(cfg)
    n1sq = cfg.n1 ** 2

    def require(lo: float, hi: float, span: str):
        # NaN theta fails both comparisons
        if not np.all((theta >= lo - 1e-12) & (theta <= hi + 1e-12)):
            raise ValueError(f"{zone} zone needs finite theta in [{span}]")

    if zone == "rad_vacuum":
        require(0.0, np.pi / 2.0, "0, pi/2")
        xi = np.clip(np.cos(theta), 0.0, 1.0)
        f = f_rad(cfg, dip, xi, phi, x_nm).f_rad_vac
        return xi * f
    if zone == "evan_forbidden":
        require(np.pi / 2.0, np.pi - thc, "pi/2, pi - arcsin(1/n1)")
        xi = np.sqrt(np.maximum(n1sq * np.sin(theta) ** 2 - 1.0, 0.0))
        f = f_evan(cfg, dip, xi, phi, x_nm)[2]
        return -n1sq * np.cos(theta) * f
    if zone == "rad_material":
        require(np.pi - thc, np.pi, "pi - arcsin(1/n1), pi")
        xi = np.sqrt(np.maximum(1.0 - n1sq * np.sin(theta) ** 2, 0.0))
        f = f_rad(cfg, dip, xi, phi, x_nm).f_rad_mat
        return -n1sq * np.cos(theta) * f
    raise ValueError(f"unknown zone {zone!r}; choose from {PATTERN_ZONES}")
