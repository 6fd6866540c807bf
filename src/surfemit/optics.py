"""Planar-interface mode geometry: Fresnel layer, mode polarization, spin.

Geometry and conventions
------------------------
A dielectric of refractive index n1 > 1 fills the half-space x < 0 and
vacuum (n2 = 1) fills x > 0; the emitter sits on the +x axis at height
x_nm.  In-plane wave vectors K live in the (y, z) interface plane with
azimuth phi measured from the +y axis, so Khat = (0, cos(phi), sin(phi))
and Khat x xhat = (0, sin(phi), -cos(phi)).

All wave-vector components are normalized to k0 = 2*pi/lambda0.  kappa
is the in-plane magnitude and xi >= 0 the out-of-plane coordinate on the
vacuum side:

* evanescent branch: kappa in (1, n1], xi = sqrt(kappa^2 - 1) is the decay
  constant of the transmitted field, xi in [0, sqrt(n1^2 - 1)];
* radiation branch: kappa in [0, 1], xi = sqrt(1 - kappa^2) is the
  out-of-plane propagation constant, xi in [0, 1].

On both branches eta = sqrt(n1^2 - kappa^2) denotes the out-of-plane
propagation constant inside the dielectric: sqrt(n1^2 - 1 - xi^2) on the
evanescent branch and sqrt(n1^2 - 1 + xi^2) on the radiation branch.

Rates downstream are expressed in units of the free-space rate, so this
module only ever deals with dimensionless mode quantities; lengths enter
through the product k0 * x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EDGE_TOL = 1e-12  # accepted overshoot beyond a branch endpoint


@dataclass(frozen=True)
class InterfaceConfig:
    """Dielectric half-space below vacuum.

    Parameters
    ----------
    n1 : float
        Refractive index of the dielectric (x < 0), must exceed 1.
    lambda0_nm : float
        Vacuum transition wavelength in nm.
    """

    n1: float
    lambda0_nm: float

    def __post_init__(self):
        if not 1.0 < self.n1 < math.inf:
            raise ValueError(f"n1 must be finite and > 1, got {self.n1}")
        if not 0.0 < self.lambda0_nm < math.inf:
            raise ValueError(
                f"lambda0_nm must be finite and > 0, got {self.lambda0_nm}")

    @property
    def n2(self) -> float:
        return 1.0

    @property
    def k0_nm(self) -> float:
        """Free-space wave number in 1/nm."""
        return 2.0 * np.pi / self.lambda0_nm

    @property
    def xi_max(self) -> float:
        """Upper end of the evanescent xi range, sqrt(n1^2 - 1)."""
        return float(np.sqrt(self.n1 ** 2 - 1.0))


def check_height(x_nm, name: str = "x_nm"):
    """Reject an emitter height that is not a finite number >= 0.

    x_nm may be a scalar or an array of heights.
    """
    x = np.asarray(x_nm, dtype=float)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if np.any(bad):
        raise ValueError(f"{name} must be finite and nonnegative, got "
                         f"{float(x[bad].flat[0])!r}")


@dataclass(frozen=True)
class ModePoint:
    """One point of the interface mode continuum.

    branch is 'evanescent' or 'radiation', xi the out-of-plane coordinate,
    phi the in-plane azimuth, q the polarization label ('s' or 'p') and j
    the input-side index (1 = incident from the dielectric, 2 = from
    vacuum).  Evanescent modes only exist for j = 1.
    """

    branch: str
    xi: float
    phi: float
    q: str
    j: int

    def __post_init__(self):
        if self.branch not in ("evanescent", "radiation"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.q not in ("s", "p"):
            raise ValueError(f"polarization q must be 's' or 'p', got {self.q!r}")
        if self.j not in (1, 2):
            raise ValueError(f"input side j must be 1 or 2, got {self.j!r}")
        if self.xi < 0:
            raise ValueError(f"xi must be nonnegative, got {self.xi}")
        if self.branch == "evanescent" and self.j != 1:
            raise ValueError("evanescent modes are incident from the dielectric (j=1)")
        if self.branch == "radiation" and self.xi > 1.0 + _EDGE_TOL:
            raise ValueError(f"radiation branch needs xi <= 1, got {self.xi}")

    @property
    def kappa(self) -> float:
        if self.branch == "evanescent":
            return float(np.sqrt(1.0 + self.xi ** 2))
        return float(np.sqrt(max(1.0 - self.xi ** 2, 0.0)))


def _bounded(xi, hi: float, what: str):
    """Validate finite xi in [0, hi], clamping roundoff overshoot within
    1e-12."""
    x = np.asarray(xi, dtype=float)
    inside = (x >= -_EDGE_TOL) & (x <= hi + _EDGE_TOL)
    if not np.all(inside):
        raise ValueError(f"{what}: xi must be finite and lie in [0, {hi}], "
                         f"got {float(x[~inside].flat[0])!r}")
    return np.clip(x, 0.0, hi)


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


def fresnel(cfg: InterfaceConfig, xi):
    """Radiation-branch reflection coefficients of the vacuum-side field.

    Parameters
    ----------
    cfg : InterfaceConfig
    xi : float or array
        Out-of-plane propagation constant, in [0, 1].

    Returns
    -------
    (r_s, r_p)
        TE and TM amplitude reflection coefficients,
        r_s = (xi - eta)/(xi + eta) and
        r_p = (n1^2 xi - eta)/(n1^2 xi + eta) with
        eta = sqrt(n1^2 - 1 + xi^2).
    """
    xi = _bounded(xi, 1.0, "fresnel")
    n1sq = cfg.n1 ** 2
    eta = np.sqrt(n1sq - 1.0 + xi ** 2)
    r_s = (xi - eta) / (xi + eta)
    r_p = (n1sq * xi - eta) / (n1sq * xi + eta)
    return r_s, r_p


def transmittance(cfg: InterfaceConfig, xi):
    """Evanescent-branch energy transmittances of the two polarizations.

    T_s = 2 xi sqrt(n1^2 - 1 - xi^2) / (n1^2 - 1) and
    T_p = (2 n1^2/(n1^2 - 1)) xi sqrt(n1^2 - 1 - xi^2)
          / ((n1^2 + 1) xi^2 + 1), for xi in [0, sqrt(n1^2 - 1)].
    Both vanish at the endpoints of the branch.
    """
    xi = _bounded(xi, cfg.xi_max, "transmittance")
    n1sq = cfg.n1 ** 2
    eta = np.sqrt(np.maximum(n1sq - 1.0 - xi ** 2, 0.0))
    t_s = 2.0 * xi * eta / (n1sq - 1.0)
    t_p = (2.0 * n1sq / (n1sq - 1.0)) * xi * eta / ((n1sq + 1.0) * xi ** 2 + 1.0)
    return t_s, t_p


def axis_coefficients(cfg: InterfaceConfig, xi, branch: str):
    """Combinations weighting a surface-normal vs an in-plane dipole.

    Evanescent branch: (T_perp, T_par) = ((1 + xi^2) T_p, T_s + xi^2 T_p).
    Radiation branch:  (r_perp, r_par) = ((1 - xi^2) r_p, r_s - xi^2 r_p).
    """
    if branch == "evanescent":
        t_s, t_p = transmittance(cfg, xi)
        xi = np.asarray(xi, dtype=float)
        return (1.0 + xi ** 2) * t_p, t_s + xi ** 2 * t_p
    if branch == "radiation":
        r_s, r_p = fresnel(cfg, xi)
        xi = np.asarray(xi, dtype=float)
        return (1.0 - xi ** 2) * r_p, r_s - xi ** 2 * r_p
    raise ValueError(f"unknown branch {branch!r}")


def brewster_xi(cfg: InterfaceConfig) -> float:
    """Radiation-branch xi at which r_p vanishes, 1/sqrt(n1^2 + 1)."""
    return float(1.0 / np.sqrt(cfg.n1 ** 2 + 1.0))


def _require_p(point: ModePoint, what: str):
    if point.q != "p":
        raise ValueError(
            f"{what} is defined for p modes; the s mode is linearly polarized "
            "along Khat x xhat (use mode_polarization_s)")


def interference_norm(cfg: InterfaceConfig, xi, x_nm: float):
    """Norm Z of the vacuum-side p2 superposition at height x.

    Z = 1 + r_p^2 + 2 r_p (1 - 2 xi^2) cos(2 xi k0 x).  Positive for all
    xi in (0, 1]; vanishes at xi = 0 where r_p = -1.
    """
    _, r_p = fresnel(cfg, xi)
    xi = np.asarray(xi, dtype=float)
    return 1.0 + r_p ** 2 + 2.0 * r_p * (1.0 - 2.0 * xi ** 2) * np.cos(
        2.0 * xi * cfg.k0_nm * x_nm)


def mode_polarization_s(point: ModePoint) -> np.ndarray:
    """Unit polarization of an s mode: the real vector Khat x xhat."""
    if point.q != "s":
        raise ValueError("mode_polarization_s expects an s-mode point")
    return khat_cross_xhat(point.phi)


def mode_polarization_p(cfg: InterfaceConfig, point: ModePoint, x_nm: float) -> np.ndarray:
    """Unit polarization of the p mode at the emitter height x_nm.

    Evanescent branch (j=1): (kappa xhat - i xi Khat)/sqrt(1 + 2 xi^2),
    independent of x up to the overall decaying scalar.
    Radiation branch (j=2): the two-wave superposition
    [kappa xhat + xi Khat + r_p e^{2 i xi k0 x} (kappa xhat - xi Khat)]/sqrt(Z).

    Raises for s-mode points, for radiation j=1 (transmitted plane wave,
    real polarization) and for the degenerate radiation point xi = 0.
    """
    _require_p(point, "mode_polarization_p")
    kv = khat(point.phi)
    xv = np.array([1.0, 0.0, 0.0])
    if point.branch == "evanescent":
        xi = float(_bounded(point.xi, cfg.xi_max, "mode_polarization_p"))
        kappa = point.kappa
        return (kappa * xv - 1j * xi * kv) / np.sqrt(1.0 + 2.0 * xi ** 2)
    if point.j != 2:
        raise ValueError("radiation-branch polarization is provided for j=2 modes")
    xi = float(_bounded(point.xi, 1.0, "mode_polarization_p"))
    if xi == 0.0:
        raise ValueError("radiation p2 polarization is degenerate at xi = 0 (Z = 0)")
    kappa = point.kappa
    _, r_p = fresnel(cfg, xi)
    phase = np.exp(2j * xi * cfg.k0_nm * x_nm)
    z = interference_norm(cfg, xi, x_nm)
    vec = (kappa * xv + xi * kv) + r_p * phase * (kappa * xv - xi * kv)
    return vec / np.sqrt(z)


def mode_ellipticity(cfg: InterfaceConfig, point: ModePoint, x_nm: float) -> np.ndarray:
    """The real vector i [eps* x eps] of the p-mode unit polarization.

    Same convention as vectens.ellipticity_vector, so this equals
    ellipticity_vector(mode_polarization_p(...)).  Closed forms:
    evanescent, -2 xi sqrt(1 + xi^2)/(1 + 2 xi^2) (Khat x xhat);
    radiation, -(4/Z) xi sqrt(1 - xi^2) r_p sin(2 xi k0 x) (Khat x xhat).
    """
    _require_p(point, "mode_ellipticity")
    tv = khat_cross_xhat(point.phi)
    if point.branch == "evanescent":
        xi = float(_bounded(point.xi, cfg.xi_max, "mode_ellipticity"))
        return (-2.0 * xi * np.sqrt(1.0 + xi ** 2) / (1.0 + 2.0 * xi ** 2)) * tv
    if point.j != 2:
        raise ValueError("radiation-branch ellipticity is provided for j=2 modes")
    xi = float(_bounded(point.xi, 1.0, "mode_ellipticity"))
    if xi == 0.0:
        raise ValueError("radiation p2 ellipticity is degenerate at xi = 0 (Z = 0)")
    _, r_p = fresnel(cfg, xi)
    z = float(interference_norm(cfg, xi, x_nm))
    return (-4.0 / z) * xi * np.sqrt(1.0 - xi ** 2) * r_p * np.sin(
        2.0 * xi * cfg.k0_nm * x_nm) * tv


def spin_density(cfg: InterfaceConfig, point: ModePoint, x_nm: float) -> np.ndarray:
    """Local electric spin density of one mode at the emitter position.

    Normalized per unit field energy density of the incident wave, with
    the conventional eps0/omega prefactor divided out.  s modes carry no
    electric spin (a real polarization), so the zero vector is returned.

    Evanescent p modes:
        (2 n1^2/(n1^2-1)) * ((n1^2-1-xi^2)/((n1^2+1) xi^2 + 1))
        * xi sqrt(1+xi^2) e^{-2 xi k0 x} (Khat x xhat),
    radiation p modes (j=2):
        xi sqrt(1-xi^2) r_p sin(2 xi k0 x) (Khat x xhat).
    """
    if point.q == "s":
        return np.zeros(3)
    tv = khat_cross_xhat(point.phi)
    n1sq = cfg.n1 ** 2
    if point.branch == "evanescent":
        xi = float(_bounded(point.xi, cfg.xi_max, "spin_density"))
        pref = (2.0 * n1sq / (n1sq - 1.0)) * (
            (n1sq - 1.0 - xi ** 2) / ((n1sq + 1.0) * xi ** 2 + 1.0))
        return pref * xi * np.sqrt(1.0 + xi ** 2) * np.exp(
            -2.0 * xi * cfg.k0_nm * x_nm) * tv
    if point.j != 2:
        raise ValueError("radiation-branch spin density is provided for j=2 modes")
    xi = float(_bounded(point.xi, 1.0, "spin_density"))
    _, r_p = fresnel(cfg, xi)
    return xi * np.sqrt(1.0 - xi ** 2) * r_p * np.sin(
        2.0 * xi * cfg.k0_nm * x_nm) * tv


def mode_field_p(cfg: InterfaceConfig, point: ModePoint, x_nm: float) -> np.ndarray:
    """Unnormalized p-mode field profile at the emitter height.

    Evanescent (j=1): e^{-xi k0 x} t_p (kappa xhat - i xi Khat) with the
    transmission amplitude t_p = 2 n1 eta / (eta + i n1^2 xi).
    Radiation (j=2): e^{-i xi k0 x} (kappa xhat + xi Khat)
                     + r_p e^{i xi k0 x} (kappa xhat - xi Khat).
    """
    _require_p(point, "mode_field_p")
    kv = khat(point.phi)
    xv = np.array([1.0, 0.0, 0.0])
    kappa = point.kappa
    if point.branch == "evanescent":
        xi = float(_bounded(point.xi, cfg.xi_max, "mode_field_p"))
        n1sq = cfg.n1 ** 2
        eta = np.sqrt(max(n1sq - 1.0 - xi ** 2, 0.0))
        t_p = 2.0 * cfg.n1 * eta / (eta + 1j * n1sq * xi)
        return np.exp(-xi * cfg.k0_nm * x_nm) * t_p * (kappa * xv - 1j * xi * kv)
    if point.j != 2:
        raise ValueError("radiation-branch field profile is provided for j=2 modes")
    xi = float(_bounded(point.xi, 1.0, "mode_field_p"))
    _, r_p = fresnel(cfg, xi)
    ph = np.exp(1j * xi * cfg.k0_nm * x_nm)
    return (kappa * xv + xi * kv) / ph + r_p * ph * (kappa * xv - xi * kv)
