"""Planar-interface optics: the Fresnel layer of both mode branches.

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

Two private kernels are the single definition of the interface algebra:
`_reflection` gives (eta, r_s, r_p) on the radiation branch and
`_transmission` gives (eta, T_s/xi, T_p/xi) on the evanescent branch
(or T_s, T_p themselves, with the weight w = xi).  Every function here
and in the density module takes eta, r, T and T/xi from them, and so do
the mode-level check routes (unit polarizations, spin density, field
profiles), which live with the checks in surfemit.validation.

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
        Refractive index of the dielectric (x < 0), must exceed 1 and
        have a finite fourth power (n1 below about 1.16e77): the kernels
        form (n1^2 + 1) xi^2 with xi up to sqrt(n1^2 - 1).
    lambda0_nm : float
        Vacuum transition wavelength in nm.
    """

    n1: float
    lambda0_nm: float

    def __post_init__(self):
        if not 1.0 < self.n1 < math.inf:
            raise ValueError(f"n1 must be finite and > 1, got {self.n1}")
        n1sq = float(self.n1) * float(self.n1)
        if not n1sq * n1sq < math.inf:
            raise ValueError(f"n1^4 must be finite (n1 below about "
                             f"1.16e77), got {self.n1}")
        if not (0.0 < self.lambda0_nm < math.inf
                and 2.0 * math.pi / self.lambda0_nm < math.inf):
            raise ValueError("lambda0_nm must be finite and > 0, with a "
                             f"finite k0, got {self.lambda0_nm}")

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


def _bounded(xi, hi: float, what: str):
    """Validate finite xi in [0, hi], clamping roundoff overshoot within
    1e-12."""
    x = np.asarray(xi, dtype=float)
    inside = (x >= -_EDGE_TOL) & (x <= hi + _EDGE_TOL)
    if not np.all(inside):
        raise ValueError(f"{what}: xi must be finite and lie in [0, {hi}], "
                         f"got {float(x[~inside].flat[0])!r}")
    return np.clip(x, 0.0, hi)


def _reflection(cfg: InterfaceConfig, xi):
    """(eta, r_s, r_p) on the radiation branch, for xi already bounded
    to [0, 1]: eta = sqrt(n1^2 - 1 + xi^2), r_s = (xi - eta)/(xi + eta)
    and r_p = (n1^2 xi - eta)/(n1^2 xi + eta)."""
    n1sq = cfg.n1 ** 2
    eta = np.sqrt(n1sq - 1.0 + xi ** 2)
    return eta, (xi - eta) / (xi + eta), (n1sq * xi - eta) / (n1sq * xi + eta)


def _transmission(cfg: InterfaceConfig, xi, w=1.0):
    """(eta, w T_s/xi, w T_p/xi) on the evanescent branch, for xi already
    bounded to [0, sqrt(n1^2 - 1)]: eta = sqrt(n1^2 - 1 - xi^2),
    T_s/xi = 2 eta/(n1^2 - 1) and
    T_p/xi = (2 n1^2/(n1^2 - 1)) eta/((n1^2 + 1) xi^2 + 1).  The default
    w = 1 gives the ratios, regular at xi = 0; w = xi gives T_s and T_p,
    rounded as products (w multiplies before eta does)."""
    n1sq = cfg.n1 ** 2
    eta = np.sqrt(np.maximum(n1sq - 1.0 - xi ** 2, 0.0))
    return (eta, 2.0 * w * eta / (n1sq - 1.0),
            (2.0 * n1sq / (n1sq - 1.0)) * w * eta
            / ((n1sq + 1.0) * xi ** 2 + 1.0))


def fresnel(cfg: InterfaceConfig, xi):
    """Radiation-branch reflection coefficients (r_s, r_p) of the
    vacuum-side field, for xi in [0, 1] (see _reflection)."""
    _, r_s, r_p = _reflection(cfg, _bounded(xi, 1.0, "fresnel"))
    return r_s, r_p


def transmittance(cfg: InterfaceConfig, xi):
    """Evanescent-branch energy transmittances (T_s, T_p) of the two
    polarizations, for xi in [0, sqrt(n1^2 - 1)] (see _transmission).
    Both vanish at the endpoints of the branch."""
    xi = _bounded(xi, cfg.xi_max, "transmittance")
    _, t_s, t_p = _transmission(cfg, xi, xi)
    return t_s, t_p
