"""Adaptive Gauss-Legendre quadrature tuned for the rate integrals.

One integrator serves a single integral and a stack of them.  A stack
is a set of integrands, one row per integral and emitter height, that
share one panel set.  A fixed 15/31-point Gauss-Legendre pair is
evaluated on every panel; the high-order value is kept and the
difference serves as the panel error estimate.  A row passes when its
summed estimate is within max(atol, rtol * |integral|).  Each round,
every row that misses asks for its worst panels, as many as carry its
excess over that target, and every panel asked for is bisected for all
rows in one vectorized evaluation.  A row is charged only for the
panels it asked for, up to max_subdivisions.  Integrands must be
vectorized (ndarray in, ndarray out).

The branch rule substitutes the integration variable so that the
square-root behavior at the upper endpoint (where the dielectric-side
or vacuum-side propagation constant vanishes) becomes smooth, and seeds
panels that resolve the evanescent boundary layer and the radiation
interference oscillations at large emitter heights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import InterfaceConfig

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(15)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(31)
_NODES = np.concatenate([_HI_NODES, _LO_NODES])

# Most (row, node) pairs the integrator evaluates at once.  It caps both
# the rows that share one panel set and each block of panels, so the
# temporaries of a stack stay near 64 kB apiece whatever its heights.
BATCH_ELEMENTS = 2 ** 13

# Most radiation seed panels of one height: about 25 000 wavelengths.
MAX_RADIATION_PANELS = 10 ** 5


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrator."""

    rtol: float = 1e-10
    atol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        for name in ("rtol", "atol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{getattr(self, name)!r}")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


class QuadratureError(RuntimeError):
    """Tolerance not reached within the subdivision budget.

    Carries the best available value in `estimate` and the error bound
    actually achieved in `error`.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _rule(h, a: np.ndarray, b: np.ndarray, count: int):
    """15/31 values and error estimates of count integrands on the
    panels [a, b], each of shape (count, a.size), evaluated in blocks of
    at most BATCH_ELEMENTS values."""
    mids = 0.5 * (a + b)
    halves = 0.5 * (b - a)
    step = max(1, BATCH_ELEMENTS // (count * _NODES.size))
    values, errors = [], []
    for i in range(0, mids.size, step):
        mid, half = mids[i:i + step], halves[i:i + step]
        y = np.reshape(h((mid[:, None] + half[:, None] * _NODES).ravel()),
                       (count, mid.size, _NODES.size))
        hi = half * (y[..., :_HI_NODES.size] @ _HI_WEIGHTS)
        lo = half * (y[..., _HI_NODES.size:] @ _LO_WEIGHTS)
        values.append(hi)
        errors.append(np.abs(hi - lo))
    return np.concatenate(values, axis=1), np.concatenate(errors, axis=1)


def integrate_rows(h, breakpoints, count: int,
                   spec: QuadratureSpec = QuadratureSpec()):
    """Adaptive integrals of a stack of integrands on one panel set.

    h maps nodes t (1-D) to the values of count integrands, an array of
    shape (..., t.size) with count elements per node; breakpoints are
    the strictly increasing edges of the seed panels.  Returns (values,
    errors, passed), each of shape (count,) in the row order of h;
    passed is False for a row whose summed panel error is still above
    max(atol, rtol * |value|) after max_subdivisions bisections.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2 or np.any(np.diff(pts) <= 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    a, b = pts[:-1], pts[1:]
    val, err = _rule(h, a, b, count)
    charged = np.zeros(count, dtype=int)
    while True:
        value, error = val.sum(axis=1), err.sum(axis=1)
        excess = error - np.maximum(spec.atol, spec.rtol * np.abs(value))
        ask = np.flatnonzero((excess > 0.0)
                             & (charged < spec.max_subdivisions))
        if ask.size == 0:
            return value, error, excess <= 0.0
        # each asking row's worst panels, until they carry its excess
        order = np.argsort(-err[ask], axis=1, kind="stable")
        worst = np.take_along_axis(err[ask], order, axis=1)
        picked = ((np.cumsum(worst, axis=1) - worst < excess[ask, None])
                  & (np.arange(a.size)
                     < (spec.max_subdivisions - charged[ask])[:, None]))
        charged[ask] += picked.sum(axis=1)
        split = np.zeros(a.size, dtype=bool)
        split[order[picked]] = True
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_val, new_err = _rule(h, new_a, new_b, count)
        a = np.concatenate([a[~split], new_a])
        b = np.concatenate([b[~split], new_b])
        val = np.concatenate([val[:, ~split], new_val], axis=1)
        err = np.concatenate([err[:, ~split], new_err], axis=1)


def integrate(f, breakpoints, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Adaptive integral of f over [breakpoints[0], breakpoints[-1]].

    Parameters
    ----------
    f : callable
        Vectorized integrand, ndarray -> ndarray.
    breakpoints : array_like
        Strictly increasing panel edges seeding the subdivision.
    spec : QuadratureSpec

    Raises
    ------
    QuadratureError
        When the summed panel error cannot be brought below
        max(atol, rtol * |integral|) within the subdivision budget.
    """
    (value,), (error,), (passed,) = integrate_rows(f, breakpoints, 1, spec)
    if not passed:
        raise QuadratureError(
            f"integral stalled at error {error:.3e} after "
            f"{spec.max_subdivisions} panel subdivisions", value, error)
    return float(value)


def _radiation_panels(two_k0x):
    """ceil(2 k0 x / pi) + 1 uniform panels in t, so each covers about
    half a period of cos/sin(2 xi k0 x); more than MAX_RADIATION_PANELS
    is a ValueError."""
    panels = np.ceil(np.asarray(two_k0x) / np.pi) + 1.0
    if not np.all(panels <= MAX_RADIATION_PANELS):
        raise ValueError(f"x_nm must be below about "
                         f"{MAX_RADIATION_PANELS // 4} wavelengths, "
                         f"got {np.max(panels):.6g} radiation seed panels")
    return panels


def branch_rule(cfg: InterfaceConfig, branch: str, g, two_k0x: float):
    """(h, breakpoints) that integrate g(xi) over a branch for heights up
    to 2 k0 x = two_k0x.

    The evanescent branch [0, sqrt(n1^2 - 1)] is mapped by
    xi = xi_max sin(t); with d = 2 k0 x xi_max, edges at arcsin(c/d) for
    c = 1, 2, 4, ... < d resolve the e^{-2 xi k0 x} boundary layer at
    each scale, and every panel is then halved.  The radiation branch
    [0, 1] is mapped by xi = sin(t) onto ceil(2 k0 x / pi) + 1 uniform
    panels.  Both maps make sqrt(xi_max^2 - xi^2) smooth in t.
    """
    if branch == "evanescent":
        scale = cfg.xi_max
        decay = two_k0x * scale
        scales = 2.0 ** np.arange(np.ceil(np.log2(max(decay, 1.0))))
        # 0 < arcsin(c/d) < pi/2 rise with c: already strictly ordered
        edges = np.concatenate(
            [[0.0], np.arcsin(scales[scales < decay] / decay), [np.pi / 2.0]])
        edges = np.sort(np.concatenate(
            [edges, 0.5 * (edges[:-1] + edges[1:])]))
    else:
        scale = 1.0
        edges = np.linspace(0.0, np.pi / 2.0,
                            int(_radiation_panels(two_k0x)) + 1)

    def h(t):
        return g(scale * np.sin(t)) * (scale * np.cos(t))

    return h, edges


def height_chunks(two_k0x: np.ndarray):
    """Split ascending 2 k0 x values into runs that share one panel set.

    A run closes before its row count times the nodes of the radiation
    seed panels for its largest height would pass BATCH_ELEMENTS; a
    single row always makes a run.  Yields slices.
    """
    panels = _radiation_panels(two_k0x)
    start = 0
    for stop in range(1, panels.size):
        if (stop + 1 - start) * panels[stop] * _NODES.size > BATCH_ELEMENTS:
            yield slice(start, stop)
            start = stop
    if start < panels.size:
        yield slice(start, panels.size)
