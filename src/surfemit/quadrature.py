"""Adaptive Gauss-Legendre quadrature tuned for the rate integrals.

A fixed 15/31-point Gauss-Legendre pair is evaluated on every panel;
the high-order value is kept and the difference serves as the panel
error estimate.  Panels are refined worst-first until the summed
estimate meets the requested tolerance.  Integrands must be vectorized
(ndarray in, ndarray out).

Two branch drivers wrap the generic integrator.  Both substitute the
integration variable so that the square-root behavior at the upper
endpoint (where the dielectric-side or vacuum-side propagation constant
vanishes) becomes smooth, and the radiation driver seeds enough initial
panels to resolve the interference oscillations at large emitter
heights.

The batch drivers integrate a stack of integrands, one row per emitter
height, with the same 15/31 pair on one fixed panel set and apply the
adaptive integrator's error test to each row: a row passes when its
summed panel error is within max(atol, rtol * |integral|).  A row that
fails is left to the adaptive route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .optics import InterfaceConfig, check_height

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(15)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(31)
_NODES = np.concatenate([_HI_NODES, _LO_NODES])

# Most (row, node) pairs a batch evaluates at once.  It caps both the
# rows that share one rule and each block of panels, so a sweep's
# temporaries stay near 64 kB apiece whatever its heights.
BATCH_ELEMENTS = 2 ** 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrator."""

    rtol: float = 1e-10
    atol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
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


def _panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    hi = half * float(np.dot(_HI_WEIGHTS, f(mid + half * _HI_NODES)))
    lo = half * float(np.dot(_LO_WEIGHTS, f(mid + half * _LO_NODES)))
    return hi, abs(hi - lo)


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
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2 or np.any(np.diff(pts) <= 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    heap = []
    seq = 0
    toterr = 0.0
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = _panel(f, a, b)
        heapq.heappush(heap, (-err, seq, a, b, val))
        seq += 1
        total += val
        toterr += err
    splits = 0
    while toterr > max(spec.atol, spec.rtol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"integral stalled at error {toterr:.3e} after {splits} "
                f"panel subdivisions", total, toterr)
        neg_err, _, a, b, val = heapq.heappop(heap)
        total -= val
        toterr += neg_err
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _panel(f, lo, hi)
            heapq.heappush(heap, (-e, seq, lo, hi, v))
            seq += 1
            total += v
            toterr += e
        splits += 1
    # re-sum panel values to shed the rounding noise of the running total
    return float(np.sum(np.asarray(sorted(item[4] for item in heap))))




def _on_evanescent(cfg: InterfaceConfig, g):
    """g(xi) over [0, sqrt(n1^2 - 1)] as a function of t in [0, pi/2].

    xi = xi_max sin(t) keeps kernels containing sqrt(n1^2 - 1 - xi^2)
    smooth at the upper endpoint.
    """
    xi_max = cfg.xi_max

    def h(t):
        return g(xi_max * np.sin(t)) * (xi_max * np.cos(t))

    return h


def _on_radiation(g):
    """g(xi) over [0, 1] as a function of t in [0, pi/2], xi = sin(t)."""

    def h(t):
        return g(np.sin(t)) * np.cos(t)

    return h


def _radiation_panels(two_k0x):
    """ceil(2 k0 x / pi) + 1 uniform panels in t, so each covers about
    half a period of cos/sin(2 xi k0 x)."""
    return np.ceil(np.asarray(two_k0x) / np.pi) + 1.0


def _radiation_edges(two_k0x: float) -> np.ndarray:
    n_panels = int(_radiation_panels(two_k0x))
    return np.linspace(0.0, np.pi / 2.0, n_panels + 1)


def integrate_evanescent(cfg: InterfaceConfig, g, x_nm: float,
                         spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of g(xi) over the evanescent branch [0, sqrt(n1^2 - 1)].

    Substitutes xi = xi_max sin(t).  Extra panel edges resolve the
    e^{-2 xi k0 x} boundary layer at large x.
    """
    check_height(x_nm)
    edges = [0.0, np.pi / 2.0]
    decay = 2.0 * cfg.k0_nm * x_nm * cfg.xi_max
    if decay > 10.0:
        edges.extend(float(np.arcsin(c / decay))
                     for c in (1.0, 8.0, 64.0) if c / decay < 1.0)
    return integrate(_on_evanescent(cfg, g), np.unique(edges), spec)


def integrate_radiation(cfg: InterfaceConfig, g, x_nm: float,
                        spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of g(xi) over the radiation branch [0, 1].

    Substitutes xi = sin(t), making sqrt(1 - xi^2) smooth, and seeds the
    panels of _radiation_edges.
    """
    check_height(x_nm)
    return integrate(_on_radiation(g),
                     _radiation_edges(2.0 * cfg.k0_nm * x_nm), spec)


def height_chunks(two_k0x: np.ndarray):
    """Split ascending 2 k0 x values into runs that share one batch rule.

    A run closes before its row count times the nodes of the radiation
    rule for its largest height would pass BATCH_ELEMENTS; a single
    row always makes a run.  Yields slices.
    """
    panels = _radiation_panels(two_k0x)
    start = 0
    for stop in range(1, panels.size):
        if (stop + 1 - start) * panels[stop] * _NODES.size > BATCH_ELEMENTS:
            yield slice(start, stop)
            start = stop
    if start < panels.size:
        yield slice(start, panels.size)


def _fixed_rule(h, edges: np.ndarray, count: int, spec: QuadratureSpec):
    """Integrals of a stack of integrands by the 15/31 pair on fixed panels.

    h maps nodes t (1-D) to the values of count integrands, an array of
    shape (..., t.size) with count elements per node.  Panels are
    evaluated in blocks of at most BATCH_ELEMENTS values.  Returns
    (values, passed), both of shape (...).
    """
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    step = max(1, BATCH_ELEMENTS // (count * _NODES.size))
    value = error = 0.0
    for i in range(0, mids.size, step):
        mid, half = mids[i:i + step], halves[i:i + step]
        y = h((mid[:, None] + half[:, None] * _NODES).ravel())
        y = y.reshape(y.shape[:-1] + (mid.size, _NODES.size))
        hi = half * (y[..., :_HI_NODES.size] @ _HI_WEIGHTS)
        lo = half * (y[..., _HI_NODES.size:] @ _LO_WEIGHTS)
        value = value + hi.sum(axis=-1)
        error = error + np.abs(hi - lo).sum(axis=-1)
    return value, error <= np.maximum(spec.atol, spec.rtol * np.abs(value))


def batch_evanescent(cfg: InterfaceConfig, g, two_k0x_max: float, count: int,
                     spec: QuadratureSpec = QuadratureSpec()):
    """Evanescent-branch integrals of count integrands, g(xi) -> array of
    shape (..., xi.size).

    The rule serves every height up to two_k0x_max: with
    d = 2 k0 x_max xi_max, panel edges at arcsin(c/d) for c = 1, 2, 4,
    ... < d resolve the e^{-2 xi k0 x} boundary layer at each scale, and
    every panel is then halved.  Returns (values, passed).
    """
    decay = two_k0x_max * cfg.xi_max
    scales = 2.0 ** np.arange(np.ceil(np.log2(max(decay, 1.0))))
    scales = scales[scales < decay]
    edges = np.unique(np.concatenate(
        [[0.0, np.pi / 2.0], np.arcsin(scales / decay)]))
    edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return _fixed_rule(_on_evanescent(cfg, g), edges, count, spec)


def batch_radiation(cfg: InterfaceConfig, g, two_k0x_max: float, count: int,
                    spec: QuadratureSpec = QuadratureSpec()):
    """Radiation-branch integrals of count integrands, g(xi) -> array of
    shape (..., xi.size), on the panels integrate_radiation seeds for
    two_k0x_max.  Returns (values, passed)."""
    return _fixed_rule(_on_radiation(g), _radiation_edges(two_k0x_max),
                       count, spec)
