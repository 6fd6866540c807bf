"""Pass-through timing wrappers for the traced run.

The traced run rebinds, for its duration only, the module attributes
that callers look up at call time, so nothing under src/ is edited:

* ``sweep.rate_report``                          -> layer ``rates``
* ``quadrature.integrate``, ``rates.integrate``   -> layer ``quadrature``
  (the integrand handed to it is wrapped too     -> layer ``integrand``)
* ``rates.fresnel``, ``rates.transmittance``,
  ``rates.axis_coefficients``                     -> layer ``optics``
* ``sweep.f_evan``, ``sweep.f_rad``, ``sweep.pattern`` -> layer ``density``
* ``sweep_rates``, ``grid_density``, ``scan_pattern`` as bound in
  ``sweep`` and in ``cli``                        -> layer ``sweep``
* ``ResultTable.to_csv``, ``ResultTable.to_json`` -> layer ``render``
* ``cli.run``                                     -> layer ``cli``

Each wrapper records a span.  A layer's busy time is the sum of its
span durations; its self time subtracts the time of the spans opened
inside it.  Point, evaluation and byte counts are computed from the
sizes of the arrays and strings that cross each boundary, inside the
span they count, so the counting is charged to that layer and not to
its caller's self time.  Wrappers
return exactly what the wrapped function returns and re-raise what it
raises.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def utf8_size(text: str) -> int:
    """Bytes of text in UTF-8; str.isascii() is O(1) in CPython."""
    return len(text) if text.isascii() else len(text.encode())


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []     # child time accumulated by each open span
        self._saved = []

    def _close(self, layer: str, dt: float):
        child = self._open.pop()
        self.busy[layer] += dt
        self.own[layer] += dt - child
        self.counts[layer + ".calls"] += 1
        if self._open:
            self._open[-1] += dt

    def timed(self, layer: str, fn, after=None):
        """Wrap fn in a span; after(args, result) records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                self._close(layer, perf_counter() - t0)
            return result

        return wrapper

    def integrator(self, fn, error_type):
        """Wrap quadrature.integrate and the integrand it receives.

        A panel is a run of consecutive integrand calls on nodes with
        the same centre, so the count stays right for rules that
        evaluate the integrand once or several times per panel.
        """
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, breakpoints, *args, **kwargs):
            last = [None]
            panels_before = counts["quadrature.panels"]

            def integrand(t):
                self._open.append(0.0)
                t0 = perf_counter()
                try:
                    nodes = np.asarray(t)
                    counts["quadrature.evals"] += nodes.size
                    lo, hi = float(nodes.flat[0]), float(nodes.flat[-1])
                    centre, width = 0.5 * (lo + hi), abs(hi - lo)
                    if (last[0] is None
                            or abs(centre - last[0]) > 1e-6 * width):
                        counts["quadrature.panels"] += 1
                    last[0] = centre
                    return f(t)
                finally:
                    self._close("integrand", perf_counter() - t0)

            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(integrand, breakpoints, *args, **kwargs)
            except error_type:
                counts["quadrature.errors"] += 1
                counts["quadrature.failed_panels"] += (
                    counts["quadrature.panels"] - panels_before)
                raise
            finally:
                self._close("quadrature", perf_counter() - t0)

        return wrapper

    def _rebind(self, owner, name: str, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    @contextmanager
    def installed(self, pkg):
        """Rebind the attributes listed in the module docstring."""
        quadrature, rates, sweep, cli = (pkg.quadrature, pkg.rates,
                                         pkg.sweep, pkg.cli)
        counts = self.counts

        def add(key, value):
            counts[key] += value

        try:
            integrate = self.integrator(quadrature.integrate,
                                        quadrature.QuadratureError)
            self._rebind(quadrature, "integrate", integrate)
            self._rebind(rates, "integrate", integrate)
            self._rebind(sweep, "rate_report",
                         self.timed("rates", sweep.rate_report))
            for name in ("fresnel", "transmittance", "axis_coefficients"):
                self._rebind(rates, name, self.timed(
                    "optics", getattr(rates, name),
                    lambda a, r: add("optics.points", np.size(a[1]))))
            for name in ("f_evan", "f_rad", "pattern"):
                self._rebind(sweep, name, self.timed(
                    "density", getattr(sweep, name),
                    lambda a, r: add("density.points",
                                     np.broadcast(a[2], a[3]).size)))
            for name in ("sweep_rates", "grid_density", "scan_pattern"):
                wrapped = self.timed(
                    "sweep", getattr(sweep, name),
                    lambda a, r: add("sweep.rows", r.rows.shape[0]))
                self._rebind(sweep, name, wrapped)
                self._rebind(cli, name, wrapped)
            for name in ("to_csv", "to_json"):
                self._rebind(sweep.ResultTable, name, self.timed(
                    "render", getattr(sweep.ResultTable, name),
                    lambda a, r: add("render.bytes", utf8_size(r))))
            self._rebind(cli, "run", self.timed("cli", cli.run))
            yield self
        finally:
            while self._saved:
                owner, name, original = self._saved.pop()
                setattr(owner, name, original)

    def metrics(self) -> dict:
        """Per-layer totals, keyed by the benchmark's metric names."""
        c, busy, own = self.counts, self.busy, self.own
        integrals = c["quadrature.calls"]
        reports = c["rates.calls"]
        render_s = busy["render"]
        return {
            "quadrature.integrals": integrals,
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.evals_per_integral":
                c["quadrature.evals"] / integrals if integrals else 0.0,
            "quadrature.self_s": own["quadrature"],
            "quadrature.integrand_s": busy["integrand"],
            "quadrature.errors": c["quadrature.errors"],
            "quadrature.failed_panel_share":
                (c["quadrature.failed_panels"] / c["quadrature.panels"]
                 if c["quadrature.panels"] else 0.0),
            "rates.reports": reports,
            "rates.integrals_per_report":
                integrals / reports if reports else 0.0,
            "rates.self_s": own["rates"],
            "optics.calls": c["optics.calls"],
            "optics.points": c["optics.points"],
            "optics.busy_s": busy["optics"],
            "density.calls": c["density.calls"],
            "density.points": c["density.points"],
            "density.busy_s": busy["density"],
            "sweep.requests": c["sweep.calls"],
            "sweep.rows": c["sweep.rows"],
            "sweep.self_s": own["sweep"],
            "sweep.render_s": render_s,
            "sweep.render_bytes": c["render.bytes"],
            "sweep.render_mb_per_s":
                c["render.bytes"] / render_s / 1e6 if render_s else 0.0,
            "cli.self_s": own["cli"],
        }
