"""Spontaneous emission of a dipole emitter near a flat dielectric surface.

Rates, mode densities, directional asymmetries and far-field patterns
for a two-level emitter in vacuum above a planar dielectric half-space,
split over evanescent and radiation interface modes.  All rates are in
units of the free-space emission rate.  Angular densities live in
surfemit.density, mode geometry in surfemit.optics and the tensor
algebra in surfemit.vectens.
"""

from .density import DIPOLE_PRESETS, DipolePolarization
from .optics import InterfaceConfig
from .quadrature import QuadratureError, QuadratureSpec
from .rates import RateReport, axis_rates, oracle_integrate, rate_report
from .sweep import (ResultTable, SweepRequest, grid_density, scan_pattern,
                    sweep_asymmetry, sweep_rates)

__version__ = "0.1.0"

__all__ = [
    "DIPOLE_PRESETS", "DipolePolarization", "InterfaceConfig",
    "QuadratureError", "QuadratureSpec", "RateReport", "ResultTable",
    "SweepRequest", "axis_rates", "grid_density", "oracle_integrate",
    "rate_report", "scan_pattern", "sweep_asymmetry", "sweep_rates",
    "__version__",
]
