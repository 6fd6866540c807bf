"""Spontaneous emission of a dipole emitter near a flat dielectric surface.

Rates, mode densities, directional asymmetries and far-field patterns
for a two-level emitter in vacuum above a planar dielectric half-space,
split over evanescent and radiation interface modes.  All rates are in
units of the free-space emission rate.
"""

from .density import (DIPOLE_PRESETS, DensityBreakdown, DipolePolarization,
                      critical_theta, delta_f, delta_f_equivalences, f_evan,
                      f_evan_limit_kappa1, f_rad, f_rad_limit_kappa1, pattern,
                      zeta_f)
from .optics import (InterfaceConfig, ModePoint, axis_coefficients,
                     brewster_xi, fresnel, interference_norm,
                     mode_ellipticity, mode_field_p, mode_polarization_p,
                     mode_polarization_s, spin_density, transmittance)
from .quadrature import QuadratureError, QuadratureSpec
from .rates import (MaterialVacuumSplit, RateReport, asymmetry, axis_rates,
                    delta_rates, gamma_evan, gamma_mat_vac, gamma_rad,
                    gamma_total, oracle_integrate, rate_report, side_rates)
from .sweep import (ResultTable, SweepRequest, grid_density, scan_pattern,
                    sweep_asymmetry, sweep_rates)
from .vectens import (RateDecomposition, compound_tensor, decompose_coupling,
                      ellipticity_vector, scalar_product,
                      tensor_scalar_product)

__version__ = "0.1.0"

__all__ = [
    "DIPOLE_PRESETS", "DensityBreakdown", "DipolePolarization",
    "InterfaceConfig", "ModePoint", "MaterialVacuumSplit", "QuadratureError",
    "QuadratureSpec", "RateDecomposition", "RateReport", "ResultTable",
    "SweepRequest", "asymmetry", "axis_coefficients", "axis_rates",
    "brewster_xi", "compound_tensor", "critical_theta", "decompose_coupling",
    "delta_f", "delta_f_equivalences", "delta_rates", "ellipticity_vector",
    "f_evan", "f_evan_limit_kappa1", "f_rad", "f_rad_limit_kappa1",
    "fresnel", "gamma_evan", "gamma_mat_vac", "gamma_rad", "gamma_total",
    "grid_density", "interference_norm", "mode_ellipticity", "mode_field_p",
    "mode_polarization_p", "mode_polarization_s", "oracle_integrate",
    "pattern", "rate_report", "scalar_product", "scan_pattern",
    "side_rates", "spin_density", "sweep_asymmetry", "sweep_rates",
    "tensor_scalar_product", "transmittance", "zeta_f", "__version__",
]
