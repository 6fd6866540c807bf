import numpy as np
import pytest

from surfemit import InterfaceConfig, QuadratureError, QuadratureSpec
from surfemit.quadrature import branch_rule, integrate


def test_spec_defaults_and_validation():
    spec = QuadratureSpec()
    assert spec.rtol == 1e-10
    assert spec.atol == 1e-14
    assert spec.max_subdivisions == 200
    with pytest.raises(ValueError, match="positive"):
        QuadratureSpec(rtol=0.0)
    with pytest.raises(ValueError, match="positive"):
        QuadratureSpec(atol=-1e-3)
    with pytest.raises(ValueError, match="at least 10"):
        QuadratureSpec(max_subdivisions=5)


def test_polynomial_exact():
    val = integrate(lambda t: 3.0 * t ** 2, [0.0, 1.0])
    assert val == pytest.approx(1.0, rel=1e-14)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        integrate(lambda t: t, [0.0, 0.0])
    with pytest.raises(ValueError):
        integrate(lambda t: t, [1.0])


def test_oscillatory_integral():
    # int_0^10pi sin(t) dt = 0; int_0^10pi |panel structure| converges
    val = integrate(np.sin, np.linspace(0.0, 10.0 * np.pi, 21))
    assert abs(val) < 1e-13
    val = integrate(np.cos, np.linspace(0.0, 31.0, 32))
    assert val == pytest.approx(np.sin(31.0), abs=1e-13)


def test_sqrt_endpoint_via_substitution():
    cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    xm = cfg.xi_max
    # int_0^xm sqrt(xm^2 - xi^2) dxi = pi xm^2 / 4
    val = integrate(*branch_rule(cfg, "evanescent", lambda xi: np.sqrt(
        np.maximum(xm ** 2 - xi ** 2, 0.0)), 0.0), QuadratureSpec())
    assert val == pytest.approx(np.pi * xm ** 2 / 4.0, rel=1e-12)


def test_evanescent_boundary_layer():
    cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    x = 20.0 * 852.0
    c = 2.0 * cfg.k0_nm * x
    val = integrate(*branch_rule(cfg, "evanescent",
                                 lambda xi: np.exp(-c * xi), c),
                    QuadratureSpec())
    exact = (1.0 - np.exp(-c * cfg.xi_max)) / c
    assert val == pytest.approx(exact, rel=1e-9)


def test_radiation_panels_track_oscillation():
    cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    for x in (0.0, 426.0, 3400.0):
        c = 2.0 * cfg.k0_nm * x
        val = integrate(*branch_rule(cfg, "radiation",
                                     lambda xi: np.cos(c * xi), c),
                        QuadratureSpec())
        exact = 1.0 if c == 0.0 else np.sin(c) / c
        assert val == pytest.approx(exact, rel=1e-10, abs=1e-13)


def test_budget_exhaustion_raises_with_estimate():
    spec = QuadratureSpec(rtol=1e-16, atol=1e-300, max_subdivisions=10)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda t: np.sqrt(np.abs(t)), [0.0, 1.0], spec)
    assert err.value.estimate == pytest.approx(2.0 / 3.0, rel=1e-4)
    assert err.value.error > 0.0
    assert "stalled" in str(err.value)
