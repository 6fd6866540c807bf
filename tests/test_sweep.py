import json
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from helpers import random_dipole, rel_err
from surfemit import (DIPOLE_PRESETS, DipolePolarization, InterfaceConfig,
                      QuadratureError, QuadratureSpec, ResultTable,
                      SweepRequest, grid_density, rate_report, scan_pattern,
                      sweep_asymmetry, sweep_rates)
from surfemit.rates import RateReport, rate_columns
from surfemit.sweep import GRID_CHANNELS, TABLE_MAGIC


def small_request(cfg, preset="x", **kw):
    return SweepRequest(config=cfg, dipole=DipolePolarization.from_preset(
        preset), **kw)


def test_request_validation(cfg):
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="grid_n"):
        SweepRequest(config=cfg, dipole=dip, grid_n=8)
    with pytest.raises(ValueError, match="plane"):
        SweepRequest(config=cfg, dipole=dip, plane="yz")
    with pytest.raises(ValueError, match="nonnegative"):
        SweepRequest(config=cfg, dipole=dip, x_nm=(-3.0,))
    with pytest.raises(ValueError, match="grid_extent"):
        SweepRequest(config=cfg, dipole=dip, grid_extent=0.0)
    with pytest.raises(ValueError, match="finite span"):
        SweepRequest(config=cfg, dipole=dip, grid_extent=1e308)
    with pytest.raises(ValueError, match="channels"):
        SweepRequest(config=cfg, dipole=dip, channels=("f_bogus",))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_request_rejects_nonfinite_heights(cfg, bad):
    dip = DipolePolarization.from_preset("x")
    with pytest.raises(ValueError, match="x_nm must be finite"):
        SweepRequest(config=cfg, dipole=dip, x_nm=(10.0, bad))
    with pytest.raises(ValueError, match="x_fixed_nm must be finite"):
        SweepRequest(config=cfg, dipole=dip, x_fixed_nm=bad)


def test_x_values_grammar():
    assert SweepRequest.x_values(0.0, 10.0, 5.0) == (0.0, 5.0, 10.0)
    assert SweepRequest.x_values(2.0, 2.0, 1.0) == (2.0,)
    with pytest.raises(ValueError, match="step"):
        SweepRequest.x_values(0.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="stop"):
        SweepRequest.x_values(10.0, 0.0, 1.0)
    for bad in ((0.0, math.inf, 1.0), (math.nan, 1.0, 1.0),
                (0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            SweepRequest.x_values(*bad)


def report_row(cfg, dip, x, quad=QuadratureSpec()):
    return [math.nan if v is None else v
            for v in astuple(rate_report(cfg, dip, x, quad))]


@pytest.mark.parametrize("n1", [1.2, 1.45, 2.5])
def test_batched_sweep_matches_rate_report(n1):
    # panels shared by a run of many heights give every cell to within
    # 1e-13 of the panels that one height seeds for itself
    cfg = InterfaceConfig(n1=n1, lambda0_nm=852.0)
    dipoles = [DipolePolarization.from_preset(p) for p in DIPOLE_PRESETS]
    dipoles.append(random_dipole(np.random.default_rng(7)))
    xs = SweepRequest.x_values(0.0, 800.0, 2.0) + (2e3, 1.5e4, 1e5)
    for dip in dipoles:
        t = sweep_rates(SweepRequest(config=cfg, dipole=dip, x_nm=xs))
        assert np.all(t.column("status") == 0.0)
        got = t.rows[:, 2:]
        want = np.array([report_row(cfg, dip, x) for x in t.column("x_nm")])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        tol = np.maximum(1e-13 * np.abs(want), 1e-14)
        assert np.all(np.abs(got - want)[~np.isnan(want)]
                      <= tol[~np.isnan(want)])


def test_rows_refined_past_their_seed_panels_match_rate_report(cfg):
    # at rtol=1e-13 the 3400 nm row needs more panels than its run's
    # seed; its rows of the stack are refined until they converge
    dip = DipolePolarization.from_preset("eps-xz")
    quad = QuadratureSpec(rtol=1e-13, atol=1e-300)
    xs = (0.0, 400.0, 3400.0)
    t = sweep_rates(SweepRequest(config=cfg, dipole=dip, x_nm=xs, quad=quad))
    assert list(t.column("status")) == [0.0, 0.0, 0.0]
    want = np.array(report_row(cfg, dip, 3400.0, quad))
    got = t.rows[2, 2:]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got - want)[ok]
                  <= np.maximum(1e-13 * np.abs(want), 1e-14)[ok])


def test_far_rows_stall_at_the_roundoff_floor(cfg):
    # at the default spec the summed panel error of thousands of
    # oscillation panels sits just above atol=1e-14 from 400 um on
    t = sweep_rates(small_request(cfg, preset="y", x_nm=(852.0, 1e6)))
    assert list(t.column("status")) == [0.0, 1.0]
    assert np.isfinite(t.column("gamma_total")[0])
    assert np.all(np.isnan(t.rows[1, 2:]))
    with pytest.raises(QuadratureError) as err:
        rate_report(cfg, DipolePolarization.from_preset("y"), 4e5)
    assert math.isfinite(err.value.estimate)
    assert err.value.error > QuadratureSpec().atol


def test_batch_memory_bounded_at_large_height(cfg):
    # one 1 mm row spans ~4700 radiation panels; blocks keep the
    # temporaries small
    dip = DipolePolarization.from_preset("eps-xz")
    rate_columns(cfg, dip, np.array([0.0]))  # fills the static moments
    tracemalloc.start()
    try:
        rate_columns(cfg, dip, np.array([1e6]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sweep_rates_columns_and_determinism(cfg):
    req = small_request(cfg, x_nm=(0.0, 120.0, 60.0))
    t1 = sweep_rates(req)
    t2 = sweep_rates(req)
    assert t1.columns == ("x_nm", "status") + RateReport.COLUMNS
    assert t1.rows.shape == (3, 2 + len(RateReport.COLUMNS))
    assert list(t1.column("x_nm")) == [0.0, 60.0, 120.0]
    assert t1.to_csv() == t2.to_csv()
    assert t1.to_json() == t2.to_json()


def test_empty_sweep_has_valid_schema(cfg):
    t = sweep_rates(small_request(cfg, x_nm=()))
    assert t.rows.shape == (0, 2 + len(RateReport.COLUMNS))
    back = ResultTable.from_csv(t.to_csv())
    assert back.rows.shape == t.rows.shape
    assert back.columns == t.columns


def test_csv_round_trip_with_nan(cfg):
    hard = QuadratureSpec(rtol=1e-15, atol=1e-300, max_subdivisions=10)
    req = small_request(cfg, preset="eps-xz", x_nm=(0.0, 3400.0), quad=hard)
    t = sweep_rates(req)
    status = t.column("status")
    assert status[0] == 0.0 and status[1] == 1.0
    assert np.isnan(t.column("gamma_total")[1])
    for text, loader in ((t.to_csv(), ResultTable.from_csv),
                         (t.to_json(), ResultTable.from_json)):
        back = loader(text)
        assert np.array_equal(back.rows, t.rows, equal_nan=True)
        assert back.metadata == t.metadata
        assert back.columns == t.columns


def test_json_document_shape(cfg):
    t = sweep_rates(small_request(cfg, x_nm=(15.0,)))
    doc = json.loads(t.to_json())
    assert doc["format"] == TABLE_MAGIC
    assert doc["columns"] == list(t.columns)
    assert len(doc["rows"]) == 1
    assert doc["metadata"]["tool"]["name"] == "surfemit"


def test_serialized_floats_survive_parsing(cfg):
    t = sweep_rates(small_request(cfg, x_nm=(77.0,)))
    line = t.to_csv().splitlines()[3]
    parsed = [float(tok) for tok in line.split(",")]
    assert parsed == list(t.rows[0])


def test_asymmetry_table(cfg):
    req = small_request(cfg, preset="eps-xz", x_nm=(0.0, 100.0))
    t = sweep_asymmetry(req)
    assert t.columns == ("x_nm", "status", "delta_evan", "delta_rad",
                         "delta_total", "zeta_evan", "zeta_rad", "zeta_total")
    assert t.rows.shape == (2, 8)
    assert abs(t.column("zeta_rad")[0]) < 1e-9
    full = sweep_rates(req)
    for name in t.columns:
        assert np.array_equal(t.column(name), full.column(name))
    assert t.metadata == dict(full.metadata, table="asymmetry")


def test_grid_regions_partition(cfg):
    t = grid_density(small_request(cfg, grid_n=24))
    region = t.column("region")
    kappa = np.hypot(t.column("kappa_y"), t.column("kappa_z"))
    assert np.all(region[kappa > cfg.n1 + 1e-9] == -1.0)
    assert np.all(region[kappa < 1.0 - 1e-9] == 0.0)
    inside = (kappa > 1.0 + 1e-9) & (kappa <= cfg.n1 + 1e-9)
    assert np.all(region[inside] == 1.0)
    assert np.all(np.isnan(t.column("f_rad")[region == -1.0]))
    assert np.all(np.isnan(t.column("f_evan")[region == 0.0]))
    assert np.all(np.isnan(t.column("f_rad")[region == 1.0]))
    assert not np.any(np.isnan(t.column("f_evan")[region == 1.0]))


def test_grid_rows_lexicographic(cfg):
    t = grid_density(small_request(cfg, grid_n=16, grid_extent=1.0))
    ky = t.column("kappa_y")
    kz = t.column("kappa_z")
    order = np.lexsort((kz, ky))
    assert np.all(np.diff(order) > 0)


def test_grid_branch_point_snap(cfg):
    # odd grid over [-1, 1] lands exactly on kappa = 1 at the axis points
    t = grid_density(small_request(cfg, grid_n=17, grid_extent=1.0,
                                   x_fixed_nm=130.0))
    region = t.column("region")
    boundary = region == 2.0
    assert np.count_nonzero(boundary) == 4
    fe = t.column("f_evan")[boundary]
    fr = t.column("f_rad")[boundary]
    assert np.all(np.isfinite(fe)) and np.all(np.isfinite(fr))
    assert np.allclose(fe, fr, rtol=1e-9)


def test_grid_channel_selection(cfg):
    t = grid_density(small_request(cfg, grid_n=16,
                                   channels=("f_rad", "f_evan")))
    assert t.columns == ("kappa_y", "kappa_z", "region", "f_evan", "f_rad")
    assert t.metadata["grid"]["channels"] == ["f_evan", "f_rad"]
    # a selected column is the full grid's column, bit for bit
    full = grid_density(small_request(cfg, "eps-xz", grid_n=21,
                                      x_fixed_nm=120.0))
    for subset in (("f_rad_vac", "f_evan_p", "f_rad_s1"),
                   ("f_rad_mat", "f_evan_s", "f_evan")):
        part = grid_density(small_request(cfg, "eps-xz", grid_n=21,
                                          x_fixed_nm=120.0,
                                          channels=subset))
        assert part.columns[3:] == tuple(c for c in GRID_CHANNELS
                                         if c in subset)
        for name in part.columns:
            assert np.array_equal(part.column(name).view(np.int64),
                                  full.column(name).view(np.int64)), name


def grid_value(table, a, b, name):
    m = ((np.abs(table.column("kappa_y") - a) < 1e-9)
         & (np.abs(table.column("kappa_z") - b) < 1e-9))
    assert np.count_nonzero(m) == 1
    return float(table.column(name)[m][0])


def test_grid_cylindrical_symmetry_for_normal_dipole(cfg):
    t = grid_density(small_request(cfg, grid_n=17, x_fixed_nm=90.0))
    axis = np.linspace(-cfg.n1, cfg.n1, 17)
    r = axis[12]  # radiation-branch ring point, kappa = 0.725
    picks = [grid_value(t, a, b, "f_rad")
             for a, b in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r))]
    assert max(picks) - min(picks) < 1e-12 * max(picks)


def test_grid_directional_asymmetry_eps_dipole(cfg):
    t = grid_density(small_request(cfg, preset="eps-xz", grid_n=17,
                                   x_fixed_nm=200.0))
    axis = np.linspace(-cfg.n1, cfg.n1, 17)
    r = axis[15]  # evanescent-branch ring point, kappa = 1.26875
    assert 1.0 < r < cfg.n1
    up = grid_value(t, 0.0, r, "f_evan")
    down = grid_value(t, 0.0, -r, "f_evan")
    assert abs(up - down) > 1e-6 * max(up, down)
    left = grid_value(t, r, 0.0, "f_evan")
    right = grid_value(t, -r, 0.0, "f_evan")
    assert rel_err(left, right) < 1e-12


def test_grid_contact_radiation_symmetric_evanescent_not(cfg):
    t = grid_density(small_request(cfg, preset="eps-xz", grid_n=17,
                                   x_fixed_nm=0.0))
    ky = t.column("kappa_y")
    kz = t.column("kappa_z")
    region = t.column("region")
    fr = t.column("f_rad")
    fe = t.column("f_evan")
    rad = region == 0.0
    # radiation sub-grid symmetric under kappa -> -kappa at contact
    idx = {(round(a, 9), round(b, 9)): i
           for i, (a, b) in enumerate(zip(ky, kz))}
    worst_rad = 0.0
    worst_evan = 0.0
    for (a, b), i in idx.items():
        jj = idx[(round(-a, 9), round(-b, 9))]
        if rad[i] and rad[jj]:
            worst_rad = max(worst_rad, abs(fr[i] - fr[jj]))
        if region[i] == 1.0 and region[jj] == 1.0:
            worst_evan = max(worst_evan, abs(fe[i] - fe[jj]))
    assert worst_rad < 1e-13
    assert worst_evan > 1e-3


def test_pattern_scan_layout(cfg):
    # n_angles chosen so no sample angle falls on a zone boundary
    t = scan_pattern(small_request(cfg, preset="theta-xz", n_angles=50,
                                   x_fixed_nm=50.0))
    assert t.columns == ("theta", "phi", "zone", "p")
    theta = t.column("theta")
    zone = t.column("zone")
    p = t.column("p")
    assert np.all(np.diff(theta) >= 0.0)
    assert np.all(p >= -1e-15)
    thc = float(np.arcsin(1.0 / cfg.n1))
    assert np.all(zone[theta < 0.5 * np.pi - 1e-9] == 0.0)
    mid = (theta > 0.5 * np.pi + 1e-9) & (theta < np.pi - thc - 1e-9)
    assert np.all(zone[mid] == 1.0)
    assert np.all(zone[theta > np.pi - thc + 1e-9] == 2.0)
    assert set(np.unique(zone)) == {0.0, 1.0, 2.0}


def pattern_mirror_spread(cfg, preset, zone_code, x=50.0):
    t = scan_pattern(small_request(cfg, preset=preset, n_angles=360,
                                   x_fixed_nm=x))
    theta = t.column("theta")
    phi = t.column("phi")
    zone = t.column("zone")
    p = t.column("p")
    pairs = {}
    for a, b, z, v in zip(theta, phi, zone, p):
        if z == zone_code:
            pairs.setdefault(round(a, 12), {})[round(b, 6)] = v
    worst = 0.0
    for vals in pairs.values():
        if len(vals) == 2:
            v1, v2 = vals.values()
            worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2), 1e-300))
    return worst


def test_pattern_mirror_symmetry_linear_dipole(cfg):
    # tilted linear dipole: forbidden-zone lobe symmetric about the x axis,
    # the two allowed-zone lobes are not
    assert pattern_mirror_spread(cfg, "theta-xz", 1.0) < 1e-12
    assert pattern_mirror_spread(cfg, "theta-xz", 0.0) > 1e-3
    assert pattern_mirror_spread(cfg, "theta-xz", 2.0) > 1e-3


def test_pattern_mirror_symmetry_circular_dipole(cfg):
    # circular dipole: material lobe symmetric, the other two are not
    assert pattern_mirror_spread(cfg, "eps-xz", 2.0) < 1e-12
    assert pattern_mirror_spread(cfg, "eps-xz", 1.0) > 1e-3
    assert pattern_mirror_spread(cfg, "eps-xz", 0.0) > 1e-3


def test_pattern_xy_plane(cfg):
    t = scan_pattern(small_request(cfg, preset="eps-xz", plane="xy",
                                   n_angles=36, x_fixed_nm=80.0))
    phi = t.column("phi")
    assert set(np.round(np.unique(phi), 12)) <= {0.0, round(np.pi, 12)}


def test_metadata_echo(cfg):
    req = small_request(cfg, preset="z", x_nm=(5.0,),
                        quad=QuadratureSpec(rtol=1e-8))
    t = sweep_rates(req)
    md = t.metadata
    assert md["config"] == {"n1": 1.45, "lambda0_nm": 852.0}
    assert md["quadrature"]["rtol"] == 1e-8
    assert md["dipole"] == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert md["table"] == "rates"


def test_grid_channels_tuple():
    assert GRID_CHANNELS[:3] == ("f_evan_s", "f_evan_p", "f_evan")
    assert len(GRID_CHANNELS) == 12
