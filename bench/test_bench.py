"""Tests of the benchmark itself: seeded inputs, the gate and the tracer.

Run with `python3 -m pytest bench` from the repository root.
"""

import numpy as np
import pytest

import surfemit
import surfemit.cli
from surfemit import QuadratureError, ResultTable, SweepRequest

import gate
import plans
from tracer import Tracer


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = plans.first_blocks(workload, 7, 3)
    assert first == plans.first_blocks(workload, 7, 3)
    assert first != plans.first_blocks(workload, 8, 3)


def test_blocks_are_stratified():
    for block in plans.first_blocks("sweep-far", 3, 4):
        n1 = sorted(c.n1 for c in block.cases)
        strata = [int((v - 1.3) / 1.2 * 8) for v in n1]
        assert strata == list(range(8))
        assert set(plans.PRESETS) <= {c.dipole for c in block.cases}
        assert all(c.x_nm == plans.FAR_HEIGHTS_NM for c in block.cases)
    for block in plans.first_blocks("cli-tables", 3, 4):
        grids = sorted((c.size, c.fmt) for c in block.cases
                       if c.kind == "density")
        assert len(grids) == len(plans.GRID_N_STRATA)
        for k, ((n, fmt), (lo, hi)) in enumerate(
                zip(grids, plans.GRID_N_STRATA)):
            assert lo <= n <= hi and fmt == plans.FORMATS[k % 2]
        assert sorted(c.fmt for c in block.cases
                      if c.kind == "pattern") == list(plans.FORMATS)
    for block in plans.first_blocks("sweep-near", 3, 2):
        for case in block.cases:
            assert case.rows == len(surfemit.SweepRequest.x_values(
                0.0, 800.0, 2.0)) == 401
            bins = np.floor(np.asarray(case.x_nm) / (800.0 / case.rows))
            assert list(bins) == list(range(case.rows))


@pytest.fixture(scope="module")
def rate_case():
    case = plans.SweepCase(1.45, "eps-xz", (50.0, 400.0, 790.0))
    table = surfemit.sweep_rates(SweepRequest(
        config=gate.config(case.n1), dipole=gate.dipole(case.dipole),
        x_nm=case.x_nm))
    return case, table


def _perturbed(table, row, column, factor):
    rows = table.rows.copy()
    rows[row, table.columns.index(column)] *= factor
    return ResultTable(table.columns, rows, table.metadata)


def test_gate_passes_real_rows(rate_case):
    case, table = rate_case
    ok, problems = gate.rate_rows(table)
    assert ok.all() and problems == []
    assert gate.oracle_row(case.n1, case.dipole, table, 1) == []


@pytest.mark.parametrize("column", ["gamma_total", "gamma_rad_vac",
                                    "gamma_evan_plus", "delta_total"])
def test_gate_flags_a_perturbed_row(rate_case, column):
    _, table = rate_case
    ok, problems = gate.rate_rows(_perturbed(table, 1, column, 1 + 1e-9))
    assert list(ok) == [True, False, True]
    assert problems


def test_oracle_flags_a_perturbed_rate(rate_case):
    case, table = rate_case
    bad = _perturbed(table, 1, "gamma_rad", 1 + 1e-7)
    assert gate.oracle_row(case.n1, case.dipole, bad, 1)


def test_gate_requires_nan_cells_on_stalled_rows(rate_case):
    _, table = rate_case
    rows = table.rows.copy()
    rows[2, table.columns.index("status")] = 1.0
    ok, problems = gate.rate_rows(ResultTable(table.columns, rows,
                                              table.metadata))
    assert not ok[2] and problems


def test_cli_gate_passes_and_flags(tmp_path):
    case = plans.CliCase("density", "theta-xz", 120.0, 24, "csv")
    out = tmp_path / "grid.csv"
    assert surfemit.cli.run([*case.argv, f"--out={out}"]) == 0
    text = out.read_text()
    assert gate.cli_table(case, text) == (case.rows, [])

    lines = text.splitlines(keepends=True)
    col = lines[2].rstrip("\n").split(",").index("f_rad")
    row = next(i for i in range(3, len(lines))
               if lines[i].split(",")[col] != "nan")
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))
    lines[row] = ",".join(cells) + "\n"
    rows, problems = gate.cli_table(case, "".join(lines))
    assert rows == 0 and problems


def test_grid_sum_rules_flag_a_perturbed_cell():
    table = surfemit.grid_density(SweepRequest(
        config=gate.config(1.45), dipole=gate.dipole("eps-xz"), grid_n=16))
    assert gate.grid_sum_rules(table) == []
    rad = int(np.flatnonzero(table.column("region") == 0.0)[0])
    assert gate.grid_sum_rules(_perturbed(table, rad, "f_rad", 1 + 1e-9))


def _bindings():
    s = surfemit
    return [(s.quadrature, "integrate"), (s.rates, "integrate"),
            (s.sweep, "rate_report"), (s.rates, "fresnel"),
            (s.sweep, "f_rad"), (s.sweep, "sweep_rates"),
            (s.cli, "grid_density"), (s.sweep.ResultTable, "to_csv"),
            (s.cli, "run")]


def test_tracer_is_pass_through_and_restores_bindings(rate_case):
    case, table = rate_case
    before = [getattr(owner, name) for owner, name in _bindings()]
    tracer = Tracer()
    req = SweepRequest(config=gate.config(case.n1),
                       dipole=gate.dipole(case.dipole), x_nm=case.x_nm)
    with tracer.installed(surfemit):
        assert surfemit.sweep.rate_report is not before[2]
        traced = surfemit.sweep.sweep_rates(req)
    assert [getattr(owner, name) for owner, name in _bindings()] == before
    assert traced.to_csv() == table.to_csv()
    m = tracer.metrics()
    assert m["rates.reports"] == 3 and m["sweep.rows"] == 3
    assert m["quadrature.panels"] > 0
    assert m["quadrature.evals"] == m["optics.points"]


def test_tracer_cli_pass_through(tmp_path):
    argv = ["pattern", "--dipole=eps-xz", "--n-theta=90", "--format=json"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert surfemit.cli.run([*argv, f"--out={plain}"]) == 0
    tracer = Tracer()
    with tracer.installed(surfemit):
        assert surfemit.cli.run([*argv, f"--out={traced}"]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    m = tracer.metrics()
    assert m["sweep.render_bytes"] == len(plain.read_bytes())
    assert m["density.points"] == 90
    assert m["quadrature.integrals"] == 0 and m["cli.self_s"] > 0


def test_tracer_counts_panels_and_errors():
    cfg, eps = gate.config(1.45), gate.dipole("eps-xz")
    surfemit.rate_report(cfg, eps, 852.0)       # fill the static moments
    tracer = Tracer()
    with tracer.installed(surfemit):
        surfemit.sweep.rate_report(cfg, eps, 852.0)
    # as in the ROADMAP baseline table: 16 panels of 15 + 31 nodes
    assert tracer.counts["quadrature.panels"] == 16
    assert tracer.counts["quadrature.evals"] == 16 * 46

    tracer = Tracer()
    with tracer.installed(surfemit):
        with pytest.raises(QuadratureError):
            surfemit.sweep.rate_report(cfg, gate.dipole("y"), 1e6)
    m = tracer.metrics()
    assert m["quadrature.errors"] == 1
    assert 0.0 < m["quadrature.failed_panel_share"] < 1.0


def test_a_hung_child_is_a_failed_request(monkeypatch):
    import run
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    seconds, code, out = run.run_child(["-c", "import time; time.sleep(30)"])
    assert code == "timeout after 0.5 s" and out == ""
    assert 0.5 <= seconds < 10


def test_meter_scales_by_the_mean_probe(monkeypatch):
    import time
    import run
    before_after = iter([0.03, 0.018])
    monkeypatch.setattr(run, "probe", lambda size=1.0: next(before_after))
    monkeypatch.setattr(run, "METER_EVERY_S", 60.0)
    out, meter = run.metered(lambda: "done")
    assert out == "done" and meter.probes == [0.03, 0.018]
    assert meter.scale == pytest.approx(run.PROBE_REF_S / 0.024)

    # while the section runs, the thread samples too
    monkeypatch.setattr(run, "probe", lambda size=1.0: 0.012)
    monkeypatch.setattr(run, "METER_EVERY_S", 0.005)
    _, meter = run.metered(time.sleep, 0.1)
    assert len(meter.probes) > 3
    assert meter.scale == pytest.approx(run.PROBE_REF_S / 0.012)
