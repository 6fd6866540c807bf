import json

import numpy as np
import pytest

from surfemit import ResultTable
from surfemit.cli import CliError, _parse_dipole, _parse_x_values, run


def table_from(capsys):
    out = capsys.readouterr().out
    return ResultTable.from_csv(out), out


def test_validate_passes(capsys):
    assert run(["validate"]) == 0
    out = capsys.readouterr().out
    assert "17/17 checks passed" in out
    assert out.count("PASS") == 17
    assert "FAIL" not in out


def test_rates_stdout_csv(capsys):
    rc = run(["rates", "--x-nm", "0,50,100"])
    assert rc == 0
    t, out = table_from(capsys)
    assert out.startswith("# surfemit-table-v1")
    assert list(t.column("x_nm")) == [0.0, 50.0, 100.0]
    assert t.metadata["table"] == "rates"
    assert np.all(t.column("status") == 0.0)


def test_repeat_runs_byte_identical(capsys):
    run(["rates", "--x-nm", "0:40:20", "--dipole", "eps-xz"])
    first = capsys.readouterr().out
    run(["rates", "--x-nm", "0:40:20", "--dipole", "eps-xz"])
    second = capsys.readouterr().out
    assert first == second


def test_preset_equals_explicit_components(capsys):
    run(["rates", "--x-nm", "25", "--dipole", "eps-xz"])
    preset = capsys.readouterr()
    run(["rates", "--x-nm", "25", "--dipole", "1,0,0,0,0,1"])
    explicit = capsys.readouterr()
    assert "normalized" in explicit.err
    assert preset.err == ""
    assert explicit.out == preset.out


def test_normalization_notice(capsys):
    rc = run(["rates", "--x-nm", "10", "--dipole", "2,0,0,0,0,0"])
    assert rc == 0
    res = capsys.readouterr()
    assert "norm 2 was normalized" in res.err
    run(["rates", "--x-nm", "10", "--dipole", "x"])
    assert capsys.readouterr().out == res.out


def test_zero_dipole_rejected(capsys):
    rc = run(["rates", "--x-nm", "10", "--dipole", "0,0,0,0,0,0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "dipole must be nonzero" in err


def test_bad_range_rejected(capsys):
    assert run(["rates", "--x-nm", "5:1:2"]) == 1
    assert "--x-nm" in capsys.readouterr().err
    assert run(["rates", "--x-nm", "0:10:0"]) == 1
    assert "--x-nm" in capsys.readouterr().err


def test_bad_n1_rejected(capsys):
    assert run(["rates", "--n1", "0.8", "--x-nm", "0"]) == 1
    assert "--n1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rates", "--x-nm=10,inf"],
    ["rates", "--x-nm=0:1e400:1"],
    ["rates", "--x-nm=10,nan"],
    ["asymmetry", "--x-nm=nan:10:1"],
    ["rates", "--n1=inf"],
    ["rates", "--wavelength-nm=inf"],
    ["density", "--x-nm=inf"],
])
def test_nonfinite_inputs_rejected(capsys, argv):
    assert run(argv) == 1
    res = capsys.readouterr()
    assert res.out == ""
    assert res.err.startswith("error:")
    assert res.err.count("\n") == 1
    assert "finite" in res.err


def test_unknown_flag(capsys):
    assert run(["rates", "--bogus", "1"]) == 1
    capsys.readouterr()


def test_no_subcommand(capsys):
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "rates" in capsys.readouterr().out


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    rc = run(["asymmetry", "--x-nm", "0,75", "--dipole", "eps-xz",
              "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    t = ResultTable.from_csv(dest.read_text())
    assert t.metadata["table"] == "asymmetry"
    assert t.rows.shape == (2, 8)


def test_config_file_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(
        {"dipole": "z", "x-nm": "0:100:50", "rtol": 1e-8}))
    rc = run(["rates", "--config", str(cfgfile), "--dipole", "y"])
    assert rc == 0
    t, _ = table_from(capsys)
    # x grid and rtol come from the file, dipole from the explicit flag
    assert list(t.column("x_nm")) == [0.0, 50.0, 100.0]
    assert t.metadata["quadrature"]["rtol"] == 1e-8
    assert t.metadata["dipole"] == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_config_file_errors(tmp_path, capsys):
    assert run(["rates", "--config", str(tmp_path / "nope.json")]) == 1
    assert "--config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert run(["rates", "--config", str(bad)]) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command,values,flag", [
    ("rates", {"n1": "abc"}, "--n1"),
    ("rates", {"n1": None}, "--n1"),
    ("pattern", {"wavelength-nm": "nm"}, "--wavelength-nm"),
    ("rates", {"rtol": None}, "--rtol"),
    ("density", {"grid-n": None}, "--grid-n"),
    ("density", {"grid-extent": "wide"}, "--grid-extent"),
    ("pattern", {"n-theta": [3]}, "--n-theta"),
    ("validate", {"seed": "x"}, "--seed"),
    ("rates", {"x-nm": [1, None]}, "float"),
    ("rates", {"out": 5}, "--out"),
])
def test_config_values_that_fail_conversion(tmp_path, capsys, command,
                                            values, flag):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(values))
    assert run([command, "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def test_density_json_output(capsys):
    rc = run(["density", "--grid-n", "16", "--grid-extent", "1.45",
              "--x-nm", "120", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "surfemit-table-v1"
    assert len(doc["rows"]) == 256
    assert doc["metadata"]["grid"]["n"] == 16
    # out-of-cone cells serialize as null
    assert any(row[3] is None for row in doc["rows"])


def test_pattern_scan_cli(capsys):
    rc = run(["pattern", "--dipole", "theta-xz", "--x-nm", "50",
              "--n-theta", "40", "--plane", "xy"])
    assert rc == 0
    t, _ = table_from(capsys)
    assert t.metadata["pattern"] == {"plane": "xy", "n_angles": 40,
                                     "x_nm": 50.0}
    assert t.rows.shape == (40, 4)


def test_parse_helpers():
    assert _parse_x_values("") == ()
    assert _parse_x_values("1, 2") == (1.0, 2.0)
    assert _parse_x_values([3, 4]) == (3.0, 4.0)
    with pytest.raises(CliError, match="start:stop:step"):
        _parse_x_values("1:2:3:4")
    u = _parse_dipole("0,0,1,0,0,0").u
    assert np.allclose(u, [0.0, 1.0, 0.0])
    with pytest.raises(CliError, match="six"):
        _parse_dipole("1,2,3")
