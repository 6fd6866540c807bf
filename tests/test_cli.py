import json
import warnings

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


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_dipole_norm_out_of_square_range(capsys, scale):
    # the squared norm overflows or underflows; the dipole is theta-xz
    assert run(["rates", "--x-nm=0:800:200", "--dipole=theta-xz"]) == 0
    want = ResultTable.from_csv(capsys.readouterr().out).rows
    dipole = f"--dipole={scale},0,0,0,{scale},0"
    assert run(["rates", "--x-nm=0:800:200", dipole]) == 0
    res = capsys.readouterr()
    assert "was normalized" in res.err
    got = ResultTable.from_csv(res.out).rows
    assert np.all(np.abs(got - want)
                  <= np.maximum(1e-13 * np.abs(want), 1e-14))


def test_nonfinite_dipole_rejected(capsys):
    assert run(["rates", "--x-nm", "10", "--dipole", "nan,0,0,0,1,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --dipole") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["rates", "--n1=1e160", "--x-nm=0"],
    ["density", "--n1=1e160"],
    ["pattern", "--n1=1e200"],
    ["rates", "--n1=1e100", "--x-nm=0"],
    ["density", "--n1=1e100"],
    ["pattern", "--n1=1e100"],
])
def test_n1_with_overflowing_square_rejected(capsys, argv):
    assert run(argv) == 1
    res = capsys.readouterr()
    assert res.out == ""
    assert res.err.startswith("error: --n1") and res.err.count("\n") == 1
    assert "n1^4 must be finite" in res.err


@pytest.mark.parametrize("argv", [
    ["rates", "--x-nm=0,150,852"],
    ["density", "--grid-n=16", "--x-nm=150"],
    ["pattern", "--n-theta=8", "--x-nm=150"],
])
def test_largest_accepted_n1_runs_without_overflow(capsys, argv):
    # the largest n1 whose fourth power is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--n1=1.1579208923731618e77"]) == 0
    res = capsys.readouterr()
    assert res.err == ""
    assert ResultTable.from_csv(res.out).rows.shape[0] > 0


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
    # the grid's span 2 * extent overflows
    ["density", "--grid-extent=inf"],
    ["density", "--grid-extent=1e308"],
])
def test_nonfinite_inputs_rejected(capsys, argv):
    assert run(argv) == 1
    res = capsys.readouterr()
    assert res.out == ""
    assert res.err.startswith("error:")
    assert res.err.count("\n") == 1
    assert "finite" in res.err


@pytest.mark.parametrize("argv,flag", [
    (["density", "--grid-n=8"], "--grid-n"),
    (["pattern", "--n-theta=2"], "--n-theta"),
    (["pattern", "--x-nm=-5"], "--x-nm"),
    (["density", "--grid-extent=inf"], "--grid-extent"),
    (["rates", "--x-nm=10,-5"], "--x-nm"),
])
def test_request_errors_name_their_flag(capsys, argv, flag):
    assert run(argv) == 1
    res = capsys.readouterr()
    assert res.out == ""
    assert res.err.startswith(f"error: {flag}: ") and res.err.count("\n") == 1
    assert "Traceback" not in res.err


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


@pytest.mark.parametrize("where", ["dir", "missing/table.csv"])
def test_out_that_cannot_be_opened(tmp_path, capsys, where):
    (tmp_path / "dir").mkdir()
    assert run(["density", "--grid-n=16",
                f"--out={tmp_path / where}"]) == 1
    res = capsys.readouterr()
    assert res.out == ""
    assert res.err.startswith("error: --out:") and res.err.count("\n") == 1
    assert "Traceback" not in res.err


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
