"""Table serialization: golden bytes of the writers, lossless readers.

The writers render a block of rows with one % operation; they must
agree byte for byte with a reference that renders each cell with
format(v, ".17g").
"""

import contextlib
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from surfemit import (DipolePolarization, InterfaceConfig, ResultTable,
                      SweepRequest, grid_density, scan_pattern,
                      sweep_asymmetry, sweep_rates)
from surfemit.cli import run
from surfemit.sweep import TABLE_MAGIC

EDGE_ROW = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
            1.7976931348623157e308)
_JSON_TOKENS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def reference_cell(v, json_cell=False):
    text = format(float(v), ".17g")
    return _JSON_TOKENS.get(text, text) if json_cell else text


def reference_csv(table):
    meta = json.dumps(table.metadata, sort_keys=True, separators=(",", ":"))
    lines = [f"# {TABLE_MAGIC}", "# " + meta, ",".join(table.columns)]
    lines += [",".join(reference_cell(v) for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def reference_json(table):
    meta = json.dumps(table.metadata, sort_keys=True, separators=(",", ":"))
    cols = json.dumps(list(table.columns), separators=(",", ":"))
    rows = ",".join("[" + ",".join(reference_cell(v, True) for v in row) + "]"
                    for row in table.rows)
    return ('{"format":"%s","metadata":%s,"columns":%s,"rows":[%s]}\n'
            % (TABLE_MAGIC, meta, cols, rows))


def _tables():
    rng = np.random.default_rng(5)
    spread = (10.0 ** rng.uniform(-300, 300, 20000)
              * rng.choice([-1.0, 1.0], 20000))
    grid = grid_density(SweepRequest(
        config=InterfaceConfig(n1=1.45, lambda0_nm=852.0),
        dipole=DipolePolarization.from_preset("eps-xz"), grid_n=40,
        x_fixed_nm=120.0))
    return {
        "edge": ResultTable(tuple("abcdefg"), [EDGE_ROW], {"k": [1, 2.5]}),
        "empty": ResultTable(("a", "b", "c"), [], {}),
        "one_row": ResultTable(("a", "b"), [[1.0 / 3.0, -2e-17]], {}),
        "one_column": ResultTable(("a",), [[0.1], [math.nan], [7.0]], {}),
        # 1 600 rows of 15 cells: several render blocks, NaN regions
        "grid": grid,
        "spread": ResultTable(tuple(f"c{i}" for i in range(8)),
                              spread.reshape(-1, 8), {}),
    }


TABLES = _tables()


def _bits(a):
    """Bit patterns with every NaN made the canonical one."""
    return np.where(np.isnan(a), math.nan, a).view(np.int64)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_writers_match_the_per_cell_formatter(name):
    table = TABLES[name]
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == reference_json(table)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_readers_give_back_the_same_bits(name):
    table = TABLES[name]
    for back in (ResultTable.from_csv(table.to_csv()),
                 ResultTable.from_json(table.to_json())):
        assert back.columns == table.columns
        assert back.metadata == table.metadata
        assert back.rows.shape == table.rows.shape
        assert np.array_equal(_bits(back.rows), _bits(table.rows))


def test_nonfinite_and_negative_zero_round_trip():
    table = ResultTable(("a", "b", "c", "d"),
                        [[math.nan, math.inf, -math.inf, -0.0]], {})
    text = table.to_json()
    assert '"rows":[[null,Infinity,-Infinity,-0]]' in text
    assert table.to_csv().endswith("\nnan,inf,-inf,-0\n")
    for back in (ResultTable.from_csv(table.to_csv()),
                 ResultTable.from_json(text)):
        row = back.rows[0]
        assert math.isnan(row[0])
        assert row[1] == math.inf and row[2] == -math.inf
        assert row[3] == 0.0 and math.copysign(1.0, row[3]) == -1.0


# sha256 of default CLI outputs as rendered by a per-cell formatter; the
# metadata echoes the package version, so a version bump moves them
CLI_GOLDEN = {
    ("density", "--grid-n=16"):
        "3356c2ea3e58ab49285ea467d5abffc79968a40075f0bab4f9ff758a6b6c54c8",
    ("density", "--grid-n=16", "--format=json"):
        "1fdab2d7aced48ebd866a487c2b96924b92f976a669155c97be38fd84cbc4749",
    ("pattern", "--n-theta=8"):
        "303b079cdb8e9b89990d13623e8edb71dfe7ca4bc0c34da66277bc2297fbdcf1",
    ("rates",):
        "a103ff3b753388ef82cbdcdf68c82e1e73047c224ab54623ea01438a2c8e1964",
    ("rates", "--format=json"):
        "6da334b0a54fdbf9eb341a285646b45c5965037d338afeaefe97ad2a8c2ca0bd",
    ("asymmetry", "--x-nm=0:800:50"):
        "d22bff64d8d5cfdf1034900de11086f79f3d32bb326e92998f5705fdc02ffcf5",
    # several kernel and render blocks, the last kernel block partial
    ("density", "--grid-n=101", "--dipole=eps-xz", "--x-nm=300"):
        "e7be34ef0313cd2b9579d1455819422faa38811ce59a182957b13fb968d0a76f",
    ("density", "--grid-n=101", "--dipole=eps-xz", "--x-nm=300",
     "--format=json"):
        "5a55e4221e3a7b351fbeae6a1afa2d080d8ef3c2edb6ab15b4c0154abb732dbd",
    # the square just around the radiation disc
    ("density", "--grid-n=64", "--grid-extent=1.0", "--dipole=theta-xz"):
        "2d7dc33657896d589dbfe1dcb8bd886d90a046ad9633bba73bf1e51367a6a456",
}


@pytest.mark.parametrize("argv", list(CLI_GOLDEN))
def test_default_cli_tables_are_byte_identical(argv, tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(argv)) == 0
    text = out.getvalue().encode()
    assert hashlib.sha256(text).hexdigest() == CLI_GOLDEN[argv]
    dest = tmp_path / "table"
    assert run([*argv, f"--out={dest}"]) == 0
    assert dest.read_bytes() == text


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_density_peak_memory_does_not_grow_with_the_grid(n, fmt,
                                                             tmp_path):
    # the grid goes from the kernels to the writer a block of grid rows
    # at a time, so no CLI process holds its table (16 MB at 512^2)
    code, peak = _traced_peak(run, ["density", f"--grid-n={n}",
                                    f"--format={fmt}",
                                    f"--out={tmp_path / 'grid'}"])
    assert code == 0
    assert peak < 2e6


def test_grid_density_peak_memory_is_the_table_plus_a_block():
    req = SweepRequest(config=InterfaceConfig(n1=1.45, lambda0_nm=852.0),
                       dipole=DipolePolarization.from_preset("eps-xz"),
                       grid_n=256)
    table, peak = _traced_peak(grid_density, req)
    assert peak < 2.5 * table.rows.nbytes


def _cut_tables():
    cfg = InterfaceConfig(n1=1.45, lambda0_nm=852.0)
    eps = DipolePolarization.from_preset("eps-xz")
    sweep = SweepRequest(config=cfg, dipole=eps,
                         x_nm=SweepRequest.x_values(0.0, 800.0, 2.0))
    return {
        "grid": grid_density(SweepRequest(config=cfg, dipole=eps,
                                          grid_n=64)),
        "rates": sweep_rates(sweep),
        "asymmetry": sweep_asymmetry(sweep),
        "pattern": scan_pattern(SweepRequest(config=cfg, dipole=eps)),
    }


CUT_TABLES = _cut_tables()


@pytest.mark.parametrize("kind", sorted(CUT_TABLES))
def test_readers_reject_a_table_cut_short(kind):
    table = CUT_TABLES[kind]
    assert table.metadata["table"] == kind
    short = ResultTable(table.columns, table.rows[:-1], table.metadata)
    cuts = [(short.to_csv(), ResultTable.from_csv),
            (short.to_json(), ResultTable.from_json)]
    pieces = list(table.render("csv"))
    if len(pieces) > 3:
        # header and first block of rows: where an interrupted --out
        # file can end
        cuts.append(("".join(pieces[:2]), ResultTable.from_csv))
    for text, read in cuts:
        with pytest.raises(ValueError, match="cut short"):
            read(text)


def test_readers_reject_a_kind_without_its_row_count():
    text = ResultTable(("a",), [[1.0]], {"table": "grid"}).to_csv()
    with pytest.raises(ValueError, match="row count"):
        ResultTable.from_csv(text)


def _csv(body, columns="a,b", newline="\n"):
    head = [f"# {TABLE_MAGIC}", '# {"k":1}', columns]
    return newline.join(head + body) + newline


def test_csv_reader_accepts_crlf_blank_lines_and_small_bodies():
    rows = [[1.5, -2.0], [3.0, math.nan]]
    for text in (_csv(["1.5,-2", "3,nan"], newline="\r\n"),
                 _csv(["1.5,-2", "3,nan"]) + "\n\n  \n",
                 _csv(["1.5,-2", "", "3,nan"])):
        back = ResultTable.from_csv(text)
        assert back.metadata == {"k": 1}
        assert np.array_equal(back.rows, rows, equal_nan=True)
    assert ResultTable.from_csv(_csv([])).rows.shape == (0, 2)
    assert ResultTable.from_csv(_csv(["4,5"])).rows.tolist() == [[4.0, 5.0]]
    one = ResultTable.from_csv(_csv(["1", "2", "3"], columns="a"))
    assert one.columns == ("a",) and one.rows.tolist() == [[1.0], [2.0], [3.0]]


@pytest.mark.parametrize("body", [["1,abc"], ["1,2", "3"], ["1,2,3", "4,5,6"],
                                  ["1,1#2"], ["1,"]])
def test_csv_reader_rejects_malformed_cells(body):
    with pytest.raises(ValueError):
        ResultTable.from_csv(_csv(body))


@pytest.mark.parametrize("rows", ['[[1,"abc"]]', "[[1,2],[3]]",
                                  "[[1,2,3],[4,5,6]]"])
def test_json_reader_rejects_malformed_cells(rows):
    text = ('{"format":"%s","metadata":{},"columns":["a","b"],"rows":%s}'
            % (TABLE_MAGIC, rows))
    with pytest.raises(ValueError):
        ResultTable.from_json(text)
