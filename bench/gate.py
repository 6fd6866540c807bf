"""Correctness gate, applied to every output outside the timed region.

Rate tables (sweep workloads):
  * every converged row (status 0) is finite outside the zeta columns
    and obeys the composition identities: total = evan + rad,
    mat + vac = rad, delta_total = delta_evan + delta_rad, and each
    plus/minus pair is the half-sum/half-difference of its channel rate
    and delta.  Tolerance: 1e-12 of the largest term, 1e-15 absolute;
  * every non-converged row (status 1) has NaN in all rate cells, as
    documented;
  * on a seeded sample of converged rows, gamma_evan, gamma_rad,
    gamma_rad_mat and gamma_rad_vac agree with `oracle_integrate`, the
    package's independent 2D angular route, to 1e-8 relative with a
    1e-12 absolute floor.

CLI tables (cli-tables):
  * the output parses back with ResultTable.from_csv/from_json into
    exactly (bit for bit, NaN where NaN) the table the library computes
    in-process for the same request, metadata included;
  * density grids obey f_rad = f_rad_s + f_rad_p = f_rad_mat + f_rad_vac
    and f_evan = f_evan_s + f_evan_p wherever defined (same tolerance
    as the rate identities);
  * a repeated request gives byte-identical output (checked by the
    caller, which owns the repeat).

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from surfemit import (DIPOLE_PRESETS, DipolePolarization, InterfaceConfig,
                      RateReport, ResultTable, SweepRequest, grid_density,
                      oracle_integrate, scan_pattern)

from plans import LAMBDA0_NM, PAPER_N1

IDENTITY_RTOL = 1e-12
IDENTITY_ATOL = 1e-15
ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-12

_SUMS = (
    ("gamma_total", ("gamma_evan", "gamma_rad")),
    ("delta_total", ("delta_evan", "delta_rad")),
    ("gamma_rad", ("gamma_rad_mat", "gamma_rad_vac")),
)
_HALF_SUMS = (  # (rate, delta, plus, minus)
    ("gamma_evan", "delta_evan", "gamma_evan_plus", "gamma_evan_minus"),
    ("gamma_rad", "delta_rad", "gamma_rad_plus", "gamma_rad_minus"),
    ("gamma_total", "delta_total", "gamma_plus", "gamma_minus"),
    ("gamma_rad_mat", "delta_rad_mat", "gamma_rad_mat_plus",
     "gamma_rad_mat_minus"),
    ("gamma_rad_vac", "delta_rad_vac", "gamma_rad_vac_plus",
     "gamma_rad_vac_minus"),
)
_ORACLE_COLUMNS = (("gamma_evan", "evan"), ("gamma_rad", "rad"),
                   ("gamma_rad_mat", "mat"), ("gamma_rad_vac", "vac"))
_GRID_SUMS = (
    ("f_rad", ("f_rad_s", "f_rad_p")),
    ("f_rad", ("f_rad_mat", "f_rad_vac")),
    ("f_evan", ("f_evan_s", "f_evan_p")),
)


def dipole(text: str) -> DipolePolarization:
    """The dipole a `--dipole` value names, normalized as the CLI does."""
    if text in DIPOLE_PRESETS:
        return DipolePolarization.from_preset(text)
    v = [float(p) for p in text.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return DipolePolarization(
            [complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])])


def config(n1: float) -> InterfaceConfig:
    return InterfaceConfig(n1=n1, lambda0_nm=LAMBDA0_NM)


def _off(total, terms):
    """Mask where total differs from the sum of terms beyond tolerance."""
    rhs = sum(terms)
    scale = np.max(np.abs(np.vstack([total] + list(terms))), axis=0)
    with np.errstate(invalid="ignore"):
        return ~(np.abs(total - rhs) <= IDENTITY_RTOL * scale + IDENTITY_ATOL)


def rate_rows(table: ResultTable):
    """(ok, problems): ok marks the converged rows that pass every check."""
    col = table.column
    status = col("status")
    rates = table.rows[:, 2:]
    problems = []
    bad = np.zeros(len(status), dtype=bool)

    stalled = status == 1.0
    if np.any(~np.isnan(rates[stalled])):
        problems.append("a status-1 row carries non-NaN rate cells")
    converged = status == 0.0
    if np.any(~converged & ~stalled):
        problems.append("status outside {0, 1}")

    finite_cols = [i for i, name in enumerate(RateReport.COLUMNS)
                   if not name.startswith("zeta_")]
    nonfinite = converged & ~np.all(np.isfinite(rates[:, finite_cols]), axis=1)
    if np.any(nonfinite):
        problems.append("a status-0 row has non-finite rate cells")
    bad |= nonfinite
    for total, terms in _SUMS:
        off = _off(col(total), [col(t) for t in terms])
        if np.any(off & converged):
            problems.append(f"{total} != {' + '.join(terms)}")
        bad |= off
    for rate, delta, plus, minus in _HALF_SUMS:
        g, d = col(rate), col(delta)
        for name, sign in ((plus, 1.0), (minus, -1.0)):
            off = _off(2.0 * col(name), [g, sign * d])
            if np.any(off & converged):
                problems.append(f"{name} != ({rate} {'+-'[sign < 0]} "
                                f"{delta}) / 2")
            bad |= off
    return converged & ~bad, problems


def oracle_row(n1: float, dipole_text: str, table: ResultTable,
               row: int) -> list:
    """Compare one converged row against the 2D angular oracle."""
    cfg, dip = config(n1), dipole(dipole_text)
    x = float(table.column("x_nm")[row])
    problems = []
    for column, channel in _ORACLE_COLUMNS:
        got = float(table.column(column)[row])
        want = oracle_integrate(cfg, dip, x, channel)
        if not abs(got - want) <= max(ORACLE_RTOL * abs(want), ORACLE_ATOL):
            problems.append(f"{column} at x={x!r} nm: {got!r} vs oracle "
                            f"{want!r}")
    return problems


def grid_sum_rules(table: ResultTable) -> list:
    col = table.column
    problems = []
    for total, terms in _GRID_SUMS:
        t = col(total)
        defined = ~np.isnan(t)
        if np.any(_off(t, [col(n) for n in terms]) & defined):
            problems.append(f"{total} != {' + '.join(terms)}")
    return problems


def expected_table(case) -> ResultTable:
    """The table the library computes in-process for a CLI request."""
    common = dict(config=config(PAPER_N1), dipole=dipole(case.dipole),
                  x_fixed_nm=case.x_nm)
    if case.kind == "density":
        return grid_density(SweepRequest(grid_n=case.size, **common))
    return scan_pattern(SweepRequest(n_angles=case.size, plane=case.plane,
                                     **common))


def cli_table(case, text: str):
    """(rows that pass, problems) for one CLI output."""
    try:
        parsed = (ResultTable.from_csv(text) if case.fmt == "csv"
                  else ResultTable.from_json(text))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return 0, [f"output does not parse: {exc}"]
    want = expected_table(case)
    problems = []
    if parsed.columns != want.columns:
        problems.append("columns differ from the library's table")
    elif not np.array_equal(parsed.rows, want.rows, equal_nan=True):
        problems.append("parsed rows differ from the library's table")
    if parsed.metadata != json.loads(json.dumps(want.metadata)):
        problems.append("metadata differs from the library's table")
    if case.kind == "density" and not problems:
        problems += grid_sum_rules(parsed)
    if parsed.rows.shape[0] != case.rows:
        problems.append(f"{parsed.rows.shape[0]} rows, expected {case.rows}")
    return (0 if problems else parsed.rows.shape[0]), problems


def pick_row(ok: np.ndarray, u: float):
    """Row index chosen by u in [0, 1) among the rows marked ok."""
    rows = np.flatnonzero(ok)
    return None if rows.size == 0 else int(rows[min(int(u * rows.size),
                                                     rows.size - 1)])

