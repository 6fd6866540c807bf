"""Batch evaluation over distances, wave-vector grids and pattern scans.

Results are returned as ResultTable: a flat named-column float table
with a JSON-serializable metadata block.  Tables serialize to CSV (a
`#`-prefixed two-line metadata header followed by a normal header row)
and to a JSON document {format, metadata, columns, rows}.  Floats are
rendered as "%.17g" in both formats, one % operation per block of about
2^13 cells, so a parse-render cycle is lossless; NaN cells become "nan"
in CSV and null in JSON, and infinite cells "inf"/"-inf" in CSV and
Infinity/-Infinity in JSON (the tokens json.loads reads).  The readers
parse the rows with numpy.

ResultTable.render yields that text a block at a time, and the CLI
writes each piece straight to its destination, so a CLI process never
holds the whole text.  A density grid is computed a block of whole grid
rows (about 2^11 points) at a time, and the CLI hands each block from
the kernels to the grid writer, _render_grid, which puts only the
computed channel cells through "%.17g" (about 4.6 of a row's 15): a
256 x 256 grid renders in about 150 ms as CSV and 180 ms as JSON,
against 250 and 290 ms cell by cell (one CPU).  So `surfemit density`
never holds its table: its peak memory is the interpreter plus one
block, about 33 MB resident at 208 x 208 and 33.5-35 MB at 1000 x 1000
(a 120 MB table, 137 MB of CSV), in CSV or JSON, against 31.5 MB for a
bare `import surfemit.cli` (Python 3.11, numpy 2.4).  Readers reject a
table whose metadata fixes a row count (grid, rates, asymmetry,
pattern) that its rows do not match, such as a file cut short.

Row order is deterministic: ascending x for distance sweeps,
lexicographic (kappa_y, kappa_z) for grids, lexicographic (theta, phi)
for pattern scans.  Re-running a request yields a byte-identical table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .density import (DipolePolarization, critical_theta, f_evan, f_rad,
                      pattern)
from .optics import InterfaceConfig, check_height
from .quadrature import QuadratureSpec
# rate_report is unused here: bench/ times and traces it as sweep's own
from .rates import RateReport, rate_columns, rate_report  # noqa: F401

TABLE_MAGIC = "surfemit-table-v1"

GRID_CHANNELS = (
    "f_evan_s", "f_evan_p", "f_evan",
    "f_rad_s1", "f_rad_s2", "f_rad_p1", "f_rad_p2",
    "f_rad_s", "f_rad_p", "f_rad", "f_rad_mat", "f_rad_vac",
)

REGION_OUT = -1.0
REGION_RADIATION = 0.0
REGION_EVANESCENT = 1.0
REGION_BOUNDARY = 2.0

# The channel families (evanescent, radiation) computed by region code + 1
_REGION_FAMILIES = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=bool)

ZONE_CODES = {"rad_vacuum": 0.0, "evan_forbidden": 1.0, "rad_material": 2.0}

_KAPPA_SNAP = 1e-9

# Size bounds, checked before anything of that size is allocated; README
# "Command line" gives the reason for each.
MAX_HEIGHTS = 10 ** 5
MAX_GRID_N = 2048
MAX_ANGLES = 10 ** 5


@dataclass(frozen=True, eq=False)
class SweepRequest:
    """One batch-evaluation request.

    x_nm drives the distance sweeps; x_fixed_nm is the emitter height
    used by wave-vector grids and pattern scans.  grid_extent is the
    half-width of the square (kappa_y, kappa_z) window (None means n1,
    covering both branches; 1.0 restricts to the radiation disc).
    channels selects grid columns (None means all).
    """

    config: InterfaceConfig
    dipole: DipolePolarization
    x_nm: tuple = ()
    grid_n: int = 64
    grid_extent: float | None = None
    plane: str = "xz"
    n_angles: int = 360
    x_fixed_nm: float = 0.0
    channels: tuple | None = None
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        object.__setattr__(self, "x_nm",
                           tuple(float(x) for x in self.x_nm))
        check_height(self.x_nm)
        if not 16 <= self.grid_n <= MAX_GRID_N:
            raise ValueError(f"grid_n must be between 16 and {MAX_GRID_N}, "
                             f"got {self.grid_n!r}")
        # the grid's axis spans 2 * grid_extent; where that overflows,
        # np.linspace gives NaN kappa values
        if self.grid_extent is not None and not (
                0.0 < 2.0 * self.grid_extent < math.inf):
            raise ValueError("grid_extent must be positive, with a finite "
                             f"span 2 * grid_extent, got {self.grid_extent!r}")
        if self.plane not in ("xz", "xy"):
            raise ValueError(f"plane must be 'xz' or 'xy', got {self.plane!r}")
        if not 4 <= self.n_angles <= MAX_ANGLES:
            raise ValueError(f"n_angles must be between 4 and {MAX_ANGLES}, "
                             f"got {self.n_angles!r}")
        check_height(self.x_fixed_nm, "x_fixed_nm")
        if not math.isfinite(2.0 * self.config.k0_nm * self.x_fixed_nm):
            raise ValueError("x_fixed_nm must give a finite kernel phase "
                             f"2 k0 x, got {self.x_fixed_nm!r}")
        if self.channels is not None:
            bad = set(self.channels) - set(GRID_CHANNELS)
            if bad:
                raise ValueError(f"unknown grid channels: {sorted(bad)}")
            object.__setattr__(
                self, "channels",
                tuple(c for c in GRID_CHANNELS if c in set(self.channels)))

    @staticmethod
    def x_values(start: float, stop: float, step: float) -> tuple:
        """Inclusive arithmetic distance grid start:stop:step (nm), of at
        most MAX_HEIGHTS heights."""
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("start, stop and step must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if stop < start:
            raise ValueError("empty x range: stop < start")
        span = (stop - start) / step + 1e-9
        if not span < MAX_HEIGHTS:
            raise ValueError(f"x_nm range must give at most {MAX_HEIGHTS} "
                             f"heights, got about {span + 1.0:.6g}")
        count = int(math.floor(span)) + 1
        return tuple(float(start + step * i) for i in range(count))


_BLOCK_CELLS = 1 << 13


def _framed(columns, metadata, fmt: str, pieces):
    """Yield a table in fmt ("csv" or "json") as text pieces: the header,
    each run of rows that pieces(opener, closer, sep) yields (each row
    framed by opener and closer, rows joined by sep), then the tail."""
    meta = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        head = f"# {TABLE_MAGIC}\n# {meta}\n{','.join(columns)}\n"
        opener, closer, sep, tail = "", "\n", "", ""
    elif fmt == "json":
        cols = json.dumps(list(columns), separators=(",", ":"))
        head = ('{"format":"%s","metadata":%s,"columns":%s,"rows":['
                % (TABLE_MAGIC, meta, cols))
        opener, closer, sep, tail = "[", "]", ",", "]}\n"
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    yield head
    lead = ""
    for text in pieces(opener, closer, sep):
        if fmt == "json":
            # %.17g writes nan and [-]inf only for non-finite cells
            text = text.replace("nan", "null").replace("inf", "Infinity")
        yield lead + text
        lead = sep
    yield tail


def _render_rows(columns, metadata, rows, fmt: str):
    """Yield the table of rows in fmt as text pieces (see _framed), its
    cells as "%.17g", one % per piece of about _BLOCK_CELLS cells."""
    step = max(1, _BLOCK_CELLS // max(len(columns), 1))

    def pieces(opener, closer, sep):
        row = opener + ",".join(["%.17g"] * len(columns)) + closer
        for i in range(0, len(rows), step):
            block = rows[i:i + step]
            yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())

    return _framed(columns, metadata, fmt, pieces)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Named-column float table with a metadata echo of its request."""

    columns: tuple
    rows: np.ndarray
    metadata: dict

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError("rows must have one entry per column")
        object.__setattr__(self, "rows", rows)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None

    def render(self, fmt: str):
        """Yield the table in fmt ("csv" or "json") as text pieces."""
        return _render_rows(self.columns, self.metadata, self.rows, fmt)

    def to_csv(self) -> str:
        return "".join(self.render("csv"))

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3 or lines[0].lstrip("# ").strip() != TABLE_MAGIC:
            raise ValueError("not a recognized table: missing magic line")
        metadata = json.loads(lines[1].lstrip("#").strip())
        columns = tuple(lines[2].split(","))
        rows = (np.loadtxt(lines[3:], delimiter=",", comments=None, ndmin=2)
                if len(lines) > 3 else ())
        return cls._read(columns, rows, metadata)

    def to_json(self) -> str:
        return "".join(self.render("json"))

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        # json reads the token -0 as the int 0: keep the sign of a -0 cell
        doc = json.loads(text,
                         parse_int=lambda s: -0.0 if s == "-0" else int(s))
        if doc.get("format") != TABLE_MAGIC:
            raise ValueError("not a recognized table: bad format field")
        return cls._read(tuple(doc["columns"]),
                         np.array(doc["rows"], dtype=float), doc["metadata"])

    @classmethod
    def _read(cls, columns, rows, metadata) -> "ResultTable":
        """The table read back; a table whose metadata fixes its row
        count must have that many rows, so a cut one is not taken for a
        shorter one."""
        table = cls(columns=columns, rows=rows, metadata=metadata)
        expected = _fixed_row_count(metadata)
        if expected is not None and len(table.rows) != expected:
            raise ValueError(f"{metadata['table']} table has "
                             f"{len(table.rows)} rows where its metadata "
                             f"fixes {expected}: is it cut short?")
        return table


def _fixed_row_count(metadata):
    """The row count that a table's metadata fixes by its kind, or None
    for a table of no known kind."""
    kind = metadata.get("table") if isinstance(metadata, dict) else None
    try:
        if kind == "grid":
            return int(metadata["grid"]["n"]) ** 2
        if kind in ("rates", "asymmetry"):
            return len(metadata["x_nm"])
        if kind == "pattern":
            return int(metadata["pattern"]["n_angles"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{kind} table: its metadata does not give its "
                         "row count") from None
    return None


def _tool_version() -> str:
    from . import __version__
    return __version__


def _base_metadata(req: SweepRequest, kind: str) -> dict:
    u = req.dipole.u
    return {
        "table": kind,
        "tool": {"name": "surfemit", "version": _tool_version()},
        "config": {"n1": req.config.n1, "lambda0_nm": req.config.lambda0_nm},
        "dipole": [float(v) for pair in zip(u.real, u.imag) for v in pair],
        "quadrature": {"rtol": req.quad.rtol, "atol": req.quad.atol,
                       "max_subdivisions": req.quad.max_subdivisions},
    }


def sweep_rates(req: SweepRequest) -> ResultTable:
    """Full RateReport at every requested distance, one row per x.

    All heights share adaptive quadrature panels (rates.rate_columns).
    The status column is 0 for a clean row and 1 when the quadrature
    failed to converge there (rate cells are then NaN).
    """
    xs = np.sort(np.asarray(req.x_nm, dtype=float))
    values, _, _, passed = rate_columns(req.config, req.dipole, xs, req.quad)
    passed = passed.all(axis=1)
    values[~passed] = math.nan
    status = (~passed).astype(float)
    meta = _base_metadata(req, "rates")
    meta["x_nm"] = xs.tolist()
    return ResultTable(columns=("x_nm", "status") + RateReport.COLUMNS,
                       rows=np.column_stack([xs, status, values]),
                       metadata=meta)


_ASYMMETRY_COLUMNS = ("x_nm", "status", "delta_evan", "delta_rad",
                      "delta_total", "zeta_evan", "zeta_rad", "zeta_total")


def sweep_asymmetry(req: SweepRequest) -> ResultTable:
    """Side differences and asymmetry factors at every distance: a
    column subset of the sweep_rates table."""
    full = sweep_rates(req)
    return ResultTable(
        columns=_ASYMMETRY_COLUMNS,
        rows=np.column_stack([full.column(c) for c in _ASYMMETRY_COLUMNS]),
        metadata=dict(full.metadata, table="asymmetry"))


# Kernel scratch is about 450 B per grid point, so blocks of 2^11 points
# keep a `density` process within about 1.3 MB of traced memory at any
# grid_n (2^12: 2.2 MB).  The kernels of a 208^2 grid take 10 ms in such
# blocks, 15 ms in blocks of 2^10 and 12 ms as one block.
_GRID_BLOCK_POINTS = 1 << 11


def _grid_layout(req: SweepRequest):
    """Columns, metadata and kappa axis of req's grid_density table."""
    channels = req.channels if req.channels is not None else GRID_CHANNELS
    extent = req.grid_extent if req.grid_extent is not None else req.config.n1
    meta = _base_metadata(req, "grid")
    meta["grid"] = {"n": req.grid_n, "extent": extent,
                    "x_nm": req.x_fixed_nm, "channels": list(channels)}
    return (("kappa_y", "kappa_z", "region") + tuple(channels), meta,
            np.linspace(-extent, extent, req.grid_n))


def _grid_blocks(req: SweepRequest):
    """Yield the rows of the grid_density table of req in order, in
    blocks of whole grid rows of at most about _GRID_BLOCK_POINTS points
    (at least one grid row), so the kernels' scratch is one block's."""
    columns, _, axis = _grid_layout(req)
    step = max(1, _GRID_BLOCK_POINTS // req.grid_n)
    for start in range(0, req.grid_n, step):
        yield _grid_block(req, columns, axis[start:start + step], axis)


def _grid_block(req: SweepRequest, columns, ys, zs) -> np.ndarray:
    """The table rows of the grid points (ys x zs), kappa_y major."""
    cfg = req.config
    # the block is allocated once; every column is written in place
    data = np.full((len(ys) * len(zs), len(columns)), math.nan)
    cells = data.reshape(len(ys), len(zs), len(columns))
    cells[:, :, 0] = ys[:, None]
    cells[:, :, 1] = zs[None, :]
    ky, kz, region = data[:, 0], data[:, 1], data[:, 2]
    col = {name: data[:, 3 + k] for k, name in enumerate(columns[3:])}
    kappa = np.hypot(ky, kz)
    phi = np.arctan2(kz, ky)

    boundary = np.abs(kappa - 1.0) <= _KAPPA_SNAP
    region[:] = np.select(
        [boundary, kappa < 1.0, kappa <= cfg.n1 + _KAPPA_SNAP],
        [REGION_BOUNDARY, REGION_RADIATION, REGION_EVANESCENT], REGION_OUT)
    emask, rmask = _REGION_FAMILIES[region.astype(np.intp) + 1].T

    if np.any(emask):
        xi_e = np.where(boundary[emask], 0.0,
                        np.sqrt(np.maximum(kappa[emask] ** 2 - 1.0, 0.0)))
        xi_e = np.minimum(xi_e, cfg.xi_max)
        found = dict(zip(GRID_CHANNELS[:3],
                         f_evan(cfg, req.dipole, xi_e, phi[emask],
                                req.x_fixed_nm)))
        for name in col.keys() & found.keys():
            col[name][emask] = found[name]

    if np.any(rmask):
        xi_r = np.where(boundary[rmask], 0.0,
                        np.sqrt(np.maximum(1.0 - kappa[rmask] ** 2, 0.0)))
        breakdown = f_rad(cfg, req.dipole, xi_r, phi[rmask], req.x_fixed_nm)
        for name in col.keys() & set(GRID_CHANNELS[3:]):
            col[name][rmask] = getattr(breakdown, name)
    return data


def _render_grid(req: SweepRequest, fmt: str):
    """Yield grid_density(req).render(fmt) from _grid_blocks: each row's
    format holds its axis and region text, rendered once, and the NaN
    token in each channel that its region does not compute."""
    columns, meta, values = _grid_layout(req)
    n = req.grid_n
    axis = ["%.17g," % v for v in values]
    computed = _REGION_FAMILIES[:, [int(name in GRID_CHANNELS[3:])
                                    for name in columns[3:]]]
    step = _BLOCK_CELLS // len(columns)

    def pieces(opener, closer, sep):
        nan = "null" if fmt == "json" else "nan"
        tails = ["%.17g" % (k - 1.0)
                 + "".join("," + ("%.17g" if c else nan) for c in row)
                 + closer for k, row in enumerate(computed)]
        at = 0
        for block in _grid_blocks(req):
            for i in range(0, len(block), step):
                rows = block[i:i + step]
                code = rows[:, 2].astype(np.intp) + 1
                # no name holds the piece's text while the kernels run
                yield sep.join(
                    [opener + axis[g // n] + axis[g % n] + tails[k]
                     for g, k in enumerate(code.tolist(), at)]
                ) % tuple(rows[:, 3:][computed[code]].tolist())
                at += len(rows)

    return _framed(columns, meta, fmt, pieces)


def grid_density(req: SweepRequest) -> ResultTable:
    """Angular densities on a square (kappa_y, kappa_z) grid.

    The region column is a sentinel: -1 outside the light cone of the
    dielectric (all channels NaN), 0 on the radiation branch, 1 on the
    evanescent branch, 2 within 1e-9 of the branch point kappa = 1
    (both families evaluated at xi = 0, where they agree with the
    common limit).  Channels that do not apply to a row's branch are
    NaN.
    """
    columns, meta, _ = _grid_layout(req)
    data = np.empty((req.grid_n ** 2, len(columns)))
    at = 0
    for block in _grid_blocks(req):
        data[at:at + len(block)] = block
        at += len(block)
    return ResultTable(columns=columns, rows=data, metadata=meta)


def scan_pattern(req: SweepRequest) -> ResultTable:
    """Far-field pattern sampled around a great circle of directions.

    The scan plane is xz or xy; n_angles directions are sampled
    uniformly around the circle.  Each row carries the polar angle
    theta (from the +x surface normal), the azimuth phi (from +y in
    the interface plane), a zone code (0 vacuum-side radiation,
    1 forbidden-zone transmission, 2 dielectric-side allowed
    radiation) and the pattern value per solid angle.
    """
    cfg = req.config
    psi = 2.0 * np.pi * np.arange(req.n_angles) / req.n_angles
    cos_theta = np.cos(psi)
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    in_plane = np.sin(psi)
    if req.plane == "xz":
        phi = np.where(in_plane >= 0.0, 0.5 * np.pi, -0.5 * np.pi)
    else:
        phi = np.where(in_plane >= 0.0, 0.0, np.pi)

    theta_cut = np.pi - critical_theta(cfg)
    zone = np.where(theta <= 0.5 * np.pi, ZONE_CODES["rad_vacuum"],
                    np.where(theta <= theta_cut, ZONE_CODES["evan_forbidden"],
                             ZONE_CODES["rad_material"]))
    p = np.empty(theta.shape)
    for name, code in ZONE_CODES.items():
        mask = zone == code
        if np.any(mask):
            p[mask] = pattern(cfg, req.dipole, theta[mask], phi[mask],
                              req.x_fixed_nm, name)

    order = np.lexsort((phi, theta))
    data = np.column_stack([theta, phi, zone, p])[order]
    meta = _base_metadata(req, "pattern")
    meta["pattern"] = {"plane": req.plane, "n_angles": req.n_angles,
                       "x_nm": req.x_fixed_nm}
    return ResultTable(columns=("theta", "phi", "zone", "p"), rows=data,
                       metadata=meta)
