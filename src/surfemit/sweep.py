"""Batch evaluation over distances, wave-vector grids and pattern scans.

Results are returned as ResultTable: a flat named-column float table
with a JSON-serializable metadata block.  Tables serialize to CSV (a
`#`-prefixed two-line metadata header followed by a normal header row)
and to a JSON document {format, metadata, columns, rows}.  Floats are
rendered with 17 significant digits in both formats, so a parse-render
cycle is lossless; NaN cells become "nan" in CSV and null in JSON.

Row order is deterministic: ascending x for distance sweeps,
lexicographic (kappa_y, kappa_z) for grids, lexicographic (theta, phi)
for pattern scans.  Re-running a request yields a byte-identical table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .density import (DensityBreakdown, DipolePolarization, critical_theta,
                      f_evan, f_rad, pattern)
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

ZONE_CODES = {"rad_vacuum": 0.0, "evan_forbidden": 1.0, "rad_material": 2.0}

_KAPPA_SNAP = 1e-9


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
        if self.grid_n < 16:
            raise ValueError("grid_n must be at least 16")
        if self.grid_extent is not None and not self.grid_extent > 0.0:
            raise ValueError("grid_extent must be positive")
        if self.plane not in ("xz", "xy"):
            raise ValueError(f"plane must be 'xz' or 'xy', got {self.plane!r}")
        if self.n_angles < 4:
            raise ValueError("n_angles must be at least 4")
        check_height(self.x_fixed_nm, "x_fixed_nm")
        if self.channels is not None:
            bad = set(self.channels) - set(GRID_CHANNELS)
            if bad:
                raise ValueError(f"unknown grid channels: {sorted(bad)}")
            object.__setattr__(
                self, "channels",
                tuple(c for c in GRID_CHANNELS if c in set(self.channels)))

    @staticmethod
    def x_values(start: float, stop: float, step: float) -> tuple:
        """Inclusive arithmetic distance grid start:stop:step (nm)."""
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("start, stop and step must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if stop < start:
            raise ValueError("empty x range: stop < start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(float(start + step * i) for i in range(count))


def _format_float(v: float) -> str:
    return format(float(v), ".17g")


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

    def to_csv(self) -> str:
        lines = [
            f"# {TABLE_MAGIC}",
            "# " + json.dumps(self.metadata, sort_keys=True,
                              separators=(",", ":")),
            ",".join(self.columns),
        ]
        for row in self.rows:
            lines.append(",".join(_format_float(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3 or lines[0].lstrip("# ").strip() != TABLE_MAGIC:
            raise ValueError("not a recognized table: missing magic line")
        metadata = json.loads(lines[1].lstrip("#").strip())
        columns = tuple(lines[2].split(","))
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[3:]]
        return cls(columns=columns,
                   rows=np.array(rows, dtype=float).reshape(-1, len(columns)),
                   metadata=metadata)

    def to_json(self) -> str:
        meta = json.dumps(self.metadata, sort_keys=True, separators=(",", ":"))
        cols = json.dumps(list(self.columns), separators=(",", ":"))
        rendered = []
        for row in self.rows:
            cells = ",".join(
                "null" if math.isnan(v) else _format_float(v) for v in row)
            rendered.append("[" + cells + "]")
        body = "[" + ",".join(rendered) + "]"
        return ('{"format":"%s","metadata":%s,"columns":%s,"rows":%s}\n'
                % (TABLE_MAGIC, meta, cols, body))

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        doc = json.loads(text)
        if doc.get("format") != TABLE_MAGIC:
            raise ValueError("not a recognized table: bad format field")
        columns = tuple(doc["columns"])
        rows = [[math.nan if v is None else float(v) for v in row]
                for row in doc["rows"]]
        return cls(columns=columns,
                   rows=np.array(rows, dtype=float).reshape(-1, len(columns)),
                   metadata=doc["metadata"])


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
    values, passed = rate_columns(req.config, req.dipole, xs, req.quad)
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


def grid_density(req: SweepRequest) -> ResultTable:
    """Angular densities on a square (kappa_y, kappa_z) grid.

    The region column is a sentinel: -1 outside the light cone of the
    dielectric (all channels NaN), 0 on the radiation branch, 1 on the
    evanescent branch, 2 within 1e-9 of the branch point kappa = 1
    (both families evaluated at xi = 0, where they agree with the
    common limit).  Channels that do not apply to a row's branch are
    NaN.
    """
    cfg = req.config
    channels = req.channels if req.channels is not None else GRID_CHANNELS
    extent = req.grid_extent if req.grid_extent is not None else cfg.n1
    axis = np.linspace(-extent, extent, req.grid_n)
    ky = np.repeat(axis, req.grid_n)
    kz = np.tile(axis, req.grid_n)
    kappa = np.hypot(ky, kz)
    phi = np.arctan2(kz, ky)

    boundary = np.abs(kappa - 1.0) <= _KAPPA_SNAP
    out = (kappa > cfg.n1 + _KAPPA_SNAP) & ~boundary
    rad = (kappa < 1.0) & ~boundary
    evan = ~out & ~rad & ~boundary

    region = np.full(kappa.shape, REGION_OUT)
    region[rad] = REGION_RADIATION
    region[evan] = REGION_EVANESCENT
    region[boundary] = REGION_BOUNDARY

    values = {name: np.full(kappa.shape, math.nan) for name in GRID_CHANNELS}

    emask = evan | boundary
    if np.any(emask):
        xi_e = np.where(boundary, 0.0,
                        np.sqrt(np.maximum(kappa ** 2 - 1.0, 0.0)))
        xi_e = np.minimum(xi_e, cfg.xi_max)
        f_s, f_p, f_tot = f_evan(cfg, req.dipole, xi_e[emask], phi[emask],
                                 req.x_fixed_nm)
        values["f_evan_s"][emask] = f_s
        values["f_evan_p"][emask] = f_p
        values["f_evan"][emask] = f_tot

    rmask = rad | boundary
    if np.any(rmask):
        xi_r = np.where(boundary, 0.0,
                        np.sqrt(np.maximum(1.0 - kappa ** 2, 0.0)))
        breakdown = f_rad(cfg, req.dipole, xi_r[rmask], phi[rmask],
                          req.x_fixed_nm)
        for name in GRID_CHANNELS[3:]:
            values[name][rmask] = getattr(breakdown, name)

    columns = ("kappa_y", "kappa_z", "region") + tuple(channels)
    data = np.column_stack([ky, kz, region]
                           + [values[name] for name in channels])
    meta = _base_metadata(req, "grid")
    meta["grid"] = {"n": req.grid_n, "extent": extent,
                    "x_nm": req.x_fixed_nm, "channels": list(channels)}
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
