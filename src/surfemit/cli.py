"""Command-line front end.

Subcommands: rates (distance sweep), asymmetry (directionality sweep),
density (wave-vector grid), pattern (direction scan) and validate
(self-check suite).  One table, _SUBCOMMANDS, gives every subcommand its
flags.  Flag values arrive as text: this module converts them, the
library checks them, and any bad value ends in the one line
`error: <flag>: <message>` with exit code 1.  All physics flags can also
come from a JSON config file via --config; explicit flags win on
conflict.  Tables go to --out or stdout as CSV or JSON and are
byte-identical across repeat runs.

Exit codes: 0 success, 1 domain or usage errors, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

from .density import DIPOLE_PRESETS, DipolePolarization, vector_norm
from .optics import InterfaceConfig
from .quadrature import QuadratureSpec
from .sweep import (SweepRequest, _grid_blocks, _grid_layout, _render_rows,
                    scan_pattern, sweep_asymmetry, sweep_rates)
# grid_density is unused here: bench/ traces it as cli's own
from .sweep import grid_density  # noqa: F401


class CliError(Exception):
    """One-line user-facing diagnostic; maps to exit code 1."""


# Every subcommand's help line and flags (flag -> help), from the
# physics flags that all of them take and the table flags of the four
# that write a table.
_PHYSICS = {
    "--n1": "refractive index of the dielectric (default 1.45)",
    "--wavelength-nm": "free-space transition wavelength in nm (default 852)",
    "--rtol": "quadrature relative tolerance",
    "--atol": "quadrature absolute tolerance",
    "--max-subdivisions": "quadrature panel budget",
    "--config": "JSON file with default flag values (explicit flags win)",
}
_TABLE = {
    **_PHYSICS,
    "--dipole": "dipole polarization: preset {x,y,z,theta-xz,eps-xz} or "
                "six reals re_x,im_x,re_y,im_y,re_z,im_z",
    "--out": "output path (default: stdout)",
    "--format": "output format, csv or json (default csv)",
}
_SWEEP_X = {"--x-nm": "distances in nm: start:stop:step or a comma list"}
_FIXED_X = {"--x-nm": "emitter distance in nm (single value)"}
_SUBCOMMANDS = {
    "rates": ("rate sweep over emitter distance", {**_TABLE, **_SWEEP_X}),
    "asymmetry": ("directional differences and asymmetry factors over "
                  "distance", {**_TABLE, **_SWEEP_X}),
    "density": ("angular density grid in the wave-vector plane", {
        **_TABLE, **_FIXED_X,
        "--grid-n": "grid points per axis (default 64)",
        "--grid-extent": "half-width of the grid in kappa units (default "
                         "n1; 1.0 restricts to radiation modes)"}),
    "pattern": ("far-field pattern around a great circle", {
        **_TABLE, **_FIXED_X,
        "--plane": "scan plane, xz or xy (default xz)",
        "--n-theta": "number of directions around the circle "
                     "(default 360)"}),
    "validate": ("run the self-check suite",
                 {**_PHYSICS, "--seed": "random seed for the check suite"}),
}

# The flag that sets each library field the CLI fills: a library
# ValueError whose message starts with a field names that flag.
_FIELD_FLAGS = {"n1": "--n1", "lambda0_nm": "--wavelength-nm",
                "rtol": "--rtol", "atol": "--atol",
                "max_subdivisions": "--max-subdivisions",
                "x_nm": "--x-nm", "x_fixed_nm": "--x-nm",
                "grid_n": "--grid-n", "grid_extent": "--grid-extent",
                "plane": "--plane", "n_angles": "--n-theta"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfemit",
        description="Spontaneous-emission rates, mode densities and "
                    "far-field patterns for a dipole emitter near a flat "
                    "dielectric surface.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for flag, text in flags.items():
            sub.add_argument(flag, help=text)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"--config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"--config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("--config: file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _pick(args, file_cfg: dict, key: str, fallback):
    value = getattr(args, key, None)
    return value if value is not None else file_cfg.get(key, fallback)


def _number(args, file_cfg: dict, key: str, fallback, kind=float):
    """A numeric setting converted by kind, or None for an unset optional
    one (fallback None); a value that does not convert names its flag."""
    value = _pick(args, file_cfg, key, fallback)
    if value is None and fallback is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise CliError(f"--{key.replace('_', '-')}: expected a number, "
                       f"got {value!r}") from None


def _parse_dipole(text) -> DipolePolarization:
    text = str(text).strip()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if text in DIPOLE_PRESETS:
            return DipolePolarization.from_preset(text)
        parts = text.split(",")
        if len(parts) != 6:
            raise CliError(
                "--dipole: expected a preset {x,y,z,theta-xz,eps-xz} or six "
                "comma-separated reals re_x,im_x,re_y,im_y,re_z,im_z")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CliError(f"--dipole: {exc}") from exc
        u = [complex(vals[0], vals[1]), complex(vals[2], vals[3]),
             complex(vals[4], vals[5])]
        norm = vector_norm(u)
        if not 0.0 < norm < math.inf:
            raise CliError("--dipole: dipole must be nonzero and finite")
        if abs(norm - 1.0) > 1e-9:
            print(f"note: --dipole norm {norm:.6g} was normalized to 1",
                  file=sys.stderr)
        return DipolePolarization(u)


def _parse_x_values(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    text = str(text).strip()
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(",")) if text else ()
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must be start:stop:step")
        return SweepRequest.x_values(*(float(p) for p in parts))
    except ValueError as exc:
        raise CliError(f"--x-nm: {exc}") from exc


def _emit(columns, metadata, blocks, args, file_cfg) -> int:
    """Write the table given by its row blocks to --out or stdout a
    rendered block at a time."""
    fmt = _pick(args, file_cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise CliError(f"--format: must be csv or json, got {fmt!r}")
    out = _pick(args, file_cfg, "out", None)
    if out is not None and not isinstance(out, str):
        raise CliError(f"--out: expected a path, got {out!r}")
    pieces = _render_rows(columns, metadata, blocks, fmt)
    if out is None:
        sys.stdout.writelines(pieces)
        return 0
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise CliError(f"--out: cannot write {out}: {exc}") from exc
    return 0


def _dispatch(args) -> int:
    file_cfg = {} if args.config is None else _load_config_file(args.config)

    def number(key, fallback, kind=float):
        return _number(args, file_cfg, key, fallback, kind)

    default = QuadratureSpec()
    try:
        cfg = InterfaceConfig(n1=number("n1", 1.45),
                              lambda0_nm=number("wavelength_nm", 852.0))
        quad = QuadratureSpec(
            rtol=number("rtol", default.rtol),
            atol=number("atol", default.atol),
            max_subdivisions=number("max_subdivisions",
                                    default.max_subdivisions, int))
        if args.subcommand == "validate":
            # the check suite is imported only when asked for
            from .validation import DEFAULT_SEED, format_report, run_checks
            seed = number("seed", DEFAULT_SEED, int)
            if seed < 0:
                raise CliError(f"--seed: must be nonnegative, got {seed}")
            results = run_checks(cfg, quad, seed=seed)
            sys.stdout.write(format_report(results))
            return 0 if all(r.passed for r in results) else 2

        dipole = _parse_dipole(_pick(args, file_cfg, "dipole", "x"))
        if args.subcommand in ("rates", "asymmetry"):
            fields = {"x_nm": _parse_x_values(
                _pick(args, file_cfg, "x_nm", "0:800:2"))}
        elif args.subcommand == "density":
            fields = {"grid_n": number("grid_n", 64, int),
                      "grid_extent": number("grid_extent", None)}
        else:
            fields = {"plane": str(_pick(args, file_cfg, "plane", "xz")),
                      "n_angles": number("n_theta", 360, int)}
        if "x_nm" not in fields:
            fields["x_fixed_nm"] = number("x_nm", 0.0)
        req = SweepRequest(config=cfg, dipole=dipole, quad=quad, **fields)
        # a density grid is computed as it is written, by _emit
        compute = {"rates": sweep_rates, "asymmetry": sweep_asymmetry,
                   "pattern": scan_pattern}.get(args.subcommand)
        table = compute(req) if compute else None
    except (TypeError, ValueError) as exc:
        flag = _FIELD_FLAGS.get(re.match(r"\w*", str(exc)).group())
        raise CliError(f"{flag}: {exc}" if flag else str(exc)) from exc
    if table is None:
        # the grid goes from the kernels to the writer a block at a time
        return _emit(*_grid_layout(req), _grid_blocks(req), args, file_cfg)
    return _emit(table.columns, table.metadata, (table.rows,), args, file_cfg)


def run(argv=None) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
