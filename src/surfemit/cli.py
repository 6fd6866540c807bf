"""Command-line front end.

Subcommands: rates (distance sweep), density (wave-vector grid),
pattern (direction scan), asymmetry (directionality sweep), validate
(self-check suite).  All physics flags can also come from a JSON config
file via --config; explicit flags win on conflict.  Tables go to --out
or stdout as CSV or JSON and are byte-identical across repeat runs.

Exit codes: 0 success, 1 domain or usage errors, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from .density import DIPOLE_PRESETS, DipolePolarization
from .optics import InterfaceConfig
from .quadrature import QuadratureSpec
from .sweep import (SweepRequest, _grid_blocks, _grid_layout, _render_rows,
                    scan_pattern, sweep_asymmetry, sweep_rates)
# grid_density is unused here: bench/ traces it as cli's own
from .sweep import grid_density  # noqa: F401
from .vectens import vector_norm


class CliError(Exception):
    """One-line user-facing diagnostic; maps to exit code 1."""


# the flag that sets each SweepRequest field the CLI fills
_FIELD_FLAGS = {"x_nm": "--x-nm", "x_fixed_nm": "--x-nm", "grid_n": "--grid-n",
                "grid_extent": "--grid-extent", "plane": "--plane",
                "n_angles": "--n-theta"}


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n1", type=float, default=None,
                     help="refractive index of the dielectric (default 1.45)")
    sub.add_argument("--wavelength-nm", type=float, default=None,
                     help="free-space transition wavelength in nm "
                          "(default 852)")
    sub.add_argument("--dipole", default=None,
                     help="dipole polarization: preset "
                          "{x,y,z,theta-xz,eps-xz} or six reals "
                          "re_x,im_x,re_y,im_y,re_z,im_z")
    sub.add_argument("--rtol", type=float, default=None,
                     help="quadrature relative tolerance")
    sub.add_argument("--atol", type=float, default=None,
                     help="quadrature absolute tolerance")
    sub.add_argument("--max-subdivisions", type=int, default=None,
                     help="quadrature panel budget")
    sub.add_argument("--config", default=None,
                     help="JSON file with default flag values "
                          "(explicit flags win)")


def _add_output_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfemit",
        description="Spontaneous-emission rates, mode densities and "
                    "far-field patterns for a dipole emitter near a flat "
                    "dielectric surface.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("rates", help="rate sweep over emitter distance")
    _add_common_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--x-nm", default=None,
                    help="distances in nm: start:stop:step or a comma list")

    sp = subs.add_parser("asymmetry",
                         help="directional differences and asymmetry "
                              "factors over distance")
    _add_common_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--x-nm", default=None,
                    help="distances in nm: start:stop:step or a comma list")

    sp = subs.add_parser("density",
                         help="angular density grid in the wave-vector "
                              "plane")
    _add_common_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--x-nm", default=None,
                    help="emitter distance in nm (single value)")
    sp.add_argument("--grid-n", type=int, default=None,
                    help="grid points per axis (default 64)")
    sp.add_argument("--grid-extent", type=float, default=None,
                    help="half-width of the grid in kappa units "
                         "(default n1; 1.0 restricts to radiation modes)")

    sp = subs.add_parser("pattern", help="far-field pattern around a "
                                         "great circle")
    _add_common_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--x-nm", default=None,
                    help="emitter distance in nm (single value)")
    sp.add_argument("--plane", choices=("xz", "xy"), default=None,
                    help="scan plane (default xz)")
    sp.add_argument("--n-theta", type=int, default=None,
                    help="number of directions around the circle "
                         "(default 360)")

    sp = subs.add_parser("validate", help="run the self-check suite")
    _add_common_flags(sp)
    sp.add_argument("--seed", type=int, default=None,
                    help="random seed for the check suite")
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
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return fallback


def _number(args, file_cfg: dict, key: str, fallback, kind=float):
    """A numeric setting, converted by kind; a value that does not
    convert is a CliError naming its flag.  An optional setting (fallback
    None) that is left unset stays None."""
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
    if text == "":
        return ()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("--x-nm: range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise CliError(f"--x-nm: {exc}") from exc
        try:
            return SweepRequest.x_values(start, stop, step)
        except ValueError as exc:
            raise CliError(f"--x-nm: {exc}") from exc
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(f"--x-nm: {exc}") from exc


def _parse_x_single(text) -> float:
    try:
        return float(str(text).strip())
    except ValueError as exc:
        raise CliError(f"--x-nm: {exc}") from exc


def _build_interface(args, file_cfg) -> InterfaceConfig:
    n1 = _number(args, file_cfg, "n1", 1.45)
    lam = _number(args, file_cfg, "wavelength_nm", 852.0)
    try:
        return InterfaceConfig(n1=n1, lambda0_nm=lam)
    except ValueError as exc:
        raise CliError(f"--n1/--wavelength-nm: {exc}") from exc


def _build_quad(args, file_cfg) -> QuadratureSpec:
    defaults = QuadratureSpec()
    rtol = _number(args, file_cfg, "rtol", defaults.rtol)
    atol = _number(args, file_cfg, "atol", defaults.atol)
    budget = _number(args, file_cfg, "max_subdivisions",
                     defaults.max_subdivisions, int)
    try:
        return QuadratureSpec(rtol=rtol, atol=atol, max_subdivisions=budget)
    except ValueError as exc:
        raise CliError(f"--rtol/--atol/--max-subdivisions: {exc}") from exc


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
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        file_cfg = _load_config_file(config_path)
    cfg = _build_interface(args, file_cfg)
    quad = _build_quad(args, file_cfg)

    if args.subcommand == "validate":
        # the check suite is imported only when asked for
        from .validation import DEFAULT_SEED, format_report, run_checks
        seed = _number(args, file_cfg, "seed", DEFAULT_SEED, int)
        results = run_checks(cfg, quad, seed=seed)
        sys.stdout.write(format_report(results))
        return 0 if all(r.passed for r in results) else 2

    dipole = _parse_dipole(_pick(args, file_cfg, "dipole", "x"))
    try:
        if args.subcommand in ("rates", "asymmetry"):
            x_values = _parse_x_values(_pick(args, file_cfg, "x_nm",
                                             "0:800:2"))
            req = SweepRequest(config=cfg, dipole=dipole, x_nm=x_values,
                               quad=quad)
            table = (sweep_rates(req) if args.subcommand == "rates"
                     else sweep_asymmetry(req))
        elif args.subcommand == "density":
            req = SweepRequest(
                config=cfg, dipole=dipole, quad=quad,
                grid_n=_number(args, file_cfg, "grid_n", 64, int),
                grid_extent=_number(args, file_cfg, "grid_extent", None),
                x_fixed_nm=_parse_x_single(_pick(args, file_cfg, "x_nm",
                                                 0.0)))
            table = None
        else:
            req = SweepRequest(
                config=cfg, dipole=dipole, quad=quad,
                plane=str(_pick(args, file_cfg, "plane", "xz")),
                n_angles=_number(args, file_cfg, "n_theta", 360, int),
                x_fixed_nm=_parse_x_single(_pick(args, file_cfg, "x_nm",
                                                 0.0)))
            table = scan_pattern(req)
    except (TypeError, ValueError) as exc:
        # a SweepRequest message starts with the field it rejects
        flag = _FIELD_FLAGS.get(str(exc).split(" ", 1)[0])
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
