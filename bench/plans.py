"""Seeded request streams for the three benchmark workloads.

Every workload is an endless stream of blocks.  A block is a small
stratified sample of the workload's input space (each stratum drawn
once, in a seeded order), so a run of whole blocks always sees the same
mix of cheap and expensive requests, whatever the seed.  The seed only
moves values within their strata.  The program only ever sees the
generated requests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

LAMBDA0_NM = 852.0
PAPER_N1 = 1.45
PRESETS = ("x", "y", "z", "theta-xz", "eps-xz")

# sweep-near: the request the CLI's `rates` command makes by default,
# x = 0:800:2 (401 rows), with each height jittered within its own bin:
# 401 equal bins of 0-800 nm, one height in each.
NEAR_ROWS = 401
NEAR_RANGE_NM = (0.0, 800.0)
# sweep-far: fixed log-spaced heights from one wavelength to 1 mm.  The
# 1 mm row hits the documented quadrature stall for every dipole.
FAR_HEIGHTS_NM = tuple(float(x) for x in np.geomspace(LAMBDA0_NM, 1e6, 4))
FAR_N1_RANGE = (1.3, 2.5)
# cli-tables: a density grid in each of six contiguous grid_n strata,
# CSV and JSON by turns, and a pattern scan in each format; planes are
# seeded.
FORMATS = ("csv", "json")
GRID_N_STRATA = ((128, 159), (160, 191), (192, 223), (224, 255),
                 (256, 287), (288, 320))
N_THETA_RANGE = (360, 3600)
HEIGHT_RANGE_NM = (0.0, 800.0)


@dataclass(frozen=True)
class SweepCase:
    """One sweep_rates request.  dipole uses the CLI's text form."""

    n1: float
    dipole: str
    x_nm: tuple

    @property
    def rows(self) -> int:
        return len(self.x_nm)


@dataclass(frozen=True)
class CliCase:
    """One `surfemit` process.  argv lacks --out, which the runner adds."""

    kind: str          # "density" or "pattern"
    dipole: str
    x_nm: float
    size: int          # grid_n for density, n_theta for pattern
    fmt: str           # "csv" or "json"
    plane: str = "xz"

    @property
    def rows(self) -> int:
        return self.size ** 2 if self.kind == "density" else self.size

    @property
    def argv(self) -> tuple:
        # "=" keeps argparse from reading a negative dipole component
        # as an option
        args = [self.kind, f"--dipole={self.dipole}", f"--x-nm={self.x_nm!r}",
                f"--format={self.fmt}"]
        if self.kind == "density":
            args.append(f"--grid-n={self.size}")
        else:
            args += [f"--n-theta={self.size}", f"--plane={self.plane}"]
        return tuple(args)


@dataclass(frozen=True)
class Block:
    """One stratified block of requests plus the gate's sample draw.

    check_pick selects the request whose rows the oracle checks (sweeps)
    or which is repeated for byte identity (cli-tables); check_u in
    [0, 1) selects the row among that request's converged rows.
    """

    cases: tuple
    check_pick: int
    check_u: float


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _elliptic_dipole(rng) -> str:
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    return ",".join(repr(float(v)) for c in u for v in (c.real, c.imag))


def _dipoles(rng, count: int) -> list:
    """All presets plus random elliptic unit vectors, in seeded order."""
    picks = list(PRESETS) + [_elliptic_dipole(rng)
                             for _ in range(count - len(PRESETS))]
    return [picks[i] for i in rng.permutation(count)]


def _near_block(rng) -> tuple:
    lo, hi = NEAR_RANGE_NM
    width = (hi - lo) / NEAR_ROWS
    cases = []
    for dipole in _dipoles(rng, 8):
        xs = lo + width * (np.arange(NEAR_ROWS) + rng.random(NEAR_ROWS))
        cases.append(SweepCase(PAPER_N1, dipole, tuple(float(x) for x in xs)))
    return tuple(cases)


def _far_block(rng) -> tuple:
    lo, hi = FAR_N1_RANGE
    strata = rng.permutation(8)
    return tuple(
        SweepCase(float(lo + (hi - lo) * (k + rng.random()) / 8), dipole,
                  FAR_HEIGHTS_NM)
        for k, dipole in zip(strata, _dipoles(rng, 8)))


def _cli_block(rng) -> tuple:
    lo, hi = HEIGHT_RANGE_NM
    dipoles = iter(_dipoles(rng, 8))
    cases = [CliCase("density", next(dipoles), float(rng.uniform(lo, hi)),
                     int(rng.integers(a, b + 1)), FORMATS[k % 2])
             for k, (a, b) in enumerate(GRID_N_STRATA)]
    cases += [CliCase("pattern", next(dipoles), float(rng.uniform(lo, hi)),
                      int(rng.integers(N_THETA_RANGE[0], N_THETA_RANGE[1] + 1)),
                      fmt, str(rng.choice(("xz", "xy"))))
              for fmt in FORMATS]
    return tuple(cases[i] for i in rng.permutation(len(cases)))


_BLOCK_MAKERS = {"sweep-near": _near_block, "sweep-far": _far_block,
                 "cli-tables": _cli_block}
WORKLOADS = tuple(_BLOCK_MAKERS)


def blocks(workload: str, seed: int):
    """Endless seeded stream of Blocks for one workload."""
    make = _BLOCK_MAKERS[workload]
    rng = _rng(workload, seed)
    while True:
        cases = make(rng)
        yield Block(cases, int(rng.integers(len(cases))), float(rng.random()))


def first_blocks(workload: str, seed: int, count: int) -> list:
    stream = blocks(workload, seed)
    return [next(stream) for _ in range(count)]
