"""surfemit benchmark: one seeded workload, timed end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-near --seed 1 --seconds 25 --trace 0

Workloads (see plans.py for the inputs and README.md for the reasons):

  sweep-near  sweep_rates at the paper's case, 401 heights in 0-800 nm
  sweep-far   sweep_rates at a new n1 each time, heights 1 wavelength-1 mm
  cli-tables  one `surfemit density|pattern --out` process per request

Every workload is a closed loop: one client, in this process, sends the
next request only after the previous one returned.  Each output goes
through the correctness gate (gate.py) outside the timed region.

The host's speed swings by up to 2x from one moment to the next, so a
fixed speed probe samples it around and during each timed section, and
times are counted in reference seconds: wall time scaled by PROBE_REF_S
over the mean probe time (see README.md, Steadiness).  A run takes
whole blocks of requests (see plans.py) until --seconds reference
seconds of request time have passed, so its request count does not
depend on the host's speed.  The package is imported from src/ next to
this directory; nothing needs installing.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each request of
a fixed number of blocks with the tracer (tracer.py) installed and then
again without, checks that both give byte-identical outputs, and prints
the per-layer metrics; its counts repeat exactly for a given seed.  It also re-times
the cases of the baseline table in ROADMAP.md.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a JSON
record of provenance and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import plans
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_RUNS = 5
IMPORT_RUNS = 3
BASELINE_RUNS = 3
CHILD_TIMEOUT_S = 60
TRACE_BLOCKS = {"sweep-near": 1, "sweep-far": 1, "cli-tables": 1}
# The probe's wall time at the slow speed of a shared 2-vCPU host
# (Python 3.11, numpy 2.4), where it swings between about 0.012 and
# 0.024 s: a timed section that ran at that speed reads its wall time,
# and a run seldom takes more than --seconds of wall time.
PROBE_REF_S = 0.024
# While a timed section runs, a thread takes a probe of this size every
# METER_EVERY_S on the same CPU, which costs the section about 2-3 %.
METER_SIZE = 0.05
METER_EVERY_S = 0.04
_PROBE_X = np.linspace(0.0, 1.0, 64)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# The console script's body, then the process's own peak RSS (VmHWM, in
# kB) on stdout.  ru_maxrss from wait4 would not do: Linux carries the
# parent's high-water mark across fork and exec into the child's.
CLI_MAIN = """\
import sys
from surfemit.cli import run
code = run()
with open("/proc/self/status") as status:
    print(next(ln.split()[1] for ln in status if ln.startswith("VmHWM:")))
sys.exit(code)
"""
IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import surfemit
print(repr(time.perf_counter() - t0))
"""
# Set-up: a fresh interpreter imports surfemit and makes its first call,
# which fills the static-moment cache (sweeps) or renders a first table.
SWEEP_SETUP = """\
import time
t0 = time.perf_counter()
import surfemit as s
s.sweep_rates(s.SweepRequest(config=s.InterfaceConfig(1.45, 852.0),
              dipole=s.DipolePolarization.from_preset("x"), x_nm=(100.0,)))
print(repr(time.perf_counter() - t0))
"""
CLI_SETUP = """\
import sys, time
t0 = time.perf_counter()
from surfemit.cli import run
code = run(["density", "--grid-n=16", "--out=" + sys.argv[1]])
print(repr(time.perf_counter() - t0))
sys.exit(code)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args):
    """Run python3 with args to completion: (seconds, exit code, stdout).

    The wall time runs from spawn to exit.  A child still running after
    CHILD_TIMEOUT_S is killed and reported by a nonzero code; on failure
    the last line of standard error joins the code.
    """
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, f"timeout after {CHILD_TIMEOUT_S} s", ""
    seconds = perf_counter() - t0
    code = proc.returncode
    err = proc.stderr.strip().splitlines()
    if code != 0 and err:
        code = f"{code} ({err[-1]})"
    return seconds, code, proc.stdout


def timed_child(code: str, *args) -> float:
    """Seconds the child reports for its own timed section."""
    _, exit_code, out = run_child(["-c", code, *args])
    if exit_code != 0:
        raise RuntimeError(f"set-up child exited with {exit_code}")
    return float(out.strip().splitlines()[-1])


def probe(size: float = 1.0) -> float:
    """Wall time of a fixed mix of interpreter loops and small-array
    numpy calls, like the program's own mix, per unit of size.  It
    touches no surfemit code, so a change to the program does not move
    it."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(int(20000 * size)):
        acc += (i * 0.5) % 7.0
    for i in range(int(1500 * size)):
        acc += float(np.sum(np.exp(-_PROBE_X * i) * np.cos(_PROBE_X)))
    return (perf_counter() - t0) / size


class Meter:
    """The host's speed over one timed section, from probes just before
    and just after it and from a thread that probes every METER_EVERY_S
    in between.  The benchmark is pinned to one CPU, so the samples see
    the CPU the section runs on, in this process or in a child."""

    def __init__(self):
        self.probes = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(METER_EVERY_S):
            self.probes.append(probe(METER_SIZE))

    def __enter__(self):
        self.probes.append(probe())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.probes.append(probe())

    @property
    def scale(self) -> float:
        """Turns a wall time of the section into reference seconds."""
        return PROBE_REF_S / statistics.fmean(self.probes)


def metered(fn, *args):
    """(fn(*args), the Meter that ran around it)."""
    with Meter() as meter:
        out = fn(*args)
    return out, meter


def median_of(fn, runs: int) -> float:
    return statistics.median(fn() for _ in range(runs))


def load_package():
    """Import surfemit from this checkout's src/, or exit with code 2."""
    init = SRC / "surfemit" / "__init__.py"
    if not init.is_file():
        print(f"bench: no surfemit sources at {init}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import surfemit
    import surfemit.cli  # noqa: F401  (the tracer rebinds cli attributes)
    if Path(surfemit.__file__).resolve() != init.resolve():
        print(f"bench: imported surfemit from {surfemit.__file__}, not "
              f"{init}", file=sys.stderr)
        sys.exit(2)
    return surfemit


def provenance() -> dict:
    info = {"git_rev": None, "git_dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60)

        rev = git("rev-parse", "HEAD")
        if rev.returncode == 0:
            info["git_rev"] = rev.stdout.strip()
            status = git("status", "--porcelain", "--untracked-files=no")
            info["git_dirty"] = bool(status.stdout.strip())
    import numpy
    info.update({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    })
    return info


@dataclass
class Result:
    seconds: float
    output: object = None       # ResultTable, or the Path of a CLI output
    error: str | None = None
    rss_kb: int = 0


class SweepWork:
    """sweep-near and sweep-far: in-process sweep_rates calls."""

    setup_code = SWEEP_SETUP

    def __init__(self, pkg, gate):
        self.pkg, self.gate = pkg, gate

    def request(self, case):
        return self.pkg.SweepRequest(config=self.gate.config(case.n1),
                                     dipole=self.gate.dipole(case.dipole),
                                     x_nm=case.x_nm)

    def run(self, case, tag="") -> Result:
        req = self.request(case)
        t0 = perf_counter()
        try:
            # looked up at call time, so a traced run sees the wrapper
            table = self.pkg.sweep.sweep_rates(req)
        except Exception:
            return Result(perf_counter() - t0,
                          error=traceback.format_exc(limit=3))
        return Result(perf_counter() - t0, table)

    run_inprocess = run

    def warm(self):
        self.pkg.sweep_rates(self.pkg.SweepRequest(
            config=self.gate.config(plans.PAPER_N1),
            dipole=self.gate.dipole("x"), x_nm=(100.0,)))

    def prepare(self, case):
        """Static-moment cache as the untraced loop meets it for case:
        warm at the paper's n1 (filled by warm()), else cold, since every
        other request brings a new n1."""
        if case.n1 != plans.PAPER_N1:
            self.pkg.rates._static_moments.cache_clear()

    def check(self, block, case, index, res):
        """(rows attempted, rows ok, problems) for one request."""
        ok, problems = self.gate.rate_rows(res.output)
        if index == block.check_pick:
            row = self.gate.pick_row(ok, block.check_u)
            if row is not None:
                bad = self.gate.oracle_row(case.n1, case.dipole, res.output,
                                           row)
                problems += bad
                ok[row] &= not bad
        return case.rows, int(ok.sum()), problems

    def output_bytes(self, res) -> bytes:
        return res.output.to_csv().encode()

    def process_s(self, cases, plain):
        return 0.0, []

    def peak_rss_kb(self, results) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def release(self, res):
        res.output = None


class CliWork:
    """cli-tables: one `surfemit` process per request, output to --out."""

    setup_code = CLI_SETUP

    def __init__(self, pkg, gate, work_dir: Path):
        self.pkg, self.gate, self.dir = pkg, gate, work_dir
        self.serial = 0
        self.repeats = 0

    def _out(self, case, tag) -> Path:
        self.serial += 1
        return self.dir / f"out{tag}-{self.serial}.{case.fmt}"

    def run(self, case, tag="") -> Result:
        out = self._out(case, tag)
        seconds, code, stdout = run_child(
            ["-c", CLI_MAIN, *case.argv, f"--out={out}"])
        if code != 0:
            return Result(seconds, out, f"exit code {code}: {case.argv}")
        return Result(seconds, out, rss_kb=int(stdout.split()[-1]))

    def run_inprocess(self, case, tag="") -> Result:
        out = self._out(case, tag)
        t0 = perf_counter()
        try:
            code = self.pkg.cli.run([*case.argv, f"--out={out}"])
        except Exception:
            return Result(perf_counter() - t0, out,
                          traceback.format_exc(limit=3))
        return Result(perf_counter() - t0, out,
                      None if code == 0 else f"exit code {code}")

    def warm(self):
        out = self.dir / "warm.csv"
        self.pkg.cli.run(["density", "--grid-n=16", f"--out={out}"])
        out.unlink()

    def prepare(self, case):
        pass

    def check(self, block, case, index, res):
        rows, problems = self.gate.cli_table(case, res.output.read_text())
        if index == block.check_pick and self.repeats == 0:
            # once per run: the same request again, in this process
            self.repeats += 1
            again = self.run_inprocess(case, "r")
            if again.error or (again.output.read_bytes()
                               != res.output.read_bytes()):
                problems.append("a repeated request gave different bytes")
                rows = 0
            again.output.unlink(missing_ok=True)
        return case.rows, rows, problems

    def output_bytes(self, res) -> bytes:
        return res.output.read_bytes()

    def process_s(self, cases, plain):
        """(median process wall time, problems): the same requests as
        processes, whose outputs must match the in-process ones."""
        times, problems = [], []
        for case, ref in zip(cases, plain):
            res = self.run(case, "p")
            if res.error or self.output_bytes(res) != self.output_bytes(ref):
                problems.append(f"process output differs from in-process "
                                f"output for {' '.join(case.argv)}")
            times.append(res.seconds)
            self.release(res)
        return statistics.median(times), problems

    def peak_rss_kb(self, results) -> float:
        """Median over requests of each process's own peak RSS."""
        return statistics.median(r.rss_kb for r in results)

    def release(self, res):
        if res.output is not None:
            res.output.unlink(missing_ok=True)


def tail(times):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 or fewer
    samples there is no such percentile; the maximum is returned with
    the count of samples beyond it, 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1), n - 1 - k


def measure(work, workload, seed, seconds, work_dir):
    """Untraced closed loop over whole blocks until `seconds` reference
    seconds of request time; end-to-end metrics."""

    setups, setups_wall, probes = [], [], []
    for _ in range(SETUP_RUNS):
        wall, meter = metered(timed_child, work.setup_code,
                              str(work_dir / "setup.csv"))
        setups.append(wall * meter.scale)
        setups_wall.append(wall)
        probes += meter.probes
    work.warm()
    results, times, problems = [], [], []
    attempted_rows = ok_rows = failed = 0
    busy = wall_busy = 0.0
    stream = plans.blocks(workload, seed)
    # busy is in reference seconds, so that every run holds about the same
    # number of requests, whatever the host's speed
    while busy < seconds:
        block = next(stream)
        for index, case in enumerate(block.cases):
            res, meter = metered(work.run, case)
            times.append(res.seconds * meter.scale)
            busy += times[-1]
            wall_busy += res.seconds
            probes += meter.probes
            if res.error:
                rows, rows_ok, bad = case.rows, 0, [res.error]
            else:
                rows, rows_ok, bad = work.check(block, case, index, res)
            attempted_rows += rows
            ok_rows += rows_ok
            if bad:
                failed += 1
                problems += bad
            work.release(res)
            results.append(res)
    tail_s, tail_pct, beyond = tail(times)
    walls = [r.seconds for r in results]
    metrics = {
        "rows_per_s": ok_rows / busy,
        "req_s_p50": statistics.median(times),
        "req_s_tail": tail_s,
        "ok_share": ok_rows / attempted_rows,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": work.peak_rss_kb(results) / 1024.0,
    }
    detail = {
        "requests": len(results), "busy_s": busy, "wall_busy_s": wall_busy,
        "rows_attempted": attempted_rows, "rows_ok": ok_rows,
        "failed_share": 1.0 - ok_rows / attempted_rows,
        "req_s_tail_percentile": tail_pct,
        "req_s_tail_samples_beyond": beyond,
        "setup_runs_s": setups,
        "probe_ref_s": PROBE_REF_S, "probe_s_p50": statistics.median(probes),
        "probe_s_min": min(probes), "probe_s_max": max(probes),
        # the same metrics in unscaled wall seconds
        "wall": {"rows_per_s": ok_rows / wall_busy,
                 "req_s_p50": statistics.median(walls),
                 "req_s_tail": tail(walls)[0],
                 "setup_s": statistics.median(setups_wall)},
    }
    return len(results), failed, problems, metrics, detail


def baseline(pkg, workload, work) -> list:
    """Re-time the ROADMAP baseline cases that load this workload's layers.

    Rows: (case, measured, ROADMAP value, unit).
    """
    s = pkg
    eps = s.DipolePolarization.from_preset("eps-xz")
    cfg = s.InterfaceConfig(1.45, 852.0)
    rows = []

    def clock(fn):
        def once():
            t0 = perf_counter()
            fn()
            return perf_counter() - t0
        return median_of(once, BASELINE_RUNS)

    def panels(fn):
        tracer = Tracer()
        with tracer.installed(s):
            fn()
        return tracer.counts["quadrature.panels"]

    if workload == "sweep-near":
        req = s.SweepRequest(config=cfg, dipole=eps,
                             x_nm=s.SweepRequest.x_values(0.0, 800.0, 2.0))
        call = lambda: s.sweep.sweep_rates(req)  # noqa: E731
        rows.append(("sweep_rates eps-xz x=0:800:2 (401 rows)",
                     clock(call), 0.686, "s"))
        rows.append(("  panels", panels(call), 4424, "panels"))
    elif workload == "sweep-far":
        for x, ms, n in ((150.0, 1.1, 6), (852.0, 2.5, 16),
                         (8520.0, 11.8, 94), (42600.0, 50.0, 412)):
            call = lambda x=x: s.sweep.rate_report(cfg, eps, x)  # noqa: E731
            rows.append((f"rate_report eps-xz x={x:g} nm",
                         1e3 * clock(call), ms, "ms"))
            rows.append(("  panels", panels(call), n, "panels"))
    else:
        grid = s.grid_density(s.SweepRequest(config=cfg, dipole=eps,
                                             grid_n=256))
        rows.append(("grid n=256 to_csv", clock(grid.to_csv), 1.06, "s"))
        rows.append(("grid n=256 to_json", clock(grid.to_json), 0.85, "s"))
        out = work.dir / "baseline.csv"
        rows.append(("CLI density --grid-n 256",
                     median_of(lambda: run_child(
                         ["-c", CLI_MAIN, "density", "--grid-n=256",
                          f"--out={out}"])[0], BASELINE_RUNS), 1.67, "s"))
        out.unlink(missing_ok=True)
        rows.append(("python3 -c 'import surfemit' (process)", median_of(
            lambda: run_child(["-c", "import surfemit"])[0], BASELINE_RUNS),
            0.34, "s"))
    return [{"case": c, "measured": m, "roadmap": r, "unit": u,
             "ratio": m / r} for c, m, r, u in rows]


def traced(work, workload, seed, pkg):
    """Fixed blocks traced, then replayed untraced; per-layer metrics."""
    blocks = plans.first_blocks(workload, seed, TRACE_BLOCKS[workload])
    indexed = [(b, i, case) for b in blocks for i, case in enumerate(b.cases)]
    cases = [case for _, _, case in indexed]
    work.warm()
    tracer = Tracer()
    traced_runs, plain = [], []
    for case in cases:
        # both passes meet the caches as the untraced loop does
        work.prepare(case)
        with tracer.installed(pkg):
            traced_runs.append(work.run_inprocess(case, "t"))
        work.prepare(case)
        plain.append(work.run_inprocess(case, "u"))

    failed, problems = 0, []
    for (block, index, case), t_res, p_res in zip(indexed, traced_runs, plain):
        bad = [e for e in (t_res.error, p_res.error) if e]
        if not bad:
            if work.output_bytes(t_res) != work.output_bytes(p_res):
                bad.append("traced output differs from untraced output")
            bad += work.check(block, case, index, p_res)[2]
        if bad:
            failed += 1
            problems += bad
    process_s, bad = work.process_s(cases, plain)
    failed += len(bad)
    problems += bad
    for res in traced_runs + plain:
        work.release(res)

    overhead = (sum(r.seconds for r in traced_runs)
                / sum(r.seconds for r in plain) - 1.0)
    layer = tracer.metrics()
    layer["cli.import_s"] = median_of(lambda: timed_child(IMPORT_CODE),
                                      IMPORT_RUNS)
    layer["cli.process_s"] = process_s
    layer["trace.overhead_share"] = overhead
    detail = {"requests": len(cases), "blocks": len(blocks),
              "traced_s": sum(r.seconds for r in traced_runs),
              "untraced_s": sum(r.seconds for r in plain),
              "baseline": baseline(pkg, workload, work)}
    return len(cases), failed, problems, layer, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and the processes it starts, so that the
    # speed probe runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pkg = load_package()
    import gate  # imports surfemit, so only after load_package

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    load_start = os.getloadavg()
    info = provenance()
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir()
    try:
        work = (CliWork(pkg, gate, work_dir) if args.workload == "cli-tables"
                else SweepWork(pkg, gate))
        if args.trace:
            attempted, failed, problems, values, detail = traced(
                work, args.workload, args.seed, pkg)
        else:
            attempted, failed, problems, values, detail = measure(
                work, args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    info["loadavg_start"] = list(load_start)
    info["loadavg_end"] = list(os.getloadavg())

    # names and units as declared in BENCHMARK.json
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:11s} {name:30s} {value:14.6g} {unit}")
    for row in detail.get("baseline", ()):
        print(f"baseline    {row['case']:42s} {row['measured']:10.4g} "
              f"{row['unit']:6s} (ROADMAP {row['roadmap']:g}, "
              f"ratio {row['ratio']:.2f})")
    for text in problems[:10]:
        print(f"gate: {text}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": info, **detail, "problems": problems[:20]}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
