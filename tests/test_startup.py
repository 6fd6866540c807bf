"""What a fresh interpreter loads on its way to a first table.

Each case runs in a new process, because this test session has long
since imported numpy.ma and the check suite itself.
"""

import os
import subprocess
import sys
from pathlib import Path

from surfemit.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> set:
    """Names in sys.modules after code runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_first_sweep_loads_neither_numpy_ma_nor_the_check_suite():
    loaded = loaded_after(
        "import surfemit as s\n"
        "s.sweep_rates(s.SweepRequest(config=s.InterfaceConfig(1.45, 852.0),"
        " dipole=s.DipolePolarization.from_preset('x'), x_nm=(100.0,)))")
    assert "surfemit.rates" in loaded
    assert "numpy.ma" not in loaded
    assert "surfemit.validation" not in loaded


def test_rates_command_does_not_load_the_check_suite(tmp_path):
    out = tmp_path / "rates.csv"
    loaded = loaded_after(
        "from surfemit.cli import run\n"
        f"assert run(['rates', '--x-nm=0:10:5', '--out={out}']) == 0")
    assert out.read_text().startswith("# surfemit-table-v1")
    assert "numpy.ma" not in loaded
    assert "surfemit.validation" not in loaded


def test_python_m_surfemit_cli_writes_the_table(capsys):
    argv = ["rates", "--x-nm=0:10:5"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "surfemit.cli", *argv],
                          env=env, capture_output=True, check=True)
    assert run(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode()
