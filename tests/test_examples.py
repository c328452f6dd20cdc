"""Every script under ``examples/`` runs to completion.

Each runs as its own process in a fresh working directory, since
``uvm_testbench.py`` writes its waveform (``sync_fifo.vcd``) to the
current directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    if script.name == "uvm_testbench.py":
        assert (tmp_path / "sync_fifo.vcd").stat().st_size > 0
