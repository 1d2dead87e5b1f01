"""Each script under scripts/ runs to completion on the testbed and gives its answer."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


# Per script: the start of the stepwise row and the answer it must show.
STEPWISE_ROWS = {
    "run_fusion_demo.py": ("stepwise ", "metal sinks <eos>"),
    "sweep_alpha.py": ("stepwise (adaptive)", "100%"),
}


@pytest.mark.parametrize("script", list(STEPWISE_ROWS))
def test_script_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stepwise" in proc.stdout
    row, answer = STEPWISE_ROWS[script]
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(row))
    assert answer in line
