"""Smoke tests: each script under scripts/ runs to completion on the testbed."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("script", ["run_fusion_demo.py", "sweep_alpha.py"])
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
