"""Every script in demos/ runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(script, src_env):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
