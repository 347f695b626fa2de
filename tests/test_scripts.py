"""Smoke test of the example scripts: each runs to exit 0 on small inputs.

The scripts import the coordinate, flow and battery APIs directly, so a
renamed function or a changed signature shows up here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["ellipse_sigma_demo.py", "--steps", "2"],
    ["flow_trajectory.py", "--steps", "2", "--order", "8"],
    ["run_verify_suite.py"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
