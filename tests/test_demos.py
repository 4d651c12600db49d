"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_network_basics.py",
                                    "02_preprocessing.py",
                                    "05_raster_to_points.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # the warnings pyproject.toml makes errors inside pytest
    proc = subprocess.run([sys.executable, "-W", "error::UserWarning",
                           "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
