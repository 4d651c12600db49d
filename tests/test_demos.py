"""The quick demos run to completion against the current API, and every
demo reads only names that pointlabel has."""

import ast
import importlib
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


@pytest.mark.parametrize("script", sorted(p.name for p in
                                          (ROOT / "demos").glob("*.py")))
def test_demo_reads_existing_names(script):
    # demos 03 and 04 train and predict for minutes and run in no test: a
    # deleted or renamed name would break them unseen
    tree = ast.parse((ROOT / "demos" / script).read_text(encoding="utf-8"))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "pointlabel":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"pointlabel.{alias.name}")
        elif (node.module or "").startswith("pointlabel."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert modules, "the demo imports no pointlabel module"
    missing += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)]
    assert not missing, f"{script} reads names pointlabel lacks: {missing}"
