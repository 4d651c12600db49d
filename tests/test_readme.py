"""The README names only what the package has."""

import importlib
import re
from pathlib import Path

from pointlabel import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("blocks", "cli", "container", "infer", "io", "network", "training")
# backticked file names of the block store, not module attributes
FILE_NAMES = {"blocks.bin", "blocks.manifest"}


def test_readme_names_existing_attributes():
    # a deleted or renamed name would leave the README pointing at nothing
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    pattern = rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)`"
    refs = {f"{m}.{name}" for m, name in re.findall(pattern, text)} - FILE_NAMES
    assert refs, "the README names no attribute of the package's modules"
    missing = sorted(ref for ref in refs if not hasattr(
        importlib.import_module(f"pointlabel.{ref.split('.')[0]}"),
        ref.split(".")[1]))
    assert not missing, f"README.md names attributes pointlabel lacks: {missing}"


def test_readme_names_the_manifest_fields_in_order():
    # a field added, dropped or reordered would leave the README's block
    # line describing another store
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    at = text.index("block line of `blocks.manifest`")
    for name, _ in cli.MANIFEST_FIELDS:
        at = text.find(name, at)
        assert at >= 0, f"README.md's block line lacks {name!r} or misplaces it"
