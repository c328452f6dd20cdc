"""Every repository path that DESIGN.md quotes exists."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_design_md_paths_exist():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        text = handle.read()
    paths = set(re.findall(r"`([\w.-]+/[\w./-]*)`", text))
    assert paths, "DESIGN.md quotes no repository path"
    missing = sorted(
        path for path in paths
        if not os.path.exists(os.path.join(ROOT, path))
    )
    assert not missing, "DESIGN.md quotes missing paths: " + ", ".join(
        missing)
