"""The defect tool's anchors still match the source they patch."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_defect_anchor_occurs_exactly_once():
    # tools/ is not a package; run_path loads the module without running its __main__ block
    defects = runpy.run_path(str(ROOT / "tools" / "defect_check.py"))["DEFECTS"]
    assert defects
    counts = [(name, (ROOT / "src" / "aent" / file).read_text().count(anchor)) for name, file, anchor, _ in defects]
    assert [(name, count) for name, count in counts if count != 1] == []
