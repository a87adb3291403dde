"""Committed ``.rcb`` files must load and re-save byte for byte.

``tests/golden_rcb/`` holds one small fixed-content file per registered
block type, plus a zero-row ``PolicyRecordBlock``, written from the
``BLOCK_FACTORIES`` of ``tests/test_records.py`` when each block type
still declared its layout as a hand-written schema literal.  A block's
on-disk layout (member order, scalar names, column dtypes) now comes
from its dataclass fields; these files pin that the derived layout
writes the same bytes the declared one did.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.records import load_rcb_any, read_rcb_header, registered_block_types

GOLDEN_DIR = Path(__file__).parent / "golden_rcb"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.rcb"))


def test_every_registered_type_has_a_golden_file():
    names = {path.stem.split("-")[0] for path in GOLDEN_FILES}
    assert names == {cls.__name__ for cls in registered_block_types()}
    assert any(read_rcb_header(path)["rows"] == 0 for path in GOLDEN_FILES)


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda path: path.stem)
def test_golden_file_resaves_byte_for_byte(path, tmp_path):
    block = load_rcb_any(path)
    assert type(block).__name__ == path.stem.split("-")[0]
    block.save_rcb(tmp_path / path.name)
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()
