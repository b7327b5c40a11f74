"""Layout of the package source: every line of src/gtransform/*.py fits in
79 characters, the PEP 8 limit, so code, docstrings and comments read
without wrapping in an 80-column terminal or a side-by-side diff."""

from __future__ import annotations

from pathlib import Path

MAX_LINE = 79
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gtransform"


def test_no_source_line_is_longer_than_79_characters():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, PACKAGE
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sources
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
