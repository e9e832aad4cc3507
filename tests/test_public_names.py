"""Every public name of the package has a caller outside the tests."""

import re
from pathlib import Path

import wedge_billiard

ROOT = Path(__file__).resolve().parents[1]


def uses(name: str, paths) -> int:
    """Lines of ``paths`` that mention ``name``, not counting its own
    ``def`` or ``class`` line."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return sum(
        1
        for path in paths
        for line in path.read_text().splitlines()
        if word.search(line) and not definition.match(line)
    )


def test_every_public_name_has_a_caller():
    package = ROOT / "src" / "wedge_billiard"
    callers = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    unused = [name for name in wedge_billiard.__all__ if uses(name, callers) == 0]
    assert unused == []
