"""Every public name of the package has a caller outside the tests."""

import ast
from pathlib import Path

import wedge_billiard

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wedge_billiard"


def module_level_names(path: Path) -> set[str]:
    """The names a module defines at its top level: functions, classes and
    assigned variables."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def referenced_names(paths) -> set[str]:
    """The names that code in ``paths`` reads, bare or as an attribute;
    docstrings and comments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    modules = sorted(PACKAGE.glob("*.py"))
    public = set(wedge_billiard.__all__)
    for path in modules:
        public |= {name for name in module_level_names(path) if not name.startswith("_")}
    callers = [path for path in modules if path.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    assert sorted(public - referenced_names(callers)) == []
