"""Every public name of the package, and every public member of its
classes, has a caller outside the tests."""

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


def class_members(path: Path) -> set[str]:
    """The public methods and properties of the classes a module defines at
    its top level."""
    return {
        member.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }


def referenced_names(paths) -> tuple[set[str], set[str]]:
    """The names that code in ``paths`` reads bare, and the names it reads
    as an attribute; docstrings and comments do not count."""
    bare, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return bare, attributes


MODULES = sorted(PACKAGE.glob("*.py"))
# the code outside the tests that may call the package
CALLERS = [path for path in MODULES if path.name != "__init__.py"]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_has_a_caller():
    public = set(wedge_billiard.__all__)
    for path in MODULES:
        public |= {name for name in module_level_names(path) if not name.startswith("_")}
    bare, attributes = referenced_names(CALLERS)
    assert sorted(public - bare - attributes) == []


def test_every_public_class_member_is_read_as_an_attribute():
    members = set().union(*map(class_members, MODULES))
    _, attributes = referenced_names(CALLERS)
    assert sorted(members - attributes) == []
