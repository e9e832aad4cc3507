"""Every public name of the package, and every public member of its
classes, has a caller outside the tests; and the package reads each public
name, lazily, from the submodule that defines it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# the package's names as the eager imports of the earlier __init__ listed them
PUBLIC_NAMES = [
    "CartesianState",
    "CollisionEvent",
    "EnergyViolationError",
    "MapId",
    "MapState",
    "OrbitClass",
    "OrbitKind",
    "OrbitSpec",
    "RotatingFrameMomentum",
    "SweepPoint",
    "Termination",
    "TerminationKind",
    "Trajectory",
    "Wall",
    "WedgeAngle",
    "apply_map",
    "build_periodic_orbit",
    "classify_orbit",
    "config_bounds",
    "contains",
    "coverage_fraction",
    "critical_angle",
    "decoupled_simulate",
    "fixed_point",
    "hamiltonian",
    "launch_from_wall",
    "map_id_for",
    "next_collision",
    "periodic_initial_condition",
    "sensitivity_probe",
    "simulate",
    "sweep_periodic_points",
    "wedge_hamiltonians",
]


def defining_module(name: str):
    """The one submodule whose top level defines ``name``."""
    (path,) = [path for path in MODULES if name in module_level_names(path)]
    return importlib.import_module(f"wedge_billiard.{path.stem}")


def test_all_keeps_the_public_names_in_order():
    assert wedge_billiard.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    star = {}
    exec("from wedge_billiard import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        defined = getattr(defining_module(name), name)
        assert getattr(wedge_billiard, name) is defined
        assert star[name] is defined


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(wedge_billiard))


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'wedge_billiard' has no attribute 'orbit'"):
        wedge_billiard.orbit  # noqa: B018


def test_submodules_import_from_the_package_in_a_fresh_interpreter():
    # in this process cli is loaded already, so the package holds it
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "from wedge_billiard import cli; print(cli.__name__)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "wedge_billiard.cli\n", proc.stderr
