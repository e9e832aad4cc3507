"""Exact event-driven simulator and analysis toolkit for the rotated
orthogonal gravitational wedge billiard.

The public names are read lazily (PEP 562): ``import wedge_billiard`` loads
no submodule, and the first read of a name loads the one submodule that
defines it.  So a ``wedge`` command loads only the modules it runs.
"""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {
    "collision_maps": (
        "EnergyViolationError",
        "MapId",
        "MapState",
        "apply_map",
        "fixed_point",
        "map_id_for",
    ),
    "dynamics": (
        "CartesianState",
        "CollisionEvent",
        "RotatingFrameMomentum",
        "Termination",
        "TerminationKind",
        "Trajectory",
        "decoupled_simulate",
        "hamiltonian",
        "launch_from_wall",
        "next_collision",
        "simulate",
        "wedge_hamiltonians",
    ),
    "geometry": (
        "Wall",
        "WedgeAngle",
        "config_bounds",
        "contains",
    ),
    "orbits": (
        "OrbitClass",
        "OrbitKind",
        "OrbitSpec",
        "SweepPoint",
        "build_periodic_orbit",
        "classify_orbit",
        "coverage_fraction",
        "critical_angle",
        "periodic_initial_condition",
        "sensitivity_probe",
        "sweep_periodic_points",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # kept, so that the next read does not come here
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
