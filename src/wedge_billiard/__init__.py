"""Exact event-driven simulator and analysis toolkit for the rotated
orthogonal gravitational wedge billiard."""

from .collision_maps import (
    EnergyViolationError,
    MapId,
    MapState,
    apply_map,
    fixed_point,
    map_id_for,
)
from .dynamics import (
    CartesianState,
    CollisionEvent,
    RotatingFrameMomentum,
    Termination,
    TerminationKind,
    Trajectory,
    decoupled_simulate,
    hamiltonian,
    launch_from_wall,
    next_collision,
    simulate,
    wedge_hamiltonians,
)
from .geometry import (
    Wall,
    WedgeAngle,
    config_bounds,
    contains,
)
from .orbits import (
    OrbitClass,
    OrbitKind,
    OrbitSpec,
    SweepPoint,
    build_periodic_orbit,
    classify_orbit,
    coverage_fraction,
    critical_angle,
    periodic_initial_condition,
    sensitivity_probe,
    sweep_periodic_points,
)

__version__ = "0.1.0"

__all__ = [
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
