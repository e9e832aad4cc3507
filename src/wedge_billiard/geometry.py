"""Geometry of the rotated orthogonal wedge.

The billiard table is a right-angle wedge whose bisector is tilted by an
angle ``theta`` (measured clockwise from the vertical) and whose vertex sits
at the origin.  The right-hand wall A is the half-line ``y = x*cot(theta)``
with ``x >= 0``; the left-hand wall B is ``y = -x*tan(theta)`` with
``x <= 0``.  The two walls are orthogonal for every ``theta``, and the
allowed region is the quarter-plane they bound from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Absolute tolerance on the signed wall distance: states that land exactly on
# a wall (up to rounding) still count as inside the region.
BOUNDARY_TOL = 1e-12


class Wall(Enum):
    """The two wedge walls: A is the right-hand slope, B the left-hand one."""

    A = "A"
    B = "B"


@dataclass(frozen=True, slots=True)
class WedgeAngle:
    """Tilt of the wedge, in radians, on the open interval (0, pi/2).

    Validated once at construction; everything downstream assumes a valid
    angle.
    """

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta) or not 0.0 < self.theta < math.pi / 2:
            raise ValueError(
                f"wedge angle must lie strictly inside (0, pi/2), got {self.theta!r}"
            )

    @property
    def sin(self) -> float:
        return math.sin(self.theta)

    @property
    def cos(self) -> float:
        return math.cos(self.theta)

    @classmethod
    def from_degrees(cls, degrees: float) -> "WedgeAngle":
        return cls(math.radians(degrees))


@dataclass(frozen=True, slots=True)
class ConfigBounds:
    """Extent of the reachable configuration box along the two walls.

    A trajectory of energy E never travels farther than ``E/cos(theta)``
    along wall A nor farther than ``E/sin(theta)`` along wall B.
    """

    x_tilde_max: float
    y_tilde_max: float

    def __post_init__(self) -> None:
        if not self.x_tilde_max > 0.0 or not self.y_tilde_max > 0.0:
            raise ValueError("configuration bounds must be strictly positive")


def to_wedge(a, b, sin_t: float, cos_t: float):
    """Resolve the lab vector ``(a, b)`` along the two walls.

    Returns ``(a_tilde, b_tilde)``, the components along wall A's direction
    ``(sin, cos)`` and wall B's direction ``(-cos, sin)``.  For a position
    these are ``(x_tilde, y_tilde)``, the distances from walls B and A, both
    nonnegative inside the wedge; for a momentum they are
    ``(u_tilde, w_tilde)``.  This is the one lab-to-wedge projection.
    Elementwise, so ``a`` and ``b`` may be floats or numpy arrays.
    """
    return a * sin_t + b * cos_t, -a * cos_t + b * sin_t


def contains(point: np.ndarray | tuple[float, float], angle: WedgeAngle) -> bool:
    """True if the point lies on or above both walls."""
    x_tilde, y_tilde = to_wedge(float(point[0]), float(point[1]), angle.sin, angle.cos)
    return x_tilde >= -BOUNDARY_TOL and y_tilde >= -BOUNDARY_TOL


def wall_point(wall: Wall, s: float, angle: WedgeAngle) -> np.ndarray:
    """Point at arclength ``s`` from the vertex along a wall.

    ``s = 0`` is the wedge vertex; negative arclengths are rejected.
    """
    if s < 0.0:
        raise ValueError(f"arclength must be nonnegative, got {s!r}")
    if wall is Wall.A:
        return np.array([s * angle.sin, s * angle.cos])
    return np.array([-s * angle.cos, s * angle.sin])


def wall_frame(wall: Wall, angle: WedgeAngle) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (tangent, normal) pair for a wall.

    The tangent points away from the vertex along the wall; the normal is
    perpendicular to it and points into the allowed region, so that outgoing
    (post-collision) momenta have a nonnegative normal component on either
    wall.
    """
    if wall is Wall.A:
        return np.array([angle.sin, angle.cos]), np.array([-angle.cos, angle.sin])
    return np.array([-angle.cos, angle.sin]), np.array([angle.sin, angle.cos])


def config_bounds(energy: float, angle: WedgeAngle) -> ConfigBounds:
    """Bounding box of all trajectories with the given total energy."""
    if not energy > 0.0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    return ConfigBounds(energy / angle.cos, energy / angle.sin)
