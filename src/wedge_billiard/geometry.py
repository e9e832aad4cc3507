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
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

# Tolerance on the signed wall distance per unit of the point's size: states
# that land exactly on a wall (up to rounding) still count as inside the region.
BOUNDARY_TOL = 1e-12


class Wall(Enum):
    """The two wedge walls: A is the right-hand slope, B the left-hand one."""

    A = "A"
    B = "B"


@dataclass(frozen=True, slots=True)
class WedgeAngle:
    """Tilt of the wedge, in radians, on the open interval (0, pi/2).

    Validated once at construction; everything downstream assumes a valid
    angle.  ``sin`` and ``cos`` are ``math.sin(theta)`` and
    ``math.cos(theta)``, computed once at construction; equality, hashing
    and the repr see ``theta`` alone.
    """

    theta: float
    sin: float = field(init=False, repr=False, compare=False)
    cos: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta) or not 0.0 < self.theta < math.pi / 2:
            raise ValueError(
                f"wedge angle must lie strictly inside (0, pi/2), got {self.theta!r}"
            )
        _set_sin(self, math.sin(self.theta))
        _set_cos(self, math.cos(self.theta))

    def __reduce__(self):
        # pickle and copy rebuild from theta, so the trig is computed afresh
        return type(self), (self.theta,)

    @classmethod
    def from_degrees(cls, degrees: float) -> "WedgeAngle":
        return cls(math.radians(degrees))


# The frozen trig is filled through its slots' setters
_set_sin, _set_cos = WedgeAngle.sin.__set__, WedgeAngle.cos.__set__


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


def from_wedge(a_tilde, b_tilde, sin_t: float, cos_t: float):
    """The lab vector whose :func:`to_wedge` components are ``(a_tilde,
    b_tilde)``: the one wedge-to-lab rotation, elementwise as that is."""
    return a_tilde * sin_t - b_tilde * cos_t, a_tilde * cos_t + b_tilde * sin_t


def contains(point: Sequence[float], angle: WedgeAngle) -> bool:
    """True if the point is finite and lies on or above both walls, within
    ``BOUNDARY_TOL * max(1, |x| + |y|)``: rounding grows with the point."""
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    x_tilde, y_tilde = to_wedge(x, y, angle.sin, angle.cos)
    tol = BOUNDARY_TOL * max(1.0, abs(x) + abs(y))
    return x_tilde >= -tol and y_tilde >= -tol


def config_bounds(energy: float, angle: WedgeAngle) -> tuple[float, float]:
    """How far along walls A and B a trajectory of total energy E can travel:
    ``(x_tilde_max, y_tilde_max) = (E/cos(theta), E/sin(theta))``."""
    if not energy > 0.0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    return energy / angle.cos, energy / angle.sin
