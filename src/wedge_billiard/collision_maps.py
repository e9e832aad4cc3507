"""Closed-form collision-to-collision momentum maps and their fixed points.

Between two wall hits the momentum change is fully determined by the wedge
angle and the total energy, so the simulator's per-event outgoing momenta
can be reproduced by iterating four algebraic maps, one per (source wall,
target wall) pair.

All map states use the collision-frame convention of
:class:`wedge_billiard.dynamics.RotatingFrameMomentum`: ``u_bar`` along the
wall away from the vertex, ``w_bar`` along the inward normal, so
post-collision states always carry ``w_bar >= 0``.  Both walls rise away
from the vertex, so with this orientation the same-wall maps always
decelerate the tangential motion, and the cross-wall maps exchange the roles
of the two one-dimensional energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import Wall, WedgeAngle

# Radicands ``2E - w_bar**2`` no worse than ``-RADICAND_TOL*E`` are grazing
# arrivals and clamp to 0.  Relative to E, as the rounding of
# ``sqrt(2E)**2`` is: an absolute bound rejects valid states from E ~ 4e3.
RADICAND_TOL = 1e-12
_INF, _NEG_INF = math.inf, -math.inf
_new = object.__new__


class EnergyViolationError(ValueError):
    """Normal kinetic energy exceeds the total energy beyond tolerance."""


class MapId(Enum):
    """The four maps, tagged by source and target wall.

    FA: A to A, GA: B to B, FB: A to B, GB: B to A.
    """

    FA = "FA"
    GA = "GA"
    FB = "FB"
    GB = "GB"


# Enum members bound once: reading ``MapId.FA`` costs more than a map's flops
_A = Wall.A
_FA, _GA, _FB, _GB = MapId.FA, MapId.GA, MapId.FB, MapId.GB


def map_id_for(source: Wall, target: Wall) -> MapId:
    """Map joining consecutive collisions on the given walls."""
    if source is _A:
        return _FA if target is _A else _FB
    return _GB if target is _A else _GA


@dataclass(frozen=True, slots=True, init=False)
class MapState:
    """Post-collision momentum in the collision frame, plus total energy.

    The energy rides along because the cross-wall maps are not closed
    without it.  Both momenta are finite, and ``w_bar**2`` may exceed ``2E``
    by at most ``RADICAND_TOL*E``.
    """

    u_bar: float
    w_bar: float
    energy: float

    def __init__(self, u_bar: float, w_bar: float, energy: float) -> None:
        # checks and slot setters in one frame: the generated __init__ plus
        # __post_init__ cost half as much again per state.  Each compare is
        # false for NaN.
        if not 0.0 < energy < _INF:
            raise ValueError(f"energy must be positive, got {energy!r}")
        if not _NEG_INF < u_bar < _INF:
            raise ValueError(f"u_bar must be finite, got {u_bar!r}")
        if not w_bar >= 0.0:
            raise ValueError(f"w_bar must be nonnegative, got {w_bar!r}")
        excess = w_bar * w_bar - 2.0 * energy
        if not _NEG_INF < excess < _INF:
            # w_bar**2 overflowed (w_bar above ~1.3e154) or 2E did (E above
            # ~9e307), or both (inf - inf is NaN).  Quartered, the squares
            # round alike and stay finite; an infinite w_bar gives inf.
            excess = 4.0 * ((0.5 * w_bar) * (0.5 * w_bar) - 0.5 * energy)
        if excess > RADICAND_TOL * energy:
            raise EnergyViolationError(
                f"normal kinetic energy w_bar**2/2 = {w_bar * w_bar / 2.0!r} "
                f"exceeds total {energy!r}"
            )
        _set_u_bar(self, u_bar)
        _set_w_bar(self, w_bar)
        _set_energy(self, energy)


_set_u_bar, _set_w_bar, _set_energy = (getattr(MapState, f).__set__ for f in MapState.__slots__)


def apply_map(map_id: MapId, state: MapState, angle: WedgeAngle) -> MapState:
    """Outgoing momentum at the next collision on the map's target wall.

    Same-wall maps shift the tangential momentum by twice the normal
    momentum scaled with cot(theta) (wall A) or tan(theta) (wall B) and keep
    the normal momentum.  Cross-wall maps draw the new normal momentum from
    the conserved energy budget, ``w_bar'**2 = 2E - w_bar**2`` with the
    outgoing (nonnegative) branch.
    """
    u_bar, w_bar, energy = state.u_bar, state.w_bar, state.energy
    tan_t = angle.sin / angle.cos
    if map_id is _FA:
        u_next, w_next = u_bar - 2.0 * w_bar / tan_t, w_bar
    elif map_id is _GA:
        u_next, w_next = u_bar - 2.0 * w_bar * tan_t, w_bar
    else:
        # MapState admits a radicand down to -RADICAND_TOL * energy: a
        # grazing arrival, clamped to 0
        w_next = math.sqrt(max(2.0 * energy - w_bar * w_bar, 0.0))
        if map_id is _FB:
            u_next = w_bar - (u_bar + w_next) * tan_t
        else:
            u_next = w_bar - (u_bar + w_next) / tan_t
    # MapState's checks, less those the arithmetic already meets.  energy is
    # the checked input's.  w_next is the input's w_bar or a square root, so
    # it is >= 0, and its square exceeds 2E by a few ulp at most, far inside
    # RADICAND_TOL * E; where 2E overflows it is inf, and u_next is then
    # -inf.  Only u_next, which a tiny angle can overflow, is left to check.
    if not _NEG_INF < u_next < _INF:
        raise ValueError(f"u_bar must be finite, got {u_next!r}")
    out = _new(MapState)
    _set_u_bar(out, u_next)
    _set_w_bar(out, w_next)
    _set_energy(out, energy)
    return out


def fixed_point(map_id: MapId, energy: float, angle: WedgeAngle) -> MapState:
    """FB's fixed point ``(u*, sqrt(E))``, for either cross-wall map.

    Only FB and GB admit an isolated fixed point; the same-wall maps have
    the sliding family (c, 0) instead.  FB fixes
    ``u* = sqrt(E)*(1 - tan(theta))/(1 + tan(theta))``.  GB's branch writes
    the same value with cot(theta), but the state GB fixes is its mirror
    image ``(-u*, sqrt(E))``; the two agree only at 45 degrees, where
    u* = 0.  At a critical angle ``arctan(p/q)``, u* is the tangential
    momentum of the (p, q) periodic launch off wall A.
    """
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    root_e = math.sqrt(energy)
    if map_id is MapId.FB:
        tan_t = angle.sin / angle.cos
        return MapState(root_e * (1.0 - tan_t) / (1.0 + tan_t), root_e, energy)
    if map_id is MapId.GB:
        cot_t = angle.cos / angle.sin
        return MapState(root_e * (cot_t - 1.0) / (cot_t + 1.0), root_e, energy)
    raise ValueError(f"{map_id} has no isolated fixed point, only the sliding family")

