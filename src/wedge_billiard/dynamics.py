"""Event-driven simulation of a point mass falling inside the wedge.

Between collisions the particle follows an exact parabola (dimensionless
units: unit mass, unit gravity).  Collisions are elastic specular
reflections.  The wedge is integrable: in wedge coordinates the motion is
two independent one-dimensional bouncers.  ``x_tilde``, the distance from
wall B, falls with gravity ``cos(theta)``, and ``y_tilde``, the distance
from wall A, with gravity ``sin(theta)``.  A bouncer of energy ``H`` lands
and takes off at its floor speed ``sqrt(2H)``, so wall B is hit every
``2*sqrt(2*Hx)/cos(theta)`` and wall A every ``2*sqrt(2*Hy)/sin(theta)``.
A bouncer's first landing from any state is the larger root of its flight,
so the whole simulation is closed form; no time stepping is involved.

Two engines are provided.  :func:`simulate` works in lab coordinates: from
each state it takes the earlier of the two bouncers' first landings and
reflects the momentum with the wall normal, one event at a time.  That loop
is the only copy of the collision step; :func:`next_collision` is a run of
one event.  One branch per wall picks the landing, the three stops (no root
ahead, the vertex or a tie, a grazing landing) follow it once each, and each
wall's placement and reflection stay written out in a branch of their own.
:func:`decoupled_simulate` finds the first landings once, from the launch,
and merges the two arithmetic progressions of hit times in numpy with no
loop per event.  The two share only the first-hit rule and must
agree event for event; each serves as an oracle for the other.  The loop
holds that rule written out, so that an event makes no Python function
call; :func:`_first_hit` is the oracle's copy, and a test pins the two
copies to the same bits.  It buffers a chunk of events as the store's rows
and appends each chunk with one ``struct.pack`` call, as :func:`_run` says.

Both start through :func:`_validate_run`, which takes the launch as
floats once checked, projects it once and tests only it for sliding; both
run from that launch and keep it.  Both store each event in
:class:`EventColumns` as a wall code and a row of floats.  Every bulk read
of the store goes through one reader, :meth:`EventSequence._view`, a strided
``memoryview`` of one named column.  :attr:`Trajectory.events` builds a
:class:`CollisionEvent` only when one is asked for, and its ``pre``,
``post`` and ``rotating_post`` only when first read, and keeps them;
``pre`` and ``post`` share one row reader, and ``rotating_post`` is worked
out from the stored outgoing momentum and wall.  Its iterator is a
generator that shares the sequence's one kept event, so ``zip(events,
events[1:])`` builds each event once.  Frozen instances are filled through
their slots' setters, as :class:`~wedge_billiard.collision_maps.MapState`
fills its own.  Only the oracle, :meth:`EventSequence.column` and
:func:`flight_starts` load numpy.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .geometry import Wall, WedgeAngle, contains, from_wedge, to_wedge

if TYPE_CHECKING:
    import numpy as np

# Roots below this are treated as re-detections of the wall just left.
T_EPS = 1e-10
# Landing closer than this to the vertex ends the run: the reflection there
# is ambiguous (two normals).
VERTEX_EPS = 1e-9
# Landing (equivalently outgoing) normal speed below this is a sliding
# state; simulating it would take unboundedly many events.
GRAZING_EPS = 1e-10
# Both walls reached within this window counts as a vertex hit.
TIE_EPS = 1e-12
# How far off a wall a state may sit and still be reflected.
ON_WALL_TOL = 1e-10
# Largest launch energy.  The flight formulas square speeds and times of order
# sqrt(E): from ~1e307 they overflow float64 into false vertex hits and NaN.
MAX_ENERGY = 1e300
# Relative recurrence tolerance of ``orbits.classify_orbit``: positions are
# compared within tol*E and collision-frame momenta within tol*sqrt(E), as
# each scales with the energy.  An order above the simulator's worst drift,
# far below any orbit separation seen at desk scale.  Kept here, beside the
# engine's tolerances, so that the command line reads it without orbits.
DEFAULT_PERIODICITY_TOL = 1e-8
_new = object.__new__


@dataclass(frozen=True, slots=True)
class CartesianState:
    """Lab-frame snapshot: position (x, y), momentum (u, w) and clock t."""

    x: float
    y: float
    u: float
    w: float
    t: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return self.x, self.y


@dataclass(frozen=True, slots=True)
class RotatingFrameMomentum:
    """Momentum in a wall's collision frame: ``u_bar`` along the wall away
    from the vertex, ``w_bar`` along the inward normal."""

    u_bar: float
    w_bar: float


@dataclass(frozen=True, init=False)
class CollisionEvent:
    """One wall collision.

    ``pre`` and ``post`` share the collision point and clock; ``post`` has
    the reflected momentum.  ``rotating_post`` is the outgoing momentum in
    the wall's collision frame (tangential away from the vertex, normal into
    the region), so its ``w_bar`` is always nonnegative.
    """

    __slots__ = ("wall", "t", "_parts")

    wall: Wall
    t: float
    # properties below, built when first read; unused as defaults (init=False)
    pre: CartesianState
    post: CartesianState
    rotating_post: RotatingFrameMomentum

    def __init__(self, wall, t, pre, post, rotating_post):
        _set_wall(self, wall)
        _set_t(self, t)
        # pre, post, rotating_post, then the store and the offset of their row
        _set_parts(self, [pre, post, rotating_post, None, -1])

    @property
    def pre(self) -> CartesianState:
        return self._state(0, _U_PRE, _W_PRE)

    @property
    def post(self) -> CartesianState:
        return self._state(1, _U, _W)

    def _state(self, part: int, u_offset: int, w_offset: int) -> CartesianState:
        """``pre`` (part 0) or ``post`` (part 1), read from the event's row
        when first asked for: the collision point and the momentum at
        ``u_offset, w_offset`` in the row."""
        parts = self._parts
        if parts[part] is None:
            r, k = parts[3].rows, parts[4]
            x, y, u, w = r[k + _X], r[k + _Y], r[k + u_offset], r[k + w_offset]
            parts[part] = CartesianState(x, y, u, w, self.t)
        return parts[part]

    @property
    def rotating_post(self) -> RotatingFrameMomentum:
        parts = self._parts
        if parts[2] is None:
            cols, k = parts[3], parts[4]
            u, w, sin_t, cos_t = cols.rows[k + _U], cols.rows[k + _W], cols.sin_t, cols.cos_t
            # to_wedge written out; wall A's tangent and inward normal are
            # the wedge axes, and wall B's the same axes swapped
            u_bar, w_bar = u * sin_t + w * cos_t, -u * cos_t + w * sin_t
            if self.wall is WALLS[1]:
                u_bar, w_bar = w_bar, u_bar
            frame = parts[2] = _new(RotatingFrameMomentum)
            _set_u_bar(frame, u_bar)
            _set_w_bar(frame, w_bar)
        return parts[2]

    def __reduce__(self):
        # the public constructor's event, without the columns
        return CollisionEvent, (self.wall, self.t, self.pre, self.post, self.rotating_post)


_set_u_bar, _set_w_bar = (getattr(RotatingFrameMomentum, f).__set__ for f in ("u_bar", "w_bar"))
_set_wall, _set_t, _set_parts = (
    getattr(CollisionEvent, f).__set__ for f in CollisionEvent.__slots__
)


class TerminationKind(Enum):
    VERTEX_HIT = "vertex_hit"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class Termination:
    """Why an event loop stopped before reaching its collision budget."""

    kind: TerminationKind
    t: float
    normal_speed: float | None = None


# The wall column holds each event's index into this tuple.
WALLS = (Wall.A, Wall.B)


# The columns an engine writes: the only names EventSequence reads.  The
# wall is stored on its own and the rest as one row of floats per event, in
# this order; _OFFSETS gives each one's place in a row
_COLUMN_NAMES = ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w")
_OFFSETS = {name: j for j, name in enumerate(_COLUMN_NAMES[1:])}
_ROW = len(_OFFSETS)
_T, _X, _Y, _U_PRE, _W_PRE, _U, _W = map(_OFFSETS.get, ("t", "x", "y", "u_pre", "w_pre", "u", "w"))


class EventColumns:
    """The events written by the event loops, one per collision.

    ``wall`` holds each event's index of its wall in :data:`WALLS`, and
    ``rows`` a row per event of the clock ``t``, the collision point ``x,
    y``, the landing momentum ``u_pre, w_pre`` and the reflected one ``u,
    w``, laid out as :data:`_COLUMN_NAMES`.  ``sin_t, cos_t`` are the wedge
    angle's trig, which :attr:`CollisionEvent.rotating_post` reads.  Nothing
    derived from the events is stored.  A store is written only by the
    engine that returns it, before it returns, and never after: what is
    read from a store stays true, which ``orbits.coverage_fraction`` relies
    on when it keeps a run's cells by its store (hence the weak reference).
    """

    __slots__ = ("wall", "rows", "sin_t", "cos_t", "__weakref__")

    def __init__(self, angle: WedgeAngle):
        self.wall, self.rows = array("B"), array("d")
        self.sin_t, self.cos_t = angle.sin, angle.cos


class EventSequence(Sequence):
    """Read-only sequence of a trajectory's collision events.

    Events are built on access, and an event's ``pre``, ``post`` and
    ``rotating_post`` when first read, then kept for repeat reads.  Two
    lookups of one index give equal events, not always one object.  A slice
    is another sequence over the same columns; equal to tuples of equal events.
    Every bulk read goes through one reader, :meth:`_view`, a strided view
    of one named column: :meth:`column` in numpy, and the exports through
    its ``tolist``.
    """

    __slots__ = ("_columns", "_range", "_memo")

    def __init__(self, columns: EventColumns, indices: range | None = None):
        self._columns = columns
        self._range = range(len(columns.wall)) if indices is None else indices
        # last (index, event) built, shared with slices: zip(events, events[1:]) builds each once
        self._memo = [(-1, None)]

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = EventSequence(self._columns, self._range[index])
            view._memo = self._memo
            return view
        i = self._range[index]
        held, event = self._memo[0]
        return event if held == i else _event(self._columns, i, self._memo)

    def __iter__(self) -> Iterator[CollisionEvent]:
        columns, memo = self._columns, self._memo
        for i in self._range:
            held, event = memo[0]
            yield event if held == i else _event(columns, i, memo)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventSequence):
            if other._columns is self._columns and other._range == self._range:
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<EventSequence of {len(self)} events>"

    def column(self, name: str) -> np.ndarray:
        """Read-only numpy array of one column the engine wrote, without
        building events: ``wall`` of dtype uint8, the others float64."""
        import numpy as np
        values = np.asarray(self._view(name))
        values.flags.writeable = False
        return values

    def _view(self, name: str) -> memoryview:
        """The one bulk reader: the view's events of the stored column
        ``name``, a strided ``memoryview`` of the store that copies nothing.
        Its ``tolist`` gives Python ints (``wall``) or floats, so the
        exports read it without numpy."""
        columns, r = self._columns, self._range
        if name == "wall":
            view = memoryview(columns.wall)
        elif name in _OFFSETS:
            view = memoryview(columns.rows)[_OFFSETS[name]::_ROW]
        else:
            names = ", ".join(_COLUMN_NAMES)
            raise ValueError(f"no stored column {name!r}; the columns are {names}")
        # from the first event by the step, as many as there are, not up to
        # the range's stop: a descending range's stop can be -1, which as a
        # slice bound is the store's last event
        return view[r[0]::r.step][:len(r)] if r else view[:0]


def _event(columns: EventColumns, i: int, memo: list) -> CollisionEvent:
    """Event ``i`` of ``columns``, its parts left to be built when read, kept
    as ``memo``'s one event: the one builder of a stored event."""
    k = i * _ROW
    event = _new(CollisionEvent)
    _set_wall(event, WALLS[columns.wall[i]])
    _set_t(event, columns.rows[k + _T])
    _set_parts(event, [None, None, None, columns, k])
    memo[0] = (i, event)
    return event


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A simulated run: launch state, wedge angle, collision events and why
    the run stopped early, if it did.

    ``events`` is an :class:`EventSequence` over the :class:`EventColumns`
    an engine wrote.  An engine's ``initial`` is the launch it checked and
    ran from, each field a float whatever number type it was given in, so
    what reads a run meets no other type.  The run is fixed by its launch
    and angle, so its conserved quantities are worked out from the launch:
    ``energy`` is the Hamiltonian and ``wedge_integrals`` the pair of
    one-dimensional energies, all three conserved along the run up to
    rounding.
    """

    initial: CartesianState
    theta: WedgeAngle
    events: EventSequence
    termination: Termination | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, EventSequence):
            raise TypeError(f"events must be an EventSequence, got {type(self.events).__name__}")

    @property
    def energy(self) -> float:
        return hamiltonian(self.initial)

    @property
    def wedge_integrals(self) -> tuple[float, float]:
        return wedge_hamiltonians(self.initial, self.theta)


def flight_starts(
    initial: CartesianState, columns: Sequence[np.ndarray], lo: int, hi: int
) -> list[np.ndarray]:
    """The states flight arcs ``lo`` to ``hi - 1`` start from.

    ``columns`` are the events' ``t, x, y, u, w`` columns, and the result
    holds the same five values per arc.  Arc 0 starts from the launch and
    arc i from event i - 1's outgoing state; arc i ends at event i.
    """
    import numpy as np
    firsts = (initial.t, initial.x, initial.y, initial.u, initial.w)
    return [
        column[lo - 1:hi - 1] if lo else np.concatenate(([first], column[:hi - 1]))
        for column, first in zip(columns, firsts)
    ]


def hamiltonian(s: CartesianState) -> float:
    """Total energy: kinetic part plus height."""
    return (s.u * s.u + s.w * s.w) / 2.0 + s.y


def wedge_hamiltonians(s: CartesianState, angle: WedgeAngle) -> tuple[float, float]:
    """The two one-dimensional energies whose sum is the Hamiltonian.

    Each is conserved separately along a trajectory: a wall-A collision
    reverses only ``w_tilde``, a wall-B collision only ``u_tilde``, and free
    flight splits into two independent constant-gravity motions.
    """
    sin_t, cos_t = angle.sin, angle.cos
    x_tilde, y_tilde = to_wedge(s.x, s.y, sin_t, cos_t)
    u_tilde, w_tilde = to_wedge(s.u, s.w, sin_t, cos_t)
    return wedge_energies(x_tilde, y_tilde, u_tilde, w_tilde, sin_t, cos_t)


def wedge_energies(x_tilde, y_tilde, u_tilde, w_tilde, sin_t: float, cos_t: float):
    """:func:`wedge_hamiltonians` of the wedge-frame state ``(x_tilde,
    y_tilde, u_tilde, w_tilde)``, which may be floats or numpy arrays."""
    return (
        u_tilde * u_tilde / 2.0 + x_tilde * cos_t,
        w_tilde * w_tilde / 2.0 + y_tilde * sin_t,
    )


def launch_from_wall(
    wall: Wall, s: float, u_bar: float, w_bar: float, angle: WedgeAngle
) -> CartesianState:
    """Post-collision style launch state on a wall, at clock 0.

    ``u_bar`` is the momentum along the wall away from the vertex and
    ``w_bar`` the momentum along the inward normal.
    """
    if s < 0.0:
        raise ValueError(f"arclength must be nonnegative, got {s!r}")
    # wall A's tangent and inward normal are the wedge axes, wall B's swapped
    if wall is Wall.A:
        position, momentum = (s, 0.0), (u_bar, w_bar)
    else:
        position, momentum = (0.0, s), (w_bar, u_bar)
    x, y = from_wedge(*position, angle.sin, angle.cos)
    u, w = from_wedge(*momentum, angle.sin, angle.cos)
    return CartesianState(x, y, u, w)


def _first_hit(d0: float, v0: float, g: float) -> float | None:
    """First landing of a one-dimensional bouncer at height ``d0`` above its
    wall with velocity ``v0`` and gravity ``g``, or None.

    The flight ``d0 + v0*t - g*t**2/2`` lands at its larger root ``(v0 +
    V)/g``, where ``V = sqrt(v0**2 + 2*g*d0)`` is the floor speed.  On or
    inside the wall (d0 >= 0) the smaller root is never positive; just
    outside it, moving in, the smaller root is the wall crossing, not a
    landing.  None when the landing is not above T_EPS (the bouncer sits on
    the wall it just left, leaving), there is no root at all (the bouncer
    stays beyond its wall) or the root overflows to inf.

    This is the oracle's copy of the rule.  :func:`_run` holds it written
    out for both walls, with inf for None; a test pins the two copies to
    the same bits.
    """
    disc = v0 * v0 + 2.0 * g * d0
    if disc < 0.0:
        return None
    first = (v0 + math.sqrt(disc)) / g
    return first if T_EPS < first < math.inf else None


# Events the loop buffers as rows before it appends them to the store;
# 256 costs ~0.1 MB, and with the packed flush 128, 512 and 1024 were no
# faster on 8 runs of 1e4 events
_CHUNK = 256


def _run(
    x: float, y: float, u: float, w: float, t: float, angle: WedgeAngle, n: int
) -> tuple[EventColumns, Termination | None]:
    """Up to ``n`` collisions from the lab state ``(x, y, u, w)`` at clock
    ``t``: the columns of the events, and the :class:`Termination` that
    ended the run early, or None.

    The caller passes a float clock and has tested the start with
    :func:`_sliding_start`, and asks for ``n = 0`` after a stop there,
    which returns an empty store and None.  Each event is the earlier of
    the two bouncers' first landings, reflected with the wall normal.  One
    branch per wall picks the landing's time, point and normal speed; the
    stops follow it, each written once.  A flight that lands at the
    vertex, or on both walls within TIE_EPS, or in a grazing landing ends
    the run, stamped with its landing clock, so no later state is tested
    for sliding.  With no root ahead on either wall the state sits at the
    vertex and is leaving the wedge: a vertex hit at the state's own clock.
    Each wall's placement and reflection stay written out in their own
    branch after the stops: one shared step with the wall's tangent and
    normal picked in the branch kept the bits but took 1.09x the time.
    Events are buffered as the store's rows and appended to it a chunk at a
    time, each chunk packed by one ``struct.pack`` call: ``array("d",
    rows)`` converts floats one at a time through the argument parser
    (``PyArg_Parse`` on CPython 3.11), at over twice the cost.
    """
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle)
    # first hits inline, one row write per event: 0.8x the time of 2 _first_hit calls + 7 appends
    two_sin, two_cos = 2.0 * sin_t, 2.0 * cos_t
    sqrt, inf, pack = math.sqrt, math.inf, struct.pack
    add_wall, add_rows = columns.wall.append, columns.rows.frombytes
    rows: list[float] = []
    add_row = rows.extend
    termination = None
    start = 0
    while start < n and termination is None:
        for _ in range(min(_CHUNK, n - start)):
            # to_wedge written out (two calls would cost 7-10% of the loop), the
            # negated terms last: negation is exact, so the bits are the same
            x_tilde = x * sin_t + y * cos_t
            y_tilde = y * sin_t - x * cos_t
            u_tilde = u * sin_t + w * cos_t
            w_tilde = w * sin_t - u * cos_t
            # _first_hit on both walls written out; inf stands for its None
            disc = w_tilde * w_tilde + two_sin * y_tilde
            t_a = (w_tilde + sqrt(disc)) / sin_t if disc >= 0.0 else inf
            if not t_a > T_EPS:
                t_a = inf
            disc = u_tilde * u_tilde + two_cos * x_tilde
            t_b = (u_tilde + sqrt(disc)) / cos_t if disc >= 0.0 else inf
            if not t_b > T_EPS:
                t_b = inf
            # the gap's sign picks the earlier landing, wall A's at gap 0, so
            # that a tie reaches the vertex stop below; with no root on either
            # wall it is inf - inf, NaN, which neither branch holds for
            gap = t_a - t_b
            if gap <= 0.0:
                dt = t_a
                s_land = x_tilde + u_tilde * dt - cos_t * dt * dt / 2.0
                v_n = w_tilde - sin_t * dt
            elif gap > 0.0:
                dt = t_b
                s_land = y_tilde + w_tilde * dt - sin_t * dt * dt / 2.0
                v_n = u_tilde - cos_t * dt
            else:
                termination = Termination(TerminationKind.VERTEX_HIT, t)
                break
            if s_land < VERTEX_EPS or -TIE_EPS <= gap <= TIE_EPS:
                termination = Termination(TerminationKind.VERTEX_HIT, t + dt)
                break
            if -GRAZING_EPS < v_n < GRAZING_EPS:
                termination = Termination(TerminationKind.DEGENERATE, t + dt, abs(v_n))
                break
            # The root has rounding-level residual; place the collision exactly
            # on the wall so on-wall invariants survive arbitrarily long runs
            # (from_wedge of (s_land, 0) or (0, s_land), written out as
            # to_wedge is).  The reflection (u, w) -= 2 * p_n * normal is
            # written out with each wall's normal, (-cos, sin) on wall A and
            # (sin, cos) on wall B: negation and doubling are exact, so the
            # bits are the same.  A row, laid out as the store's rows, reads u
            # before the walrus rebinds it.
            t += dt
            w_land = w - dt
            if gap < 0.0:
                x, y = s_land * sin_t, s_land * cos_t
                p2 = 2.0 * (w_land * sin_t - u * cos_t)
                add_wall(0)
                add_row((t, x, y, u, w_land, u := u + p2 * cos_t, w := w_land - p2 * sin_t))
            else:
                x, y = -s_land * cos_t, s_land * sin_t
                p2 = 2.0 * (u * sin_t + w_land * cos_t)
                add_wall(1)
                add_row((t, x, y, u, w_land, u := u - p2 * sin_t, w := w_land - p2 * cos_t))
        add_rows(pack(f"{len(rows)}d", *rows))
        rows.clear()
        start += _CHUNK
    return columns, termination


def next_collision(s: CartesianState, angle: WedgeAngle) -> tuple[float, Wall] | Termination:
    """Time of flight to the next wall and which wall it is.

    A flight that does not end in a clean reflection returns its
    :class:`Termination`, whose clock is the time of flight from ``s``, and
    a sliding ``s`` its stop at clock 0.  This is :func:`simulate`'s first
    event from ``s`` at clock 0, whose clock ``0 + dt`` is ``dt`` exactly,
    from the same start test and loop; the launch is not validated.
    """
    sin_t, cos_t = angle.sin, angle.cos
    stop = _sliding_start(
        *to_wedge(s.x, s.y, sin_t, cos_t), *to_wedge(s.u, s.w, sin_t, cos_t), 0.0
    )
    columns, termination = _run(s.x, s.y, s.u, s.w, 0.0, angle, 0 if stop else 1)
    return stop or termination or (columns.rows[_T], WALLS[columns.wall[0]])


def _sliding_start(
    x_tilde: float, y_tilde: float, u_tilde: float, w_tilde: float, t: float
) -> Termination | None:
    """The :class:`Termination` at clock ``t`` of a start, given in the wedge
    frame, that rests on a wall with no normal momentum: it is already
    sliding.  None for any other start."""
    # wall A's (distance, normal momentum), then wall B's
    for dist, p_n in ((y_tilde, w_tilde), (x_tilde, u_tilde)):
        if dist <= ON_WALL_TOL and abs(p_n) < GRAZING_EPS:
            return Termination(TerminationKind.DEGENERATE, t, abs(p_n))
    return None


def _validate_run(
    initial: CartesianState, angle: WedgeAngle, n: int
) -> tuple[tuple[float, float, float, float], CartesianState, Termination | None]:
    """The one start of both engines.  Raise ValueError for a launch they
    reject, else return the launch in the wedge frame, ``(x_tilde, y_tilde,
    u_tilde, w_tilde)``, the launch with each field taken as a float, which
    the engine runs from and keeps, and the :class:`Termination` of a
    sliding start, or None; a run of no events has no start to test.  The
    checks read the caller's numbers, so a type they cannot compute with
    (a ``Decimal`` or ``str`` position or momentum) raises TypeError."""
    if n < 0:
        raise ValueError(f"collision count must be nonnegative, got {n!r}")
    if not math.isfinite(initial.t):
        raise ValueError(f"launch clock must be finite, got {initial.t!r}")
    if not contains(initial.position, angle):
        raise ValueError(f"launch position {initial.position} lies outside the wedge")
    energy = hamiltonian(initial)
    if not 0.0 < energy <= MAX_ENERGY:
        raise ValueError(f"launch energy must lie in (0, {MAX_ENERGY:g}], got {energy!r}")
    # outgoing normal momentum on the wall the launch sits on leaves the wedge
    # at once; the grazing band is left to the step's degenerate termination
    sin_t, cos_t = angle.sin, angle.cos
    x_tilde, y_tilde = to_wedge(initial.x, initial.y, sin_t, cos_t)
    u_tilde, w_tilde = to_wedge(initial.u, initial.w, sin_t, cos_t)
    for wall, dist, p_n in ((Wall.A, y_tilde, w_tilde), (Wall.B, x_tilde, u_tilde)):
        if dist <= ON_WALL_TOL and p_n < -GRAZING_EPS:
            raise ValueError(
                f"launch on wall {wall.value} moves out of the wedge "
                f"(normal momentum {p_n!r})"
            )
    launch = CartesianState(*map(float, (initial.x, initial.y, initial.u, initial.w, initial.t)))
    stop = _sliding_start(x_tilde, y_tilde, u_tilde, w_tilde, launch.t) if n > 0 else None
    return (x_tilde, y_tilde, u_tilde, w_tilde), launch, stop


def simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Run the event loop for n collisions.

    Vertex hits and grazing landings end the loop with a
    :class:`Termination`, and the trajectory keeps every event produced up
    to that point; a sliding launch ends it before the first.  The loop
    runs from the launch :func:`_validate_run` returns, each field a float,
    and the trajectory keeps that launch as ``initial``.  Raises ValueError
    for a launch outside the wedge, with energy outside (0, MAX_ENERGY],
    with a clock that is not finite, or moving out through the wall it sits
    on.
    """
    _, launch, stop = _validate_run(initial, angle, n)
    x, y, u, w, t = launch.x, launch.y, launch.u, launch.w, launch.t
    columns, termination = _run(x, y, u, w, t, angle, 0 if stop else n)
    return Trajectory(launch, angle, EventSequence(columns), stop or termination)


def decoupled_simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Closed-form engine from the two-bouncer solution of the wedge.

    In wedge coordinates the motion is two independent one-dimensional
    bouncers: ``y_tilde``, the distance from wall A, falls with gravity
    ``sin(theta)``, and ``x_tilde``, the distance from wall B, with gravity
    ``cos(theta)``.  A bouncer of floor speed ``V`` first hits its wall at
    :func:`_first_hit` from the launch and then every ``2V/g``.  The first
    ``n + 1`` hits of each bouncer are merged by one stable argsort, and
    ``divmod`` gives each merged hit's wall and its index in its own
    progression.  At each hit the other bouncer's phase is evaluated in
    closed form from its own last hit, or before its first from the
    launch.  No collision is root-solved from the one before, so the output
    is a check of :func:`simulate`, which it matches event for event.

    The run ends where :func:`simulate` ends it: a sliding launch or a hit
    with floor speed below GRAZING_EPS is degenerate; no root ahead on
    either wall, hits on both walls within TIE_EPS or a landing closer than
    VERTEX_EPS to the vertex is a vertex hit.  Raises ValueError as
    :func:`simulate` does.
    """
    import numpy as np
    (xt, yt, ut, wt), launch, sliding = _validate_run(initial, angle, n)
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle)

    def finish(termination: Termination | None) -> Trajectory:
        return Trajectory(launch, angle, EventSequence(columns), termination)

    # a run of no events ends here too: the no-root test below would stop it
    if sliding is not None or n == 0:
        return finish(sliding)
    # the two bouncers by wall code: 0 is wall A, which y_tilde hits with
    # gravity sin(theta), and 1 is wall B, which x_tilde hits with cos(theta)
    first = [_first_hit(yt, wt, sin_t), _first_hit(xt, ut, cos_t)]
    if None in first:
        # a bouncer with no root ahead stays beyond its wall, so the other
        # one's first hit lands past the vertex
        ahead = [hit for hit in first if hit is not None]
        return finish(Termination(TerminationKind.VERTEX_HIT, launch.t + min(ahead, default=0.0)))
    first, gravity = np.array(first), np.array([sin_t, cos_t])
    # every landing and takeoff of a bouncer of energy H is at speed sqrt(2H)
    h_x, h_y = wedge_energies(xt, yt, ut, wt, sin_t, cos_t)
    speed = np.array([math.sqrt(2.0 * h) for h in (h_y, h_x)])
    # a grazing bouncer ends the run at its first hit, so its later hits
    # need only come later, even at zero speed
    period = 2.0 * np.maximum(speed, GRAZING_EPS) / gravity

    # n + 1 hits of each bouncer hold the first n + 1 merged hits: the n
    # events and the hit after them, which the tie check reads
    hits = (first[:, None] + period[:, None] * np.arange(n + 1)).ravel()
    # wall A's row comes first, so on an exact tie the stable sort puts it first
    order = np.argsort(hits, kind="stable")[: n + 1]
    r = hits[order]
    code, own_index = np.divmod(order, n + 1)
    # order is a view that keeps all 2(n + 1) sorted indices
    del hits, order
    other = 1 - code
    # how many hits the other bouncer made before each one: the hits before
    # it less its own index in its progression
    before = np.arange(n + 1) - own_index
    # the other bouncer flies from its last hit; before its first it flies
    # the same parabola, from a takeoff one period before that hit
    since = r - (first[other] + period[other] * (before - 1))
    height = speed[other] * since - gravity[other] * since * since / 2.0
    velocity = speed[other] - gravity[other] * since
    del other, before, since, own_index

    # the first of the n events that cannot be reflected ends the run: hits
    # on both walls within TIE_EPS or a landing too near the vertex (the
    # other bouncer's height), or a grazing bouncer's hit
    own_speed = speed[code]
    vertex = height < VERTEX_EPS
    vertex[:-1] |= (code[1:] != code[:-1]) & (r[1:] - r[:-1] <= TIE_EPS)
    stops = np.flatnonzero((vertex | (own_speed < GRAZING_EPS))[:n])
    k = int(stops[0]) if stops.size else n
    termination = None
    if stops.size:
        t_stop = launch.t + float(r[k])
        if vertex[k]:
            termination = Termination(TerminationKind.VERTEX_HIT, t_stop)
        else:
            termination = Termination(TerminationKind.DEGENERATE, t_stop, float(own_speed[k]))

    # rows: height, landing velocity, outgoing velocity.  The other bouncer
    # is in flight; at its own hit a bouncer sits on its wall and its
    # velocity turns from -V to V
    code = code[:k]
    flight = np.array([height[:k], velocity[:k], velocity[:k]])
    own = np.array([[0.0], [-1.0], [1.0]]) * own_speed[:k]
    del height, velocity, own_speed
    tilde_x = np.where(code, own, flight)
    tilde_y = np.where(code, flight, own)
    del flight, own
    # wedge -> lab: rows (x, u_pre, u) and (y, w_pre, w)
    lab_x, lab_y = from_wedge(tilde_x, tilde_y, sin_t, cos_t)
    del tilde_x, tilde_y
    # one event per row of the block, laid out as the store's rows
    block = np.empty((k, _ROW))
    block[:, _T] = launch.t + r[:k]
    block[:, _X], block[:, _U_PRE], block[:, _U] = lab_x
    block[:, _Y], block[:, _W_PRE], block[:, _W] = lab_y
    del lab_x, lab_y
    # frombytes copies from any buffer of bytes, so no bytes object is made
    columns.wall.frombytes(code.astype(np.uint8))
    columns.rows.frombytes(block.view(np.uint8))
    return finish(termination)
