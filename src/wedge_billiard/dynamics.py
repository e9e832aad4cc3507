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
one event.  :func:`decoupled_simulate` finds the first landings once, from
the launch, and merges the two arithmetic progressions of hit times in numpy
with no loop per event.  The two share only the first-hit rule and must
agree event for event; each serves as an oracle for the other.  The loop
holds that rule written out, so that an event makes no Python function
call; :func:`_first_hit` is the oracle's copy, and a test pins the two
copies to the same bits.

Both test only the launch for sliding, with :func:`_sliding_start`, and
project it to the wedge frame once.  Both write each event's wall code and
floats to :class:`EventColumns`, which holds only those and the angle's
trig.  :attr:`Trajectory.events` builds a :class:`CollisionEvent` only when
one is asked for, and its ``pre``, ``post`` and ``rotating_post`` only when
first read, and keeps them; ``rotating_post`` is worked out from the stored
outgoing momentum and wall.  Its iterator is a generator that shares the
sequence's one kept event, so ``zip(events, events[1:])`` builds each event
once.  Frozen instances are filled through their slots' setters, as
:class:`~wedge_billiard.collision_maps.MapState` fills its own.  Only the
oracle and the columns' numpy views load numpy.
"""

from __future__ import annotations

import math
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
        # pre, post, rotating_post, then the columns and row they are built from
        _set_parts(self, [pre, post, rotating_post, None, -1])

    @property
    def pre(self) -> CartesianState:
        parts = self._parts
        if parts[0] is None:
            cols, i = parts[3], parts[4]
            parts[0] = CartesianState(cols.x[i], cols.y[i], cols.u_pre[i], cols.w_pre[i], self.t)
        return parts[0]

    @property
    def post(self) -> CartesianState:
        parts = self._parts
        if parts[1] is None:
            cols, i = parts[3], parts[4]
            parts[1] = CartesianState(cols.x[i], cols.y[i], cols.u[i], cols.w[i], self.t)
        return parts[1]

    @property
    def rotating_post(self) -> RotatingFrameMomentum:
        parts = self._parts
        if parts[2] is None:
            cols, i = parts[3], parts[4]
            u, w, sin_t, cos_t = cols.u[i], cols.w[i], cols.sin_t, cols.cos_t
            # to_wedge written out; wall A's tangent and inward normal are
            # the wedge axes, and wall B's the same axes swapped
            u_bar, w_bar = u * sin_t + w * cos_t, -u * cos_t + w * sin_t
            if cols.wall[i]:
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


# The columns an engine writes: the only names EventSequence reads
_COLUMN_NAMES = ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w")


class EventColumns:
    """Per-event columns written by the event loops, one entry per collision.

    ``wall`` holds the index of the wall in :data:`WALLS`, ``t`` the clock,
    ``x, y`` the collision point, ``u_pre, w_pre`` the landing momentum and
    ``u, w`` the reflected one.  ``sin_t, cos_t`` are the wedge angle's
    trig, which :attr:`CollisionEvent.rotating_post` reads.  Nothing derived
    from the columns is stored.
    """

    __slots__ = (*_COLUMN_NAMES, "sin_t", "cos_t")

    def __init__(self, angle: WedgeAngle):
        self.wall = array("B")
        self.t, self.x, self.y = array("d"), array("d"), array("d")
        self.u_pre, self.w_pre = array("d"), array("d")
        self.u, self.w = array("d"), array("d")
        self.sin_t, self.cos_t = angle.sin, angle.cos


class EventSequence(Sequence):
    """Read-only sequence of a trajectory's collision events.

    Events are built on access, and an event's ``pre``, ``post`` and
    ``rotating_post`` when first read, then kept for repeat reads.  Two
    lookups of one index give equal events, not always one object.  A slice
    is another sequence over the same columns; equal to tuples of equal events.
    """

    __slots__ = ("_columns", "_range", "_memo")

    def __init__(self, columns: EventColumns, indices: range | None = None):
        self._columns = columns
        self._range = range(len(columns.t)) if indices is None else indices
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
        stored, index = self._column(name)
        values = np.frombuffer(stored, dtype=np.uint8 if name == "wall" else float)[index]
        values.flags.writeable = False
        return values

    def stored(self, name: str) -> array:
        """A copy of one column the engine wrote, as the ``array`` it wrote:
        ``wall`` of type ``B``, the others of type ``d``.  Needs no numpy."""
        stored, index = self._column(name)
        return stored[index]

    def _column(self, name: str) -> tuple[array, slice]:
        """The whole stored column ``name`` of :data:`_COLUMN_NAMES`, and the
        slice of it that this sequence covers."""
        if name not in _COLUMN_NAMES:
            names = ", ".join(_COLUMN_NAMES)
            raise ValueError(f"no stored column {name!r}; the columns are {names}")
        r = self._range
        # a descending range that ends at index 0 stops at -1, which a
        # slice would read as the last index
        return getattr(self._columns, name), slice(r.start, None if r.stop < 0 else r.stop, r.step)


def _event(columns: EventColumns, i: int, memo: list) -> CollisionEvent:
    """Event ``i`` of ``columns``, its parts left to be built when read, kept
    as ``memo``'s one event: the one builder of a stored event."""
    event = _new(CollisionEvent)
    _set_wall(event, WALLS[columns.wall[i]])
    _set_t(event, columns.t[i])
    _set_parts(event, [None, None, None, columns, i])
    memo[0] = (i, event)
    return event


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A simulated run: launch state, wedge angle, collision events and why
    the run stopped early, if it did.

    ``events`` is an :class:`EventSequence` over the :class:`EventColumns`
    an engine wrote.  The run is fixed by its launch and angle, so its
    conserved quantities are worked out from the launch: ``energy`` is the
    Hamiltonian and ``wedge_integrals`` the pair of one-dimensional
    energies, all three conserved along the run up to rounding.
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


# Events the loop buffers as rows before it copies them into the columns;
# 256 costs ~0.1 MB, and larger chunks are no faster
_CHUNK = 256


def _run(
    x: float, y: float, u: float, w: float, t: float, angle: WedgeAngle, n: int
) -> tuple[EventColumns, Termination | None]:
    """Up to ``n`` collisions from the lab state ``(x, y, u, w)`` at clock
    ``t``: the columns of the events, and the :class:`Termination` that
    ended the run early, or None.

    The caller has tested the start with :func:`_sliding_start`.  Each event
    is the earlier of the two bouncers' first landings, reflected with the
    wall normal.  A flight that ends at the vertex or in a grazing landing
    ends the run, stamped with its landing clock, so no later state is tested
    for sliding.  With no root ahead on either wall the state sits at the
    vertex and is leaving the wedge: a vertex hit at the state's own clock.
    Events are buffered as rows and copied into the columns a chunk at a
    time.
    """
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle)
    # first hits inline, one row write per event: 0.8x the time of 2 _first_hit calls + 7 appends
    two_sin, two_cos = 2.0 * sin_t, 2.0 * cos_t
    sqrt, inf = math.sqrt, math.inf
    add_wall = columns.wall.append
    float_columns = (
        columns.t, columns.x, columns.y, columns.u_pre, columns.w_pre, columns.u, columns.w
    )
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
            if t_a == t_b == inf:
                termination = Termination(TerminationKind.VERTEX_HIT, t)
                break
            if abs(t_a - t_b) <= TIE_EPS:
                termination = Termination(TerminationKind.VERTEX_HIT, t + min(t_a, t_b))
                break
            # The root has rounding-level residual; place the collision exactly
            # on the wall so on-wall invariants survive arbitrarily long runs.
            # (from_wedge of (s_land, 0) or (0, s_land), written out as to_wedge is)
            if t_a < t_b:
                dt, code = t_a, 0
                s_land = x_tilde + u_tilde * dt - cos_t * dt * dt / 2.0
                v_n = abs(w_tilde - sin_t * dt)
                x, y = s_land * sin_t, s_land * cos_t
                nx, ny = -cos_t, sin_t
            else:
                dt, code = t_b, 1
                s_land = y_tilde + w_tilde * dt - sin_t * dt * dt / 2.0
                v_n = abs(u_tilde - cos_t * dt)
                x, y = -s_land * cos_t, s_land * sin_t
                nx, ny = sin_t, cos_t
            if s_land < VERTEX_EPS:
                termination = Termination(TerminationKind.VERTEX_HIT, t + dt)
                break
            if v_n < GRAZING_EPS:
                termination = Termination(TerminationKind.DEGENERATE, t + dt, v_n)
                break
            t += dt
            w_land = w - dt
            p_n = u * nx + w_land * ny
            u_pre = u
            u -= 2.0 * p_n * nx
            w = w_land - 2.0 * p_n * ny
            add_wall(code)
            add_row((t, x, y, u_pre, w_land, u, w))
        # the rows' floats, de-interleaved into their columns
        buffered = array("d", rows)
        for j, column in enumerate(float_columns):
            column.extend(buffered[j::7])
        rows.clear()
        start += _CHUNK
    return columns, termination


def next_collision(s: CartesianState, angle: WedgeAngle) -> tuple[float, Wall] | Termination:
    """Time of flight to the next wall and which wall it is.

    A flight that does not end in a clean reflection returns its
    :class:`Termination`, whose clock is the time of flight from ``s``.
    This is :func:`simulate`'s first event from ``s`` at clock 0, whose clock
    ``0 + dt`` is ``dt`` exactly; the launch is not validated.
    """
    sin_t, cos_t = angle.sin, angle.cos
    termination = _sliding_start(
        *to_wedge(s.x, s.y, sin_t, cos_t), *to_wedge(s.u, s.w, sin_t, cos_t), 0.0
    )
    if termination is None:
        columns, termination = _run(s.x, s.y, s.u, s.w, 0.0, angle, 1)
    if termination is not None:
        return termination
    return columns.t[0], WALLS[columns.wall[0]]


def _sliding_start(
    x_tilde: float, y_tilde: float, u_tilde: float, w_tilde: float, t: float
) -> Termination | None:
    """The :class:`Termination` at clock ``t`` of a start, given in the wedge
    frame, that rests on a wall with no normal momentum: it is already
    sliding.  None for any other start."""
    if y_tilde <= ON_WALL_TOL and abs(w_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(w_tilde))
    if x_tilde <= ON_WALL_TOL and abs(u_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(u_tilde))
    return None


def _validate_run(
    initial: CartesianState, angle: WedgeAngle, n: int
) -> tuple[float, float, float, float]:
    """Raise ValueError for a launch :func:`simulate` rejects, else return the
    launch in the wedge frame, ``(x_tilde, y_tilde, u_tilde, w_tilde)``."""
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
    return x_tilde, y_tilde, u_tilde, w_tilde


def simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Run the event loop for n collisions.

    Vertex hits and grazing landings end the loop with a
    :class:`Termination`, and the trajectory keeps every event produced up
    to that point.  Raises ValueError for a launch outside the wedge, with
    energy outside (0, MAX_ENERGY], with a clock that is not finite, or
    moving out through the wall it sits on.
    """
    launch = _validate_run(initial, angle, n)
    termination = _sliding_start(*launch, initial.t) if n > 0 else None
    if termination is None:
        columns, termination = _run(initial.x, initial.y, initial.u, initial.w, initial.t, angle, n)
    else:
        columns = EventColumns(angle)
    return Trajectory(initial, angle, EventSequence(columns), termination)


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
    xt, yt, ut, wt = _validate_run(initial, angle, n)
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle)
    t0 = initial.t

    def finish(termination: Termination | None = None) -> Trajectory:
        return Trajectory(initial, angle, EventSequence(columns), termination)

    if n == 0:
        return finish()
    sliding = _sliding_start(xt, yt, ut, wt, t0)
    if sliding is not None:
        return finish(sliding)
    # the two bouncers by wall code: 0 is wall A, which y_tilde hits with
    # gravity sin(theta), and 1 is wall B, which x_tilde hits with cos(theta)
    first = [_first_hit(yt, wt, sin_t), _first_hit(xt, ut, cos_t)]
    if None in first:
        # a bouncer with no root ahead stays beyond its wall, so the other
        # one's first hit lands past the vertex
        ahead = [hit for hit in first if hit is not None]
        return finish(Termination(TerminationKind.VERTEX_HIT, t0 + min(ahead, default=0.0)))
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
    other = 1 - code
    # how many hits the other bouncer made before each one: the hits before
    # it less its own index in its progression
    before = np.arange(n + 1) - own_index
    # the other bouncer flies from its last hit; before its first it flies
    # the same parabola, from a takeoff one period before that hit
    since = r - (first[other] + period[other] * (before - 1))
    height = speed[other] * since - gravity[other] * since * since / 2.0
    velocity = speed[other] - gravity[other] * since

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
        t_stop = t0 + float(r[k])
        if vertex[k]:
            termination = Termination(TerminationKind.VERTEX_HIT, t_stop)
        else:
            termination = Termination(TerminationKind.DEGENERATE, t_stop, float(own_speed[k]))

    # rows: height, landing velocity, outgoing velocity.  The other bouncer
    # is in flight; at its own hit a bouncer sits on its wall and its
    # velocity turns from -V to V
    code, height, velocity = code[:k], height[:k], velocity[:k]
    flight = np.array([height, velocity, velocity])
    own = np.array([[0.0], [-1.0], [1.0]]) * own_speed[:k]
    tilde_x = np.where(code, own, flight)
    tilde_y = np.where(code, flight, own)
    # wedge -> lab: rows (x, u_pre, u) and (y, w_pre, w)
    lab_x, lab_y = from_wedge(tilde_x, tilde_y, sin_t, cos_t)
    for column, values in (
        (columns.wall, code.astype(np.uint8)),
        (columns.t, t0 + r[:k]),
        (columns.x, lab_x[0]),
        (columns.y, lab_y[0]),
        (columns.u_pre, lab_x[1]),
        (columns.w_pre, lab_y[1]),
        (columns.u, lab_x[2]),
        (columns.w, lab_y[2]),
    ):
        column.frombytes(values.tobytes())
    return finish(termination)
