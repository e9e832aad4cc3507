"""Event-driven simulation of a point mass falling inside the wedge.

Between collisions the particle follows an exact parabola (dimensionless
units: unit mass, unit gravity).  Collisions are elastic specular
reflections.  Collision times are roots of per-wall quadratics, so the whole
simulation is closed form; no time stepping is involved.

Two independent integrators are provided.  :func:`simulate` works in lab
coordinates: it root-solves the signed distance to each wall and reflects
momenta with the wall normal.  :func:`decoupled_simulate` evolves the two
wall-aligned coordinates as independent one-dimensional bouncers (gravity
components ``cos(theta)`` and ``sin(theta)``) and must reproduce
:func:`simulate` event for event; each serves as an oracle for the other.

Both write each event's floats to :class:`EventColumns`;
:attr:`Trajectory.events` is a read-only view that builds a
:class:`CollisionEvent` only when one is asked for.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frames import RotatingFrameMomentum, frame_angle
from .geometry import Wall, WedgeAngle, contains, wall_frame, wall_point

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


class SimulationError(Exception):
    """Base class for event-loop failures."""


class VertexHitError(SimulationError):
    """The flight lands at (or indistinguishably close to) the wedge vertex."""

    def __init__(self, dt: float):
        super().__init__(f"trajectory reaches the vertex after dt={dt!r}")
        self.dt = dt


class DegenerateError(SimulationError):
    """The flight lands with (near-)zero normal speed: a sliding state."""

    def __init__(self, dt: float, normal_speed: float):
        super().__init__(
            f"grazing collision after dt={dt!r} (normal speed {normal_speed!r})"
        )
        self.dt = dt
        self.normal_speed = normal_speed


class NoCollisionError(SimulationError):
    """No positive collision time exists; unreachable from a valid state."""


class NotOnWallError(ValueError):
    """Reflection requested for a state that does not sit on the named wall."""


class OutgoingMomentumError(ValueError):
    """Reflection requested for a state already moving into the region."""


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

    @property
    def momentum(self) -> tuple[float, float]:
        return self.u, self.w


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    """One wall collision.

    ``pre`` and ``post`` share the collision point and clock; ``post`` has
    the reflected momentum.  ``rotating_post`` is the outgoing momentum in
    the wall's collision frame (tangential away from the vertex, normal into
    the region), so its ``w_bar`` is always nonnegative.
    """

    wall: Wall
    t: float
    pre: CartesianState
    post: CartesianState
    rotating_post: RotatingFrameMomentum


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


class EventColumns:
    """Per-event columns written by the event loops, one entry per collision.

    ``wall`` holds the index of the wall in :data:`WALLS`, ``t`` the clock,
    ``x, y`` the collision point, ``u_pre, w_pre`` the landing momentum and
    ``u, w`` the reflected one.  The collision-frame momentum is stored in
    ``u_bar, w_bar`` only when it was not computed as the projection of
    ``(u, w)`` on the wall's tangent and normal (the decoupled oracle
    resolves it in wedge coordinates).  Otherwise those two are ``None`` and
    the projection is made on read, in the same floating-point operations
    the lab-frame reflection would use, so its values are the same.
    """

    __slots__ = (
        "wall", "t", "x", "y", "u_pre", "w_pre", "u", "w", "u_bar", "w_bar",
        "frames", "phi", "_memo",
    )

    def __init__(self, angle: WedgeAngle, stores_collision_frame: bool = False):
        self.wall = array("B")
        self.t, self.x, self.y = array("d"), array("d"), array("d")
        self.u_pre, self.w_pre = array("d"), array("d")
        self.u, self.w = array("d"), array("d")
        self.u_bar = array("d") if stores_collision_frame else None
        self.w_bar = array("d") if stores_collision_frame else None
        sin_t, cos_t = angle.sin, angle.cos
        # (tangent, inward normal) of each wall, indexed like WALLS
        self.frames = ((sin_t, cos_t, -cos_t, sin_t), (-cos_t, sin_t, sin_t, cos_t))
        self.phi = (frame_angle(Wall.A, angle), frame_angle(Wall.B, angle))
        # (index, event) of the last event built: iterating ``events`` and
        # ``events[1:]`` side by side then builds each event once
        self._memo: tuple[int, CollisionEvent | None] = (-1, None)

    @classmethod
    def from_events(cls, events, angle: WedgeAngle) -> "EventColumns":
        """Columns holding the given events.

        Raises ValueError for an event the columns cannot hold: ``pre`` and
        ``post`` must share the collision point and clock, and the frame
        angle must be the wall's.
        """
        columns = cls(angle, stores_collision_frame=True)
        for event in events:
            pre, post, rotating = event.pre, event.post, event.rotating_post
            code = WALLS.index(event.wall)
            if (pre.x, pre.y, pre.t, post.t) != (post.x, post.y, event.t, event.t) or (
                rotating.phi != columns.phi[code]
            ):
                raise ValueError(f"event at t={event.t!r} does not fit the event columns")
            columns.wall.append(code)
            columns.t.append(event.t)
            columns.x.append(post.x)
            columns.y.append(post.y)
            columns.u_pre.append(pre.u)
            columns.w_pre.append(pre.w)
            columns.u.append(post.u)
            columns.w.append(post.w)
            columns.u_bar.append(rotating.u_bar)
            columns.w_bar.append(rotating.w_bar)
        return columns

    def __len__(self) -> int:
        return len(self.t)

    def event(self, i: int) -> CollisionEvent:
        """The i-th event, built from the columns."""
        memo_index, memo_event = self._memo
        if memo_index == i:
            return memo_event
        code, t, x, y = self.wall[i], self.t[i], self.x[i], self.y[i]
        u, w = self.u[i], self.w[i]
        if self.u_bar is None:
            tx, ty, nx, ny = self.frames[code]
            u_bar, w_bar = u * tx + w * ty, u * nx + w * ny
        else:
            u_bar, w_bar = self.u_bar[i], self.w_bar[i]
        event = CollisionEvent(
            WALLS[code],
            t,
            CartesianState(x, y, self.u_pre[i], self.w_pre[i], t),
            CartesianState(x, y, u, w, t),
            RotatingFrameMomentum(u_bar, w_bar, self.phi[code]),
        )
        self._memo = (i, event)
        return event

    def column(self, name: str, index: slice) -> np.ndarray:
        """Read-only array of one column's entries at ``index``."""
        if name in ("u_bar", "w_bar") and self.u_bar is None:
            # the same operations as event() does per event
            tx, ty, nx, ny = np.array(self.frames)[self.column("wall", index)].T
            u, w = self.column("u", index), self.column("w", index)
            values = u * tx + w * ty if name == "u_bar" else u * nx + w * ny
        else:
            stored = getattr(self, name)
            values = np.frombuffer(stored, dtype=np.uint8 if name == "wall" else float)[index]
        values.flags.writeable = False
        return values


class EventSequence(Sequence):
    """Read-only sequence of a trajectory's collision events.

    Events are built from :class:`EventColumns` on access, so two lookups of
    one index give equal events that need not be the same object.  A slice
    is another sequence over the same columns.  Compares equal to tuples of
    equal events.
    """

    __slots__ = ("_columns", "_range")

    def __init__(self, columns: EventColumns, indices: range | None = None):
        self._columns = columns
        self._range = range(len(columns)) if indices is None else indices

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventSequence(self._columns, self._range[index])
        return self._columns.event(self._range[index])

    def __iter__(self) -> Iterator[CollisionEvent]:
        event = self._columns.event
        for i in self._range:
            yield event(i)

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
        """Read-only array of one per-event value, without building events.

        ``name`` is a column of :class:`EventColumns`: ``wall`` (uint8 index
        into :data:`WALLS`), ``t``, ``x``, ``y``, ``u_pre``, ``w_pre``, ``u``,
        ``w``, ``u_bar`` or ``w_bar``.
        """
        r = self._range
        # a descending range that ends at index 0 stops at -1, which a
        # slice would read as the last index
        return self._columns.column(name, slice(r.start, None if r.stop < 0 else r.stop, r.step))


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A simulated run: launch state, collision events, conserved quantities.

    ``energy`` is the Hamiltonian of the launch state and
    ``wedge_integrals`` the pair of one-dimensional energies; all three are
    conserved along the run up to rounding.  ``events`` may be given as any
    sequence of :class:`CollisionEvent`; it is stored as
    :class:`EventColumns` and read back as an :class:`EventSequence`.
    """

    initial: CartesianState
    theta: WedgeAngle
    events: Sequence[CollisionEvent]
    energy: float
    wedge_integrals: tuple[float, float]
    termination: Termination | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, EventSequence):
            columns = EventColumns.from_events(self.events, self.theta)
            object.__setattr__(self, "events", EventSequence(columns))

    def flights(self) -> Iterator[tuple[float, float, float, float, float]]:
        """``(duration, x, y, u, w)`` of each flight arc: the state it starts
        from (the launch, then each event's outgoing state) and its time to
        the next event."""
        events = self.events
        start = self.initial
        t0, x0, y0, u0, w0 = start.t, start.x, start.y, start.u, start.w
        columns = (events.column(name).tolist() for name in ("t", "x", "y", "u", "w"))
        for t, x, y, u, w in zip(*columns):
            yield t - t0, x0, y0, u0, w0
            t0, x0, y0, u0, w0 = t, x, y, u, w


def hamiltonian(s: CartesianState) -> float:
    """Total energy: kinetic part plus height."""
    return (s.u * s.u + s.w * s.w) / 2.0 + s.y


def wedge_hamiltonians(s: CartesianState, angle: WedgeAngle) -> tuple[float, float]:
    """The two one-dimensional energies whose sum is the Hamiltonian.

    Each is conserved separately along a trajectory: a wall-A collision
    reverses only ``w_tilde``, a wall-B collision only ``u_tilde``, and free
    flight splits into two independent constant-gravity motions.
    """
    return wedge_energies(s.x, s.y, s.u, s.w, angle.sin, angle.cos)


def wedge_energies(
    x: float, y: float, u: float, w: float, sin_t: float, cos_t: float
) -> tuple[float, float]:
    """:func:`wedge_hamiltonians` of the lab state ``(x, y, u, w)``."""
    x_tilde = x * sin_t + y * cos_t
    y_tilde = -x * cos_t + y * sin_t
    u_tilde = u * sin_t + w * cos_t
    w_tilde = -u * cos_t + w * sin_t
    return (
        u_tilde * u_tilde / 2.0 + x_tilde * cos_t,
        w_tilde * w_tilde / 2.0 + y_tilde * sin_t,
    )


def free_flight(s: CartesianState, dt: float) -> CartesianState:
    """Parabolic flight for a time dt >= 0."""
    if dt < 0.0:
        raise ValueError(f"flight time must be nonnegative, got {dt!r}")
    return CartesianState(
        x=s.x + s.u * dt,
        y=s.y + s.w * dt - dt * dt / 2.0,
        u=s.u,
        w=s.w - dt,
        t=s.t + dt,
    )


def launch_from_wall(
    wall: Wall, s: float, u_bar: float, w_bar: float, angle: WedgeAngle, t: float = 0.0
) -> CartesianState:
    """Post-collision style launch state on a wall.

    ``u_bar`` is the momentum along the wall away from the vertex and
    ``w_bar`` the momentum along the inward normal.
    """
    tangent, normal = wall_frame(wall, angle)
    q = wall_point(wall, s, angle)
    return CartesianState(
        x=float(q[0]),
        y=float(q[1]),
        u=float(u_bar * tangent[0] + w_bar * normal[0]),
        w=float(u_bar * tangent[1] + w_bar * normal[1]),
        t=t,
    )


def _smallest_root(d0: float, v0: float, g: float) -> float | None:
    """Smallest root above T_EPS of d0 + v0*t - g*t^2/2 = 0, or None.

    The parabola opens downward (g > 0), so from inside the region
    (d0 >= 0) the smaller root is nonpositive and the larger one is the
    physical exit time.  The T_EPS cutoff discards the residual root left
    over when the state sits on the wall it just bounced off.
    """
    disc = v0 * v0 + 2.0 * g * d0
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t_small = (v0 - root) / g
    if t_small > T_EPS:
        return t_small
    t_large = (v0 + root) / g
    if t_large > T_EPS:
        return t_large
    return None


def _next_collision_scalar(
    x_tilde: float,
    y_tilde: float,
    u_tilde: float,
    w_tilde: float,
    sin_t: float,
    cos_t: float,
    t: float,
) -> tuple[float, Wall, float, float] | Termination:
    """Next collision in wedge scalars: (dt, wall, landing arclength, speed).

    A flight that ends at the vertex or in a grazing landing returns its
    :class:`Termination` instead, stamped with the clock ``t + dt``.
    """
    # a state resting on a wall with no normal momentum is already sliding
    if y_tilde <= ON_WALL_TOL and abs(w_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(w_tilde))
    if x_tilde <= ON_WALL_TOL and abs(u_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(u_tilde))
    t_a = _smallest_root(y_tilde, w_tilde, sin_t)
    t_b = _smallest_root(x_tilde, u_tilde, cos_t)
    if t_a is None and t_b is None:
        raise NoCollisionError("no positive collision time from this state")
    if t_a is not None and t_b is not None and abs(t_a - t_b) <= TIE_EPS:
        return Termination(TerminationKind.VERTEX_HIT, t + min(t_a, t_b))
    if t_b is None or (t_a is not None and t_a < t_b):
        dt, wall = t_a, Wall.A
        s_land = x_tilde + u_tilde * dt - cos_t * dt * dt / 2.0
        v_n = abs(w_tilde - sin_t * dt)
    else:
        dt, wall = t_b, Wall.B
        s_land = y_tilde + w_tilde * dt - sin_t * dt * dt / 2.0
        v_n = abs(u_tilde - cos_t * dt)
    if s_land < VERTEX_EPS:
        return Termination(TerminationKind.VERTEX_HIT, t + dt)
    if v_n < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t + dt, v_n)
    return dt, wall, s_land, v_n


def next_collision(s: CartesianState, angle: WedgeAngle) -> tuple[float, Wall]:
    """Time of flight to the next wall and which wall it is.

    Raises :class:`VertexHitError`, :class:`DegenerateError` or
    :class:`NoCollisionError` when the flight does not end in a clean
    reflection.
    """
    sin_t, cos_t = angle.sin, angle.cos
    x_tilde = s.x * sin_t + s.y * cos_t
    y_tilde = -s.x * cos_t + s.y * sin_t
    u_tilde = s.u * sin_t + s.w * cos_t
    w_tilde = -s.u * cos_t + s.w * sin_t
    step = _next_collision_scalar(x_tilde, y_tilde, u_tilde, w_tilde, sin_t, cos_t, 0.0)
    if isinstance(step, Termination):
        # from clock 0 the termination's clock is the time of flight
        if step.kind is TerminationKind.VERTEX_HIT:
            raise VertexHitError(step.t)
        raise DegenerateError(step.t, step.normal_speed)
    dt, wall, _, _ = step
    return dt, wall


def reflect(s: CartesianState, wall: Wall, angle: WedgeAngle) -> CartesianState:
    """Specular reflection at a wall: flip the normal momentum component.

    The state must sit on the named wall and must not already be moving
    into the region.  A state moving exactly parallel to the wall is left
    unchanged.
    """
    sin_t, cos_t = angle.sin, angle.cos
    if wall is Wall.A:
        dist = -s.x * cos_t + s.y * sin_t
        nx, ny = -cos_t, sin_t
    else:
        dist = s.x * sin_t + s.y * cos_t
        nx, ny = sin_t, cos_t
    if abs(dist) > ON_WALL_TOL:
        raise NotOnWallError(
            f"state sits {dist!r} off wall {wall.value}; cannot reflect"
        )
    p_n = s.u * nx + s.w * ny
    if p_n > 0.0:
        raise OutgoingMomentumError(
            f"normal momentum {p_n!r} already points into the region"
        )
    return CartesianState(
        x=s.x, y=s.y, u=s.u - 2.0 * p_n * nx, w=s.w - 2.0 * p_n * ny, t=s.t
    )


def _validate_launch(initial: CartesianState, angle: WedgeAngle) -> float:
    if not contains(initial.position, angle):
        raise ValueError(f"launch position {initial.position} lies outside the wedge")
    energy = hamiltonian(initial)
    if not math.isfinite(energy) or energy <= 0.0:
        raise ValueError(f"launch energy must be positive and finite, got {energy!r}")
    return energy


def simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Run the event loop for n collisions.

    Vertex hits and grazing landings are recorded as terminations rather
    than raised, so a truncated trajectory is still returned with every
    event produced up to that point.
    """
    if n < 0:
        raise ValueError(f"collision count must be nonnegative, got {n!r}")
    energy = _validate_launch(initial, angle)
    integrals = wedge_hamiltonians(initial, angle)
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle)
    add_wall, add_t, add_x, add_y = (
        columns.wall.append, columns.t.append, columns.x.append, columns.y.append
    )
    add_u_pre, add_w_pre, add_u, add_w = (
        columns.u_pre.append, columns.w_pre.append, columns.u.append, columns.w.append
    )

    x, y, u, w, t = initial.x, initial.y, initial.u, initial.w, initial.t
    termination: Termination | None = None

    x_tilde = x * sin_t + y * cos_t
    y_tilde = -x * cos_t + y * sin_t
    u_tilde = u * sin_t + w * cos_t
    w_tilde = -u * cos_t + w * sin_t

    for _ in range(n):
        step = _next_collision_scalar(x_tilde, y_tilde, u_tilde, w_tilde, sin_t, cos_t, t)
        if isinstance(step, Termination):
            termination = step
            break
        dt, wall, s_land, _ = step
        t += dt
        u_land = u
        w_land = w - dt
        # The root has rounding-level residual; place the collision exactly
        # on the wall so on-wall invariants survive arbitrarily long runs.
        if wall is Wall.A:
            x, y = s_land * sin_t, s_land * cos_t
            nx, ny = -cos_t, sin_t
            add_wall(0)
        else:
            x, y = -s_land * cos_t, s_land * sin_t
            nx, ny = sin_t, cos_t
            add_wall(1)
        p_n = u_land * nx + w_land * ny
        u = u_land - 2.0 * p_n * nx
        w = w_land - 2.0 * p_n * ny
        add_t(t)
        add_x(x)
        add_y(y)
        add_u_pre(u_land)
        add_w_pre(w_land)
        add_u(u)
        add_w(w)
        x_tilde = x * sin_t + y * cos_t
        y_tilde = -x * cos_t + y * sin_t
        u_tilde = u * sin_t + w * cos_t
        w_tilde = -u * cos_t + w * sin_t

    return Trajectory(
        initial=initial,
        theta=angle,
        events=EventSequence(columns),
        energy=energy,
        wedge_integrals=integrals,
        termination=termination,
    )


def decoupled_simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Event loop in wall-aligned coordinates: two independent 1-D bouncers.

    The coordinate along wall A falls with gravity ``cos(theta)`` and
    bounces at zero (a wall-B collision); the coordinate along wall B falls
    with gravity ``sin(theta)`` and bounces at zero (a wall-A collision).
    Bounce times are closed form per axis.  Output matches
    :func:`simulate` event for event.
    """
    if n < 0:
        raise ValueError(f"collision count must be nonnegative, got {n!r}")
    energy = _validate_launch(initial, angle)
    integrals = wedge_hamiltonians(initial, angle)
    sin_t, cos_t = angle.sin, angle.cos
    columns = EventColumns(angle, stores_collision_frame=True)

    t = initial.t
    xt = initial.x * sin_t + initial.y * cos_t
    yt = -initial.x * cos_t + initial.y * sin_t
    ut = initial.u * sin_t + initial.w * cos_t
    wt = -initial.u * cos_t + initial.w * sin_t
    termination: Termination | None = None

    for _ in range(n):
        if yt <= ON_WALL_TOL and abs(wt) < GRAZING_EPS:
            termination = Termination(TerminationKind.DEGENERATE, t, abs(wt))
            break
        if xt <= ON_WALL_TOL and abs(ut) < GRAZING_EPS:
            termination = Termination(TerminationKind.DEGENERATE, t, abs(ut))
            break
        t_a = _smallest_root(yt, wt, sin_t)
        t_b = _smallest_root(xt, ut, cos_t)
        if t_a is None and t_b is None:
            raise NoCollisionError("no positive bounce time from this state")
        if t_a is not None and t_b is not None and abs(t_a - t_b) <= TIE_EPS:
            termination = Termination(TerminationKind.VERTEX_HIT, t + min(t_a, t_b))
            break
        if t_b is None or (t_a is not None and t_a < t_b):
            dt, wall = t_a, Wall.A
        else:
            dt, wall = t_b, Wall.B
        xt_land = xt + ut * dt - cos_t * dt * dt / 2.0
        yt_land = yt + wt * dt - sin_t * dt * dt / 2.0
        ut_land = ut - cos_t * dt
        wt_land = wt - sin_t * dt
        if wall is Wall.A:
            s_land, v_n = xt_land, abs(wt_land)
            yt_land = 0.0
        else:
            s_land, v_n = yt_land, abs(ut_land)
            xt_land = 0.0
        if s_land < VERTEX_EPS:
            termination = Termination(TerminationKind.VERTEX_HIT, t + dt)
            break
        if v_n < GRAZING_EPS:
            termination = Termination(TerminationKind.DEGENERATE, t + dt, v_n)
            break
        t += dt
        columns.t.append(t)
        columns.x.append(xt_land * sin_t - yt_land * cos_t)
        columns.y.append(xt_land * cos_t + yt_land * sin_t)
        columns.u_pre.append(ut_land * sin_t - wt_land * cos_t)
        columns.w_pre.append(ut_land * cos_t + wt_land * sin_t)
        if wall is Wall.A:
            wt_land = -wt_land
            columns.wall.append(0)
            columns.u_bar.append(ut_land)
            columns.w_bar.append(wt_land)
        else:
            ut_land = -ut_land
            columns.wall.append(1)
            columns.u_bar.append(wt_land)
            columns.w_bar.append(ut_land)
        columns.u.append(ut_land * sin_t - wt_land * cos_t)
        columns.w.append(ut_land * cos_t + wt_land * sin_t)
        xt, yt, ut, wt = xt_land, yt_land, ut_land, wt_land

    return Trajectory(
        initial=initial,
        theta=angle,
        events=EventSequence(columns),
        energy=energy,
        wedge_integrals=integrals,
        termination=termination,
    )
