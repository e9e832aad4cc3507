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

from .geometry import Wall, WedgeAngle, contains, to_wedge, wall_frame, wall_point

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
class RotatingFrameMomentum:
    """Momentum in a wall's collision frame: ``u_bar`` along the wall away
    from the vertex, ``w_bar`` along the inward normal."""

    u_bar: float
    w_bar: float


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
    ``u, w`` the reflected one.  The collision-frame momentum ``u_bar,
    w_bar`` is not stored: :meth:`collision_frame` works it out from
    ``(u, w)`` and the wall.  Wall A's tangent and inward normal are the two
    wedge axes, and wall B's are the same axes in the other order.
    """

    __slots__ = ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w", "sin_t", "cos_t", "_memo")

    def __init__(self, angle: WedgeAngle):
        self.wall = array("B")
        self.t, self.x, self.y = array("d"), array("d"), array("d")
        self.u_pre, self.w_pre = array("d"), array("d")
        self.u, self.w = array("d"), array("d")
        self.sin_t, self.cos_t = angle.sin, angle.cos
        # (index, event) of the last event built: iterating ``events`` and
        # ``events[1:]`` side by side then builds each event once
        self._memo: tuple[int, CollisionEvent | None] = (-1, None)

    def collision_frame(self, code: int, u: float, w: float) -> RotatingFrameMomentum:
        """Outgoing momentum ``(u, w)`` in the frame of wall ``WALLS[code]``."""
        u_tilde, w_tilde = to_wedge(u, w, self.sin_t, self.cos_t)
        if code == 0:
            return RotatingFrameMomentum(u_tilde, w_tilde)
        return RotatingFrameMomentum(w_tilde, u_tilde)

    @classmethod
    def from_events(cls, events, angle: WedgeAngle) -> "EventColumns":
        """Columns holding the given events.

        Raises ValueError for an event the columns cannot hold: ``pre`` and
        ``post`` must share the collision point and clock, and
        ``rotating_post`` must equal the collision frame of ``post``'s
        momentum exactly.
        """
        columns = cls(angle)
        for event in events:
            pre, post = event.pre, event.post
            code = WALLS.index(event.wall)
            if (pre.x, pre.y, pre.t, post.t) != (post.x, post.y, event.t, event.t) or (
                event.rotating_post != columns.collision_frame(code, post.u, post.w)
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
        event = CollisionEvent(
            WALLS[code],
            t,
            CartesianState(x, y, self.u_pre[i], self.w_pre[i], t),
            CartesianState(x, y, u, w, t),
            self.collision_frame(code, u, w),
        )
        self._memo = (i, event)
        return event

    def column(self, name: str, index: slice) -> np.ndarray:
        """Read-only array of one column's entries at ``index``."""
        if name in ("u_bar", "w_bar"):
            # the same operations as collision_frame() does per event
            u_tilde, w_tilde = to_wedge(
                self.column("u", index), self.column("w", index), self.sin_t, self.cos_t
            )
            on_a = self.column("wall", index) == 0
            if name == "u_bar":
                values = np.where(on_a, u_tilde, w_tilde)
            else:
                values = np.where(on_a, w_tilde, u_tilde)
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
    x: float, y: float, u: float, w: float, sin_t: float, cos_t: float, t: float
) -> tuple[float, Wall, float, float] | Termination:
    """Next collision from the lab state ``(x, y, u, w)`` at clock ``t``:
    (dt, wall, landing arclength, landing normal speed).

    A flight that ends at the vertex or in a grazing landing returns its
    :class:`Termination` instead, stamped with the clock ``t + dt``.  With
    no root ahead on either wall the state sits at the vertex and is
    leaving the wedge: a vertex hit at ``t``.
    """
    # to_wedge written out: two calls would cost 7-10% of simulate's loop
    x_tilde = x * sin_t + y * cos_t
    y_tilde = -x * cos_t + y * sin_t
    u_tilde = u * sin_t + w * cos_t
    w_tilde = -u * cos_t + w * sin_t
    # a state resting on a wall with no normal momentum is already sliding
    if y_tilde <= ON_WALL_TOL and abs(w_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(w_tilde))
    if x_tilde <= ON_WALL_TOL and abs(u_tilde) < GRAZING_EPS:
        return Termination(TerminationKind.DEGENERATE, t, abs(u_tilde))
    t_a = _smallest_root(y_tilde, w_tilde, sin_t)
    t_b = _smallest_root(x_tilde, u_tilde, cos_t)
    if t_a is None and t_b is None:
        return Termination(TerminationKind.VERTEX_HIT, t)
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


def next_collision(s: CartesianState, angle: WedgeAngle) -> tuple[float, Wall] | Termination:
    """Time of flight to the next wall and which wall it is.

    A flight that does not end in a clean reflection returns its
    :class:`Termination`, whose clock is the time of flight from ``s``.
    """
    step = _next_collision_scalar(s.x, s.y, s.u, s.w, angle.sin, angle.cos, 0.0)
    if isinstance(step, Termination):
        return step
    dt, wall, _, _ = step
    return dt, wall


def _validate_launch(initial: CartesianState, angle: WedgeAngle) -> float:
    if not contains(initial.position, angle):
        raise ValueError(f"launch position {initial.position} lies outside the wedge")
    energy = hamiltonian(initial)
    if not math.isfinite(energy) or energy <= 0.0:
        raise ValueError(f"launch energy must be positive and finite, got {energy!r}")
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
    return energy


def simulate(initial: CartesianState, angle: WedgeAngle, n: int) -> Trajectory:
    """Run the event loop for n collisions.

    Vertex hits and grazing landings end the loop with a
    :class:`Termination`, and the trajectory keeps every event produced up
    to that point.  Raises ValueError for a launch outside the wedge, with
    energy that is not positive and finite, or moving out through the wall
    it sits on.
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

    for _ in range(n):
        step = _next_collision_scalar(x, y, u, w, sin_t, cos_t, t)
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
    columns = EventColumns(angle)

    t = initial.t
    xt, yt = to_wedge(initial.x, initial.y, sin_t, cos_t)
    ut, wt = to_wedge(initial.u, initial.w, sin_t, cos_t)
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
            termination = Termination(TerminationKind.VERTEX_HIT, t)
            break
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
        else:
            ut_land = -ut_land
            columns.wall.append(1)
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
