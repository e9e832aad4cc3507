"""Periodic-orbit construction, orbit classification and phase-point sweeps.

In wedge coordinates the motion is two independent one-dimensional
bouncers with energies ``Hx`` and ``Hy`` (``dynamics.wedge_hamiltonians``).
The ``dynamics`` module docstring gives each one's period; their ratio,
``tan(theta)*sqrt(Hx/Hy)``, is the number of wall-A hits per wall-B hit.
That hit ratio is ``tan(theta)`` only when ``Hx = Hy``, as for the periodic
launch, which carries normal momentum ``sqrt(E)``.  At the critical angles
``theta* = arctan(p/q)`` with p, q coprime that launch closes after p + q
collisions (p on wall A, q on wall B).

Periodic orbits exist at every angle: any launch whose hit ratio is a
rational ``a/b`` makes a hits on wall A per b on wall B, and closes after
a + b collisions unless it reaches the vertex first.  A launch is dense
exactly when its hit ratio is irrational.  It then fills its own box
``[0, Hx/cos(theta)] x [0, Hy/sin(theta)]`` in wedge coordinates, not the
energy box ``[0, E/cos(theta)] x [0, E/sin(theta)]`` of
:func:`coverage_fraction`.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from enum import Enum

from .collision_maps import MapState
from .dynamics import (
    DEFAULT_PERIODICITY_TOL,
    MAX_ENERGY,
    WALLS,
    CartesianState,
    TerminationKind,
    Trajectory,
    flight_starts,
    hamiltonian,
    launch_from_wall,
    simulate,
)
from .geometry import Wall, WedgeAngle, config_bounds, to_wedge

# Flight arcs are rasterized with a sample spacing of at most this fraction
# of a grid cell diagonal.
COVERAGE_STEP_FRACTION = 0.01
# Arcs rasterized per numpy pass, so that no temporary array grows with the
# horizon.  Each pass makes about 60 numpy calls; the result does not depend
# on the chunk size.
_COVERAGE_CHUNK_ARCS = 64
# Each live run's visited cells from its latest prefix call, keyed by the
# run's event store: ``(launch, angle, (nx, ny), arcs rasterized, cells)``.
# A held grid is never written again: a call that resumes from it copies it,
# so a call that stops part way, or runs beside another, leaves it as it was.
_HELD_CELLS = weakref.WeakKeyDictionary()
_NONE_HELD = (None, None, None, 0, None)

SENSITIVITY_COLLISIONS = 1000


@dataclass(frozen=True, slots=True)
class OrbitSpec:
    """A periodic-orbit request: coprime positive (p, q) and an energy."""

    p: int
    q: int
    energy: float = 1.0

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be positive integers, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")
        if not math.isfinite(self.energy) or self.energy <= 0.0:
            raise ValueError(f"energy must be positive and finite, got {self.energy!r}")

    @property
    def period(self) -> int:
        return self.p + self.q


class OrbitKind(Enum):
    PERIODIC = "periodic"
    DENSE = "dense"
    SLIDING = "sliding"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class OrbitClass:
    """Classification outcome for a simulated trajectory.

    ``dense`` is a negative result (no recurrence found within the horizon),
    not a proof of density.
    """

    kind: OrbitKind
    period: int | None = None
    hits_a: int | None = None
    hits_b: int | None = None

    def __post_init__(self) -> None:
        if self.kind is OrbitKind.PERIODIC:
            if self.period is None or self.hits_a is None or self.hits_b is None:
                raise ValueError("periodic classification needs period and hit counts")
            if self.period != self.hits_a + self.hits_b:
                raise ValueError(
                    f"period {self.period} != hits {self.hits_a} + {self.hits_b}"
                )


@dataclass(frozen=True, slots=True, init=False)
class SweepPoint:
    """One periodic-orbit seed in (theta, u_bar) space."""

    p: int
    q: int
    theta: float
    u_bar: float

    def __init__(self, p: int, q: int, theta: float, u_bar: float) -> None:
        # slot setters, as in MapState: the generated frozen __init__ costs
        # half as much again per point of a sweep
        _set_p(self, p)
        _set_q(self, q)
        _set_theta(self, theta)
        _set_u_bar(self, u_bar)


_set_p, _set_q, _set_theta, _set_u_bar = (
    getattr(SweepPoint, f).__set__ for f in SweepPoint.__slots__
)


def critical_angle(spec: OrbitSpec) -> WedgeAngle:
    """Wedge angle at which the (p, q) orbit closes: arctan(p/q)."""
    return WedgeAngle(math.atan2(spec.p, spec.q))


def periodic_initial_condition(spec: OrbitSpec) -> MapState:
    """Launch momentum that closes the (p, q) orbit at its critical angle.

    ``u_bar = sqrt(E)*(q - p)/(q + p)`` along the wall, ``w_bar = sqrt(E)``
    into the region.  The normal component splits the energy evenly between
    the two one-dimensional bouncers, which is what makes their hit ratio
    tan(theta*) = p/q.
    """
    root_e = math.sqrt(spec.energy)
    u_bar = root_e * (spec.q - spec.p) / (spec.q + spec.p)
    return MapState(u_bar, root_e, spec.energy)


def _periodic_launch(spec: OrbitSpec, eps: float) -> tuple[CartesianState, WedgeAngle]:
    """The wall-A launch of the (p, q) orbit at its critical angle, with
    tangential momentum ``u_bar + eps``, and that angle.  Its arclength
    gives the unperturbed launch its total energy."""
    angle = critical_angle(spec)
    seed = periodic_initial_condition(spec)
    s = (spec.energy - seed.u_bar * seed.u_bar) / (2.0 * angle.cos)
    return launch_from_wall(Wall.A, s, seed.u_bar + eps, seed.w_bar, angle), angle


def build_periodic_orbit(spec: OrbitSpec, n_collisions: int | None = None) -> Trajectory:
    """Simulate the (p, q) periodic orbit from wall A.

    With the default collision budget of one period (p + q events) the final
    post-collision state lands back on the launch point with the launch
    momentum; pass a larger budget to trace several periods.  Raises
    ValueError, naming both energies, when the launch's energy rounds above
    MAX_ENERGY, as it may for a requested energy at that limit.
    """
    initial, angle = _periodic_launch(spec, 0.0)
    energy = hamiltonian(initial)
    if energy > MAX_ENERGY:
        raise ValueError(
            f"the ({spec.p}, {spec.q}) orbit at energy {spec.energy!r} launches with "
            f"energy {energy!r} after rounding, above the largest launch energy {MAX_ENERGY:g}"
        )
    return simulate(initial, angle, spec.period if n_collisions is None else n_collisions)


def check_periodicity_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a usable recurrence tolerance for
    :func:`classify_orbit`: positive and finite."""
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


_STOP_VERDICTS = {
    TerminationKind.DEGENERATE: OrbitKind.SLIDING,
    TerminationKind.VERTEX_HIT: OrbitKind.DEGENERATE,
}


def classify_orbit(traj: Trajectory, tol: float = DEFAULT_PERIODICITY_TOL) -> OrbitClass:
    """Classify a trajectory as periodic, dense, sliding or degenerate.

    A trajectory is periodic with period k when some event k in the first
    half of the run reproduces event 0 (same wall, position within
    ``tol*E`` and collision-frame momentum within ``tol*sqrt(E)``) and the
    match repeats for every available event.  Each bouncer's period holds
    exactly one hit on its own wall, so a closed orbit has hits on both
    walls: a k whose first k events all lie on one wall is never a period,
    however well the run repeats it.  A run the engine ended early
    takes its verdict from the :class:`Termination` alone: a sliding or
    grazing stop is sliding, a vertex hit degenerate.  Everything else is
    reported dense, meaning only that no recurrence was found within the
    horizon.
    """
    check_periodicity_tol(tol)
    if traj.termination is not None:
        return OrbitClass(_STOP_VERDICTS[traj.termination.kind])
    events = traj.events
    n = len(events)
    if n < 2:
        raise ValueError("need at least two events or a termination to classify")
    import numpy as np
    # positions scale as E, momenta as sqrt(E)
    position_threshold = tol * traj.energy
    momentum_threshold = tol * math.sqrt(traj.energy)
    walls = events.column("wall")
    # events 1 .. n//2 that reproduce event 0, narrowed by one value at a
    # time: post-collision position, then momentum.  The momentum is
    # compared in the wedge frame: it is the collision frame of wall A and
    # that of wall B with its axes swapped, and only events on one wall are
    # compared, so the differences are the collision frame's.  A dense run
    # stops at x: all four values before the filter took 2.2-2.5x the time.
    head = slice(1, n // 2 + 1)
    returns = walls[head] == walls[0]
    states = []
    for i, threshold in enumerate((position_threshold,) * 2 + (momentum_threshold,) * 2):
        if not returns.any():
            return OrbitClass(OrbitKind.DENSE)
        if i == 2:
            angle = traj.theta
            momenta = to_wedge(events.column("u"), events.column("w"), angle.sin, angle.cos)
        values = momenta[i - 2] if i >= 2 else events.column(("x", "y")[i])
        returns &= np.abs(values[head] - values[0]) <= threshold
        states.append((values, threshold))
    for k in np.flatnonzero(returns) + 1:
        k = int(k)
        if (walls[k:] == walls[:n - k]).all() and all(
            (np.abs(values[k:] - values[:n - k]) <= threshold).all()
            for values, threshold in states
        ):
            hits_a = int(np.count_nonzero(walls[:k] == WALLS.index(Wall.A)))
            if 0 < hits_a < k:
                return OrbitClass(OrbitKind.PERIODIC, k, hits_a, k - hits_a)
            # the walls repeat every k events and the first k lie on one
            # wall, so every event does: no larger k holds both walls
            break
    return OrbitClass(OrbitKind.DENSE)


def coverage_fraction(traj: Trajectory, grid: tuple[int, int]) -> float:
    """Fraction of the energy box visited by the flight arcs.

    The box is the wall-aligned rectangle [0, E/cos(theta)] x
    [0, E/sin(theta)] split into ``grid = (nx, ny)`` cells.  A cell is
    visited when it holds a sample of some flight parabola, the samples
    spaced evenly along each arc at most a hundredth of a cell diagonal
    apart.  The samples are not all evaluated: in wedge coordinates an arc
    is two parabolas, so a sample can fall in another cell than its
    neighbours only next to a grid-line crossing, an apex or an end of the
    arc.  Only the samples around those times are computed, and they find
    the same cells as sampling the whole arc.  Nondecreasing in the number
    of events for a fixed grid.

    The cells of a prefix of a run (``events[:h]``) are a subset of those of
    any longer prefix, so a prefix call keeps its cells, one ``nx x ny``
    bool grid per live run, dropped with the run's events.  A later prefix
    call on the same run with the same launch and angle objects, an equal
    grid and at least as many events starts from a copy of them and
    rasterizes only the arcs past them; the arcs are taken 64 at a time,
    and the result does not depend on how they are grouped, so the value is
    the same as from zero.  Any other call rasterizes every arc.  ``grid``
    holds integers (``operator.index``).
    """
    import numpy as np
    nx, ny = map(operator.index, grid)
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {grid!r}")
    if not traj.events:
        raise ValueError("cannot rasterize an empty trajectory")
    start, events = traj.initial, traj.events
    names = ("t", "x", "y", "u", "w")
    columns = [events.column(name) for name in names]
    firsts = (start.t, start.x, start.y, start.u, start.w)
    for name, column, first in zip(names, columns, firsts):
        if not math.isfinite(first):
            raise ValueError(f"launch {name} is not finite: {first!r}")
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(
                f"column {name} is not finite at event {bad[0]}: {float(column[bad[0]])!r}"
            )

    angle, energy = traj.theta, traj.energy
    sin_t, cos_t = angle.sin, angle.cos
    width, height = config_bounds(energy, angle)
    cell_diag = math.hypot(width / nx, height / ny)
    step = COVERAGE_STEP_FRACTION * cell_diag
    speed_cap = math.sqrt(2.0 * energy)

    # per wedge axis (rows x_tilde, y_tilde): gravity, cells per unit length
    # and the last inner grid line
    gravity = np.array([[cos_t], [sin_t]])
    per_length = np.array([[nx / width], [ny / height]])
    inner = np.array([[nx - 1.0], [ny - 1.0]])

    # samples evaluated around a critical time tau, as offsets from the last
    # sample at or before it: two on either side
    bracket = np.arange(-1.0, 3.0)
    n_arcs = len(columns[0])
    # a prefix reads its store's events 0 .. n_arcs - 1 in order
    prefix = events._range.start == 0 and events._range.step == 1
    store = events._columns
    launch, held_angle, held_grid, first_arc, held = _HELD_CELLS.get(store, _NONE_HELD)
    # the same launch and angle objects: an engine's launch is all floats, but
    # one swapped in with dataclasses.replace need not be, and an equal launch
    # need not rasterize alike (a Fraction field raises where a float does not)
    if (prefix and launch is start and held_angle is angle and held_grid == (nx, ny)
            and first_arc <= n_arcs):
        visited = held.copy()
    else:
        first_arc, visited = 0, np.zeros((ny, nx), dtype=bool)
    for lo in range(first_arc, n_arcs, _COVERAGE_CHUNK_ARCS):
        hi = min(lo + _COVERAGE_CHUNK_ARCS, n_arcs)
        t0, x0, y0, u0, w0 = flight_starts(start, columns, lo, hi)
        duration = columns[0][lo:hi] - t0
        # an arc's samples are np.linspace(0, duration, last + 1)
        last = np.maximum(np.ceil(duration * speed_cap / step), 1.0)
        spacing = duration / last
        arcs, taus = _critical_times(
            duration,
            np.array(to_wedge(x0, y0, sin_t, cos_t)),
            np.array(to_wedge(u0, w0, sin_t, cos_t)),
            gravity,
            per_length,
            inner,
        )
        # two samples on either side of each critical time, with linspace's
        # values: i * spacing, and the arc's end for the last one
        gap, end = spacing[arcs], last[arcs, None]
        # an arc of zero duration (two events at one time) has all its
        # samples at index 0
        below = np.floor(np.divide(taus, gap, out=np.zeros_like(taus), where=gap != 0.0))
        index = np.clip(below[:, None] + bracket, 0.0, end)
        ts = np.where(index == end, duration[arcs, None], index * gap[:, None])
        xs = x0[arcs, None] + u0[arcs, None] * ts
        ys = y0[arcs, None] + w0[arcs, None] * ts - 0.5 * ts * ts
        x_tilde, y_tilde = to_wedge(xs, ys, sin_t, cos_t)
        ix = np.clip((x_tilde / width * nx).astype(int), 0, nx - 1)
        iy = np.clip((y_tilde / height * ny).astype(int), 0, ny - 1)
        visited[iy, ix] = True
    if prefix:
        _HELD_CELLS[store] = (start, angle, (nx, ny), n_arcs, visited)
    return float(visited.sum()) / float(nx * ny)


def _critical_times(duration, starts, speeds, gravity, per_length, inner):
    """``(arc, tau)`` pairs: each arc's two ends, and along each wedge axis
    its apex and its crossings of the inner grid lines.

    Rows of ``starts`` and ``speeds`` are the axes x_tilde and y_tilde,
    columns the arcs.  Along each axis an arc rises to its apex at
    ``speed/gravity`` and falls from it, so a line is met at ``apex - s`` on
    the way up and at ``apex + s`` on the way down, ``s`` being the time
    between the apex and the line.  Lines 0 and ``cells`` are left out:
    truncating and clipping give the cells on both sides of them one index.
    """
    import numpy as np
    n = len(duration)
    apex = speeds / gravity
    turn = np.clip(apex, 0.0, duration)
    at_start, at_turn, at_end = (
        (starts + speeds * tau - 0.5 * gravity * tau * tau) * per_length
        for tau in (0.0, turn, duration)
    )
    # rows: x_tilde rising, y_tilde rising, x_tilde falling, y_tilde falling
    low = np.concatenate((np.minimum(at_start, at_turn), np.minimum(at_turn, at_end)))
    high = np.concatenate((np.maximum(at_start, at_turn), np.maximum(at_turn, at_end)))
    first = np.maximum(np.ceil(low), 1.0)
    stop = np.minimum(np.floor(high), np.concatenate((inner, inner)))
    counts = np.maximum(stop - first + 1.0, 0.0).astype(np.int64).ravel()
    piece = np.repeat(np.arange(counts.size), counts)
    lines = first.ravel()[piece] + (np.arange(piece.size) - (np.cumsum(counts) - counts)[piece])
    row, arc = np.divmod(piece, n)
    axis = row % 2
    at_apex = apex[axis, arc]
    from_apex = np.sqrt(
        np.maximum(
            at_apex * at_apex
            + 2.0 * (starts[axis, arc] - lines / per_length[axis, 0]) / gravity[axis, 0],
            0.0,
        )
    )
    crossings = at_apex + np.where(row < 2, -from_apex, from_apex)
    arcs = np.concatenate((np.tile(np.arange(n), 4), arc))
    taus = np.concatenate((np.zeros(n), duration, turn.ravel(), crossings))
    return arcs, taus


def sensitivity_probe(
    spec: OrbitSpec, eps: float, n_collisions: int = SENSITIVITY_COLLISIONS
) -> OrbitClass:
    """Classify the orbit launched with tangential momentum u_bar + eps.

    The unperturbed launch (eps = 0) is periodic by construction.  A
    perturbation detunes the bounce-period ratio, and the run reads dense
    once the mismatch per period exceeds the default tolerance of
    :func:`classify_orbit`.  Only that mismatch is compared, so the horizon
    does not move the threshold.  The mismatch is first order in eps, and
    (1, 2) and (2, 3) read dense from eps = 1e-8.  The (1, 1) orbit has
    u_bar* = 0, so eps moves Hx by eps**2/2, not by u_bar* * eps: its
    mismatch is second order, and it reads periodic up to eps ~ 1e-4 (at
    1000 collisions, eps = 1e-6, 1e-5 and 5e-5 all read periodic).
    """
    initial, angle = _periodic_launch(spec, eps)
    return classify_orbit(simulate(initial, angle, n_collisions))


def sweep_periodic_points(
    p_max: int, q_max: int, energy: float = 1.0, half: bool = False
) -> list[SweepPoint]:
    """Periodic-orbit seeds (theta*, u_bar*) for all coprime pairs in range.

    With ``half=True`` only pairs with q > p are kept, restricting the
    angles to (0, pi/4).  Points come in increasing angle: the fractions
    p/q are walked in Farey order, so no gcd is taken and nothing is
    sorted.
    """
    p_max, q_max = operator.index(p_max), operator.index(q_max)
    if p_max < 1 or q_max < 1:
        raise ValueError("sweep bounds must be at least 1")
    if not math.isfinite(energy) or energy <= 0.0:
        raise ValueError(f"energy must be positive and finite, got {energy!r}")
    root_e = math.sqrt(energy)
    atan2 = math.atan2
    points = []
    append = points.append
    # Neighbours a/b < c/d among the fractions with p <= p_max, q <= q_max
    # have bc - ad = 1, and the next one is (kc - a)/(kd - b) for the largest
    # k that stays in range (Hardy & Wright, ch. III).  So the walk from 0/1,
    # 1/q_max meets every fraction once, in lowest terms.  Their angles
    # increase strictly as computed: tan(theta' - theta) = (bc - ad)/(bd + ac)
    # = 1/(bd + ac), at least 1/(p_max**2 + q_max**2), far above atan2's
    # rounding at any bound whose points fit in memory.  So this is the
    # order of a stable sort by angle.
    a, b, c, d = 0, 1, 1, q_max
    # up to p_max/1, or below 1/1 with half; past p_max/1 the rule gives
    # d <= 0, which ends the walk
    limit = 1 if half else p_max + 1
    while c < limit * d:
        append(SweepPoint(c, d, atan2(c, d), root_e * (d - c) / (d + c)))
        k = min((q_max + b) // d, (p_max + a) // c)
        a, b, c, d = c, d, k * c - a, k * d - b
    return points
