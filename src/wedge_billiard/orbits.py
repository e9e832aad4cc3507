"""Periodic-orbit construction, orbit classification and phase-point sweeps.

The two wall-aligned coordinates bounce with half-periods
``T_A = u_tilde0/cos(theta)`` and ``T_B = w_tilde0/sin(theta)``.  Their
ratio reduces to ``tan(theta)`` when both one-dimensional bounce speeds are
equal, which happens exactly when the launch carries normal momentum
``sqrt(E)``.  The ratio is rational precisely at the critical angles
``theta* = arctan(p/q)`` with p, q coprime, where the motion closes after
p + q collisions (p on wall A, q on wall B); at every other angle the
trajectory fills the reachable configuration box densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collision_maps import MapState
from .dynamics import (
    WALLS,
    TerminationKind,
    Trajectory,
    launch_from_wall,
    simulate,
)
from .geometry import Wall, WedgeAngle

# Joint recurrence tolerance on (position, collision-frame momentum), scaled
# by sqrt(E): an order above the simulator's worst drift, far below any
# orbit separation seen at desk scale.
DEFAULT_PERIODICITY_TOL = 1e-8

# Flight arcs are rasterized with a sample spacing of at most this fraction
# of a grid cell diagonal.
COVERAGE_STEP_FRACTION = 0.01

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
        if self.energy <= 0.0:
            raise ValueError(f"energy must be positive, got {self.energy!r}")

    @property
    def period(self) -> int:
        return self.p + self.q


@dataclass(frozen=True, slots=True)
class BouncePeriods:
    """Half-periods of the two independent one-dimensional bouncers."""

    t_a: float
    t_b: float

    @property
    def ratio(self) -> float:
        return self.t_a / self.t_b


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
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.kind is OrbitKind.PERIODIC:
            if self.period is None or self.hits_a is None or self.hits_b is None:
                raise ValueError("periodic classification needs period and hit counts")
            if self.period != self.hits_a + self.hits_b:
                raise ValueError(
                    f"period {self.period} != hits {self.hits_a} + {self.hits_b}"
                )

    @classmethod
    def periodic(cls, period: int, hits_a: int, hits_b: int) -> "OrbitClass":
        return cls(OrbitKind.PERIODIC, period=period, hits_a=hits_a, hits_b=hits_b)

    @classmethod
    def dense(cls) -> "OrbitClass":
        return cls(OrbitKind.DENSE)

    @classmethod
    def sliding(cls) -> "OrbitClass":
        return cls(OrbitKind.SLIDING)

    @classmethod
    def degenerate(cls, reason: str) -> "OrbitClass":
        return cls(OrbitKind.DEGENERATE, reason=reason)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One periodic-orbit seed in (theta, u_bar) space."""

    p: int
    q: int
    theta: float
    u_bar: float


def critical_angle(spec: OrbitSpec) -> WedgeAngle:
    """Wedge angle at which the (p, q) orbit closes: arctan(p/q)."""
    return WedgeAngle(math.atan2(spec.p, spec.q))


def period_ratio(angle: WedgeAngle) -> float:
    """Ratio of the two one-dimensional bounce half-periods, tan(theta).

    Rational values admit periodic orbits; irrational values force dense
    trajectories.
    """
    return angle.sin / angle.cos


def periodic_initial_condition(spec: OrbitSpec) -> MapState:
    """Launch momentum that closes the (p, q) orbit at its critical angle.

    ``u_bar = sqrt(E)*(q - p)/(q + p)`` along the wall, ``w_bar = sqrt(E)``
    into the region.  The normal component splits the energy evenly between
    the two one-dimensional bouncers, which is what locks their bounce-speed
    ratio to tan(theta*) = p/q.
    """
    root_e = math.sqrt(spec.energy)
    u_bar = root_e * (spec.q - spec.p) / (spec.q + spec.p)
    return MapState(u_bar, root_e, spec.energy)


def launch_arclength(spec: OrbitSpec) -> float:
    """Wall-A arclength that gives the periodic launch its total energy."""
    seed = periodic_initial_condition(spec)
    angle = critical_angle(spec)
    return (spec.energy - seed.u_bar * seed.u_bar) / (2.0 * angle.cos)


def build_periodic_orbit(spec: OrbitSpec, n_collisions: int | None = None) -> Trajectory:
    """Simulate the (p, q) periodic orbit from wall A.

    With the default collision budget of one period (p + q events) the final
    post-collision state lands back on the launch point with the launch
    momentum; pass a larger budget to trace several periods.
    """
    angle = critical_angle(spec)
    seed = periodic_initial_condition(spec)
    initial = launch_from_wall(Wall.A, launch_arclength(spec), seed.u_bar, seed.w_bar, angle)
    return simulate(initial, angle, spec.period if n_collisions is None else n_collisions)


def classify_orbit(traj: Trajectory, tol: float = DEFAULT_PERIODICITY_TOL) -> OrbitClass:
    """Classify a trajectory as periodic, dense, sliding or degenerate.

    A trajectory is periodic with period k when some event k in the first
    half of the run reproduces event 0 (same wall, position and
    collision-frame momentum within ``tol*sqrt(E)``) and the match repeats
    for every available event.  Grazing terminations are the sliding family;
    vertex hits are degenerate.  Everything else is reported dense, meaning
    only that no recurrence was found within the horizon.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    term = traj.termination
    if term is not None:
        if term.kind is TerminationKind.VERTEX_HIT:
            return OrbitClass.degenerate("vertex_hit")
        if (term.normal_speed or 0.0) < tol:
            return OrbitClass.sliding()
        return OrbitClass.degenerate("grazing")
    events = traj.events
    n = len(events)
    if n < 2:
        raise ValueError("need at least two events or a termination to classify")

    threshold = tol * math.sqrt(traj.energy)
    walls = events.column("wall")
    # events 1 .. n//2 that reproduce event 0, narrowed by one value at a
    # time: post-collision position, then collision-frame momentum
    head = slice(1, n // 2 + 1)
    returns = walls[head] == walls[0]
    states = []
    for name in ("x", "y", "u_bar", "w_bar"):
        if not returns.any():
            return OrbitClass.dense()
        values = events.column(name)
        returns &= np.abs(values[head] - values[0]) <= threshold
        states.append(values)
    for k in np.flatnonzero(returns) + 1:
        k = int(k)
        if (walls[k:] == walls[:n - k]).all() and all(
            (np.abs(values[k:] - values[:n - k]) <= threshold).all() for values in states
        ):
            hits_a = int(np.count_nonzero(walls[:k] == WALLS.index(Wall.A)))
            return OrbitClass.periodic(k, hits_a, k - hits_a)
    return OrbitClass.dense()


def coverage_fraction(traj: Trajectory, grid: tuple[int, int]) -> float:
    """Fraction of the reachable configuration box visited by the flight arcs.

    The box is the wall-aligned rectangle [0, E/cos(theta)] x
    [0, E/sin(theta)] split into ``grid = (nx, ny)`` cells; every flight
    parabola is sampled at most a hundredth of a cell diagonal apart and the
    visited-cell fraction is returned.  Nondecreasing in the number of
    events for a fixed grid.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {grid!r}")
    if not traj.events:
        raise ValueError("cannot rasterize an empty trajectory")
    angle = traj.theta
    sin_t, cos_t = angle.sin, angle.cos
    width = traj.energy / cos_t
    height = traj.energy / sin_t
    cell_diag = math.hypot(width / nx, height / ny)
    step = COVERAGE_STEP_FRACTION * cell_diag
    speed_cap = math.sqrt(2.0 * traj.energy)

    visited = np.zeros((ny, nx), dtype=bool)
    for duration, x0, y0, u0, w0 in traj.flights():
        n_samples = max(2, int(math.ceil(duration * speed_cap / step)) + 1)
        ts = np.linspace(0.0, duration, n_samples)
        xs = x0 + u0 * ts
        ys = y0 + w0 * ts - 0.5 * ts * ts
        x_tilde = xs * sin_t + ys * cos_t
        y_tilde = -xs * cos_t + ys * sin_t
        ix = np.clip((x_tilde / width * nx).astype(int), 0, nx - 1)
        iy = np.clip((y_tilde / height * ny).astype(int), 0, ny - 1)
        visited[iy, ix] = True
    return float(visited.sum()) / float(nx * ny)


def sensitivity_probe(
    spec: OrbitSpec, eps: float, n_collisions: int = SENSITIVITY_COLLISIONS
) -> OrbitClass:
    """Classify the orbit launched with tangential momentum u_bar + eps.

    The unperturbed launch (eps = 0) is periodic by construction; any
    perturbation beyond roughly 1e-6 detunes the bounce-period ratio and
    yields a dense run.
    """
    angle = critical_angle(spec)
    seed = periodic_initial_condition(spec)
    initial = launch_from_wall(
        Wall.A, launch_arclength(spec), seed.u_bar + eps, seed.w_bar, angle
    )
    return classify_orbit(simulate(initial, angle, n_collisions))


def bounce_periods(u_tilde0: float, w_tilde0: float, angle: WedgeAngle) -> BouncePeriods:
    """Half-periods of the two one-dimensional bouncers for given bounce speeds."""
    if u_tilde0 <= 0.0 or w_tilde0 <= 0.0:
        raise ValueError("bounce speeds must be positive")
    return BouncePeriods(u_tilde0 / angle.cos, w_tilde0 / angle.sin)


def bounce_times(
    u_tilde0: float, w_tilde0: float, angle: WedgeAngle, n: int
) -> tuple[list[float], list[float]]:
    """First n bounce times of each one-dimensional bouncer.

    The bouncer along wall A (bounce speed ``u_tilde0``, floor at wall B)
    bounces at ``2*j*T_A``; the one along wall B (bounce speed ``w_tilde0``,
    floor at wall A) at ``2*k*T_B``, j, k = 1..n.
    """
    periods = bounce_periods(u_tilde0, w_tilde0, angle)
    return (
        [2.0 * j * periods.t_a for j in range(1, n + 1)],
        [2.0 * k * periods.t_b for k in range(1, n + 1)],
    )


def sweep_periodic_points(
    p_max: int, q_max: int, energy: float = 1.0, half: bool = False
) -> list[SweepPoint]:
    """Periodic-orbit seeds (theta*, u_bar*) for all coprime pairs in range.

    With ``half=True`` only pairs with q > p are kept, restricting the
    angles to (0, pi/4).  Points are sorted by angle; coprimality already
    makes them unique.
    """
    if p_max < 1 or q_max < 1:
        raise ValueError("sweep bounds must be at least 1")
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    root_e = math.sqrt(energy)
    points = []
    for p in range(1, p_max + 1):
        q_start = p + 1 if half else 1
        for q in range(q_start, q_max + 1):
            if math.gcd(p, q) != 1:
                continue
            points.append(
                SweepPoint(p, q, math.atan2(p, q), root_e * (q - p) / (q + p))
            )
    points.sort(key=lambda pt: pt.theta)
    return points
