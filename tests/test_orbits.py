import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from wedge_billiard import (
    OrbitKind,
    OrbitSpec,
    Wall,
    WedgeAngle,
    build_periodic_orbit,
    classify_orbit,
    coverage_fraction,
    critical_angle,
    decoupled_simulate,
    launch_from_wall,
    periodic_initial_condition,
    sensitivity_probe,
    simulate,
    sweep_periodic_points,
)
from wedge_billiard.dynamics import EventColumns, EventSequence, Trajectory
from wedge_billiard.dynamics import CartesianState, TerminationKind
from wedge_billiard.geometry import from_wedge, to_wedge
from wedge_billiard import orbits
from wedge_billiard.orbits import COVERAGE_STEP_FRACTION, OrbitClass, SweepPoint, _periodic_launch

from conftest import (
    bits,
    coprime_pairs,
    copied_columns,
    flights,
    random_angle,
    random_launch,
    with_events,
    with_values,
)


class TestOrbitSpec:
    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            OrbitSpec(2, 4)

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_rejected(self, p, q):
        with pytest.raises(ValueError):
            OrbitSpec(p, q)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            OrbitSpec(1, 2, 0.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(ValueError):
            OrbitSpec(1, 2, energy)


class TestCriticalAngle:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(1, 1, math.pi / 4), (1, 2, 0.4636476090008061), (3, 1, 1.2490457723982544)],
    )
    def test_values(self, p, q, expected):
        assert critical_angle(OrbitSpec(p, q)).theta == pytest.approx(expected, abs=1e-12)

    def test_always_in_range(self):
        for p, q in coprime_pairs(10):
            theta = critical_angle(OrbitSpec(p, q)).theta
            assert 0 < theta < math.pi / 2

    def test_ratio_law_exact(self):
        # tan amplifies angle rounding by 1 + tan^2, so the identity is
        # checked where it is well conditioned: in angle units
        for p, q in coprime_pairs(25):
            angle = critical_angle(OrbitSpec(p, q))
            assert abs(angle.sin / angle.cos - p / q) / (1.0 + (p / q) ** 2) <= 1e-15


class TestPeriodicInitialCondition:
    @pytest.mark.parametrize(
        "p,q,energy,u_expected,w_expected",
        [(1, 1, 1.0, 0.0, 1.0), (1, 2, 1.0, 1 / 3, 1.0), (2, 3, 4.0, 0.4, 2.0)],
    )
    def test_values(self, p, q, energy, u_expected, w_expected):
        state = periodic_initial_condition(OrbitSpec(p, q, energy))
        assert state.u_bar == pytest.approx(u_expected)
        assert state.w_bar == pytest.approx(w_expected)
        assert state.energy == energy

    def test_coincides_with_both_cross_map_fixed_points(self):
        from wedge_billiard import MapId, fixed_point

        for p, q in coprime_pairs(8):
            spec = OrbitSpec(p, q, 1.0)
            angle = critical_angle(spec)
            seed = periodic_initial_condition(spec)
            for map_id in (MapId.FB, MapId.GB):
                fp = fixed_point(map_id, 1.0, angle)
                assert fp.u_bar == pytest.approx(seed.u_bar, abs=1e-12)
                assert fp.w_bar == pytest.approx(seed.w_bar, abs=1e-12)

    def test_sign_of_tangential_momentum_tracks_p_vs_q(self):
        for p, q in coprime_pairs(8):
            spec = OrbitSpec(p, q, 1.0)
            theta = critical_angle(spec).theta
            u_bar = periodic_initial_condition(spec).u_bar
            if p < q:
                assert theta < math.pi / 4 and u_bar > 0
            elif p > q:
                assert theta > math.pi / 4 and u_bar < 0
            else:
                assert theta == pytest.approx(math.pi / 4) and u_bar == 0


class TestBuildPeriodicOrbit:
    @pytest.mark.parametrize("p,q", [(1, 2), (3, 1), (2, 5)])
    def test_closed_orbits(self, p, q):
        spec = OrbitSpec(p, q, 1.0)
        traj = build_periodic_orbit(spec)
        assert traj.termination is None
        assert len(traj.events) == p + q
        walls = [e.wall for e in traj.events]
        assert walls.count(Wall.A) == p
        assert walls.count(Wall.B) == q
        assert traj.events[-1].wall is Wall.A
        last = traj.events[-1]
        seed = periodic_initial_condition(spec)
        assert last.post.x == pytest.approx(traj.initial.x, abs=1e-8)
        assert last.post.y == pytest.approx(traj.initial.y, abs=1e-8)
        assert last.rotating_post.u_bar == pytest.approx(seed.u_bar, abs=1e-8)
        assert last.rotating_post.w_bar == pytest.approx(seed.w_bar, abs=1e-8)

    def test_launch_energy_matches_request(self):
        for energy in (0.5, 1.0, 3.0):
            traj = build_periodic_orbit(OrbitSpec(2, 3, energy))
            assert traj.energy == pytest.approx(energy, rel=1e-14)

    @pytest.mark.parametrize("exponent", [*range(-7, 11), 11, 12, 50, 299])
    def test_every_orbit_closes_across_energy_scales(self, exponent):
        # a wall point's rounding grows with E; the launch must still count
        # as inside the wedge, and the recurrence must still be found with
        # positions compared at tol*E
        energy = 10.0**exponent
        for p, q in coprime_pairs(8):
            traj = build_periodic_orbit(OrbitSpec(p, q, energy), n_collisions=2 * (p + q))
            assert classify_orbit(traj) == OrbitClass(OrbitKind.PERIODIC, p + q, p, q), (p, q)


class TestClassifyOrbit:
    def test_periodic_over_many_periods(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=30)
        result = classify_orbit(traj, 1e-8)
        assert result.kind is OrbitKind.PERIODIC
        assert (result.period, result.hits_a, result.hits_b) == (3, 1, 2)

    def test_dense_at_irrational_ratio(self):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 3000)
        assert classify_orbit(traj, 1e-8).kind is OrbitKind.DENSE

    def test_grazing_termination_is_sliding(self):
        angle = WedgeAngle(0.9)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.4, 1e-12, angle), angle, 10)
        assert classify_orbit(traj, 1e-8).kind is OrbitKind.SLIDING

    def test_grazing_stop_is_sliding_below_its_normal_speed(self):
        # a tolerance below the stop's normal speed does not undo the
        # engine's verdict
        angle = WedgeAngle.from_degrees(50)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.4, 5e-11, angle), angle, 100)
        assert traj.termination.kind is TerminationKind.DEGENERATE
        assert traj.termination.normal_speed > 1e-12
        assert classify_orbit(traj, 1e-12) == OrbitClass(OrbitKind.SLIDING)

    def test_vertex_termination_is_degenerate(self):
        traj = simulate(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4), 10)
        assert traj.termination.kind is TerminationKind.VERTEX_HIT
        result = classify_orbit(traj, 1e-8)
        assert result.kind is OrbitKind.DEGENERATE

    def test_nonpositive_tolerance_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=10)
        with pytest.raises(ValueError):
            classify_orbit(traj, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=10)
        with pytest.raises(ValueError):
            classify_orbit(traj, tol)

    def test_return_that_does_not_repeat_is_dense(self):
        # event 3 is event 0 again, but event 4 is not event 1
        angle = WedgeAngle.from_degrees(60)
        dense = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 8)
        traj = with_events(dense, [0, 1, 2, 0, 4, 5, 6, 7])
        assert classify_orbit(traj) == classify_by_event_loop(traj) == OrbitClass(OrbitKind.DENSE)

    @pytest.mark.parametrize(
        "period, hits_a, hits_b", [(None, 1, 2), (3, None, 2), (3, 1, None), (4, 1, 2)]
    )
    def test_periodic_class_needs_consistent_counts(self, period, hits_a, hits_b):
        with pytest.raises(ValueError):
            OrbitClass(OrbitKind.PERIODIC, period, hits_a, hits_b)

    def test_too_short_without_termination_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=1)
        with pytest.raises(ValueError):
            classify_orbit(traj, 1e-8)


def classify_by_event_loop(traj, tol: float = 1e-8) -> OrbitClass:
    """Per-event loop over built events: the reference for the recurrence
    search that ``classify_orbit`` runs on the columns."""

    position_threshold = tol * traj.energy
    momentum_threshold = tol * math.sqrt(traj.energy)

    def same(a, b):
        return (
            a.wall is b.wall
            and abs(a.post.x - b.post.x) <= position_threshold
            and abs(a.post.y - b.post.y) <= position_threshold
            and abs(a.rotating_post.u_bar - b.rotating_post.u_bar) <= momentum_threshold
            and abs(a.rotating_post.w_bar - b.rotating_post.w_bar) <= momentum_threshold
        )

    events = tuple(traj.events)
    n = len(events)
    for k in range(1, n // 2 + 1):
        if same(events[k], events[0]) and all(
            same(events[i + k], events[i]) for i in range(n - k)
        ):
            hits_a = sum(1 for e in events[:k] if e.wall is Wall.A)
            return OrbitClass(OrbitKind.PERIODIC, k, hits_a, k - hits_a)
    return OrbitClass(OrbitKind.DENSE)


class TestClassifyAgainstEventLoop:
    @pytest.mark.parametrize("p, q", coprime_pairs(5))
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3])
    def test_perturbed_periodic_launches(self, p, q, eps):
        initial, angle = _periodic_launch(OrbitSpec(p, q, 1.0), eps)
        traj = simulate(initial, angle, 6 * (p + q) + 1)
        for tol in (1e-8, 1e-5):
            assert classify_orbit(traj, tol) == classify_by_event_loop(traj, tol)

    def test_views_and_short_runs(self):
        traj = build_periodic_orbit(OrbitSpec(3, 4, 2.0), n_collisions=70)
        for view in (traj.events[1:], traj.events[::2], traj.events[::-1], traj.events[:3]):
            sub = Trajectory(traj.initial, traj.theta, view)
            assert classify_orbit(sub) == classify_by_event_loop(sub)

    def test_dense_launches(self, rng):
        for _ in range(5):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 400)
            dense = OrbitClass(OrbitKind.DENSE)
            assert classify_orbit(traj) == classify_by_event_loop(traj) == dense


def classify_reference_runs() -> list[Trajectory]:
    """Seed-977 launches, the (p, q) <= 8 orbits over three periods, whose
    event 0 is on wall B, the same without event 0, and the launches of
    sensitivity_probe."""
    runs = []
    rng = np.random.default_rng(977)
    for _ in range(20):
        angle = random_angle(rng)
        runs.append(simulate(random_launch(rng, angle), angle, 400))
    for p, q in coprime_pairs(8):
        traj = build_periodic_orbit(OrbitSpec(p, q), n_collisions=3 * (p + q))
        runs += [traj, dataclasses.replace(traj, events=traj.events[1:])]
    for p, q in coprime_pairs(4):
        for eps in (1e-12, 1e-9, 1e-6):
            initial, angle = _periodic_launch(OrbitSpec(p, q), eps)
            runs.append(simulate(initial, angle, orbits.SENSITIVITY_COLLISIONS))
    return runs


@pytest.mark.parametrize("tol", [1e-8, 1e-3, 5e-2])
def test_classify_matches_the_collision_frame_reference(tol):
    # classify_orbit compares wedge-frame momenta; the reference compares
    # rotating_post, as its docstring defines the recurrence
    verdicts = []
    for traj in classify_reference_runs():
        assert traj.termination is None
        verdict = classify_by_event_loop(traj, tol)
        assert classify_orbit(traj, tol) == verdict
        verdicts.append((traj.events[0].wall, verdict.kind))
    # periodic and dense verdicts, each with event 0 on either wall
    kinds = (OrbitKind.PERIODIC, OrbitKind.DENSE)
    assert {(wall, kind) for wall in Wall for kind in kinds} <= set(verdicts)


@pytest.mark.parametrize(
    "shift, periodic",
    [((0.9, 0.9), True), ((-0.9, 0.9), True), ((1.1, 0.0), False), ((0.0, -1.1), False)],
)
def test_momenta_are_compared_in_the_collision_frame(shift, periodic):
    # one return of an exact orbit has its outgoing momentum shifted by
    # ``shift`` thresholds in its collision frame.  At these angles (0.9,
    # 0.9) is off by more than a threshold along a lab axis, and (1.1, 0)
    # by less along both, so a lab-frame comparison gives the other verdict
    tol = 1e-3
    walls = set()
    for p, q in ((1, 1), (2, 3)):
        traj = build_periodic_orbit(OrbitSpec(p, q), n_collisions=4 * (p + q))
        threshold = tol * math.sqrt(traj.energy)
        angle = traj.theta
        for first in (0, 1):
            columns = copied_columns(traj, slice(None))
            k = first + p + q
            wall = columns.wall[k]
            walls.add(wall)
            # the collision frame is the wedge frame, swapped on wall B
            du_bar, dw_bar = (v * threshold for v in shift)
            d_tilde = (dw_bar, du_bar) if wall else (du_bar, dw_bar)
            du, dw = from_wedge(*d_tilde, angle.sin, angle.cos)
            columns.u[k] += du
            columns.w[k] += dw
            shifted = Trajectory(traj.initial, angle, EventSequence(columns)[first:])
            hits_a = sum(e.wall is Wall.A for e in shifted.events[: p + q])
            expected = (
                OrbitClass(OrbitKind.PERIODIC, p + q, hits_a, p + q - hits_a)
                if periodic
                else OrbitClass(OrbitKind.DENSE)
            )
            assert classify_orbit(shifted, tol) == classify_by_event_loop(shifted, tol) == expected
    assert walls == {0, 1}


class TestCoverageFraction:
    def test_single_cell_grid(self):
        traj = build_periodic_orbit(OrbitSpec(1, 1, 1.0), n_collisions=1)
        assert coverage_fraction(traj, (1, 1)) == 1.0

    def test_periodic_orbit_stops_growing(self):
        short = build_periodic_orbit(OrbitSpec(1, 1, 1.0), n_collisions=10)
        long = build_periodic_orbit(OrbitSpec(1, 1, 1.0), n_collisions=100)
        assert coverage_fraction(short, (64, 64)) == coverage_fraction(long, (64, 64))

    def test_dense_orbit_keeps_growing(self):
        angle = WedgeAngle.from_degrees(60)
        initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
        f_short = coverage_fraction(simulate(initial, angle, 50), (64, 64))
        f_long = coverage_fraction(simulate(initial, angle, 500), (64, 64))
        assert f_long > f_short

    def test_prefix_monotonicity(self):
        angle = WedgeAngle.from_degrees(50)
        initial = launch_from_wall(Wall.A, 1.0, 0.2, 1.0, angle)
        fractions = [
            coverage_fraction(simulate(initial, angle, n), (32, 32))
            for n in (5, 20, 80)
        ]
        assert fractions == sorted(fractions)

    def test_empty_trajectory_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=0)
        with pytest.raises(ValueError):
            coverage_fraction(traj, (8, 8))

    def test_bad_grid_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0))
        with pytest.raises(ValueError):
            coverage_fraction(traj, (0, 8))

    @pytest.mark.parametrize("name", ["t", "x", "y", "u", "w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_rejected(self, name, value):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 20)
        head = traj.events.column(name)[:7].tolist()
        with pytest.raises(ValueError, match=f"column {name} is not finite at event 7"):
            coverage_fraction(with_values(traj, name, [*head, value]), (64, 64))

    @pytest.mark.parametrize("name", ["t", "x", "y", "u", "w"])
    def test_non_finite_launch_rejected(self, name):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0))
        initial = dataclasses.replace(traj.initial, **{name: math.nan})
        with pytest.raises(ValueError, match=f"launch {name} is not finite"):
            coverage_fraction(dataclasses.replace(traj, initial=initial), (8, 8))


def coverage_by_sampling(traj, grid: tuple[int, int]) -> float:
    """Per-arc loop that evaluates every sample: the reference for the
    samples ``coverage_fraction`` finds from grid-line crossings."""
    nx, ny = grid
    angle = traj.theta
    sin_t, cos_t = angle.sin, angle.cos
    width = traj.energy / cos_t
    height = traj.energy / sin_t
    cell_diag = math.hypot(width / nx, height / ny)
    step = COVERAGE_STEP_FRACTION * cell_diag
    speed_cap = math.sqrt(2.0 * traj.energy)

    visited = np.zeros((ny, nx), dtype=bool)
    for duration, x0, y0, u0, w0 in flights(traj):
        n_samples = max(2, int(math.ceil(duration * speed_cap / step)) + 1)
        ts = np.linspace(0.0, duration, n_samples)
        xs = x0 + u0 * ts
        ys = y0 + w0 * ts - 0.5 * ts * ts
        x_tilde, y_tilde = to_wedge(xs, ys, sin_t, cos_t)
        ix = np.clip((x_tilde / width * nx).astype(int), 0, nx - 1)
        iy = np.clip((y_tilde / height * ny).astype(int), 0, ny - 1)
        visited[iy, ix] = True
    return float(visited.sum()) / float(nx * ny)


def scaled_run(traj: Trajectory, factor: float) -> Trajectory:
    """``traj`` at ``factor`` times its energy: positions scale by the
    factor, momenta and times by its square root.

    The run is scaled after simulating because the engines' tolerances are
    absolute: a launch scaled to E = 1e-9 ends in a vertex hit at once.
    """
    root = math.sqrt(factor)
    columns = EventColumns(traj.theta)
    columns.wall.extend(traj.events.column("wall").tolist())
    for name, scale in (("t", root), ("x", factor), ("y", factor), ("u_pre", root),
                        ("w_pre", root), ("u", root), ("w", root)):
        getattr(columns, name).extend((traj.events.column(name) * scale).tolist())
    s = traj.initial
    initial = CartesianState(factor * s.x, factor * s.y, root * s.u, root * s.w, root * s.t)
    return Trajectory(initial, traj.theta, EventSequence(columns))


COVERAGE_GRIDS = [(1, 1), (2, 3), (7, 7), (31, 17), (64, 64), (97, 3)]


class TestCoverageAgainstSampling:
    @pytest.mark.parametrize("seed", [977, 5])
    def test_random_launches(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 120)
            for grid in COVERAGE_GRIDS:
                assert coverage_fraction(traj, grid) == coverage_by_sampling(traj, grid)

    def test_apex_tangent_launch(self):
        # an even energy split at 60 degrees puts every apex on a grid line
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 500)
        assert coverage_fraction(traj, (64, 64)) == coverage_by_sampling(traj, (64, 64))

    @pytest.mark.parametrize("p, q", coprime_pairs(5))
    def test_periodic_orbits(self, p, q):
        traj = build_periodic_orbit(OrbitSpec(p, q, 1.0), n_collisions=4 * (p + q))
        for grid in ((64, 64), (13, 7)):
            assert coverage_fraction(traj, grid) == coverage_by_sampling(traj, grid)

    @pytest.mark.parametrize("energy", [1e-9, 1e300])
    def test_energy_scales(self, energy):
        angle = WedgeAngle.from_degrees(50)
        traj = scaled_run(simulate(launch_from_wall(Wall.A, 1.0, 0.2, 1.0, angle), angle, 80), energy)
        for grid in COVERAGE_GRIDS:
            assert coverage_fraction(traj, grid) == coverage_by_sampling(traj, grid)

    def test_event_views_and_repeated_events(self):
        angle = WedgeAngle.from_degrees(40)
        traj = simulate(launch_from_wall(Wall.B, 0.9, -0.3, 1.1, angle), angle, 60)
        # a reversed view flies its arcs backwards; a repeated event makes an
        # arc of zero duration
        for sub in (
            dataclasses.replace(traj, events=traj.events[::-1]),
            dataclasses.replace(traj, events=traj.events[::3]),
            with_events(traj, [0, 1, 1, 2, 3]),
        ):
            for grid in COVERAGE_GRIDS:
                assert coverage_fraction(sub, grid) == coverage_by_sampling(sub, grid)

    @pytest.mark.parametrize("launch", ["dense60", "seed977"])
    def test_chunk_size_does_not_change_the_value(self, launch, monkeypatch):
        if launch == "dense60":
            angle = WedgeAngle.from_degrees(60)
            initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
        else:
            rng = np.random.default_rng(977)
            angle = random_angle(rng)
            initial = random_launch(rng, angle)
        traj = simulate(initial, angle, 500)
        n = len(traj.events)
        values = set()
        for chunk in (1, 16, 64, n + 1):
            monkeypatch.setattr(orbits, "_COVERAGE_CHUNK_ARCS", chunk)
            values.add(coverage_fraction(traj, (64, 64)))
        assert len(values) == 1

    def test_memory_does_not_grow_with_the_horizon(self):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 5000)

        def peak(n_events: int) -> int:
            prefix = dataclasses.replace(traj, events=traj.events[:n_events])
            tracemalloc.start()
            try:
                coverage_fraction(prefix, (64, 64))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # leaves out what only a first call allocates
        assert peak(5000) <= peak(500) + 64 * 1024


class TestSensitivityProbe:
    def test_perturbed_launch_is_dense(self):
        assert sensitivity_probe(OrbitSpec(1, 2, 1.0), 1e-3).kind is OrbitKind.DENSE

    def test_tiny_perturbation_is_still_dense(self):
        assert sensitivity_probe(OrbitSpec(1, 2, 1.0), 1e-6).kind is OrbitKind.DENSE

    def test_unperturbed_control_is_periodic(self):
        result = sensitivity_probe(OrbitSpec(1, 2, 1.0), 0.0)
        assert result.kind is OrbitKind.PERIODIC
        assert result.period == 3


class TestBounceTimes:
    def test_coincidence_against_decoupled_vertex_launch(self):
        # equal bounce speeds at tan(theta) = 2/3: the bouncers meet the
        # vertex together at the least common multiple of their periods
        p, q = 2, 3
        angle = critical_angle(OrbitSpec(p, q))
        # unit bounce speeds: wall B is hit every 2/cos(theta), wall A every
        # 2/sin(theta)
        hits_b = [2.0 * j / angle.cos for j in range(1, q + 1)]
        hits_a = [2.0 * k / angle.sin for k in range(1, p + 1)]
        initial = CartesianState(0.0, 0.0, angle.sin - angle.cos, angle.cos + angle.sin)
        traj = decoupled_simulate(initial, angle, 10)
        assert traj.termination is not None
        assert traj.termination.kind is TerminationKind.VERTEX_HIT
        # q - 1 left-wall and p - 1 right-wall bounces happen first
        expected = sorted(
            [(t, Wall.B) for t in hits_b[: q - 1]] + [(t, Wall.A) for t in hits_a[: p - 1]]
        )
        assert len(traj.events) == p + q - 2
        for event, (t_expected, wall_expected) in zip(traj.events, expected):
            assert event.wall is wall_expected
            assert event.t == pytest.approx(t_expected, abs=1e-12)
        assert traj.termination.t == pytest.approx(hits_b[q - 1], abs=1e-12)
        assert traj.termination.t == pytest.approx(hits_a[p - 1], abs=1e-12)


class TestSweep:
    def test_point_count_small(self):
        assert len(sweep_periodic_points(3, 3)) == 7

    @pytest.mark.parametrize("energy", [0.0, math.nan, math.inf])
    def test_energy_must_be_positive_and_finite(self, energy):
        with pytest.raises(ValueError):
            sweep_periodic_points(3, 3, energy)

    def test_point_count_matches_gcd_enumeration(self):
        assert len(sweep_periodic_points(25, 25)) == len(coprime_pairs(25))

    def test_sorted_and_unique(self):
        points = sweep_periodic_points(12, 12)
        thetas = [pt.theta for pt in points]
        assert thetas == sorted(thetas)
        assert len(set(thetas)) == len(thetas)

    def test_half_sweep_restricts_angles(self):
        points = sweep_periodic_points(25, 25, half=True)
        assert all(pt.q > pt.p for pt in points)
        assert all(pt.theta < math.pi / 4 for pt in points)

    def test_swap_symmetry(self):
        points = {(pt.p, pt.q): pt for pt in sweep_periodic_points(10, 10)}
        for (p, q), pt in points.items():
            mirror = points[(q, p)]
            assert mirror.theta == pytest.approx(math.pi / 2 - pt.theta, abs=1e-13)
            assert mirror.u_bar == pytest.approx(-pt.u_bar, abs=1e-13)

    @pytest.mark.parametrize("bound", [2.5, 3.0, "3", None])
    def test_bounds_must_be_integers(self, bound):
        with pytest.raises(TypeError):
            sweep_periodic_points(bound, 3)
        with pytest.raises(TypeError):
            sweep_periodic_points(3, bound)

    def test_integer_like_bounds_accepted(self):
        assert sweep_periodic_points(np.int64(4), np.int64(3)) == sweep_periodic_points(4, 3)


def sweep_by_gcd_and_sort(p_max, q_max, energy, half):
    """Every coprime pair by a double loop, sorted by angle: the reference
    for the Farey walk ``sweep_periodic_points`` takes."""
    root_e = math.sqrt(energy)
    points = [
        SweepPoint(p, q, math.atan2(p, q), root_e * (q - p) / (q + p))
        for p in range(1, p_max + 1)
        for q in range(p + 1 if half else 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]
    points.sort(key=lambda pt: pt.theta)
    return points


def sweep_bits(points) -> tuple:
    return (
        [(pt.p, pt.q) for pt in points],
        bits([pt.theta for pt in points]).tolist(),
        bits([pt.u_bar for pt in points]).tolist(),
    )


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("energy", [1e-9, 1.0, 1e200])
def test_farey_walk_is_the_sorted_enumeration_bit_for_bit(half, energy):
    bounds = [(p, q) for p in range(1, 31) for q in range(1, 31)]
    for p_max, q_max in [*bounds, (57, 44), (150, 150), (301, 299)]:
        expected = sweep_bits(sweep_by_gcd_and_sort(p_max, q_max, energy, half))
        assert sweep_bits(sweep_periodic_points(p_max, q_max, energy, half)) == expected, (
            p_max,
            q_max,
        )


class TestSweepPoint:
    point = SweepPoint(2, 5, math.atan2(2, 5), 3 / 7)

    def test_keyword_construction_equals_positional(self):
        keywords = SweepPoint(u_bar=3 / 7, theta=math.atan2(2, 5), q=5, p=2)
        assert keywords == self.point
        assert hash(keywords) == hash(self.point)
        assert SweepPoint(2, 5, self.point.theta, 0.0) != self.point

    def test_repr(self):
        assert repr(self.point) == (
            f"SweepPoint(p=2, q=5, theta={self.point.theta!r}, u_bar={3 / 7!r})"
        )

    def test_copies(self):
        for copied in (
            pickle.loads(pickle.dumps(self.point)),
            copy.copy(self.point),
            copy.deepcopy(self.point),
        ):
            assert copied == self.point and type(copied) is SweepPoint

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.point.p = 3
        assert not hasattr(self.point, "__dict__")

    def test_replace(self):
        moved = dataclasses.replace(self.point, u_bar=-1.0)
        assert (moved.p, moved.q, moved.theta, moved.u_bar) == (2, 5, self.point.theta, -1.0)

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError):
            SweepPoint(2, 5, 0.1)
