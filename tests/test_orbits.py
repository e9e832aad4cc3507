import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import tracemalloc
import weakref

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
from wedge_billiard.dynamics import EventSequence, Trajectory
from wedge_billiard.dynamics import CartesianState, TerminationKind
from wedge_billiard.geometry import from_wedge, to_wedge
from wedge_billiard import dynamics, orbits
from wedge_billiard.orbits import COVERAGE_STEP_FRACTION, OrbitClass, SweepPoint, _periodic_launch

from conftest import (
    bits,
    coprime_pairs,
    filled_columns,
    flights,
    random_angle,
    random_launch,
    stored_values,
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
            stored = stored_values(traj)
            k = first + p + q
            wall = stored["wall"][k]
            walls.add(wall)
            # the collision frame is the wedge frame, swapped on wall B
            du_bar, dw_bar = (v * threshold for v in shift)
            d_tilde = (dw_bar, du_bar) if wall else (du_bar, dw_bar)
            du, dw = from_wedge(*d_tilde, angle.sin, angle.cos)
            stored["u"][k] += du
            stored["w"][k] += dw
            events = EventSequence(filled_columns(angle, stored))
            shifted = Trajectory(traj.initial, angle, events[first:])
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

    def test_overflowing_box_rejected(self):
        # E/sin(theta) overflows: every sample would fall in the grid's row 0
        angle = WedgeAngle.from_degrees(5.729577951308232e-149)
        traj = simulate(launch_from_wall(Wall.A, 2.5e199, 3e99, 9e99, angle), angle, 5)
        assert len(traj.events) == 5
        with pytest.raises(ValueError, match="energy box .* overflows"):
            coverage_fraction(traj, (16, 16))

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


def coverage_by_sampling(traj, grid: tuple[int, int]) -> np.ndarray:
    """Per-arc loop that evaluates every sample: the reference for the
    samples ``coverage_fraction`` finds from grid-line crossings.  Returns
    the visited cells, an ``ny x nx`` bool grid."""
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
    return visited


def assert_covers_as_sampling(traj, grid: tuple[int, int]) -> None:
    """``coverage_fraction`` of ``traj`` is the sampling reference's, and so
    are the cells it visits: those its call on a copy of the events holds,
    the copy being a prefix of a fresh store."""
    expected = coverage_by_sampling(traj, grid)
    assert coverage_fraction(traj, grid) == float(expected.sum()) / float(expected.size)
    copied = with_events(traj, range(len(traj.events)))
    coverage_fraction(copied, grid)
    cells = orbits._HELD_CELLS[copied.events._columns][4]
    assert np.array_equal(cells, expected), np.argwhere(cells != expected).tolist()


def scaled_run(traj: Trajectory, factor: float) -> Trajectory:
    """``traj`` at ``factor`` times its energy: positions scale by the
    factor, momenta and times by its square root.

    The run is scaled after simulating because the engines' tolerances are
    absolute: a launch scaled to E = 1e-9 ends in a vertex hit at once.
    """
    root = math.sqrt(factor)
    stored = {"wall": traj.events.column("wall").tolist()}
    for name, scale in (("t", root), ("x", factor), ("y", factor), ("u_pre", root),
                        ("w_pre", root), ("u", root), ("w", root)):
        stored[name] = (traj.events.column(name) * scale).tolist()
    s = traj.initial
    initial = CartesianState(factor * s.x, factor * s.y, root * s.u, root * s.w, root * s.t)
    return Trajectory(initial, traj.theta, EventSequence(filled_columns(traj.theta, stored)))


COVERAGE_GRIDS = [(1, 1), (2, 3), (7, 7), (31, 17), (64, 64), (97, 3)]


class TestCoverageAgainstSampling:
    @pytest.mark.parametrize("seed", [977, 5])
    def test_random_launches(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 120)
            for grid in COVERAGE_GRIDS:
                assert_covers_as_sampling(traj, grid)

    def test_apex_tangent_launch(self):
        # an even energy split at 60 degrees puts every apex on a grid line
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 500)
        assert_covers_as_sampling(traj, (64, 64))

    @pytest.mark.parametrize("p, q", coprime_pairs(5))
    def test_periodic_orbits(self, p, q):
        traj = build_periodic_orbit(OrbitSpec(p, q, 1.0), n_collisions=4 * (p + q))
        for grid in ((64, 64), (13, 7)):
            assert_covers_as_sampling(traj, grid)

    @pytest.mark.parametrize("energy", [1e-9, 1e300])
    def test_energy_scales(self, energy):
        angle = WedgeAngle.from_degrees(50)
        traj = scaled_run(simulate(launch_from_wall(Wall.A, 1.0, 0.2, 1.0, angle), angle, 80), energy)
        for grid in COVERAGE_GRIDS:
            assert_covers_as_sampling(traj, grid)

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
                assert_covers_as_sampling(sub, grid)

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
            monkeypatch.setattr(dynamics, "_ARC_CHUNK", chunk)
            # a fresh store for each size, so that no call starts from held cells
            values.add(coverage_fraction(with_events(traj, range(n)), (64, 64)))
        assert len(values) == 1

    def test_memory_does_not_grow_with_the_horizon(self):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 5000)

        def peak(n_events: int) -> int:
            # a fresh store, so that every call rasterizes all its arcs
            prefix = with_events(traj, range(n_events))
            tracemalloc.start()
            try:
                coverage_fraction(prefix, (64, 64))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # leaves out what only a first call allocates
        assert peak(5000) <= peak(500) + 64 * 1024


def apex_tangent_run(n: int) -> Trajectory:
    """The 60-degree launch whose apexes all touch a 64 x 64 grid line."""
    angle = WedgeAngle.from_degrees(60)
    return simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, n)


def arcs_handed(monkeypatch) -> list:
    """The number of arcs each later call of ``orbits._critical_times`` is
    handed, one entry per call."""
    handed = []
    critical_times = orbits._critical_times

    def counting(duration, *args):
        handed.append(len(duration))
        return critical_times(duration, *args)

    monkeypatch.setattr(orbits, "_critical_times", counting)
    return handed


class TestCoverageHeldCells:
    """A prefix call keeps its cells by the run's store, and a longer prefix
    of the same run resumes from them."""

    def test_growing_horizons_rasterize_each_arc_once(self, monkeypatch):
        traj = apex_tangent_run(500)
        horizons = (125, 250, 375, 500)
        fresh = [coverage_fraction(with_events(traj, range(h)), (64, 64)) for h in horizons]
        handed = arcs_handed(monkeypatch)
        values = [
            coverage_fraction(dataclasses.replace(traj, events=traj.events[:h]), (64, 64))
            for h in horizons
        ]
        assert sum(handed) == 500
        assert values == fresh
        handed.clear()
        assert coverage_fraction(traj, (64, 64)) == fresh[-1]
        assert handed == []

    def test_reuse_never_changes_a_value(self, monkeypatch):
        traj = apex_tangent_run(500)
        n = len(traj.events)
        # on the same store: another launch, an equal launch in another object
        # and another angle
        runs = {
            "traj": traj,
            "moved": dataclasses.replace(traj, initial=dataclasses.replace(traj.initial, w=1.5)),
            "copied": dataclasses.replace(traj, initial=dataclasses.replace(traj.initial)),
            "turned": dataclasses.replace(traj, theta=WedgeAngle.from_degrees(50)),
        }
        # views as (start, stop, step): prefixes, then offset, strided and reversed
        horizons = [(None, h, None) for h in (125, 250, 375, 500)]
        others = [(50, 300, None), (None, 400, 2), (None, None, -1)]
        # at 64 x 64 the run covers its own box from 125 events on; at 200 x 90
        # each horizon adds cells
        grids = [(64, 64), (200, 90)]
        cases = [(run, view, grid) for run in runs for view in horizons for grid in grids]
        cases += [("traj", view, grid) for view in others for grid in grids]

        def call(case) -> float:
            run, view, grid = case
            events = runs[run].events[slice(*view)]
            return coverage_fraction(dataclasses.replace(runs[run], events=events), grid)

        expected = {}
        for run, view, grid in cases:
            fresh = with_events(runs[run], range(n)[slice(*view)])
            expected[run, view, grid] = coverage_fraction(fresh, grid)
            if run == "traj":
                cells = orbits._HELD_CELLS[fresh.events._columns][4]
                assert np.array_equal(cells, coverage_by_sampling(fresh, grid))
        for view in horizons:
            for grid in grids:
                assert expected["copied", view, grid] == expected["traj", view, grid]

        rng = np.random.default_rng(28)
        ascending = [(run, view, grid) for run in runs for grid in grids for view in horizons]
        orders = {
            "ascending": ascending,
            "descending": ascending[::-1],
            "repeated": [case for case in ascending for _ in range(2)],
            # each horizon at both grids before the next horizon
            "grids interleaved": [
                (run, view, grid) for run in runs for view in horizons for grid in grids
            ],
            # a launch or angle on the same store between two horizons of another
            "launches interleaved": [
                (run, view, grid) for grid in grids for view in horizons for run in runs
            ],
            # views that are not prefixes between the horizons
            "views interleaved": [
                ("traj", view, grid)
                for grid in grids
                for view in [x for pair in zip(horizons, others) for x in pair] + horizons[-1:]
            ],
            "shuffled": [cases[i] for i in rng.permutation(len(cases))],
            "shuffled again": [cases[i] for i in rng.permutation(len(cases))],
        }
        handed = arcs_handed(monkeypatch)
        called = 0
        for name, order in orders.items():
            for case in order:
                assert call(case) == expected[case], (name, case)
                called += len(range(n)[slice(*case[1])])
        # the calls in ascending order, at least, resumed from held cells
        assert sum(handed) < called

    def test_a_failed_call_leaves_the_held_cells_as_they_were(self, monkeypatch):
        traj = apex_tangent_run(500)
        grid = (200, 90)
        fresh = coverage_fraction(with_events(traj, range(100)), grid)
        prefix = dataclasses.replace(traj, events=traj.events[:100])
        assert coverage_fraction(prefix, grid) == fresh
        handed = arcs_handed(monkeypatch)
        critical_times = orbits._critical_times

        def failing(*args):
            if handed:
                raise RuntimeError("interrupted")
            return critical_times(*args)

        monkeypatch.setattr(orbits, "_critical_times", failing)
        # resumes from arc 100 and stops in its second chunk
        with pytest.raises(RuntimeError, match="interrupted"):
            coverage_fraction(traj, grid)
        assert handed == [64]
        monkeypatch.undo()
        assert coverage_fraction(prefix, grid) == fresh

    def test_threads_sharing_a_run_read_fresh_values(self):
        traj = apex_tangent_run(500)
        grid = (200, 90)
        horizons = (60, 125, 190, 250, 375, 440, 500)
        fresh = {h: coverage_fraction(with_events(traj, range(h)), grid) for h in horizons}
        wrong = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for h in rng.choice(horizons, 24):
                prefix = dataclasses.replace(traj, events=traj.events[:h])
                value = coverage_fraction(prefix, grid)
                if value != fresh[h]:
                    wrong.append((int(h), value))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_held_cells_keep_no_run_alive(self):
        gc.collect()
        before = len(orbits._HELD_CELLS)
        traj = apex_tangent_run(200)
        coverage_fraction(dataclasses.replace(traj, events=traj.events[:100]), (64, 64))
        store = weakref.ref(traj.events._columns)
        assert store() in orbits._HELD_CELLS
        assert len(orbits._HELD_CELLS) == before + 1
        del traj
        gc.collect()
        assert store() is None
        assert len(orbits._HELD_CELLS) == before

    def test_grid_is_read_as_integers(self, monkeypatch):
        empty = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=0)
        for grid in ((64.0, 64), (64, 64.0), (np.float64(8), 8)):
            # a TypeError before the empty run's ValueError
            with pytest.raises(TypeError):
                coverage_fraction(empty, grid)
        traj = apex_tangent_run(500)
        fresh = coverage_fraction(with_events(traj, range(500)), (64, 64))
        coverage_fraction(dataclasses.replace(traj, events=traj.events[:250]), (64, 64))
        handed = arcs_handed(monkeypatch)
        assert coverage_fraction(traj, (np.int64(64), 64)) == fresh
        assert sum(handed) == 250


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
        # the Farey walk against a brute-force enumeration, with unequal bounds too
        for p_max, q_max in ((12, 12), (3, 11), (11, 3), (1, 7), (7, 1), (1, 1)):
            for half in (False, True):
                expected = sorted(
                    (
                        (p, q)
                        for p in range(1, p_max + 1)
                        for q in range(1, q_max + 1)
                        if math.gcd(p, q) == 1 and (q > p or not half)
                    ),
                    key=lambda pq: math.atan2(*pq),
                )
                points = sweep_periodic_points(p_max, q_max, half=half)
                assert [(pt.p, pt.q) for pt in points] == expected, (p_max, q_max, half)

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
    # (300, 7) and (7, 300) turn the walk's smaller k from one bound to the
    # other on many steps
    for p_max, q_max in [*bounds, (57, 44), (150, 150), (301, 299), (300, 7), (7, 300)]:
        expected = sweep_bits(sweep_by_gcd_and_sort(p_max, q_max, energy, half))
        assert sweep_bits(sweep_periodic_points(p_max, q_max, energy, half)) == expected, (
            p_max,
            q_max,
        )


def test_sweep_peaks_near_the_bytes_it_returns():
    # the points' bytes plus transient integer and u_bar columns; no
    # temporary sized max**2 and no tuple per point
    sweep_periodic_points(3, 3)  # leaves out what only a first call allocates
    tracemalloc.start()
    try:
        points = sweep_periodic_points(150, 150)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 13715
    assert peak <= 1.3 * held


def test_sweep_holds_at_most_90_bytes_a_point():
    # four columns, two of small ints and two of floats: ~83 B a point; a
    # SweepPoint held for every point made it ~121
    sweep_periodic_points(3, 3)  # leaves out what only a first call allocates
    tracemalloc.start()
    try:
        points = sweep_periodic_points(150, 150)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 90 * len(points)


class TestSweepSequence:
    """The sweep is a read-only sequence over its columns that builds each
    point it gives, by index or by iteration, as a list would hold it."""

    points = sweep_periodic_points(12, 12)
    reference = sweep_by_gcd_and_sort(12, 12, 1.0, False)
    VIEWS = [
        slice(None),
        slice(2, 9),
        slice(None, None, 3),
        slice(1, -1, 4),
        slice(None, None, -1),
        slice(-2, 3, -2),
        slice(None, None, -7),
        slice(5, 5),
        slice(9, 2),
        slice(2, 9, -1),
        slice(100, 200),
    ]

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("energy", [1e-9, 1.0, 1e200])
    def test_built_points_are_the_sorted_enumeration_bit_for_bit(self, half, energy):
        for p_max, q_max in ((1, 1), (3, 11), (11, 3), (57, 44), (150, 150)):
            points = sweep_periodic_points(p_max, q_max, energy, half)
            expected = sweep_by_gcd_and_sort(p_max, q_max, energy, half)
            assert sweep_bits([points[i] for i in range(len(points))]) == sweep_bits(expected)
            assert sweep_bits(list(reversed(points))) == sweep_bits(expected[::-1])
            for view in (slice(None, None, 7), slice(-3, None, -5)):
                assert sweep_bits(points[view]) == sweep_bits(expected[view])

    def test_indexing(self):
        n = len(self.reference)
        assert len(self.points) == n
        for i in range(-n, n):
            point = self.points[i]
            assert type(point) is SweepPoint and point == self.reference[i]
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                self.points[i]
        assert self.points[np.int64(-2)] == self.reference[-2]
        with pytest.raises(TypeError):
            self.points[1.0]

    def test_slices(self):
        for view in self.VIEWS:
            sliced, expected = self.points[view], self.reference[view]
            assert type(sliced) is type(self.points)
            assert len(sliced) == len(expected)
            assert list(sliced) == expected
            # a slice of a slice, and its last point by a negative index
            assert list(sliced[::-2]) == expected[::-2]
            if expected:
                assert sliced[-1] == expected[-1]
        assert len(sweep_periodic_points(1, 1, half=True)) == 0

    def test_iteration_and_reversed(self):
        assert all(type(point) is SweepPoint for point in self.points)
        assert list(self.points) == self.reference
        assert list(reversed(self.points)) == self.reference[::-1]
        assert list(iter(self.points)) == list(iter(self.points))
        point = self.reference[5]
        assert point in self.points and self.points.index(point) == 5
        assert self.points.count(point) == 1

    def test_equality(self):
        same = sweep_periodic_points(12, 12)
        assert self.points == same and same == self.points
        assert self.points == self.reference and self.reference == self.points
        assert self.points[2:9] == self.reference[2:9] == self.points[2:9]
        assert not self.points != self.reference
        moved = [*self.reference[:-1], dataclasses.replace(self.reference[-1], u_bar=0.5)]
        for other in (
            moved,
            self.reference[:-1],
            sweep_periodic_points(12, 11),
            sweep_periodic_points(12, 12, 2.0),
            sweep_periodic_points(12, 12, half=True),
        ):
            assert self.points != other and other != self.points
        # like the list it replaces, a sweep equals no tuple
        assert self.points != tuple(self.reference)
        assert self.points != tuple(self.points)

    def test_repr(self):
        assert repr(self.points) == f"<sweep of {len(self.reference)} points>"
        assert repr(self.points[5:5]) == "<sweep of 0 points>"

    def test_read_only_and_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.points)
        with pytest.raises(TypeError):
            hash(self.points[1:3])
        with pytest.raises(TypeError):
            self.points[0] = self.reference[0]
        with pytest.raises(TypeError):
            del self.points[0]
        assert not hasattr(self.points, "append")
        assert not hasattr(self.points, "__dict__")

    def test_pickle_and_copy(self):
        for points in (self.points, self.points[::-3], self.points[5:5]):
            for copied in (
                pickle.loads(pickle.dumps(points)),
                copy.copy(points),
                copy.deepcopy(points),
            ):
                assert type(copied) is type(points)
                assert copied == points and copied == list(points)
                assert sweep_bits(copied) == sweep_bits(points)


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
