import math

import pytest

from wedge_billiard import (
    OrbitKind,
    OrbitSpec,
    Wall,
    WedgeAngle,
    bounce_periods,
    bounce_times,
    build_periodic_orbit,
    classify_orbit,
    coverage_fraction,
    critical_angle,
    decoupled_simulate,
    launch_from_wall,
    period_ratio,
    periodic_initial_condition,
    sensitivity_probe,
    simulate,
    sweep_periodic_points,
)
from wedge_billiard.dynamics import Trajectory
from wedge_billiard.dynamics import CartesianState, TerminationKind
from wedge_billiard.orbits import OrbitClass, launch_arclength

from conftest import random_angle, random_launch


def coprime_pairs(limit: int):
    return [
        (p, q)
        for p in range(1, limit + 1)
        for q in range(1, limit + 1)
        if math.gcd(p, q) == 1
    ]


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


class TestPeriodRatio:
    def test_symmetric(self):
        assert period_ratio(WedgeAngle(math.pi / 4)) == pytest.approx(1.0)

    def test_tan_arctan_identity(self):
        assert period_ratio(WedgeAngle(math.atan(2 / 5))) == pytest.approx(0.4)

    def test_irrational_at_60_degrees(self):
        assert period_ratio(WedgeAngle(math.pi / 3)) == pytest.approx(math.sqrt(3))

    def test_ratio_law_exact(self):
        # tan amplifies angle rounding by 1 + tan^2, so the identity is
        # checked where it is well conditioned: in angle units
        for p, q in coprime_pairs(25):
            ratio = period_ratio(critical_angle(OrbitSpec(p, q)))
            assert abs(ratio - p / q) / (1.0 + (p / q) ** 2) <= 1e-15


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

    def test_vertex_termination_is_degenerate(self):
        traj = simulate(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4), 10)
        assert traj.termination.kind is TerminationKind.VERTEX_HIT
        result = classify_orbit(traj, 1e-8)
        assert result.kind is OrbitKind.DEGENERATE
        assert result.reason == "vertex_hit"

    def test_nonpositive_tolerance_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=10)
        with pytest.raises(ValueError):
            classify_orbit(traj, 0.0)

    def test_too_short_without_termination_rejected(self):
        traj = build_periodic_orbit(OrbitSpec(1, 2, 1.0), n_collisions=1)
        with pytest.raises(ValueError):
            classify_orbit(traj, 1e-8)


def classify_by_event_loop(traj, tol: float = 1e-8) -> OrbitClass:
    """Per-event loop over built events: the reference for the recurrence
    search that ``classify_orbit`` runs on the columns."""

    def same(a, b, threshold):
        sa = (a.post.x, a.post.y, a.rotating_post.u_bar, a.rotating_post.w_bar)
        sb = (b.post.x, b.post.y, b.rotating_post.u_bar, b.rotating_post.w_bar)
        return a.wall is b.wall and all(abs(x - y) <= threshold for x, y in zip(sa, sb))

    events = tuple(traj.events)
    threshold = tol * math.sqrt(traj.energy)
    n = len(events)
    for k in range(1, n // 2 + 1):
        if same(events[k], events[0], threshold) and all(
            same(events[i + k], events[i], threshold) for i in range(n - k)
        ):
            hits_a = sum(1 for e in events[:k] if e.wall is Wall.A)
            return OrbitClass.periodic(k, hits_a, k - hits_a)
    return OrbitClass.dense()


class TestClassifyAgainstEventLoop:
    @pytest.mark.parametrize("p, q", coprime_pairs(5))
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3])
    def test_perturbed_periodic_launches(self, p, q, eps):
        spec = OrbitSpec(p, q, 1.0)
        angle = critical_angle(spec)
        seed = periodic_initial_condition(spec)
        initial = launch_from_wall(Wall.A, launch_arclength(spec), seed.u_bar + eps, seed.w_bar, angle)
        traj = simulate(initial, angle, 6 * (p + q) + 1)
        for tol in (1e-8, 1e-5):
            assert classify_orbit(traj, tol) == classify_by_event_loop(traj, tol)

    def test_views_and_short_runs(self):
        traj = build_periodic_orbit(OrbitSpec(3, 4, 2.0), n_collisions=70)
        for view in (traj.events[1:], traj.events[::2], traj.events[::-1], traj.events[:3]):
            sub = Trajectory(traj.initial, traj.theta, view, traj.energy, traj.wedge_integrals)
            assert classify_orbit(sub) == classify_by_event_loop(sub)

    def test_dense_launches(self, rng):
        for _ in range(5):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 400)
            assert classify_orbit(traj) == classify_by_event_loop(traj) == OrbitClass.dense()


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
    def test_left_wall_times(self):
        times_a, _ = bounce_times(1.0, 1.0, WedgeAngle(math.pi / 4), 2)
        assert times_a == pytest.approx([2 * math.sqrt(2), 4 * math.sqrt(2)])

    def test_right_wall_times(self):
        _, times_b = bounce_times(1.0, 1.0, WedgeAngle(math.pi / 6), 1)
        assert times_b == pytest.approx([4.0])

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            bounce_times(0.0, 1.0, WedgeAngle(0.7), 1)

    def test_ratio_is_period_ratio(self):
        angle = WedgeAngle(0.9)
        periods = bounce_periods(1.0, 1.0, angle)
        assert periods.ratio == pytest.approx(period_ratio(angle))

    def test_coincidence_against_decoupled_vertex_launch(self):
        # equal bounce speeds at tan(theta) = 2/3: the bouncers meet the
        # vertex together at the least common multiple of their periods
        p, q = 2, 3
        angle = critical_angle(OrbitSpec(p, q))
        times_a, times_b = bounce_times(1.0, 1.0, angle, 5)
        initial = CartesianState(0.0, 0.0, angle.sin - angle.cos, angle.cos + angle.sin)
        traj = decoupled_simulate(initial, angle, 10)
        assert traj.termination is not None
        assert traj.termination.kind is TerminationKind.VERTEX_HIT
        # q - 1 left-wall and p - 1 right-wall bounces happen first
        expected = sorted(
            [(t, Wall.B) for t in times_a[: q - 1]] + [(t, Wall.A) for t in times_b[: p - 1]]
        )
        assert len(traj.events) == p + q - 2
        for event, (t_expected, wall_expected) in zip(traj.events, expected):
            assert event.wall is wall_expected
            assert event.t == pytest.approx(t_expected, abs=1e-12)
        assert traj.termination.t == pytest.approx(times_a[q - 1], abs=1e-12)
        assert traj.termination.t == pytest.approx(times_b[p - 1], abs=1e-12)


class TestSweep:
    def test_point_count_small(self):
        assert len(sweep_periodic_points(3, 3)) == 7

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
