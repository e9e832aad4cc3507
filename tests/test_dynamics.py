import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from wedge_billiard import (
    CartesianState,
    OrbitClass,
    OrbitSpec,
    TerminationKind,
    Trajectory,
    Wall,
    WedgeAngle,
    build_periodic_orbit,
    classify_orbit,
    coverage_fraction,
    decoupled_simulate,
    free_flight,
    hamiltonian,
    launch_from_wall,
    next_collision,
    reflect,
    simulate,
    wall_momentum,
    wedge_hamiltonians,
)
from wedge_billiard.cli import OutputFormat, export_trajectory, read_trajectory_json
from wedge_billiard.dynamics import (
    WALLS,
    DegenerateError,
    EventSequence,
    NotOnWallError,
    OutgoingMomentumError,
    VertexHitError,
)

from conftest import random_angle, random_launch


class TestHamiltonian:
    @pytest.mark.parametrize(
        "state, energy",
        [
            (CartesianState(0, 1, 0, 0), 1.0),
            (CartesianState(1, 1, 0, -1), 1.5),
            (CartesianState(0, 0, 3, 4), 12.5),
        ],
    )
    def test_values(self, state, energy):
        assert hamiltonian(state) == pytest.approx(energy)


class TestWedgeHamiltonians:
    def test_hand_computed_split(self):
        # resolve (1,1) and (-1,0) along the walls by hand at 45 degrees:
        # x_tilde = sqrt(2), y_tilde = 0, u_tilde = -sqrt(2)/2, w_tilde = sqrt(2)/2
        hx, hy = wedge_hamiltonians(CartesianState(1, 1, -1, 0), WedgeAngle(math.pi / 4))
        assert hx == pytest.approx(5 / 4)
        assert hy == pytest.approx(1 / 4)

    def test_rest_at_vertex(self):
        hx, hy = wedge_hamiltonians(CartesianState(0, 0, 0, 0), WedgeAngle(0.7))
        assert hx == 0.0
        assert hy == 0.0

    def test_split_sums_to_total_energy(self, rng):
        for _ in range(1000):
            angle = random_angle(rng)
            s = CartesianState(*rng.uniform(-2, 2, size=4))
            hx, hy = wedge_hamiltonians(s, angle)
            assert hx + hy == pytest.approx(hamiltonian(s), abs=1e-12)


class TestFreeFlight:
    def test_free_fall(self):
        s = free_flight(CartesianState(0, 1, 0, 0), 1.0)
        assert (s.x, s.y, s.u, s.w, s.t) == (0.0, 0.5, 0.0, -1.0, 1.0)

    def test_symmetric_parabola(self):
        s = free_flight(CartesianState(0, 0, 1, 1), 2.0)
        assert (s.x, s.y, s.u, s.w) == (2.0, 0.0, 1.0, -1.0)

    def test_energy_invariant(self, rng):
        for _ in range(200):
            s = CartesianState(*rng.uniform(-2, 2, size=4))
            dt = float(rng.uniform(0, 5))
            e0 = hamiltonian(s)
            assert hamiltonian(free_flight(s, dt)) == pytest.approx(
                e0, rel=1e-13, abs=1e-13
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_flight(CartesianState(0, 1, 0, 0), -0.1)


def brute_force_exit_time(state: CartesianState, angle: WedgeAngle, t_max: float, dt: float = 1e-6) -> float:
    """Independent oracle: march the flight parabola until it leaves the region."""
    ts = np.arange(dt, t_max, dt)
    xs = state.x + state.u * ts
    ys = state.y + state.w * ts - 0.5 * ts * ts
    x_tilde = xs * angle.sin + ys * angle.cos
    y_tilde = -xs * angle.cos + ys * angle.sin
    outside = (x_tilde < 0) | (y_tilde < 0)
    idx = int(np.argmax(outside))
    assert outside[idx], "flight never left the region within t_max"
    return float(ts[idx])


class TestNextCollision:
    def test_vertical_throw_returns_to_same_wall(self):
        # launched straight up off the 45-degree wall from (1, 1)
        dt, wall = next_collision(CartesianState(1, 1, 0, 1), WedgeAngle(math.pi / 4))
        assert wall is Wall.A
        assert dt == pytest.approx(2.0)

    def test_crossing_flight_against_brute_force(self):
        angle = WedgeAngle(math.pi / 4)
        state = CartesianState(1, 1, -1, 0)
        dt, wall = next_collision(state, angle)
        assert wall is Wall.B
        # root of the wall-B crossing quadratic t^2 + 2t - 4 = 0
        assert dt == pytest.approx(math.sqrt(5) - 1, abs=1e-12)
        assert dt == pytest.approx(brute_force_exit_time(state, angle, 3.0), abs=1e-5)

    def test_more_crossings_against_brute_force(self, rng):
        for _ in range(5):
            angle = random_angle(rng)
            state = random_launch(rng, angle)
            dt, _ = next_collision(state, angle)
            assert dt == pytest.approx(
                brute_force_exit_time(state, angle, dt * 2 + 1), abs=1e-5
            )

    def test_grazing_is_degenerate(self):
        angle = WedgeAngle(math.pi / 4)
        state = launch_from_wall(Wall.A, 1.0, 0.5, 1e-11, angle)
        with pytest.raises(DegenerateError):
            next_collision(state, angle)

    def test_drop_onto_vertex(self):
        with pytest.raises(VertexHitError):
            next_collision(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4))


class TestReflect:
    def test_straight_down_onto_right_wall(self):
        angle = WedgeAngle(math.pi / 4)
        state = CartesianState(0.5, 0.5, 0, -1)
        out = reflect(state, Wall.A, angle)
        assert out.u == pytest.approx(-1.0)
        assert out.w == pytest.approx(0.0, abs=1e-15)
        assert math.hypot(out.u, out.w) == pytest.approx(1.0)

    def test_normal_incidence_reverses_momentum(self):
        angle = WedgeAngle(0.9)
        state = launch_from_wall(Wall.B, 1.0, 0.0, -1.0, angle)
        # force the precondition: momentum antiparallel to the inward normal
        out = reflect(CartesianState(state.x, state.y, state.u, state.w), Wall.B, angle)
        assert out.u == pytest.approx(-state.u)
        assert out.w == pytest.approx(-state.w)

    def test_tangential_momentum_unchanged(self):
        angle = WedgeAngle(0.8)
        state = launch_from_wall(Wall.A, 1.0, 0.7, 0.0, angle)
        out = reflect(state, Wall.A, angle)
        assert (out.u, out.w) == (state.u, state.w)

    def test_preserves_norm_and_tangential_component(self, rng):
        for _ in range(50):
            angle = random_angle(rng)
            wall = Wall.A if rng.random() < 0.5 else Wall.B
            incoming = launch_from_wall(
                wall, 1.0, float(rng.uniform(-1, 1)), -float(rng.uniform(0.1, 1)), angle
            )
            out = reflect(incoming, wall, angle)
            assert math.hypot(out.u, out.w) == pytest.approx(
                math.hypot(incoming.u, incoming.w)
            )
            res_in = wall_momentum(incoming.momentum, wall, angle)
            res_out = wall_momentum(out.momentum, wall, angle)
            assert res_out.u_bar == pytest.approx(res_in.u_bar, abs=1e-14)
            assert res_out.w_bar == pytest.approx(-res_in.w_bar, abs=1e-14)

    def test_involution(self, rng):
        for _ in range(50):
            angle = random_angle(rng)
            wall = Wall.A if rng.random() < 0.5 else Wall.B
            incoming = launch_from_wall(
                wall, 1.0, float(rng.uniform(-1, 1)), -float(rng.uniform(0.1, 1)), angle
            )
            out = reflect(incoming, wall, angle)
            back = reflect(
                CartesianState(out.x, out.y, -out.u, -out.w, out.t), wall, angle
            )
            assert back.u == pytest.approx(-incoming.u, abs=1e-14)
            assert back.w == pytest.approx(-incoming.w, abs=1e-14)

    def test_off_wall_state_rejected(self):
        with pytest.raises(NotOnWallError):
            reflect(CartesianState(0, 1, 0, -1), Wall.A, WedgeAngle(math.pi / 4))

    def test_outgoing_state_rejected(self):
        angle = WedgeAngle(math.pi / 4)
        state = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
        with pytest.raises(OutgoingMomentumError):
            reflect(state, Wall.A, angle)


class TestSimulate:
    def test_symmetric_single_bounce_orbit(self):
        # unit normal launches at 45 degrees shuttle between two mirror points
        angle = WedgeAngle(math.pi / 4)
        initial = launch_from_wall(Wall.A, math.sqrt(2), 0.0, math.sqrt(2), angle)
        traj = simulate(initial, angle, 20)
        walls = [e.wall for e in traj.events]
        assert walls == [Wall.B, Wall.A] * 10
        for event in traj.events:
            expected_x = -1.0 if event.wall is Wall.B else 1.0
            assert event.post.x == pytest.approx(expected_x, abs=1e-12)
            assert event.post.y == pytest.approx(1.0, abs=1e-12)

    def test_dense_launch_runs_to_budget(self):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 50)
        assert len(traj.events) == 50
        assert traj.termination is None
        assert len({(e.wall, round(e.post.x, 6)) for e in traj.events}) > 40

    def test_zero_collisions(self):
        angle = WedgeAngle(0.7)
        initial = launch_from_wall(Wall.A, 1.0, 0.1, 1.0, angle)
        traj = simulate(initial, angle, 0)
        assert traj.events == ()
        assert traj.initial == initial

    def test_launch_outside_region_rejected(self):
        with pytest.raises(ValueError):
            simulate(CartesianState(1, 0, 0, 0), WedgeAngle(math.pi / 4), 1)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            simulate(CartesianState(0, 0, 0, 0), WedgeAngle(math.pi / 4), 1)

    def test_vertex_drop_terminates(self):
        traj = simulate(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4), 10)
        assert traj.termination is not None
        assert traj.termination.kind is TerminationKind.VERTEX_HIT
        assert traj.events == ()

    def test_grazing_launch_terminates_degenerate(self):
        angle = WedgeAngle(0.9)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.3, 1e-12, angle), angle, 10)
        assert traj.termination is not None
        assert traj.termination.kind is TerminationKind.DEGENERATE
        assert traj.termination.normal_speed == pytest.approx(1e-12, abs=1e-12)

    def test_event_invariants(self, rng):
        angle = random_angle(rng)
        traj = simulate(random_launch(rng, angle), angle, 200)
        last_t = traj.initial.t
        for event in traj.events:
            assert event.t > last_t
            last_t = event.t
            assert event.pre.position == event.post.position
            assert math.hypot(event.pre.u, event.pre.w) == pytest.approx(
                math.hypot(event.post.u, event.post.w)
            )
            assert event.rotating_post.w_bar >= 0.0
            resolved = wall_momentum(event.post.momentum, event.wall, angle)
            assert event.rotating_post.u_bar == pytest.approx(resolved.u_bar, abs=1e-14)
            assert event.rotating_post.w_bar == pytest.approx(resolved.w_bar, abs=1e-14)

    def test_conserved_quantities_over_long_run(self, rng):
        angle = random_angle(rng)
        traj = simulate(random_launch(rng, angle), angle, 10_000)
        assert traj.termination is None
        hx0, hy0 = traj.wedge_integrals
        for event in traj.events[::37]:
            assert hamiltonian(event.post) == pytest.approx(
                traj.energy, rel=1e-9
            )
            hx, hy = wedge_hamiltonians(event.post, angle)
            assert hx == pytest.approx(hx0, abs=1e-9 * traj.energy)
            assert hy == pytest.approx(hy0, abs=1e-9 * traj.energy)

    def test_points_stay_inside_bounds(self, rng):
        angle = random_angle(rng)
        traj = simulate(random_launch(rng, angle), angle, 500)
        x_max = traj.energy / angle.cos
        y_max = traj.energy / angle.sin
        for event in traj.events:
            xt = event.post.x * angle.sin + event.post.y * angle.cos
            yt = -event.post.x * angle.cos + event.post.y * angle.sin
            assert -1e-12 <= xt <= x_max + 1e-9
            assert -1e-12 <= yt <= y_max + 1e-9

    def test_time_reversal_retraces_events(self, rng):
        angle = random_angle(rng)
        traj = simulate(random_launch(rng, angle), angle, 12)
        assert traj.termination is None
        k = 8
        pivot = traj.events[k - 1].post
        reversed_launch = CartesianState(pivot.x, pivot.y, -pivot.u, -pivot.w, 0.0)
        back = simulate(reversed_launch, angle, k - 1)
        for i, event in enumerate(back.events):
            mirror = traj.events[k - 2 - i]
            assert event.wall is mirror.wall
            assert event.post.x == pytest.approx(mirror.post.x, abs=1e-8)
            assert event.post.y == pytest.approx(mirror.post.y, abs=1e-8)


class TestDecoupledSimulate:
    def test_matches_event_driven_simulator(self, rng):
        for _ in range(10):
            angle = random_angle(rng)
            initial = random_launch(rng, angle)
            a = simulate(initial, angle, 100)
            b = decoupled_simulate(initial, angle, 100)
            assert len(a.events) == len(b.events)
            for ea, eb in zip(a.events, b.events):
                assert ea.wall is eb.wall
                assert ea.t == pytest.approx(eb.t, abs=1e-9)
                assert ea.post.x == pytest.approx(eb.post.x, abs=1e-9)
                assert ea.post.y == pytest.approx(eb.post.y, abs=1e-9)
                assert ea.post.u == pytest.approx(eb.post.u, abs=1e-9)
                assert ea.post.w == pytest.approx(eb.post.w, abs=1e-9)
                assert ea.pre.u == pytest.approx(eb.pre.u, abs=1e-9)
                assert ea.pre.w == pytest.approx(eb.pre.w, abs=1e-9)

    def test_matches_on_symmetric_orbit(self):
        angle = WedgeAngle(math.pi / 4)
        initial = launch_from_wall(Wall.A, math.sqrt(2), 0.0, math.sqrt(2), angle)
        traj = decoupled_simulate(initial, angle, 6)
        assert [e.wall for e in traj.events] == [Wall.B, Wall.A] * 3

    def test_left_wall_bounce_cadence(self):
        # launch off wall B far from wall A: the left-wall bouncer alone
        # fixes the collision times at 2*j*u_tilde0/cos(theta)
        angle = WedgeAngle(math.pi / 6)
        initial = launch_from_wall(Wall.B, 20.0, 0.0, 1.0, angle)
        traj = decoupled_simulate(initial, angle, 3)
        period = 2.0 / angle.cos
        assert [e.wall for e in traj.events] == [Wall.B] * 3
        for j, event in enumerate(traj.events, start=1):
            assert event.t == pytest.approx(j * period, abs=1e-12)

    def test_right_wall_bounce_cadence(self):
        # the coordinate along wall A falls faster (gravity cos(theta)), so
        # the launch must sit higher for three clean right-wall bounces
        angle = WedgeAngle(math.pi / 6)
        initial = launch_from_wall(Wall.A, 100.0, 0.0, 1.0, angle)
        traj = decoupled_simulate(initial, angle, 3)
        period = 2.0 / angle.sin
        assert [e.wall for e in traj.events] == [Wall.A] * 3
        for k, event in enumerate(traj.events, start=1):
            assert event.t == pytest.approx(k * period, abs=1e-12)

    def test_zero_collisions(self):
        angle = WedgeAngle(0.7)
        initial = launch_from_wall(Wall.B, 1.0, 0.2, 0.8, angle)
        traj = decoupled_simulate(initial, angle, 0)
        assert traj.events == ()


def dense_60(n: int, engine=simulate):
    """The paper's 60-degree launch (wall A, s = 1, u_bar = 0, w_bar = 1)."""
    angle = WedgeAngle.from_degrees(60)
    return engine(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, n)


EVENT_FIELDS = {
    "wall": lambda e: WALLS.index(e.wall),
    "t": lambda e: e.t,
    "x": lambda e: e.post.x,
    "y": lambda e: e.post.y,
    "u_pre": lambda e: e.pre.u,
    "w_pre": lambda e: e.pre.w,
    "u": lambda e: e.post.u,
    "w": lambda e: e.post.w,
    "u_bar": lambda e: e.rotating_post.u_bar,
    "w_bar": lambda e: e.rotating_post.w_bar,
}


class TestEventSequence:
    """``Trajectory.events`` is a read-only view over per-event columns."""

    def test_length_negative_index_and_step_slices(self):
        events = dense_60(200).events
        as_tuple = tuple(events)
        assert len(events) == len(as_tuple) == 200
        assert events[-1] == as_tuple[199]
        assert events[-200] == as_tuple[0]
        assert events[3] == events[3]
        strided = events[::37]
        assert isinstance(strided, EventSequence)
        assert len(strided) == 6
        assert strided == as_tuple[::37]
        assert list(strided) == list(as_tuple[::37])
        assert strided[-1] == as_tuple[185]
        assert events[::-1] == as_tuple[::-1]
        assert events[150:20:-7] == as_tuple[150:20:-7]
        assert events[5:40][::3][-2:] == as_tuple[5:40][::3][-2:]
        for index in (200, -201):
            with pytest.raises(IndexError):
                events[index]
        with pytest.raises(TypeError):
            events[0] = events[1]

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate])
    @pytest.mark.parametrize("index", [slice(None), slice(None, None, 37), slice(None, None, -3), slice(7, 2, -1)])
    def test_columns_equal_the_built_events(self, engine, index):
        events = dense_60(200, engine).events[index]
        for name, field in EVENT_FIELDS.items():
            column = events.column(name)
            assert column.tolist() == [field(e) for e in events], name
            with pytest.raises(ValueError):
                column[:1] = 0

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate])
    def test_iteration_matches_json_round_trip(self, engine, tmp_path):
        traj = dense_60(120, engine)
        path = tmp_path / "traj.json"
        export_trajectory(traj, OutputFormat.JSON, str(path))
        loaded = read_trajectory_json(str(path))
        assert list(traj.events) == list(loaded.events)
        assert traj.events == loaded.events
        assert traj == loaded

    def test_launch_with_no_events_compares_equal_to_empty_tuple(self):
        traj = simulate(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4), 10)
        assert traj.termination is not None
        assert traj.events == ()
        assert () == traj.events
        assert not traj.events
        assert list(traj.events) == []
        assert traj.events.column("x").size == 0

    @pytest.mark.parametrize("k", [2, 17, 40])
    def test_replaced_prefix_feeds_coverage_and_classify(self, k):
        traj = build_periodic_orbit(OrbitSpec(2, 3), n_collisions=40)
        prefix = dataclasses.replace(traj, events=traj.events[:k])
        from_tuple = dataclasses.replace(traj, events=tuple(traj.events)[:k])
        rerun = simulate(traj.initial, traj.theta, k)
        assert prefix.events == from_tuple.events == rerun.events
        coverage = coverage_fraction(rerun, (32, 32))
        assert coverage_fraction(prefix, (32, 32)) == coverage
        assert coverage_fraction(from_tuple, (32, 32)) == coverage
        verdict = classify_orbit(rerun)
        assert classify_orbit(prefix) == classify_orbit(from_tuple) == verdict
        assert verdict == (OrbitClass.dense() if k < 10 else OrbitClass.periodic(5, 2, 3))

    @pytest.mark.parametrize("p, q", [(1, 2), (3, 1), (2, 5), (4, 7)])
    def test_periodic_hits_from_wall_column(self, p, q):
        traj = build_periodic_orbit(OrbitSpec(p, q), n_collisions=3 * (p + q))
        walls = traj.events[: p + q].column("wall")
        assert [WALLS[code] for code in walls.tolist()] == [e.wall for e in traj.events[: p + q]]
        hits_a = int(np.count_nonzero(walls == WALLS.index(Wall.A)))
        assert (hits_a, len(walls) - hits_a) == (p, q)
        assert classify_orbit(traj) == OrbitClass.periodic(p + q, p, q)

    def test_events_that_do_not_fit_the_columns_rejected(self):
        traj = dense_60(3)
        first = traj.events[0]
        moved = dataclasses.replace(first, pre=dataclasses.replace(first.pre, x=first.pre.x + 1.0))
        with pytest.raises(ValueError):
            dataclasses.replace(traj, events=(moved,))
        with pytest.raises(ValueError):
            Trajectory(traj.initial, traj.theta, (first, moved), traj.energy, traj.wedge_integrals)


def test_simulate_holds_at_most_100_bytes_per_event():
    # a deterministic allocation count, not a timing
    angle = WedgeAngle.from_degrees(60)
    initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(initial, angle, 10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) == 10_000
    assert held / 10_000 <= 100
