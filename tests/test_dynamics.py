import copy
import dataclasses
import gc
import hashlib
import json
import math
import pickle
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from wedge_billiard import (
    CartesianState,
    OrbitClass,
    OrbitKind,
    OrbitSpec,
    TerminationKind,
    Trajectory,
    Wall,
    WedgeAngle,
    build_periodic_orbit,
    classify_orbit,
    contains,
    coverage_fraction,
    critical_angle,
    decoupled_simulate,
    hamiltonian,
    launch_from_wall,
    next_collision,
    simulate,
    wedge_hamiltonians,
)
from wedge_billiard.cli import OutputFormat, export_trajectory
from wedge_billiard.dynamics import (
    _CHUNK,
    GRAZING_EPS,
    MAX_ENERGY,
    WALLS,
    CollisionEvent,
    EventSequence,
    RotatingFrameMomentum,
    Termination,
    _first_hit,
)
from wedge_billiard.geometry import from_wedge, to_wedge
from wedge_billiard.orbits import _periodic_launch

from conftest import (
    bits,
    collision_frame,
    coprime_pairs,
    json_round_trips,
    outside_wall,
    random_angle,
    random_launch,
    random_wall_launch,
    read_trajectory_json,
    trajectory_csv,
    trajectory_json,
    trajectory_svg,
    wall_axes,
    write_json,
)


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


# At 40 degrees: at the vertex, inside the boundary tolerance, energy 1/2,
# moving out through wall B.
CRASH_STATE = CartesianState(
    1.232568334324387e-13, -1.4088320528055173e-12, -0.6427876104525837, -0.7660444424761904
)


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
        assert next_collision(state, angle).kind is TerminationKind.DEGENERATE

    def test_drop_onto_vertex(self):
        step = next_collision(CartesianState(0, 1, 0, 0), WedgeAngle(math.pi / 4))
        assert step.kind is TerminationKind.VERTEX_HIT

    def test_leaving_through_the_vertex_is_a_vertex_hit(self):
        # sits at the vertex and moves out through wall B: no root ahead
        step = next_collision(CRASH_STATE, WedgeAngle.from_degrees(40))
        assert step.kind is TerminationKind.VERTEX_HIT
        assert step.t == 0.0


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

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    def test_launch_moving_out_through_its_wall_rejected(self, engine):
        angle = WedgeAngle.from_degrees(40)
        with pytest.raises(ValueError, match="moves out of the wedge"):
            engine(launch_from_wall(Wall.A, 1.0, 0.3, -1.0, angle), angle, 5)
        with pytest.raises(ValueError, match="moves out of the wedge"):
            engine(CRASH_STATE, angle, 5)
        # inside the grazing band the launch is a sliding state, not an error
        traj = engine(launch_from_wall(Wall.A, 1.0, 0.3, -1e-11, angle), angle, 5)
        assert traj.termination.kind is TerminationKind.DEGENERATE

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

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    def test_event_invariants(self, engine, rng):
        angle = random_angle(rng)
        traj = engine(random_launch(rng, angle), angle, 200)
        last_t = traj.initial.t
        for event in traj.events:
            assert event.t > last_t
            last_t = event.t
            assert event.pre.position == event.post.position
            assert math.hypot(event.pre.u, event.pre.w) == pytest.approx(
                math.hypot(event.post.u, event.post.w)
            )
            assert event.rotating_post.w_bar >= 0.0
            tangent, normal = wall_axes(event.wall, angle)
            pre, post = event.pre, event.post
            p_pre, p = np.array((pre.u, pre.w)), np.array((post.u, post.w))
            # a specular reflection keeps the tangential component and
            # reverses the normal one
            assert p @ tangent == pytest.approx(p_pre @ tangent, abs=1e-14)
            assert p @ normal == pytest.approx(-(p_pre @ normal), abs=1e-14)
            assert event.rotating_post.u_bar == pytest.approx(p @ tangent, abs=1e-14)
            assert event.rotating_post.w_bar == pytest.approx(p @ normal, abs=1e-14)

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
        # the landing momentum reversed points back into the wedge
        pivot = traj.events[k - 1].pre
        reversed_launch = CartesianState(pivot.x, pivot.y, -pivot.u, -pivot.w, 0.0)
        back = simulate(reversed_launch, angle, k - 1)
        assert len(back.events) == k - 1
        assert back.termination is None
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


def periodic_12(energy: float) -> tuple[CartesianState, WedgeAngle]:
    """The launch of the (1, 2) orbit at the given energy."""
    return _periodic_launch(OrbitSpec(1, 2, energy), 0.0)


@pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_launch_clock_that_is_not_finite_rejected(engine, t):
    # every event clock would be nan or inf
    initial, angle = periodic_12(1.0)
    with pytest.raises(ValueError, match="clock"):
        engine(dataclasses.replace(initial, t=t), angle, 5)


@pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
def test_launch_above_max_energy_rejected(engine):
    # at 1e307 and above the flight formulas overflow into false vertex hits
    # and NaN columns
    initial, angle = periodic_12(1e308)
    with pytest.raises(ValueError, match="energy"):
        engine(initial, angle, 30)


@pytest.mark.parametrize("degrees", [0.5, 2.0, 30.0, 45.0, 60.0, 88.0, 89.5])
def test_launches_at_max_energy_stay_finite_in_both_engines(degrees):
    rng = np.random.default_rng(300)
    angle = WedgeAngle.from_degrees(degrees)
    for _ in range(5):
        unit = launch_from_wall(*random_wall_launch(rng), angle)
        scale = (1.0 - 1e-9) * MAX_ENERGY / hamiltonian(unit)
        root = math.sqrt(scale)
        initial = CartesianState(scale * unit.x, scale * unit.y, root * unit.u, root * unit.w)
        assert 0.99 * MAX_ENERGY < hamiltonian(initial) <= MAX_ENERGY
        a, b = simulate(initial, angle, 500), decoupled_simulate(initial, angle, 500)
        for traj in (a, b):
            for name in ("t", "x", "y", "u_pre", "w_pre", "u", "w"):
                assert np.isfinite(traj.events.column(name)).all()
        assert a.events.column("wall").tolist() == b.events.column("wall").tolist()
        assert (a.termination and a.termination.kind) == (b.termination and b.termination.kind)
        np.testing.assert_allclose(a.events.column("t"), b.events.column("t"), rtol=1e-9)


def wedge_state(x_tilde, y_tilde, u_tilde, w_tilde, angle: WedgeAngle) -> CartesianState:
    sin_t, cos_t = angle.sin, angle.cos
    return CartesianState(
        *from_wedge(x_tilde, y_tilde, sin_t, cos_t), *from_wedge(u_tilde, w_tilde, sin_t, cos_t)
    )


def vertex_launch(angle: WedgeAngle, speed: float) -> CartesianState:
    """From the vertex with equal bounce speeds: at a critical angle both
    bouncers come back to the vertex together."""
    return CartesianState(0.0, 0.0, speed * (angle.sin - angle.cos), speed * (angle.cos + angle.sin))


def edge_launches():
    at_40, at_45, at_09 = WedgeAngle.from_degrees(40), WedgeAngle(math.pi / 4), WedgeAngle(0.9)
    at_11, at_23 = critical_angle(OrbitSpec(1, 1)), critical_angle(OrbitSpec(2, 3))
    return {
        "vertex_drop": (CartesianState(0, 1, 0, 0), at_45),
        "grazing": (launch_from_wall(Wall.A, 1.0, 0.3, 1e-12, at_09), at_09),
        "grazing_band": (launch_from_wall(Wall.A, 1.0, 0.3, -1e-11, at_40), at_40),
        "vertex_coincidence_2_3": (vertex_launch(at_23, 1.0), at_23),
        # at this speed the two walls' hits, 1e-12 apart, land ~2e-9 from
        # the vertex, past VERTEX_EPS: only the tie check ends the run
        "vertex_coincidence_1_1_fast": (vertex_launch(at_11, 1510.0), at_11),
        "on_wall_a": (launch_from_wall(Wall.A, 1.0, 0.2, 0.8, at_40), at_40),
        "on_wall_b": (launch_from_wall(Wall.B, 1.0, 0.2, 0.8, at_40), at_40),
        "just_outside_wall_a": (outside_wall(Wall.A, at_40, 5e-13), at_40),
        "just_outside_wall_b": (outside_wall(Wall.B, at_40, 5e-13), at_40),
        # too slow to reach wall A from outside it: no root on wall A
        "creeping_in_from_outside_wall_a": (outside_wall(Wall.A, at_40, 5e-13, 1e-7), at_40),
        # just outside wall A, moving in slowly: the wall crossing ~5e-10
        # after the launch is not a landing
        "slow_entry_wall_a": (outside_wall(Wall.A, at_40, 5e-13, 1e-3), at_40),
        # near the vertex, just outside wall A, moving in: the wall-A
        # bouncer's floor speed is below GRAZING_EPS, so its first hit grazes
        "grazing_hit": (wedge_state(1e-5, -8e-21, 0.3, 1.2e-10, at_40), at_40),
        # 2e-10 off wall A, leaving it fast: its root is below T_EPS
        "leaving_past_wall_a": (wedge_state(1.0, 2e-10, 0.3, -5.0, at_40), at_40),
        # the wall-A bouncer's height after a bounce (~1e-20) is far below
        # the rounding of the on-wall lab point (~5e-17)
        "near_grazing_bouncer": (wedge_state(1.0, 0.0, 0.3, 1e-10, at_40), at_40),
        # Hy = 0: resting on wall A; Hx = 0: resting on wall B
        "sliding_hy_0": (launch_from_wall(Wall.A, 1.0, 0.5, 0.0, at_40), at_40),
        "sliding_hx_0": (launch_from_wall(Wall.B, 1.0, 0.5, 0.0, at_40), at_40),
        **{f"orbit_1_2_at_E_{energy:g}": periodic_12(energy) for energy in (3e-9, 2e-9, 1e-9)},
    }


# At n = 1 and 2 the tie partner or the grazing hit is often the merged hit
# after the budget, which the oracle must still hold
@pytest.mark.parametrize(
    "name, n",
    [
        pytest.param(name, n, id=name if n == 30 else f"{name}-n{n}")
        for n in (1, 2, 30)
        for name in sorted(edge_launches())
    ],
)
def test_engines_end_edge_launches_alike(name, n):
    initial, angle = edge_launches()[name]
    assert contains(initial.position, angle)
    a, b = simulate(initial, angle, n), decoupled_simulate(initial, angle, n)
    assert len(a.events) == len(b.events)
    assert a.events.column("wall").tolist() == b.events.column("wall").tolist()
    assert (a.termination is None) == (b.termination is None)
    if a.termination is not None:
        assert a.termination.kind is b.termination.kind
        assert a.termination.t == pytest.approx(b.termination.t, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_engines_end_a_grazing_hit_on_wall_b_alike(n):
    # edge_launches()'s grazing_hit mirrored onto wall B: near the vertex,
    # just outside wall B, moving in; the wall-B bouncer's floor speed is
    # below GRAZING_EPS, so its first hit grazes.  Kept out of
    # edge_launches(), whose runs the recorded engine bits hash
    at_40 = WedgeAngle.from_degrees(40)
    initial = wedge_state(-8e-21, 1e-5, 1.2e-10, 0.3, at_40)
    a, b = simulate(initial, at_40, n), decoupled_simulate(initial, at_40, n)
    assert len(a.events) == len(b.events) == 0
    assert a.termination.kind is b.termination.kind is TerminationKind.DEGENERATE
    # the normal speeds differ in their last bit, so only the clocks are compared
    assert a.termination.t == b.termination.t == 2.0588722984147176e-10


def test_engines_classify_edge_launches_alike():
    initial, angle = edge_launches()["near_grazing_bouncer"]
    a, b = simulate(initial, angle, 30), decoupled_simulate(initial, angle, 30)
    assert classify_orbit(a) == classify_orbit(b)


def test_a_run_on_one_wall_is_not_periodic():
    # the oracle's 30 events of the near-grazing bouncer all hit wall A and
    # repeat event 0, but span 9e-9 s of a wall-B period of order 1: the
    # x_tilde bouncer has not closed, so no period is read
    initial, angle = edge_launches()["near_grazing_bouncer"]
    traj = decoupled_simulate(initial, angle, 30)
    assert set(traj.events.column("wall").tolist()) == {WALLS.index(Wall.A)}
    assert classify_orbit(traj) == OrbitClass(OrbitKind.DENSE)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: after each wall-A hit simulate recomputes y_tilde from "
    "the rounded lab position, so a near-grazing bouncer's normal speed jumps "
    "(w_bar 1.0e-10, 8.4e-9, 1.19e-8 at events 0-2) where decoupled_simulate holds 1.0e-10",
)
def test_engines_hold_a_near_grazing_normal_speed_alike():
    initial, angle = edge_launches()["near_grazing_bouncer"]
    a, b = simulate(initial, angle, 3), decoupled_simulate(initial, angle, 3)
    # the oracle's own three values agree within 3e-7 of each other
    assert [e.rotating_post.w_bar for e in a.events] == pytest.approx(
        [e.rotating_post.w_bar for e in b.events], rel=1e-6
    )


@pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
def test_edge_stops_classify_from_the_termination_alone(engine):
    # a degenerate stop is a normal speed below GRAZING_EPS, so its verdict
    # is sliding at any recurrence tolerance above it or below it
    verdicts = {
        TerminationKind.DEGENERATE: OrbitKind.SLIDING,
        TerminationKind.VERTEX_HIT: OrbitKind.DEGENERATE,
    }
    stops = set()
    for initial, angle in edge_launches().values():
        traj = engine(initial, angle, 30)
        term = traj.termination
        if term is None:
            continue
        stops.add(term.kind)
        if term.kind is TerminationKind.DEGENERATE:
            assert term.normal_speed < GRAZING_EPS
        for tol in (1e-8, 1e-12):
            assert classify_orbit(traj, tol) == OrbitClass(verdicts[term.kind])
    assert stops == set(verdicts)


def step_bits(step) -> tuple:
    """A :func:`next_collision` result with its floats as bit patterns."""
    if isinstance(step, tuple):
        dt, wall = step
        return wall, bits(dt).item()
    speed = None if step.normal_speed is None else bits(step.normal_speed).item()
    return step.kind, bits(step.t).item(), speed


def next_collision_states():
    """Every edge launch, and seed-977 launches with the post-collision
    states of their runs, whose clocks are not zero."""
    states = list(edge_launches().values())
    rng = np.random.default_rng(977)
    for _ in range(60):
        angle = random_angle(rng)
        traj = simulate(random_launch(rng, angle), angle, 20)
        states.append((traj.initial, angle))
        states += [(event.post, angle) for event in traj.events]
    return states


def test_next_collision_is_the_first_event_of_a_run_from_clock_0():
    states = next_collision_states()
    assert sum(s.t != 0.0 for s, _ in states) >= 1000
    for s, angle in states:
        run = simulate(dataclasses.replace(s, t=0.0), angle, 1)
        first = run.termination or (run.events[0].t, run.events[0].wall)
        assert step_bits(next_collision(s, angle)) == step_bits(first)


def test_event_loop_and_first_hit_give_the_same_landing_bits():
    # the event loop holds the first-hit rule written out for both walls;
    # _first_hit is the oracle's copy.  Each step is the earlier of the two
    # _first_hit landings to the bit, and with neither it stops at once
    at_40 = WedgeAngle.from_degrees(40)
    states = next_collision_states() + [
        # at the vertex, leaving the wedge: both roots are 0, below T_EPS
        (CartesianState(0.0, 0.0, 0.0, -1.0), at_40),
        # far beyond wall A, moving out: no root on wall A
        (wedge_state(1.0, -1.0, 0.3, -0.1, at_40), at_40),
        # 5e-10 off a wall, moving in: a landing just above T_EPS
        (wedge_state(1.0, 5e-10, 0.3, -1.0, at_40), at_40),
        (wedge_state(5e-10, 1.0, -1.0, 0.3, at_40), at_40),
    ]
    missing = 0
    for s, angle in states:
        sin_t, cos_t = angle.sin, angle.cos
        x_tilde, y_tilde = to_wedge(s.x, s.y, sin_t, cos_t)
        u_tilde, w_tilde = to_wedge(s.u, s.w, sin_t, cos_t)
        hits = {Wall.A: _first_hit(y_tilde, w_tilde, sin_t), Wall.B: _first_hit(x_tilde, u_tilde, cos_t)}
        landings = {wall: hit for wall, hit in hits.items() if hit is not None}
        missing += len(hits) - len(landings)
        step = next_collision(s, angle)
        if isinstance(step, Termination) and step.t == 0.0:
            # a stop at clock 0: a sliding state, or no landing on either wall
            assert not landings or step.kind is TerminationKind.DEGENERATE
            continue
        first = min(landings, key=landings.get)
        if isinstance(step, tuple):
            assert step_bits(step) == (first, bits(landings[first]).item())
        else:
            assert bits(step.t).item() == bits(landings[first]).item()
    assert missing >= 4


def overflowing_landing() -> tuple[CartesianState, WedgeAngle]:
    """At theta = 1e-200 wall A's gravity is 1e-200, and this launch's
    landing on it lies ~2e324 ahead, past float64; its root on wall B
    rounds to 0."""
    return CartesianState(5e-201, 0.5, -1e124, -9e124), WedgeAngle(1e-200)


def test_a_landing_time_that_overflows_is_no_landing():
    initial, angle = overflowing_landing()
    x_tilde, y_tilde = to_wedge(initial.x, initial.y, angle.sin, angle.cos)
    u_tilde, w_tilde = to_wedge(initial.u, initial.w, angle.sin, angle.cos)
    assert (w_tilde + math.sqrt(w_tilde * w_tilde + 2.0 * angle.sin * y_tilde)) / angle.sin == math.inf
    assert _first_hit(y_tilde, w_tilde, angle.sin) is None
    assert _first_hit(x_tilde, u_tilde, angle.cos) is None
    stop = Termination(TerminationKind.VERTEX_HIT, 0.0)
    assert next_collision(initial, angle) == stop
    for engine in (simulate, decoupled_simulate):
        traj = engine(initial, angle, 5)
        assert len(traj.events) == 0 and traj.termination == stop


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: the wall-A landing time overflows, which the oracle reads "
    "as no root ahead and stops as a vertex hit at its wall-B landing, while simulate "
    "reads it as inf and runs on along wall B",
)
def test_engines_agree_where_one_landing_time_overflows():
    angle, energy = WedgeAngle(1e-160), 1e299
    r = math.sqrt(energy)
    initial = launch_from_wall(Wall.A, 0.25 * energy / angle.cos, 0.3 * r, 0.9 * r, angle)
    a, b = simulate(initial, angle, 200), decoupled_simulate(initial, angle, 200)
    assert len(a.events) == len(b.events)
    assert a.termination == b.termination


def run_digest_parts(traj: Trajectory):
    """The bytes of a run's stored columns and termination, in a fixed order."""
    events = traj.events
    for name in ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w"):
        yield events.column(name).tobytes()
    term = traj.termination
    if term is None:
        yield b"none"
    else:
        speed = math.nan if term.normal_speed is None else term.normal_speed
        yield term.kind.value.encode() + struct.pack("<dd", term.t, speed)


# sha256 of both engines' stored columns and terminations on the runs of
# test_engines_write_the_recorded_bits, and of next_collision on every
# edge launch, seed-977 launch and their post-collision states, recorded at
# commit 218b3c1
ENGINE_BITS = "b7a9038e529d4e70af9c00474fc39be5bfc2a409a745b39dd5263931d3d75390"


def test_engines_write_the_recorded_bits():
    # a digest of the stored bits, so that a change meant to keep every
    # engine output the same is checked against more runs than the
    # acceptance criteria; the runs take well under a second
    runs = []
    rng = np.random.default_rng(977)
    for _ in range(200):
        angle = random_angle(rng)
        initial = random_launch(rng, angle)
        runs += [(initial, angle, n) for n in (0, 1, 2, 200)]
    runs += [(initial, angle, n) for initial, angle in edge_launches().values() for n in (1, 2, 30)]
    for p, q in coprime_pairs(8):
        for energy in (1e-9, 1.0, 1e299):
            runs.append((*_periodic_launch(OrbitSpec(p, q, energy), 0.0), 3 * (p + q)))
    digest = hashlib.sha256()
    for initial, angle, n in runs:
        for engine in (simulate, decoupled_simulate):
            for part in run_digest_parts(engine(initial, angle, n)):
                digest.update(part)
    for s, angle in next_collision_states():
        digest.update(repr(step_bits(next_collision(s, angle))).encode())
    assert len(runs) == 800 + 3 * len(edge_launches()) + 3 * 43
    assert digest.hexdigest() == ENGINE_BITS


# sha256 of both engines' stored columns and terminations on the runs of
# test_long_runs_write_the_recorded_bits, recorded at commit 176a32e
LONG_RUN_BITS = "270db05ec36c96191bd8a8a8a86141b1fd8dc7ce7fb06ef779a14fafc3cb8314"


def test_long_runs_write_the_recorded_bits():
    # runs of many buffer flushes: the pin above stops at 200 events, less
    # than one chunk of the event loop
    rng = np.random.default_rng(977)
    runs = []
    for n in [1000] * 20 + [10_000] * 4:
        angle = random_angle(rng)
        runs.append((random_launch(rng, angle), angle, n))
    digest = hashlib.sha256()
    events = 0
    for initial, angle, n in runs:
        for engine in (simulate, decoupled_simulate):
            traj = engine(initial, angle, n)
            events += len(traj.events)
            for part in run_digest_parts(traj):
                digest.update(part)
    assert events > 20 * _CHUNK
    assert digest.hexdigest() == LONG_RUN_BITS


def number_type_launches(kind) -> list[tuple[CartesianState, WedgeAngle]]:
    """Float launches whose every value ``kind`` holds exactly."""
    angles = [WedgeAngle.from_degrees(d) for d in (30, 45, 60)]
    if kind is bool:
        states = [CartesianState(0.0, 1.0, u, w, t) for u in (0.0, 1.0) for w in (0.0, 1.0) for t in (0.0, 1.0)]
    elif kind is int:
        states = [
            CartesianState(x, 3.0, u, w, t)
            for x in (-1.0, 0.0, 1.0)
            for u, w in ((0.0, 2.0), (-1.0, 1.0), (2.0, 0.0))
            for t in (0.0, 5.0)
        ]
    else:
        rng = np.random.default_rng(977)
        return [
            (dataclasses.replace(random_launch(rng, angle), t=float(rng.uniform(-10, 10))), angle)
            for angle in angles
            for _ in range(6)
        ]
    return [(state, angle) for state in states for angle in angles]


def exports_and_coverage(traj: Trajectory) -> tuple:
    """The CSV, JSON and SVG exports of a run's first 10 events and their
    coverage of a 64 x 64 grid, None for a run of no events; the exports'
    rows are the stored columns, so 10 events test the rest."""
    traj = dataclasses.replace(traj, events=traj.events[:10])
    coverage = coverage_fraction(traj, (64, 64)) if traj.events else None
    return trajectory_csv(traj), trajectory_json(traj), trajectory_svg(traj), coverage


@pytest.mark.parametrize("kind", [int, bool, np.float64, Fraction], ids=lambda k: k.__name__)
def test_launches_in_other_number_types_write_the_float_bits(kind):
    # both engines run from the launch taken as floats and keep it, so the
    # loop's first row, which holds the launch's own u, the oracle's clocks,
    # a stop at the launch's clock, the exports' header and the coverage's
    # first arc all read the float launch
    for state, angle in number_type_launches(kind):
        values = dataclasses.astuple(state)
        given = CartesianState(*map(kind, values))
        assert tuple(map(float, dataclasses.astuple(given))) == values
        assert step_bits(next_collision(given, angle)) == step_bits(next_collision(state, angle))
        n = _CHUNK + 1
        for engine in (simulate, decoupled_simulate):
            traj, expected = engine(given, angle, n), engine(state, angle, n)
            assert list(run_digest_parts(traj)) == list(run_digest_parts(expected))
            launch = dataclasses.astuple(traj.initial)
            assert launch == values and [type(v) for v in launch] == [float] * 5
            assert exports_and_coverage(traj) == exports_and_coverage(expected)
    # a run that stops at the launch's clock, sliding or with no landing
    # ahead, is stamped with the clock as a float by both engines
    at_60 = WedgeAngle.from_degrees(60)
    clock = Fraction(1, 3) if kind is Fraction else kind(1)
    for state, angle in ((launch_from_wall(Wall.A, 1.0, 0.0, 0.0, at_60), at_60), overflowing_landing()):
        given = dataclasses.replace(state, t=clock)
        stops = [engine(given, angle, 5).termination for engine in (simulate, decoupled_simulate)]
        assert stops[0] == stops[1]
        assert [type(stop.t) for stop in stops] == [float, float]
    # the launches taken are those the checks take, which read the caller's
    # numbers: a Decimal or str position or momentum raises TypeError, and
    # a Decimal clock, read only by math.isfinite, runs as its float
    state, angle = number_type_launches(kind)[-1]
    for name in ("x", "y", "u", "w"):
        for other in (Decimal, str):
            given = dataclasses.replace(state, **{name: other(getattr(state, name))})
            for run in (simulate, decoupled_simulate):
                with pytest.raises(TypeError):
                    run(given, angle, 5)
            with pytest.raises(TypeError):
                next_collision(given, angle)
    given = dataclasses.replace(state, t=Decimal(state.t))
    for engine in (simulate, decoupled_simulate):
        traj, expected = engine(given, angle, 50), engine(state, angle, 50)
        assert list(run_digest_parts(traj)) == list(run_digest_parts(expected))
        assert exports_and_coverage(traj) == exports_and_coverage(expected)


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, "stop"])
def test_runs_across_buffer_flushes_are_prefixes_and_resume(n):
    # the loop buffers _CHUNK events at a time: a shorter run is a prefix of
    # a longer one, and a run resumed from an event's outgoing state (clock
    # included) goes on with the same bits
    if n == "stop":
        angle = critical_angle(OrbitSpec(149, 151))
        initial = vertex_launch(angle, 1.0)
        full = simulate(initial, angle, 3 * _CHUNK)
        assert full.termination is not None
        assert _CHUNK < len(full.events) < 2 * _CHUNK
        n = 3 * _CHUNK
    else:
        angle = WedgeAngle.from_degrees(60)
        initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
        full = simulate(initial, angle, n)
        assert len(full.events) == n
    events = full.events
    names = ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w")

    def same_bits(part, whole):
        for name in names:
            assert part.column(name).tobytes() == whole.column(name).tobytes(), name

    for k in sorted({1, _CHUNK - 1, _CHUNK, _CHUNK + 1, len(events) - 1} & set(range(1, len(events)))):
        prefix = simulate(initial, angle, k)
        assert prefix.termination is None
        same_bits(prefix.events, events[:k])
        rest = simulate(events[k - 1].post, angle, n - k)
        same_bits(rest.events, events[k:])
        assert rest.termination == full.termination


@pytest.mark.parametrize("w_bar", [1e-3, 1e-4])
@pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
def test_slow_entry_from_just_outside_a_wall_bounces_on(engine, w_bar):
    # the wall-A bouncer starts 5e-13 beyond its wall and crosses it moving
    # in; its first hit is the landing that ends that flight
    angle = WedgeAngle.from_degrees(40)
    traj = engine(outside_wall(Wall.A, angle, 5e-13, w_bar), angle, 30)
    assert len(traj.events) == 30
    assert traj.termination is None
    assert traj.events[0].wall is Wall.A
    landing = (w_bar + math.sqrt(w_bar * w_bar - 2 * angle.sin * 5e-13)) / angle.sin
    assert traj.events[0].t == pytest.approx(landing, rel=1e-6)


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
        # the same columns and range, and a list, which is neither a tuple
        # nor a sequence of events
        assert events == events[:]
        assert events != list(events)
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
        traj = dense_60(200, engine)
        events = traj.events[index]
        for name, field in EVENT_FIELDS.items():
            column = events.column(name)
            assert column.tolist() == [field(e) for e in events], name
            with pytest.raises(ValueError):
                column[:1] = 0
        # the collision frame is not stored: it is the wedge frame of the
        # stored outgoing momentum, with the axes swapped on wall B
        u_bar, w_bar = collision_frame(
            events.column("wall"), events.column("u"), events.column("w"), traj.theta
        )
        assert u_bar.tolist() == [e.rotating_post.u_bar for e in events]
        assert w_bar.tolist() == [e.rotating_post.w_bar for e in events]

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("name", EVENT_FIELDS)
    @pytest.mark.parametrize(
        "index", [slice(-10, None, -1), slice(-6, None, -2), slice(0, -10, -1)], ids=str
    )
    def test_descending_slices_past_event_0_read_their_own_events(self, engine, name, index):
        # a descending slice that starts before event 0 is empty, and one
        # that stops before it ends at event 0; a column reads as the list
        events = dense_60(5, engine).events
        expected = [EVENT_FIELDS[name](e) for e in events][index]
        part = events[index]
        assert len(part) == len(expected)
        assert part.column(name).tolist() == expected

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "index",
        [slice(None), slice(None, None, 37), slice(None, None, -3), slice(7, 2, -1),
         slice(0, -300, -1), slice(-300, None, -1), slice(5, 5)],
        ids=str,
    )
    def test_export_rows_read_the_span_the_columns_read(self, engine, index):
        # the one reader's view of each stored column, which the exports and
        # column read, holds the view's events' fields; the events are built
        # from their rows by _event, not through _view
        events = dense_60(200, engine).events[index]
        for name, field in EVENT_FIELDS.items():
            assert events._view(name).tolist() == [field(e) for e in events], name

    @pytest.mark.parametrize("name", ["u_bar", "w_bar", "sin_t", "collision_frame", "_columns", ""])
    def test_only_stored_columns_are_read(self, name):
        # the eight columns the engines write, and nothing derived from them
        # nor any other attribute of the store
        events = dense_60(5).events
        with pytest.raises(ValueError) as error:
            events.column(name)
        assert str(error.value) == (
            f"no stored column {name!r}; the columns are wall, t, x, y, u_pre, w_pre, u, w"
        )

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    def test_each_pair_shares_its_event_with_the_next(self, engine):
        # zip(events, events[1:]) builds each event once: a pair's event is
        # the next pair's prev, the same object
        events = dense_60(200, engine).events
        pairs = list(zip(events, events[1:]))
        assert len(pairs) == 199
        for (_, event), (prev, _) in zip(pairs, pairs[1:]):
            assert event is prev
        reference = dense_60(200, engine).events
        assert [prev for prev, _ in pairs] + [pairs[-1][1]] == [reference[i] for i in range(200)]

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
    def test_interleaved_iterators_yield_the_indexed_events(self, engine):
        # iterators over overlapping and descending slices share one kept
        # event; stepped in a seeded order, some dropped part way, each still
        # yields the events that indexing an independent run gives
        events = dense_60(60, engine).events
        reference = dense_60(60, engine).events
        slices = [
            slice(None), slice(5, 50), slice(None, None, -1), slice(40, 3, -2),
            slice(10, None, 3), slice(59, None, -7), slice(5, 50),
        ]
        expected = [[reference[s][k] for k in range(len(reference[s]))] for s in slices]
        iterators = {j: iter(events[s]) for j, s in enumerate(slices)}
        # iterator -> events it yields before it is dropped
        dropped_after = {1: 9, 4: 3}
        yielded = {j: 0 for j in iterators}
        rng = np.random.default_rng(977)
        while iterators:
            j = int(rng.choice(sorted(iterators)))
            event = next(iterators[j], None)
            if event is None:
                del iterators[j]
                continue
            assert event == expected[j][yielded[j]], (j, yielded[j])
            yielded[j] += 1
            if yielded[j] == dropped_after.get(j):
                del iterators[j]
        assert yielded == {
            j: dropped_after.get(j, len(expected[j])) for j in range(len(slices))
        }

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate])
    def test_iteration_matches_json_round_trip(self, engine, tmp_path):
        traj = dense_60(120, engine)
        path = tmp_path / "traj.json"
        export_trajectory(traj, OutputFormat.JSON, str(path))
        assert json_round_trips(path)
        loaded = read_trajectory_json(path)
        assert list(traj.events) == list(loaded.events)
        assert traj == loaded

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate])
    def test_built_event_equals_the_public_constructors(self, engine):
        traj = dense_60(5, engine)
        events = traj.events
        columns = [events.column(name) for name in EVENT_FIELDS]
        u_bar, w_bar = (
            frame.tolist() for frame in collision_frame(columns[0], *columns[-2:], traj.theta)
        )
        wall, t, x, y, u_pre, w_pre, u, w = (column.tolist() for column in columns)
        for i, event in enumerate(events):
            assert event == CollisionEvent(
                WALLS[wall[i]],
                t[i],
                CartesianState(x[i], y[i], u_pre[i], w_pre[i], t[i]),
                CartesianState(x[i], y[i], u[i], w[i], t[i]),
                RotatingFrameMomentum(u_bar[i], w_bar[i]),
            )
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.pre.x = 0.0

    @pytest.mark.parametrize("engine", [simulate, decoupled_simulate])
    def test_built_events_keep_the_frozen_dataclass_contract(self, engine):
        events = dense_60(5, engine).events
        made = [
            CollisionEvent(event.wall, event.t, event.pre, event.post, event.rotating_post)
            for event in events
        ]
        for i, expected in enumerate(made):
            # each check reads a freshly built event, whose parts are not read yet
            def fresh():
                return dense_60(5, engine).events[i]

            assert fresh() == expected
            assert expected == fresh()
            assert hash(fresh()) == hash(expected)
            assert repr(fresh()) == repr(expected)
            assert pickle.loads(pickle.dumps(fresh())) == expected
            assert copy.copy(fresh()) == expected
            assert copy.deepcopy(fresh()) == expected
            for name in CollisionEvent.__match_args__:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(fresh(), name, None)
            match fresh():
                case CollisionEvent(wall, t, pre, post, rotating_post):
                    assert (wall, t, pre, post, rotating_post) == (
                        expected.wall, expected.t, expected.pre, expected.post, expected.rotating_post
                    )
        assert CollisionEvent.__match_args__ == ("wall", "t", "pre", "post", "rotating_post")
        assert events == tuple(made)
        assert tuple(made) == events
        assert hash(events) == hash(tuple(made))

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
        rerun = simulate(traj.initial, traj.theta, k)
        assert prefix.events == rerun.events
        assert coverage_fraction(prefix, (32, 32)) == coverage_fraction(rerun, (32, 32))
        verdict = classify_orbit(rerun)
        assert classify_orbit(prefix) == verdict
        expected = OrbitClass(OrbitKind.DENSE) if k < 10 else OrbitClass(OrbitKind.PERIODIC, 5, 2, 3)
        assert verdict == expected

    @pytest.mark.parametrize("p, q", [(1, 2), (3, 1), (2, 5), (4, 7)])
    def test_periodic_hits_from_wall_column(self, p, q):
        traj = build_periodic_orbit(OrbitSpec(p, q), n_collisions=3 * (p + q))
        walls = traj.events[: p + q].column("wall")
        assert [WALLS[code] for code in walls.tolist()] == [e.wall for e in traj.events[: p + q]]
        hits_a = int(np.count_nonzero(walls == WALLS.index(Wall.A)))
        assert (hits_a, len(walls) - hits_a) == (p, q)
        assert classify_orbit(traj) == OrbitClass(OrbitKind.PERIODIC, p + q, p, q)

    def test_events_only_from_columns(self):
        traj = dense_60(3)
        assert [field.name for field in dataclasses.fields(Trajectory)] == [
            "initial", "theta", "events", "termination"
        ]
        with pytest.raises(TypeError):
            Trajectory(traj.initial, traj.theta, tuple(traj.events))
        with pytest.raises(TypeError):
            dataclasses.replace(traj, events=list(traj.events))

    @pytest.mark.parametrize(
        "key, event",
        [("u_bar_post", 0), ("u_bar_post", -1), ("w_bar_post", 7), ("w_bar_post", -1), ("energy", None)],
    )
    def test_json_value_off_by_one_ulp_rejected(self, tmp_path, key, event):
        # the collision frame is worked out from the wall and the energy from
        # the launch, to the last bit
        path = tmp_path / "traj.json"
        export_trajectory(dense_60(12), OutputFormat.JSON, str(path))
        doc = json.loads(path.read_text())
        write_json(path, doc)
        assert json_round_trips(path)
        values = doc if event is None else doc["events"][event]
        values[key] = math.nextafter(values[key], math.inf)
        write_json(path, doc)
        assert not json_round_trips(path)

    def test_json_derived_fields_checked(self, tmp_path):
        # the event's index, wedge position and energies are derived, not
        # read back; the stored columns of the file are left intact
        path = tmp_path / "traj.json"
        export_trajectory(dense_60(10), OutputFormat.JSON, str(path))
        doc = json.loads(path.read_text())
        for key in ("event_index", "x_tilde", "y_tilde", "H", "Hx_tilde", "Hy_tilde"):
            doc["events"][3][key] = 12345.0
        write_json(path, doc)
        assert read_trajectory_json(path) == dense_60(10)
        assert not json_round_trips(path)


def test_dropped_runs_and_their_events_leave_no_cycle():
    # a deterministic allocation count: with the cyclic collector off, a run
    # whose events and columns point at each other would stay allocated
    def replay():
        events = dense_60(200).events
        for prev, event in zip(events, events[1:]):
            assert event.wall in WALLS
            assert prev.rotating_post.w_bar >= 0.0

    replay()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            replay()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # one run's columns alone hold ~12 kB
    assert left < 8_000


@pytest.mark.parametrize("engine", [simulate, decoupled_simulate], ids=lambda f: f.__name__)
def test_engine_holds_at_most_64_bytes_per_event(engine):
    # a deterministic allocation count, not a timing
    angle = WedgeAngle.from_degrees(60)
    initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = engine(initial, angle, 10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) == 10_000
    assert held / 10_000 <= 64


def test_oracle_peaks_below_295_bytes_per_event():
    # a deterministic allocation count, not a timing: the merged hits and
    # their sort order (32 B/event) are dropped once each hit's time, wall
    # and own index are taken from them; 294.6 B/event measured
    angle = WedgeAngle.from_degrees(60)
    initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    decoupled_simulate(initial, angle, 1000)
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = decoupled_simulate(initial, angle, n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) == n
    assert peak / n <= 295


def test_oracle_peaks_below_140_bytes_per_event():
    # a deterministic allocation count, not a timing: each intermediate is
    # dropped once the next stage is made from it, and the events are
    # written as one row block copied straight into the store; 137.0
    # B/event measured
    angle = WedgeAngle.from_degrees(60)
    initial = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    decoupled_simulate(initial, angle, 1000)
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = decoupled_simulate(initial, angle, n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(traj.events) == n
    assert peak / n <= 140
