import dataclasses
import math
import sys

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wedge_billiard import (
    EnergyViolationError,
    MapId,
    MapState,
    Wall,
    WedgeAngle,
    apply_map,
    build_periodic_orbit,
    fixed_point,
    launch_from_wall,
    map_id_for,
    periodic_initial_condition,
    simulate,
)
from wedge_billiard.collision_maps import RADICAND_TOL
from wedge_billiard.dynamics import MAX_ENERGY
from wedge_billiard.orbits import OrbitSpec

from conftest import bits, random_angle, random_launch

angles = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05)


def valid_state(u_bar: float, w_fraction: float, energy: float) -> MapState:
    """Map state with w_bar a fraction of the energetic maximum sqrt(2E)."""
    return MapState(u_bar, w_fraction * math.sqrt(2 * energy), energy)


class TestMapState:
    def test_negative_normal_momentum_rejected(self):
        with pytest.raises(ValueError):
            MapState(0.0, -0.1, 1.0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            MapState(0.0, 0.5, 0.0)

    def test_normal_energy_above_total_rejected(self):
        with pytest.raises(EnergyViolationError):
            MapState(0.0, math.sqrt(2.0) + 1e-5, 1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_energy_that_is_not_finite_rejected(self, energy):
        with pytest.raises(ValueError, match="energy must be positive"):
            MapState(0.0, 0.5, energy)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["u_bar", "w_bar"])
    def test_momentum_that_is_not_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(MapState(0.1, 0.5, 1.0), **{name: value})

    def test_energy_check_is_relative(self):
        # the excess allowed scales with E: 1e-13 passes at E = 1 ...
        MapState(0.0, math.sqrt(2.0 + 1e-13), 1.0)
        # ... but not at E = 1e-3, where it is 1e-10 of the energy
        with pytest.raises(EnergyViolationError):
            MapState(0.0, math.sqrt(2e-3 + 1e-13), 1e-3)

    @pytest.mark.parametrize("w_bar, energy", [(1.5e154, 1e300), (math.inf, 1e308), (1.5e154, 1e308)])
    def test_normal_energy_that_overflows_rejected(self, w_bar, energy):
        # w_bar**2 overflows, and above E ~ 9e307 so does 2E
        with pytest.raises(EnergyViolationError):
            MapState(0.0, w_bar, energy)

    @pytest.mark.parametrize("energy", [1e308, sys.float_info.max / 2, sys.float_info.max])
    def test_energy_check_holds_where_the_squares_overflow(self, energy):
        # w_bar**2 = 2E(1 + excess): admitted up to an excess of RADICAND_TOL/2
        def w_bar(excess):
            return math.sqrt(energy) * math.sqrt(2.0 * (1.0 + excess))

        for excess in (-1e-3, 0.0, 1e-13):
            assert MapState(0.0, w_bar(excess), energy).w_bar == w_bar(excess)
        for excess in (1e-11, 1e-3):
            with pytest.raises(EnergyViolationError):
                MapState(0.0, w_bar(excess), energy)

    def test_energy_verdicts_unchanged_up_to_max_energy(self):
        # the check w_bar**2 - 2E > RADICAND_TOL*E, written out: below
        # MAX_ENERGY only w_bar**2 can overflow, to inf, which it rejects
        def ulps_around(x):
            near, below, above = [x], x, x
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                near += [below, above]
            return near

        for energy in (
            5e-324, 1e-310, sys.float_info.min, 1e-200, 1e-9, 1e-3, 1.0, 4e3, 1e6, 1e150,
            1e299, MAX_ENERGY,
        ):
            root = math.sqrt(2.0 * energy)
            near_edge = ulps_around(math.sqrt(2.0 * energy + RADICAND_TOL * energy))
            verdicts = {}
            for w_bar in [0.0, 0.5 * root, 1.3e154, 1.5e154, math.inf, *ulps_around(root), *near_edge]:
                rejected = verdicts[w_bar] = w_bar * w_bar - 2.0 * energy > RADICAND_TOL * energy
                if rejected:
                    with pytest.raises(EnergyViolationError):
                        MapState(0.0, w_bar, energy)
                else:
                    assert MapState(0.0, w_bar, energy).w_bar == w_bar
            # the sample straddles the tolerance's edge, except where a
            # subnormal 2E is coarser than a few ulp of w_bar**2
            if energy >= sys.float_info.min:
                assert {verdicts[w_bar] for w_bar in near_edge} == {True, False}, energy

    def test_keyword_construction(self):
        state = MapState(energy=2.0, w_bar=0.5, u_bar=-0.3)
        assert state == MapState(-0.3, 0.5, 2.0)
        assert (state.u_bar, state.w_bar, state.energy) == (-0.3, 0.5, 2.0)

    def test_replace_runs_the_checks(self):
        state = MapState(0.1, 0.5, 1.0)
        assert dataclasses.replace(state, w_bar=0.3) == MapState(0.1, 0.3, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(state, w_bar=-0.1)
        with pytest.raises(EnergyViolationError):
            dataclasses.replace(state, w_bar=math.sqrt(2.0) + 1e-5)
        with pytest.raises(ValueError, match="energy must be positive"):
            dataclasses.replace(state, energy=math.nan)

    @pytest.mark.parametrize("name", ["u_bar", "w_bar", "energy"])
    def test_frozen(self, name):
        state = MapState(0.1, 0.5, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, 0.2)
        assert not hasattr(state, "__dict__")


class TestMapIds:
    def test_map_id_for_covers_all_transitions(self):
        for source, target, map_id in (
            (Wall.A, Wall.A, MapId.FA),
            (Wall.B, Wall.B, MapId.GA),
            (Wall.A, Wall.B, MapId.FB),
            (Wall.B, Wall.A, MapId.GB),
        ):
            assert map_id_for(source, target) is map_id


class TestApplyMap:
    @pytest.mark.parametrize("c", [-0.7, 0.0, 1.3])
    @pytest.mark.parametrize("map_id", [MapId.FA, MapId.GA])
    def test_sliding_family_is_fixed(self, map_id, c):
        state = MapState(c, 0.0, 1.0)
        out = apply_map(map_id, state, WedgeAngle(0.8))
        assert (out.u_bar, out.w_bar) == (c, 0.0)

    def test_symmetric_crossing_fixed_point(self):
        out = apply_map(MapId.FB, MapState(0.0, 1.0, 1.0), WedgeAngle(math.pi / 4))
        assert out.u_bar == pytest.approx(0.0, abs=1e-15)
        assert out.w_bar == pytest.approx(1.0)

    def test_crossing_fixed_point_at_critical_angle(self):
        # substitute (1/3, 1) at tan(theta) = 1/2 and simplify by hand:
        # w' = sqrt(2 - 1) = 1, u' = 1 - (1/3 + 1)/2 = 1/3
        angle = WedgeAngle(math.atan(0.5))
        out = apply_map(MapId.FB, MapState(1 / 3, 1.0, 1.0), angle)
        assert out.u_bar == pytest.approx(1 / 3, abs=1e-15)
        assert out.w_bar == pytest.approx(1.0)

    @given(angles, st.floats(min_value=-2, max_value=2), st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.1, max_value=4))
    def test_cross_maps_conserve_energy_form(self, theta, u_bar, w_fraction, energy):
        angle = WedgeAngle(theta)
        state = valid_state(u_bar, w_fraction, energy)
        for map_id in (MapId.FB, MapId.GB):
            out = apply_map(map_id, state, angle)
            assert out.w_bar**2 + state.w_bar**2 == pytest.approx(
                2 * energy, abs=1e-12 * max(1.0, energy)
            )

    @given(angles, st.floats(min_value=-2, max_value=2), st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.1, max_value=4))
    def test_same_wall_maps_keep_normal_momentum(self, theta, u_bar, w_fraction, energy):
        angle = WedgeAngle(theta)
        state = valid_state(u_bar, w_fraction, energy)
        for map_id in (MapId.FA, MapId.GA):
            out = apply_map(map_id, state, angle)
            assert out.w_bar == state.w_bar
            shift = 2 * state.w_bar * (
                angle.cos / angle.sin if map_id is MapId.FA else angle.sin / angle.cos
            )
            assert out.u_bar == pytest.approx(state.u_bar - shift)

    @given(
        angles,
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=-9, max_value=299).map(lambda x: 10.0**x),
    )
    @example(0.7, 0.0, 0.0, 1e6)
    @example(0.7, 0.0, 0.0, 1e300)
    def test_valid_states_map_at_every_energy_scale(self, theta, u_fraction, w_fraction, energy):
        # fl(sqrt(2E))**2 overshoots 2E by ~1e-16*E; at E = 1e6 that is
        # 2.3e-10, which an absolute radicand tolerance of 1e-12 rejected
        angle = WedgeAngle(theta)
        state = MapState(u_fraction * math.sqrt(2 * energy), w_fraction * math.sqrt(2 * energy), energy)
        for map_id in MapId:
            out = apply_map(map_id, state, angle)
            assert out.energy == energy and out.w_bar >= 0.0

    @given(
        st.one_of(
            st.floats(min_value=-308, max_value=0.19).map(lambda x: 10.0**x),
            st.floats(min_value=-15, max_value=-1).map(lambda x: math.pi / 2 - 10.0**x),
        ),
        st.floats(min_value=-9, max_value=300).map(lambda x: 10.0**x),
        st.floats(min_value=-1, max_value=1),
        st.one_of(st.floats(min_value=0, max_value=1), st.sampled_from(["sqrt(2E)", "edge"])),
        st.integers(min_value=-3, max_value=3),
    )
    @example(1e-308, 1e300, 0.5, "sqrt(2E)", 0)
    @example(1e-308, 1.0, 0.0, 0.0, 0)
    @example(1e-150, 1e-9, -1.0, "edge", 0)
    @example(math.pi / 2 - 1e-15, 1e300, 1.0, "edge", -1)
    def test_result_is_the_checked_constructors(self, theta, energy, u_fraction, normal, ulps):
        # apply_map checks only u_bar; MapState, given the same floats,
        # either builds them bit for bit or raises the same exception type.
        # The normal momentum is a fraction of sqrt(2E), or grazing: a few
        # ulp from sqrt(2E) or from the largest w_bar admitted
        assume(theta < math.pi / 2)
        angle = WedgeAngle(theta)
        root = math.sqrt(2.0 * energy)
        if normal == "sqrt(2E)":
            w_bar = root
        elif normal == "edge":
            w_bar = math.sqrt(2.0 * energy + RADICAND_TOL * energy)
        else:
            w_bar = normal * root
        for _ in range(abs(ulps)):
            w_bar = math.nextafter(w_bar, math.copysign(math.inf, ulps))
        try:
            state = MapState(u_fraction * root, w_bar, energy)
        except ValueError:
            assume(False)
        for map_id in MapId:
            try:
                expected = map_by_constructor(map_id, state, angle)
            except ValueError as error:
                with pytest.raises(ValueError) as raised:
                    apply_map(map_id, state, angle)
                assert type(raised.value) is type(error)
                assert str(raised.value) == str(error)
            else:
                out = apply_map(map_id, state, angle)
                assert type(out) is MapState
                assert (
                    bits([out.u_bar, out.w_bar, out.energy]).tolist()
                    == bits([expected.u_bar, expected.w_bar, expected.energy]).tolist()
                )

    def test_grazing_radicand_clamps_to_zero(self):
        energy = 1.0
        w_bar = math.sqrt(2 * energy)  # rounding may land a hair above 2E
        out = apply_map(MapId.FB, MapState(0.2, w_bar, energy), WedgeAngle(0.6))
        assert out.w_bar == 0.0


def map_by_constructor(map_id: MapId, state: MapState, angle: WedgeAngle) -> MapState:
    """The maps' arithmetic, each result built by MapState's checked
    constructor."""
    u_bar, w_bar, energy = state.u_bar, state.w_bar, state.energy
    tan_t = angle.sin / angle.cos
    if map_id is MapId.FA:
        return MapState(u_bar - 2.0 * w_bar / tan_t, w_bar, energy)
    if map_id is MapId.GA:
        return MapState(u_bar - 2.0 * w_bar * tan_t, w_bar, energy)
    w_next = math.sqrt(max(2.0 * energy - w_bar * w_bar, 0.0))
    if map_id is MapId.FB:
        return MapState(w_bar - (u_bar + w_next) * tan_t, w_next, energy)
    return MapState(w_bar - (u_bar + w_next) / tan_t, w_next, energy)


class TestFixedPoint:
    def test_symmetric_wedge_values(self):
        angle = WedgeAngle(math.pi / 4)
        for map_id in (MapId.FB, MapId.GB):
            state = fixed_point(map_id, 1.0, angle)
            assert state.u_bar == pytest.approx(0.0, abs=1e-15)
            assert state.w_bar == pytest.approx(1.0)

    def test_substitution_example(self):
        state = fixed_point(MapId.FB, 4.0, WedgeAngle(math.atan(1 / 3)))
        assert state.u_bar == pytest.approx(1.0)
        assert state.w_bar == pytest.approx(2.0)

    @given(angles, st.floats(min_value=0.1, max_value=4))
    def test_fb_fixed_point_is_fixed_under_fb(self, theta, energy):
        angle = WedgeAngle(theta)
        state = fixed_point(MapId.FB, energy, angle)
        out = apply_map(MapId.FB, state, angle)
        assert out.u_bar == pytest.approx(state.u_bar, abs=1e-12 * max(1, energy))
        assert out.w_bar == pytest.approx(state.w_bar, abs=1e-12 * max(1, energy))

    def test_gb_fixed_point_is_fixed_under_gb_in_symmetric_wedge(self):
        angle = WedgeAngle(math.pi / 4)
        state = fixed_point(MapId.GB, 2.0, angle)
        out = apply_map(MapId.GB, state, angle)
        assert out.u_bar == pytest.approx(state.u_bar, abs=1e-12)
        assert out.w_bar == pytest.approx(state.w_bar, abs=1e-12)

    @pytest.mark.parametrize("energy", [0.25, 1.0, 4.0])
    def test_gb_fixes_the_mirror_of_its_value(self, energy):
        # fixed_point(GB) gives FB's value; GB fixes (-u_bar, w_bar)
        for degrees in range(1, 90):
            angle = WedgeAngle.from_degrees(degrees)
            state = fixed_point(MapId.GB, energy, angle)
            fb = fixed_point(MapId.FB, energy, angle)
            assert state.u_bar == pytest.approx(fb.u_bar, abs=1e-14)
            mirror = MapState(-state.u_bar, state.w_bar, energy)
            out = apply_map(MapId.GB, mirror, angle)
            assert out.u_bar == pytest.approx(mirror.u_bar, abs=1e-12), degrees
            assert out.w_bar == pytest.approx(mirror.w_bar, abs=1e-12), degrees

    def test_same_wall_maps_have_no_isolated_fixed_point(self):
        with pytest.raises(ValueError):
            fixed_point(MapId.FA, 1.0, WedgeAngle(0.7))


class TestSimulatorEquivalence:
    def iterate_against(self, traj, angle):
        events = traj.events
        state = MapState(
            events[0].rotating_post.u_bar, events[0].rotating_post.w_bar, traj.energy
        )
        worst = 0.0
        for prev, event in zip(events, events[1:]):
            state = apply_map(map_id_for(prev.wall, event.wall), state, angle)
            worst = max(
                worst,
                abs(state.u_bar - event.rotating_post.u_bar),
                abs(state.w_bar - event.rotating_post.w_bar),
            )
        return worst

    def test_iterated_maps_reproduce_simulator(self, rng):
        for _ in range(5):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 300)
            assert traj.termination is None
            assert self.iterate_against(traj, angle) <= 1e-9

    def test_all_four_maps_appear_and_match(self):
        # consecutive same-wall hits only occur on the wall whose aligned
        # coordinate bounces faster, so covering all four maps takes two
        # launches with opposite bounce-period orderings
        angle = WedgeAngle.from_degrees(60)
        seen = set()
        for s, u_bar, w_bar in ((1.0, 0.0, 1.0), (0.2, 0.0, 1.2)):
            traj = simulate(launch_from_wall(Wall.A, s, u_bar, w_bar, angle), angle, 500)
            assert traj.termination is None
            seen |= {
                map_id_for(a.wall, b.wall)
                for a, b in zip(traj.events, traj.events[1:])
            }
            assert self.iterate_against(traj, angle) <= 1e-9
        assert seen == set(MapId)


class TestPeriodicCompatibility:
    def test_alternating_composition_fixes_symmetric_point(self):
        angle = WedgeAngle(math.pi / 4)
        state = MapState(0.0, 1.0, 1.0)
        for map_id in (MapId.FB, MapId.GB, MapId.FB, MapId.GB):
            state = apply_map(map_id, state, angle)
        assert state.u_bar == pytest.approx(0.0, abs=1e-14)
        assert state.w_bar == pytest.approx(1.0)

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 1), (1, 4)])
    def test_period_map_sequence_fixes_seed(self, p, q):
        # fold the simulator-derived map sequence over one full period
        spec = OrbitSpec(p, q, 1.0)
        traj = build_periodic_orbit(spec)
        angle = traj.theta
        seed = periodic_initial_condition(spec)
        state = seed
        prev_wall = Wall.A
        for event in traj.events:
            state = apply_map(map_id_for(prev_wall, event.wall), state, angle)
            prev_wall = event.wall
        assert state.u_bar == pytest.approx(seed.u_bar, abs=1e-12)
        assert state.w_bar == pytest.approx(seed.w_bar, abs=1e-12)

