import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedge_billiard import Wall, WedgeAngle, config_bounds, contains, launch_from_wall
from wedge_billiard.geometry import from_wedge, to_wedge

from conftest import random_angle, random_wall_launch, wall_axes

angles = st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01)

SQRT2_2 = math.sqrt(2) / 2


class TestWedgeAngle:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, math.pi, math.nan])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(ValueError):
            WedgeAngle(theta)

    def test_from_degrees(self):
        assert WedgeAngle.from_degrees(45).theta == pytest.approx(math.pi / 4)

    @given(angles)
    def test_stored_trig_is_bit_equal_to_math(self, theta):
        angle = WedgeAngle(theta)
        assert angle.sin.hex() == math.sin(theta).hex()
        assert angle.cos.hex() == math.cos(theta).hex()

    def test_equality_hash_and_repr_see_theta_only(self):
        angle, forged = WedgeAngle(0.7), WedgeAngle(0.7)
        object.__setattr__(forged, "sin", 2.0)
        object.__setattr__(forged, "cos", -2.0)
        assert forged == angle and hash(forged) == hash(angle)
        assert repr(forged) == repr(angle) == "WedgeAngle(theta=0.7)"
        assert WedgeAngle(0.7) != WedgeAngle(0.8)

    def test_trig_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            WedgeAngle(0.7, 0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(WedgeAngle(0.7), sin=0.5)

    def test_replace_recomputes_trig(self):
        angle = dataclasses.replace(WedgeAngle(0.7), theta=0.3)
        assert (angle.sin, angle.cos) == (math.sin(0.3), math.cos(0.3))

    @pytest.mark.parametrize(
        "clone", [lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy]
    )
    def test_pickle_and_copy_recompute_trig(self, clone):
        forged = WedgeAngle(0.7)
        object.__setattr__(forged, "sin", 2.0)
        object.__setattr__(forged, "cos", -2.0)
        angle = clone(forged)
        assert angle == forged
        assert (angle.sin, angle.cos) == (math.sin(0.7), math.cos(0.7))

    @pytest.mark.parametrize("name", ["theta", "sin", "cos"])
    def test_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(WedgeAngle(0.7), name, 0.5)


class TestContains:
    def test_point_above_vertex(self):
        assert contains((0.0, 1.0), WedgeAngle(math.pi / 4))

    def test_point_below_right_wall(self):
        assert not contains((1.0, 0.0), WedgeAngle(math.pi / 4))

    def test_point_on_left_wall(self):
        assert contains((-1.0, 1.0), WedgeAngle(math.pi / 4))

    @given(angles, st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2))
    def test_symmetric_wedge_mirror_invariance(self, theta, x, y):
        angle = WedgeAngle(math.pi / 4)
        assert contains((x, y), angle) == contains((-x, y), angle)


def wall_point(wall: Wall, s: float, angle: WedgeAngle) -> np.ndarray:
    """The point at arclength ``s`` from the vertex along a wall."""
    return np.array(launch_from_wall(wall, s, 0.0, 1.0, angle).position)


def wall_frame(wall: Wall, angle: WedgeAngle) -> tuple[np.ndarray, np.ndarray]:
    """A wall's (tangent, inward normal): the momenta of unit launches along
    each."""
    tangent = launch_from_wall(wall, 1.0, 1.0, 0.0, angle)
    normal = launch_from_wall(wall, 1.0, 0.0, 1.0, angle)
    return np.array((tangent.u, tangent.w)), np.array((normal.u, normal.w))


class TestContainsScale:
    """The wall tolerance grows with the point, so a wall point stays inside
    at any size; a point that is not finite is never inside."""

    @pytest.mark.parametrize("scale", [1e5, 1e10, 1e100, 1e300])
    @pytest.mark.parametrize("wall", [Wall.A, Wall.B])
    def test_wall_points_inside_at_every_scale(self, wall, scale, rng):
        for _ in range(200):
            angle = random_angle(rng)
            assert contains(wall_point(wall, scale * float(rng.uniform(0.3, 1.5)), angle), angle)

    def test_point_outside_by_a_relative_margin_rejected(self):
        angle = WedgeAngle(0.7)
        for s in (0.5, 1e6, 1e300):
            assert not contains(from_wedge(s, -3e-12 * s, angle.sin, angle.cos), angle)
            assert not contains(from_wedge(-3e-12 * s, s, angle.sin, angle.cos), angle)

    def test_tolerance_is_absolute_up_to_unit_size(self):
        angle = WedgeAngle(0.7)
        assert contains(from_wedge(0.5, -0.9e-12, angle.sin, angle.cos), angle)
        assert not contains(from_wedge(0.5, -1.1e-12, angle.sin, angle.cos), angle)

    @pytest.mark.parametrize(
        "point", [(math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0)]
    )
    def test_non_finite_point_rejected(self, point):
        assert not contains(point, WedgeAngle(0.7))


class TestFromWedge:
    @given(angles, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_inverts_to_wedge(self, theta, a, b):
        angle = WedgeAngle(theta)
        back = to_wedge(*from_wedge(a, b, angle.sin, angle.cos), angle.sin, angle.cos)
        tol = 4e-16 * max(abs(a), abs(b))
        assert abs(back[0] - a) <= tol and abs(back[1] - b) <= tol

    def test_arrays_match_floats_bit_for_bit(self, rng):
        angle = WedgeAngle(0.7)
        a, b = rng.uniform(-2, 2, size=(2, 50))
        x, y = from_wedge(a, b, angle.sin, angle.cos)
        floats = [from_wedge(p, q, angle.sin, angle.cos) for p, q in zip(a.tolist(), b.tolist())]
        assert list(zip(x.tolist(), y.tolist())) == floats


def launch_by_wall_frame(wall: Wall, s: float, u_bar: float, w_bar: float, angle: WedgeAngle):
    """The launch state as it was built from a wall point and a wall frame
    in numpy, kept as the reference for :func:`launch_from_wall`."""
    sin_t, cos_t = angle.sin, angle.cos
    if wall is Wall.A:
        point = np.array([s * sin_t, s * cos_t])
        tangent, normal = np.array([sin_t, cos_t]), np.array([-cos_t, sin_t])
    else:
        point = np.array([-s * cos_t, s * sin_t])
        tangent, normal = np.array([-cos_t, sin_t]), np.array([sin_t, cos_t])
    return (
        float(point[0]),
        float(point[1]),
        float(u_bar * tangent[0] + w_bar * normal[0]),
        float(u_bar * tangent[1] + w_bar * normal[1]),
    )


class TestLaunchFromWall:
    def test_equals_the_wall_frame_construction_bit_for_bit(self):
        rng = np.random.default_rng(977)
        for _ in range(150):
            angle = random_angle(rng)
            wall_launch = random_wall_launch(rng)
            state = launch_from_wall(*wall_launch, angle)
            expected = launch_by_wall_frame(*wall_launch, angle)
            assert [v.hex() for v in (state.x, state.y, state.u, state.w)] == [
                v.hex() for v in expected
            ]

    def test_vertex_launch_from_wall_b_has_positive_zero_x(self):
        # the one difference from the wall-frame construction, which gave -0.0
        angle = WedgeAngle(0.7)
        state = launch_from_wall(Wall.B, 0.0, 0.3, 0.8, angle)
        assert math.copysign(1.0, state.x) == 1.0
        assert launch_by_wall_frame(Wall.B, 0.0, 0.3, 0.8, angle)[0] == state.x


class TestWallPoint:
    @pytest.mark.parametrize("wall", [Wall.A, Wall.B])
    def test_zero_arclength_is_vertex(self, wall):
        np.testing.assert_allclose(wall_point(wall, 0.0, WedgeAngle(0.7)), [0.0, 0.0])

    def test_unit_point_on_right_wall(self):
        np.testing.assert_allclose(
            wall_point(Wall.A, 1.0, WedgeAngle(math.pi / 4)), [SQRT2_2, SQRT2_2]
        )

    def test_unit_point_on_left_wall(self):
        np.testing.assert_allclose(
            wall_point(Wall.B, 1.0, WedgeAngle(math.pi / 4)), [-SQRT2_2, SQRT2_2]
        )

    def test_negative_arclength_rejected(self):
        with pytest.raises(ValueError):
            launch_from_wall(Wall.A, -0.1, 0.0, 1.0, WedgeAngle(0.7))

    @given(angles, st.sampled_from([Wall.A, Wall.B]), st.floats(min_value=0, max_value=100))
    def test_wall_points_are_members_with_tiny_residual(self, theta, wall, s):
        angle = WedgeAngle(theta)
        point = wall_point(wall, s, angle)
        assert contains(point, angle)
        x_tilde, y_tilde = to_wedge(point[0], point[1], angle.sin, angle.cos)
        residual = y_tilde if wall is Wall.A else x_tilde
        assert abs(residual) <= 1e-12 * max(s, 1.0)


class TestWallFrame:
    def test_right_wall_at_45_degrees(self):
        tangent, normal = wall_frame(Wall.A, WedgeAngle(math.pi / 4))
        np.testing.assert_allclose(tangent, [SQRT2_2, SQRT2_2])
        np.testing.assert_allclose(normal, [-SQRT2_2, SQRT2_2])

    def test_left_wall_at_45_degrees(self):
        tangent, normal = wall_frame(Wall.B, WedgeAngle(math.pi / 4))
        np.testing.assert_allclose(tangent, [-SQRT2_2, SQRT2_2])
        # the normal points into the region, so an outgoing momentum has a
        # nonnegative w_bar
        np.testing.assert_allclose(normal, [SQRT2_2, SQRT2_2])
        assert tangent @ normal == pytest.approx(0.0, abs=1e-15)

    def test_right_wall_tangent_at_30_degrees(self):
        tangent, _ = wall_frame(Wall.A, WedgeAngle(math.pi / 6))
        np.testing.assert_allclose(tangent, [0.5, math.sqrt(3) / 2])

    @given(angles)
    def test_walls_are_orthogonal(self, theta):
        angle = WedgeAngle(theta)
        ta, na = wall_frame(Wall.A, angle)
        tb, nb = wall_frame(Wall.B, angle)
        assert abs(ta @ tb) <= 1e-15
        assert abs(ta @ na) <= 1e-15
        assert abs(tb @ nb) <= 1e-15
        for vector in (ta, na, tb, nb):
            assert vector @ vector == pytest.approx(1.0, abs=1e-15)
        # the launch frames are the written-out wall axes
        for wall, frame in ((Wall.A, (ta, na)), (Wall.B, (tb, nb))):
            for got, expected in zip(frame, wall_axes(wall, angle)):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)

    @given(angles, st.sampled_from([Wall.A, Wall.B]))
    def test_normal_points_into_region(self, theta, wall):
        angle = WedgeAngle(theta)
        _, normal = wall_frame(wall, angle)
        base = wall_point(wall, 1.0, angle)
        assert contains(base + 1e-6 * normal, angle)
        assert not contains(base - 1e-6 * normal, angle)


class TestConfigBounds:
    def test_unit_energy_symmetric(self):
        x_tilde_max, y_tilde_max = config_bounds(1.0, WedgeAngle(math.pi / 4))
        assert x_tilde_max == pytest.approx(math.sqrt(2))
        assert y_tilde_max == pytest.approx(math.sqrt(2))

    def test_steep_wedge(self):
        x_tilde_max, y_tilde_max = config_bounds(2.0, WedgeAngle(math.pi / 3))
        assert x_tilde_max == pytest.approx(4.0)
        assert y_tilde_max == pytest.approx(4.0 / math.sqrt(3))

    def test_shallow_wedge(self):
        x_tilde_max, y_tilde_max = config_bounds(1.0, WedgeAngle(math.pi / 6))
        assert x_tilde_max == pytest.approx(2.0 / math.sqrt(3))
        assert y_tilde_max == pytest.approx(2.0)

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_nonpositive_energy_rejected(self, energy):
        with pytest.raises(ValueError):
            config_bounds(energy, WedgeAngle(0.7))
