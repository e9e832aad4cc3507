import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedge_billiard import (
    ConfigBounds,
    Wall,
    WedgeAngle,
    config_bounds,
    contains,
    wall_frame,
    wall_point,
)
from wedge_billiard.geometry import to_wedge

angles = st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01)

SQRT2_2 = math.sqrt(2) / 2


class TestWedgeAngle:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, math.pi, math.nan])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(ValueError):
            WedgeAngle(theta)

    def test_from_degrees(self):
        assert WedgeAngle.from_degrees(45).theta == pytest.approx(math.pi / 4)


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
            wall_point(Wall.A, -0.1, WedgeAngle(0.7))

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
        # normal chosen to point into the region, so reflections and launch
        # construction can use it directly
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

    @given(angles, st.sampled_from([Wall.A, Wall.B]))
    def test_normal_points_into_region(self, theta, wall):
        angle = WedgeAngle(theta)
        _, normal = wall_frame(wall, angle)
        base = wall_point(wall, 1.0, angle)
        assert contains(base + 1e-6 * normal, angle)
        assert not contains(base - 1e-6 * normal, angle)


class TestConfigBounds:
    def test_unit_energy_symmetric(self):
        bounds = config_bounds(1.0, WedgeAngle(math.pi / 4))
        assert bounds.x_tilde_max == pytest.approx(math.sqrt(2))
        assert bounds.y_tilde_max == pytest.approx(math.sqrt(2))

    def test_steep_wedge(self):
        bounds = config_bounds(2.0, WedgeAngle(math.pi / 3))
        assert bounds.x_tilde_max == pytest.approx(4.0)
        assert bounds.y_tilde_max == pytest.approx(4.0 / math.sqrt(3))

    def test_shallow_wedge(self):
        bounds = config_bounds(1.0, WedgeAngle(math.pi / 6))
        assert bounds.x_tilde_max == pytest.approx(2.0 / math.sqrt(3))
        assert bounds.y_tilde_max == pytest.approx(2.0)

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_nonpositive_energy_rejected(self, energy):
        with pytest.raises(ValueError):
            config_bounds(energy, WedgeAngle(0.7))
        with pytest.raises(ValueError):
            ConfigBounds(energy, 1.0)
        with pytest.raises(ValueError):
            ConfigBounds(1.0, energy)
