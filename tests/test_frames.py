"""The three frames and the maps between them: the lab frame, the wedge frame
of :func:`wedge_billiard.geometry.to_wedge`, and each wall's collision frame,
in which events carry ``rotating_post``."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wedge_billiard import Wall, WedgeAngle, launch_from_wall, simulate
from wedge_billiard.dynamics import WALLS
from wedge_billiard.geometry import to_wedge

from conftest import collision_frame, wall_axes

angles = st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01)
momenta = st.floats(min_value=-10, max_value=10)

SQRT2_2 = math.sqrt(2) / 2


def wall_frame(p, wall: Wall, angle: WedgeAngle) -> tuple[float, float]:
    """``(u_bar, w_bar)`` of the momentum ``p`` in ``wall``'s collision frame."""
    return tuple(map(float, collision_frame(WALLS.index(wall), p[0], p[1], angle)))


class TestRotation:
    """``to_wedge`` turns the plane by ``theta - pi/2``."""

    def test_zero_angle_is_identity(self):
        # theta = pi/2: sin 1, cos 0
        assert to_wedge(0.3, -0.7, 1.0, 0.0) == (0.3, -0.7)

    def test_quarter_turn(self):
        # theta = 0: a clockwise quarter turn
        assert to_wedge(0.3, -0.7, 0.0, 1.0) == (-0.7, -0.3)

    def test_inverse_property(self):
        # the opposite turn is theta's mirror pi - theta, whose cos is negated
        angle = WedgeAngle(0.7)
        there = to_wedge(0.3, -0.7, angle.sin, angle.cos)
        back = to_wedge(*there, angle.sin, -angle.cos)
        np.testing.assert_allclose(back, (0.3, -0.7), atol=1e-16)

    @given(angles)
    def test_determinant_one(self, theta):
        angle = WedgeAngle(theta)
        columns = [to_wedge(1.0, 0.0, angle.sin, angle.cos), to_wedge(0.0, 1.0, angle.sin, angle.cos)]
        assert np.linalg.det(np.array(columns).T) == pytest.approx(1.0)


class TestCartesianToWedge:
    def test_point_on_right_wall(self):
        angle = WedgeAngle(math.pi / 4)
        x_tilde, y_tilde = to_wedge(SQRT2_2, SQRT2_2, angle.sin, angle.cos)
        assert x_tilde == pytest.approx(1.0)
        assert y_tilde == pytest.approx(0.0, abs=1e-15)

    def test_vertical_momentum_at_vertex(self):
        # oracle: dot the momentum with the wall directions
        angle = WedgeAngle(math.pi / 3)
        e_a = np.array([angle.sin, angle.cos])
        e_b = np.array([-angle.cos, angle.sin])
        p = np.array([0.0, 1.0])
        u_tilde, w_tilde = to_wedge(p[0], p[1], angle.sin, angle.cos)
        assert u_tilde == pytest.approx(p @ e_a) == pytest.approx(0.5)
        assert w_tilde == pytest.approx(p @ e_b) == pytest.approx(math.sqrt(3) / 2)

    @given(angles)
    def test_norm_preserved(self, theta):
        angle = WedgeAngle(theta)
        u_tilde, w_tilde = to_wedge(0.3, -0.4, angle.sin, angle.cos)
        assert u_tilde**2 + w_tilde**2 == pytest.approx(0.25)

    def test_arrays_match_floats_bit_for_bit(self, rng):
        angle = WedgeAngle(0.7)
        a, b = rng.uniform(-2, 2, size=(2, 50))
        a_tilde, b_tilde = to_wedge(a, b, angle.sin, angle.cos)
        floats = [to_wedge(x, y, angle.sin, angle.cos) for x, y in zip(a.tolist(), b.tolist())]
        assert list(zip(a_tilde.tolist(), b_tilde.tolist())) == floats


class TestCompositionAndGravity:
    def test_gravity_components_along_walls(self, rng):
        for theta in rng.uniform(0.01, math.pi / 2 - 0.01, size=100):
            angle = WedgeAngle(float(theta))
            g_a, g_b = to_wedge(0.0, -1.0, angle.sin, angle.cos)
            assert g_a == pytest.approx(-angle.cos, abs=1e-15)
            assert g_b == pytest.approx(-angle.sin, abs=1e-15)


class TestRotatingToWedge:
    """An event's collision frame is its wedge frame on wall A and the wedge
    frame with the two components swapped on wall B, to the last bit."""

    @staticmethod
    def events_on(wall: Wall):
        angle = WedgeAngle.from_degrees(60)
        traj = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 100)
        events = [e for e in traj.events if e.wall is wall]
        assert events
        return angle, events

    def test_wall_a_identity(self):
        angle, events = self.events_on(Wall.A)
        for event in events:
            rotating = event.rotating_post
            assert (rotating.u_bar, rotating.w_bar) == to_wedge(
                event.post.u, event.post.w, angle.sin, angle.cos
            )

    def test_wall_b_quarter_turn(self):
        angle, events = self.events_on(Wall.B)
        for event in events:
            rotating = event.rotating_post
            u_tilde, w_tilde = to_wedge(event.post.u, event.post.w, angle.sin, angle.cos)
            assert (rotating.u_bar, rotating.w_bar) == (w_tilde, u_tilde)


class TestWallMomentum:
    @given(angles, momenta, momenta)
    def test_components_are_tangent_and_inward_normal(self, theta, u, w):
        angle = WedgeAngle(theta)
        p = np.array([u, w])
        for wall in Wall:
            tangent, normal = wall_axes(wall, angle)
            u_bar, w_bar = wall_frame(p, wall, angle)
            assert u_bar == pytest.approx(float(p @ tangent), abs=1e-13)
            assert w_bar == pytest.approx(float(p @ normal), abs=1e-13)

    def test_outgoing_state_has_nonnegative_normal_component(self):
        angle = WedgeAngle(1.1)
        for wall in Wall:
            state = launch_from_wall(wall, 1.0, -0.4, 0.8, angle)
            u_bar, w_bar = wall_frame((state.u, state.w), wall, angle)
            assert w_bar == pytest.approx(0.8)
            assert u_bar == pytest.approx(-0.4)
