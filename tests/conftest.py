import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wedge_billiard import CartesianState, Wall, WedgeAngle, launch_from_wall, wall_frame
from wedge_billiard.geometry import to_wedge

settings.register_profile(
    "ci", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def random_angle(rng: np.random.Generator) -> WedgeAngle:
    return WedgeAngle(float(rng.uniform(0.15, math.pi / 2 - 0.15)))


def random_launch(rng: np.random.Generator, angle: WedgeAngle) -> CartesianState:
    """A valid post-collision style launch on a random wall."""
    wall = Wall.A if rng.random() < 0.5 else Wall.B
    return launch_from_wall(
        wall,
        s=float(rng.uniform(0.3, 1.5)),
        u_bar=float(rng.uniform(-1.2, 1.2)),
        w_bar=float(rng.uniform(0.1, 1.5)),
        angle=angle,
    )


def outside_wall(wall: Wall, angle: WedgeAngle, by: float, w_bar: float = 0.8) -> CartesianState:
    """A launch off ``wall`` (s = 1, u_bar = 0.2) moved ``by`` against the
    wall's inward normal."""
    on = launch_from_wall(wall, 1.0, 0.2, w_bar, angle)
    _, normal = wall_frame(wall, angle)
    state = CartesianState(on.x - by * normal[0], on.y - by * normal[1], on.u, on.w)
    x_tilde, y_tilde = to_wedge(state.x, state.y, angle.sin, angle.cos)
    assert (y_tilde if wall is Wall.A else x_tilde) < 0.0
    return state


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
