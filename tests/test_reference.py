"""Both engines against a 50-digit reference over a long horizon.

The reference merges the two bouncers' hit progressions in mpmath at 50
significant digits, so it decides which float64 engine is closer to the
exact trajectory instead of assuming either one is.
"""

import numpy as np
import pytest

from wedge_billiard import Wall, WedgeAngle, decoupled_simulate, simulate

from conftest import outside_wall, random_angle, random_launch

mpmath = pytest.importorskip("mpmath")

EVENTS = 10_000
# the acceptance suite's seed
SEED = 977
REFERENCE_TOL = 1e-7


def acceptance_launches(count: int):
    rng = np.random.default_rng(SEED)
    launches = []
    for _ in range(count):
        angle = random_angle(rng)
        launches.append((random_launch(rng, angle), angle))
    return launches


def reference_events(initial, angle, n: int):
    """Wall codes and ``t, x, y`` of the first n events at 50 digits.

    Bouncer 0 is the distance from wall A (gravity sin(theta)), bouncer 1
    the distance from wall B (gravity cos(theta)).  Each hits its wall at
    the larger root of its flight from the launch and then once per period
    ``2V/g``; between its hits it flies a parabola of takeoff speed ``V``.
    """
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        theta = mpf(angle.theta)
        sin_t, cos_t = mpmath.sin(theta), mpmath.cos(theta)
        x, y, u, w, t0 = (mpf(v) for v in (initial.x, initial.y, initial.u, initial.w, initial.t))
        bouncers = []
        for d0, v0, g in (
            (-x * cos_t + y * sin_t, -u * cos_t + w * sin_t, sin_t),
            (x * sin_t + y * cos_t, u * sin_t + w * cos_t, cos_t),
        ):
            speed = mpmath.sqrt(v0 * v0 + 2 * g * d0)
            bouncers.append((d0, v0, g, speed, (v0 + speed) / g, 2 * speed / g))

        def height(bouncer: int, hits: int, at):
            d0, v0, g, speed, first, period = bouncers[bouncer]
            if hits == 0:
                return d0 + v0 * at - g * at * at / 2
            since = at - (first + (hits - 1) * period)
            return speed * since - g * since * since / 2

        walls, ts, xs, ys = [], [], [], []
        hits = [0, 0]
        for _ in range(n):
            times = [b[4] + hits[i] * b[5] for i, b in enumerate(bouncers)]
            wall = 0 if times[0] < times[1] else 1
            at = times[wall]
            # the landing point is the other bouncer's height along this wall
            s = height(1 - wall, hits[1 - wall], at)
            walls.append(wall)
            ts.append(float(t0 + at))
            if wall == 0:
                xs.append(float(s * sin_t))
                ys.append(float(s * cos_t))
            else:
                xs.append(float(-s * cos_t))
                ys.append(float(s * sin_t))
            hits[wall] += 1
    return walls, np.array(ts), np.array(xs), np.array(ys)


def check_engines_against_reference(initial, angle, n: int, label: str) -> None:
    """Both engines make the reference's n events on its walls, with every
    ``t, x, y`` within REFERENCE_TOL of it."""
    walls, t, x, y = reference_events(initial, angle, n)
    distances = {}
    for engine in (simulate, decoupled_simulate):
        events = engine(initial, angle, n).events
        assert len(events) == n
        assert events.column("wall").tolist() == walls
        distances[engine.__name__] = max(
            float(np.max(np.abs(events.column(name) - reference)))
            for name, reference in (("t", t), ("x", x), ("y", y))
        )
    closer = min(distances, key=distances.get)
    print(f"{label}: {closer} is closer to the reference; distances {distances}")
    for name, distance in distances.items():
        assert distance <= REFERENCE_TOL, (name, distance)


@pytest.mark.parametrize("index", range(3))
def test_engines_stay_near_the_50_digit_reference(index):
    initial, angle = acceptance_launches(3)[index]
    check_engines_against_reference(initial, angle, EVENTS, f"launch {index}")


@pytest.mark.parametrize("w_bar", [1e-3, 1e-4])
def test_slow_entry_from_just_outside_a_wall_matches_the_reference(w_bar):
    # 5e-13 beyond wall A, moving in: the reference's first wall-A hit is
    # the larger root of that flight, the landing after the wall crossing
    angle = WedgeAngle.from_degrees(40)
    initial = outside_wall(Wall.A, angle, 5e-13, w_bar)
    check_engines_against_reference(initial, angle, 30, f"slow entry at w_bar {w_bar:g}")
