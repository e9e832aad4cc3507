import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wedge_billiard import CartesianState, Trajectory, Wall, WedgeAngle, launch_from_wall
from wedge_billiard.cli import (
    _sweep_svg_lines,
    _trajectory_csv_lines,
    _trajectory_json_lines,
    _trajectory_svg_lines,
)
from wedge_billiard.dynamics import (
    _COLUMN_NAMES,
    WALLS,
    EventColumns,
    EventSequence,
    Termination,
    TerminationKind,
)
from wedge_billiard.geometry import from_wedge, to_wedge

settings.register_profile(
    "ci", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


# Each export as one string: the join of the pieces the command line writes
# to its file as they are made.
def trajectory_csv(traj: Trajectory) -> str:
    return "".join(_trajectory_csv_lines(traj))


def trajectory_json(traj: Trajectory) -> str:
    return "".join(_trajectory_json_lines(traj))


def trajectory_svg(traj: Trajectory) -> str:
    return "".join(_trajectory_svg_lines(traj))


def sweep_svg(points) -> str:
    return "".join(_sweep_svg_lines(points))


def coprime_pairs(limit: int):
    return [
        (p, q)
        for p in range(1, limit + 1)
        for q in range(1, limit + 1)
        if math.gcd(p, q) == 1
    ]


def filled_columns(angle: WedgeAngle, values: dict) -> EventColumns:
    """New columns at ``angle`` whose stored column ``name`` holds
    ``values[name]``, for each name the engines write: the one writer of
    the store outside the engines."""
    assert len({len(values[name]) for name in _COLUMN_NAMES}) == 1
    columns = EventColumns(angle)
    columns.wall.extend(values["wall"])
    rows = zip(*(values[name] for name in _COLUMN_NAMES[1:]))
    columns.rows.extend(value for row in rows for value in row)
    return columns


def stored_values(traj: Trajectory, indices=slice(None)) -> dict:
    """Each stored column of ``traj``'s events at ``indices`` (a slice or a
    list, which may repeat an index), as a list by name."""
    return {name: traj.events.column(name)[indices].tolist() for name in _COLUMN_NAMES}


def with_events(traj: Trajectory, indices) -> Trajectory:
    """``traj`` with copies of its events at ``indices`` as its events."""
    columns = filled_columns(traj.theta, stored_values(traj, indices))
    return dataclasses.replace(traj, events=EventSequence(columns))


def with_values(traj: Trajectory, name: str, values) -> Trajectory:
    """``traj`` with column ``name`` of its first events set to ``values``."""
    stored = stored_values(traj)
    stored[name][: len(values)] = values
    return dataclasses.replace(traj, events=EventSequence(filled_columns(traj.theta, stored)))


def bits(values) -> np.ndarray:
    """The float64 bit patterns of ``values``: equal exactly when the floats
    are the same to the last bit, signed zero and all."""
    return np.asarray(values, dtype=float).view(np.int64)


def read_trajectory_json(path) -> Trajectory:
    """The trajectory of a JSON export: its launch, angle, termination and
    each event's stored columns, floats bit-equal.  The fields derived from
    those are not read; :func:`json_round_trips` checks them."""
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    angle = WedgeAngle(doc["theta"])
    rows = doc["events"]
    keys = {"u": "u_post", "w": "w_post"}
    stored = {
        name: [row[keys.get(name, name)] for row in rows] for name in _COLUMN_NAMES[1:]
    }
    stored["wall"] = [WALLS.index(Wall(row["wall"])) for row in rows]
    columns = filled_columns(angle, stored)
    term = doc["termination"]
    termination = (
        None
        if term is None
        else Termination(TerminationKind(term["kind"]), term["t"], term["normal_speed"])
    )
    return Trajectory(CartesianState(**doc["initial"]), angle, EventSequence(columns), termination)


def json_round_trips(path) -> bool:
    """Whether exporting the trajectory read from the JSON file ``path``
    gives the file's bytes: every field of every row, the derived ones too,
    is then what the launch and the stored columns give, to the last bit."""
    text = trajectory_json(read_trajectory_json(path))
    return text.encode("ascii") == Path(path).read_bytes()


def write_json(path, doc: dict) -> None:
    """Write ``doc`` laid out as the JSON export lays out its document."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii", newline="")


def flights(traj: Trajectory):
    """``(duration, x, y, u, w)`` of each flight arc, in Python floats: the
    state it starts from (the launch, then each event's outgoing state) and
    its time to the next event."""
    start = traj.initial
    t0, x0, y0, u0, w0 = start.t, start.x, start.y, start.u, start.w
    columns = (traj.events.column(name).tolist() for name in ("t", "x", "y", "u", "w"))
    for t, x, y, u, w in zip(*columns):
        yield t - t0, x0, y0, u0, w0
        t0, x0, y0, u0, w0 = t, x, y, u, w


def collision_frame(walls, u, w, angle: WedgeAngle) -> tuple:
    """``(u_bar, w_bar)``: the outgoing momenta ``(u, w)`` in the collision
    frames of the walls with codes ``walls`` (indices into ``WALLS``), which
    may be scalars or numpy arrays.  Wall A's tangent and inward normal are
    the wedge axes, and wall B's swapped; the reference for
    ``rotating_post`` and the exports' ``u_bar_post, w_bar_post``."""
    u_tilde, w_tilde = to_wedge(u, w, angle.sin, angle.cos)
    on_a = np.asarray(walls) == WALLS.index(Wall.A)
    return np.where(on_a, u_tilde, w_tilde), np.where(on_a, w_tilde, u_tilde)


def random_angle(rng: np.random.Generator) -> WedgeAngle:
    return WedgeAngle(float(rng.uniform(0.15, math.pi / 2 - 0.15)))


def random_wall_launch(rng: np.random.Generator) -> tuple[Wall, float, float, float]:
    """``(wall, s, u_bar, w_bar)`` of a valid post-collision style launch."""
    wall = Wall.A if rng.random() < 0.5 else Wall.B
    s = float(rng.uniform(0.3, 1.5))
    u_bar = float(rng.uniform(-1.2, 1.2))
    w_bar = float(rng.uniform(0.1, 1.5))
    return wall, s, u_bar, w_bar


def random_launch(rng: np.random.Generator, angle: WedgeAngle) -> CartesianState:
    """A valid post-collision style launch on a random wall."""
    return launch_from_wall(*random_wall_launch(rng), angle)


def wall_axes(wall: Wall, angle: WedgeAngle) -> tuple[np.ndarray, np.ndarray]:
    """A wall's unit tangent, pointing away from the vertex, and its unit
    normal, pointing into the wedge, written out."""
    sin_t, cos_t = angle.sin, angle.cos
    if wall is Wall.A:
        return np.array([sin_t, cos_t]), np.array([-cos_t, sin_t])
    return np.array([-cos_t, sin_t]), np.array([sin_t, cos_t])


def outside_wall(wall: Wall, angle: WedgeAngle, by: float, w_bar: float = 0.8) -> CartesianState:
    """A launch off ``wall`` (s = 1, u_bar = 0.2) moved ``by`` out through
    the wall."""
    on = launch_from_wall(wall, 1.0, 0.2, w_bar, angle)
    # the wedge position (s, -by) on wall A and (-by, s) on wall B
    off = (1.0, -by) if wall is Wall.A else (-by, 1.0)
    state = CartesianState(*from_wedge(*off, angle.sin, angle.cos), on.u, on.w)
    x_tilde, y_tilde = to_wedge(state.x, state.y, angle.sin, angle.cos)
    assert (y_tilde if wall is Wall.A else x_tilde) < 0.0
    return state


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
