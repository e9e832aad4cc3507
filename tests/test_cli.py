import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import wedge_billiard
from wedge_billiard import (
    CartesianState,
    OrbitSpec,
    Trajectory,
    Wall,
    WedgeAngle,
    build_periodic_orbit,
    critical_angle,
    decoupled_simulate,
    hamiltonian,
    launch_from_wall,
    simulate,
    sweep_periodic_points,
)
from wedge_billiard.cli import (
    _CHUNK_ARCS,
    _CHUNK_ROWS,
    _RAD_TO_DEG,
    _SVG_ARC_STEPS,
    CSV_COLUMNS,
    SVG_MARGIN_FRACTION,
    SVG_WIDTH,
    OutputFormat,
    _event_rows,
    _svg_document,
    build_parser,
    export_trajectory,
    main,
    render_plot,
    sweep_csv,
)
from wedge_billiard.dynamics import WALLS, wedge_energies
from wedge_billiard.geometry import config_bounds, from_wedge, to_wedge
from wedge_billiard.orbits import _periodic_launch

from conftest import (
    bits,
    collision_frame,
    coprime_pairs,
    flights,
    json_round_trips,
    random_angle,
    random_launch,
    read_trajectory_json,
    sweep_svg,
    trajectory_csv,
    trajectory_json,
    trajectory_svg,
    with_values,
)
from test_dynamics import edge_launches


def run(*args: str) -> int:
    return main(list(args))


SIMULATE_ARGS = (
    "simulate",
    "--theta-deg", "60",
    "--wall", "A",
    "--s", "1",
    "--u-bar", "0",
    "--w-bar", "1",
)


class TestSimulateCommand:
    def test_csv_export(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(*SIMULATE_ARGS, "--n", "50", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("event_index,t,wall,x,y,u_post")
        assert lines[1].split(",")[2] in ("A", "B")

    def test_empty_trajectory_gives_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(*SIMULATE_ARGS, "--n", "0", "--out", str(out)) == 0
        assert out.read_text().count("\n") == 1

    def test_json_round_trip_bit_equal(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run(*SIMULATE_ARGS, "--n", "40", "--out", str(out)) == 0
        angle = WedgeAngle.from_degrees(60)
        expected = simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 40)
        assert json_round_trips(out)
        assert read_trajectory_json(out) == expected

    def test_cartesian_launch(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            "simulate", "--theta-deg", "45",
            "--x", "0", "--y", "1", "--u", "0.3", "--w", "0",
            "--n", "10", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 11

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*SIMULATE_ARGS, "--n", "30", "--out", str(a)) == 0
        assert run(*SIMULATE_ARGS, "--n", "30", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_segment_svg(self, tmp_path):
        out = tmp_path / "one.svg"
        assert run(*SIMULATE_ARGS, "--n", "1", "--format", "svg", "--out", str(out)) == 0
        root = ET.fromstring(out.read_text())
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 2

    def test_unknown_suffix_is_written_as_csv(self, tmp_path):
        txt, csv = tmp_path / "traj.txt", tmp_path / "traj.csv"
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(txt)) == 0
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(csv)) == 0
        assert txt.read_bytes() == csv.read_bytes()

    def test_seed_variable_is_ignored(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(a)) == 0
        monkeypatch.setenv("WEDGE_SEED", "12345")
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


# The paper's 60-degree launch and the first launch the acceptance suite
# draws from seed 977, each 200 collisions; the sweep table and scatter up
# to p, q = 25, and up to 150 (whole, half and at E = 1e-9 up to 40); and
# three periods of the (2, 5) orbit.
GOLDEN_LAUNCHES = {
    "dense60": SIMULATE_ARGS + ("--n", "200"),
    "seed977": (
        "simulate", "--theta-deg", "51.54807695875984", "--wall", "B",
        "--s", "0.7889605216983491", "--u-bar", "0.7499209292109801",
        "--w-bar", "1.4013097017164222", "--n", "200",
    ),
    "sweep25": ("sweep", "--max", "25"),
    "sweep150": ("sweep", "--max", "150"),
    "sweep150half": ("sweep", "--max", "150", "--half"),
    "sweep40tiny": ("sweep", "--max", "40", "--energy", "1e-09"),
    "orbit25": ("periodic", "--p", "2", "--q", "5", "--periods", "3"),
}

# (SHA-256, size in bytes) of the files the object-per-event engine wrote
# for these launches at commit ef77ed3.
GOLDEN_EXPORTS = {
    ("dense60", "csv"): ("c7fa4eaa211049c5975f333d3c163aa8176b045b32c168564c0f8012e54326a5", 45334),
    ("dense60", "json"): ("b6a33c45e61fa9329d4749ee359fafaeefe6a6c8f6b99b29a14e59289f3c70c5", 108628),
    ("dense60", "svg"): ("3df1078d5f109690f9bb149d3a0cb898527de084c56fd41d1e06512f49eb96e9", 221780),
    ("seed977", "csv"): ("c913f5def2455b8174fa0108120c3c512398db967487452caa1732ec17e0ff77", 46163),
    ("seed977", "json"): ("46465bf1390f34cf11d0405d6904bb3783810c6b1d6963a3f414c5b2bb716e84", 109406),
    ("seed977", "svg"): ("c77c23b0d3d011a1e06d3d7b63dd8a2934c9ef97f0f166289ab5f179556f4e01", 221780),
    # written by the per-value formatting loops at commit 9225358
    ("sweep25", "csv"): ("8c314117e1f4353c43b6df0d3f3e2e61d7f03f0c2b9b7531e106de1b6108db9d", 25273),
    ("sweep25", "svg"): ("ec8355b6c7547698a3336339be13ff0097d1bfe4729c968a64f416b82b0a5d32", 23039),
    ("orbit25", "svg"): ("a8d54e7e5708ee1838a333c5a214aa695c5020ea22d20a0dcb18d0988b773971", 23627),
    # written by the gcd-and-sort sweep at commit b41b08c
    ("sweep150", "csv"): ("a3bd9bdf34c8799358fa9cfa673003e1c2ef9009443af1d132331135c2f0e859", 898029),
    ("sweep150", "svg"): ("d2e11da53326f1c2192f7b5e4635cd95f17612af031d0fd9b7166948fede573a", 779866),
    ("sweep150half", "csv"): ("5f70ebdf14636221b0ab1520608899c40db2a4de9a988907ab95ab9f6cf99f55", 448191),
    ("sweep150half", "svg"): ("75ffff3c2fbd264881278dccbb33ff6f05d54355ae31ff66a05bdf03f7e5575f", 388960),
    ("sweep40tiny", "csv"): ("53fbf85fa55f678aa58811ab6a53d4e4ff0a5d40127192c00733ed783d263cf2", 65939),
    ("sweep40tiny", "svg"): ("60580a5ac8585b636c2baa75634ad267e24e18c7a9f6a22dee31ceed9c0dc41f", 56003),
}


@pytest.mark.parametrize("launch, fmt", sorted(GOLDEN_EXPORTS))
def test_exports_match_recorded_bytes(launch, fmt, tmp_path):
    """The same invocation writes the same bytes as the recorded version,
    not only as a second run of this one."""
    out = tmp_path / f"{launch}.{fmt}"
    assert run(*GOLDEN_LAUNCHES[launch], "--format", fmt, "--out", str(out)) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_EXPORTS[launch, fmt]


def event_rows(traj):
    """Each event's export values, led by its index, one list per event."""
    width = len(CSV_COLUMNS) + 2
    values = _event_rows(traj, 0, len(traj.events), width)
    return [values[i:i + width] for i in range(0, len(values), width)]


def json_by_dumps(traj) -> str:
    """The JSON export as ``json.dumps(doc, indent=2)`` writes it: the
    reference for the per-row template ``trajectory_json`` formats."""
    keys = (*CSV_COLUMNS, "u_pre", "w_pre")
    term = traj.termination
    doc = {
        "theta": traj.theta.theta,
        "energy": traj.energy,
        "termination": None
        if term is None
        else {"kind": term.kind.value, "t": term.t, "normal_speed": term.normal_speed},
        "initial": {name: getattr(traj.initial, name) for name in ("x", "y", "u", "w", "t")},
        "events": [dict(zip(keys, values)) for values in event_rows(traj)],
    }
    return json.dumps(doc, indent=2) + "\n"


class TestJsonTemplate:
    @pytest.fixture
    def dense(self):
        angle = WedgeAngle.from_degrees(60)
        return simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, 40)

    def test_random_launches(self, rng):
        for _ in range(5):
            angle = random_angle(rng)
            traj = simulate(random_launch(rng, angle), angle, 60)
            assert trajectory_json(traj) == json_by_dumps(traj)

    def test_empty_and_terminated(self):
        angle = critical_angle(OrbitSpec(2, 3))
        vertex = CartesianState(0.0, 0.0, angle.sin - angle.cos, angle.cos + angle.sin)
        empty, terminated = simulate(vertex, angle, 0), simulate(vertex, angle, 10)
        assert terminated.termination is not None
        for traj in (empty, terminated):
            assert trajectory_json(traj) == json_by_dumps(traj)

    @pytest.mark.parametrize("name", ["t", "x", "u", "w_pre"])
    def test_non_finite_values(self, dense, name):
        traj = with_values(dense, name, [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
        text = trajectory_json(traj)
        assert text == json_by_dumps(traj)
        assert "NaN" in text and "-Infinity" in text


def fmt(value: float) -> str:
    return f"{value:.17g}"


def csv_by_rows(traj) -> str:
    """The CSV export one row and one value at a time: the reference for
    the chunked row template ``trajectory_csv`` formats."""
    lines = [",".join(CSV_COLUMNS)]
    for index, t, wall, *floats in event_rows(traj):
        del floats[-2:]  # u_pre and w_pre are exported to JSON only
        lines.append(",".join([str(index), fmt(t), wall, *map(fmt, floats)]))
    return "\n".join(lines) + "\n"


def svg_by_points(traj) -> str:
    """The trajectory SVG one arc point at a time, in Python floats: the
    reference for the numpy arcs ``trajectory_svg`` formats in chunks."""
    sin_t, cos_t = traj.theta.sin, traj.theta.cos
    x_tilde_max, y_tilde_max = config_bounds(traj.energy, traj.theta)
    corners = [
        from_wedge(x_tilde, y_tilde, sin_t, cos_t)
        for x_tilde, y_tilde in (
            (0.0, 0.0), (x_tilde_max, 0.0), (0.0, y_tilde_max), (x_tilde_max, y_tilde_max)
        )
    ]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    margin = SVG_MARGIN_FRACTION * max(x_max - x_min, y_max - y_min)
    x_min -= margin
    x_max += margin
    y_min -= margin
    y_max += margin
    scale = SVG_WIDTH / (x_max - x_min)
    height = (y_max - y_min) * scale

    def to_svg(x: float, y: float) -> tuple[float, float]:
        return (x - x_min) * scale, (y_max - y) * scale

    body = []
    for end in corners[1:3]:
        (x1, y1), (x2, y2) = to_svg(*corners[0]), to_svg(*end)
        body.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    for duration, x0, y0, u0, w0 in flights(traj):
        points = []
        for i in range(_SVG_ARC_STEPS + 1):
            tau = duration * i / _SVG_ARC_STEPS
            x = x0 + u0 * tau
            y = y0 + w0 * tau - 0.5 * tau * tau
            sx, sy = to_svg(x, y)
            points.append(f"{sx:.3f},{sy:.3f}")
        body.append(
            f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
            f'points="{" ".join(points)}"/>'
        )
    label_x, label_y = to_svg(x_max - margin, y_min + margin)
    body.append(f'<text x="{label_x - 20:.1f}" y="{label_y:.1f}" font-size="14">x</text>')
    label_x, label_y = to_svg(x_min + margin, y_max - margin)
    body.append(f'<text x="{label_x:.1f}" y="{label_y + 20:.1f}" font-size="14">y</text>')
    return "".join(_svg_document(SVG_WIDTH, height, body))


def sweep_svg_by_points(points) -> str:
    """The sweep scatter one circle at a time: the reference for the
    chunked row template ``sweep_svg`` formats."""
    width, height = SVG_WIDTH, 480.0
    pad = 40.0
    u_range = max(max((abs(pt.u_bar) for pt in points), default=0.0), 1e-9) * 1.05

    def to_svg(theta_deg: float, u_bar: float) -> tuple[float, float]:
        sx = pad + (theta_deg / 90.0) * (width - 2 * pad)
        sy = pad + (1.0 - (u_bar + u_range) / (2.0 * u_range)) * (height - 2 * pad)
        return sx, sy

    body = [
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>'
    ]
    for pt in points:
        sx, sy = to_svg(math.degrees(pt.theta), pt.u_bar)
        body.append(f'<circle cx="{sx:.3f}" cy="{sy:.3f}" r="2" fill="#1f77b4"/>')
    body.append(
        f'<text x="{width / 2:.1f}" y="{height - 8:.1f}" font-size="14" '
        f'text-anchor="middle">theta (degrees)</text>'
    )
    body.append(
        f'<text x="12" y="{height / 2:.1f}" font-size="14" '
        f'transform="rotate(-90 12 {height / 2:.1f})" text-anchor="middle">u_bar</text>'
    )
    return "".join(_svg_document(width, height, body))


def sweep_csv_by_rows(points) -> str:
    """The sweep table one row and one value at a time: the reference for
    the chunked row template ``sweep_csv`` formats."""
    lines = ["p,q,theta_rad,theta_deg,u_bar"]
    for pt in points:
        lines.append(
            f"{pt.p},{pt.q},{fmt(pt.theta)},{fmt(math.degrees(pt.theta))},{fmt(pt.u_bar)}"
        )
    return "\n".join(lines) + "\n"


def assert_trajectory_exports_match(traj) -> None:
    assert trajectory_csv(traj) == csv_by_rows(traj)
    assert trajectory_json(traj) == json_by_dumps(traj)
    assert trajectory_svg(traj) == svg_by_points(traj)


def assert_sweep_exports_match(points) -> None:
    assert sweep_csv(points) == sweep_csv_by_rows(points)
    assert sweep_svg(points) == sweep_svg_by_points(points)


def dense60(n_events: int) -> Trajectory:
    angle = WedgeAngle.from_degrees(60)
    return simulate(launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle), angle, n_events)


class TestChunkedExports:
    def test_seed977_random_launches(self):
        rng = np.random.default_rng(977)
        for _ in range(20):
            angle = random_angle(rng)
            assert_trajectory_exports_match(simulate(random_launch(rng, angle), angle, 200))

    @pytest.mark.parametrize("energy", [1e-6, 1.0, 1e6, 1e290])
    def test_periodic_orbits(self, energy):
        for p, q in coprime_pairs(8):
            traj = build_periodic_orbit(OrbitSpec(p, q, energy), n_collisions=2 * (p + q))
            assert_trajectory_exports_match(traj)

    def test_one_event_and_empty_runs(self):
        for traj in (dense60(1), dense60(0), build_periodic_orbit(OrbitSpec(2, 3), 1)):
            assert_trajectory_exports_match(traj)

    def test_event_views(self):
        traj = dense60(3 * _CHUNK_ARCS)
        for view in (traj.events[::-1], traj.events[::3], traj.events[_CHUNK_ARCS - 1:]):
            assert_trajectory_exports_match(dataclasses.replace(traj, events=view))

    @pytest.mark.parametrize("chunk", [_CHUNK_ARCS, _CHUNK_ROWS])
    def test_chunk_boundaries(self, chunk):
        traj = dense60(2 * chunk + 1)
        for n_events in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
            assert_trajectory_exports_match(dataclasses.replace(traj, events=traj.events[:n_events]))
        points = sweep_periodic_points(45, 45)
        assert len(points) > 2 * chunk + 1
        for count in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
            assert_sweep_exports_match(points[:count])

    @pytest.mark.parametrize("name", ["t", "x", "y", "u", "w", "u_pre", "w_pre"])
    def test_non_finite_and_extreme_values(self, name):
        extremes = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
        dense = dense60(_CHUNK_ARCS + 8)
        # in the first chunk of arcs, and again at the start of the second
        head = dense.events.column(name)[:_CHUNK_ARCS].tolist()
        for values in (extremes, head + extremes):
            assert_trajectory_exports_match(with_values(dense, name, values))

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("energy", [1e-9, 1.0, 1e200])
    def test_sweeps(self, half, energy):
        for limit in (1, 2, 8, 25):
            assert_sweep_exports_match(sweep_periodic_points(limit, limit, energy, half=half))


def numpy_event_rows(traj, lo: int, hi: int) -> tuple:
    """Events ``lo`` to ``hi - 1`` of the JSON export worked out in numpy
    from ``events.column`` and ``collision_frame``: their indices, wall
    names and a row of 14 floats per event.  The reference for the Python
    floats of ``_event_rows``."""
    events = traj.events[lo:hi]
    sin_t, cos_t = traj.theta.sin, traj.theta.cos
    t, x, y, u, w, u_pre, w_pre = (
        events.column(name) for name in ("t", "x", "y", "u", "w", "u_pre", "w_pre")
    )
    u_bar, w_bar = collision_frame(events.column("wall"), u, w, traj.theta)
    x_tilde, y_tilde = to_wedge(x, y, sin_t, cos_t)
    hx, hy = wedge_energies(x_tilde, y_tilde, *to_wedge(u, w, sin_t, cos_t), sin_t, cos_t)
    energy = (u * u + w * w) / 2.0 + y
    floats = np.stack(
        (t, x, y, u, w, u_bar, w_bar, x_tilde, y_tilde, energy, hx, hy, u_pre, w_pre), axis=1
    )
    walls = [WALLS[code].value for code in events.column("wall").tolist()]
    return list(range(lo, hi)), walls, floats


def row_trajectories():
    """Both engines' runs of 20 seed-977 launches, of every edge launch and
    of the (1, 2) and (3, 5) orbits from 1e-9 to 1e299, reversed and
    strided views, and values a run does not make."""
    launches = list(edge_launches().values())
    rng = np.random.default_rng(977)
    for _ in range(20):
        angle = random_angle(rng)
        launches.append((random_launch(rng, angle), angle))
    for p, q in ((1, 2), (3, 5)):
        for energy in (1e-9, 1.0, 1e299):
            launches.append(_periodic_launch(OrbitSpec(p, q, energy), 0.0))
    trajectories = [
        engine(initial, angle, 300)
        for initial, angle in launches
        for engine in (simulate, decoupled_simulate)
    ]
    dense = dense60(_CHUNK_ROWS + 8)
    for view in (dense.events[::-1], dense.events[::3]):
        trajectories.append(dataclasses.replace(dense, events=view))
    for name in ("t", "x", "y", "u", "w", "u_pre", "w_pre"):
        extremes = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16]
        trajectories.append(with_values(dense, name, extremes))
    return trajectories


def split_rows(rows: list, width: int) -> tuple:
    """Flat rows of ``width`` values as their indices, their wall names and
    the bit patterns of their floats, one column after another."""
    floats = [v for k in range(1, width) if k != 2 for v in rows[k::width]]
    assert all(type(v) is float for v in floats)
    return rows[0::width], rows[2::width], bits(floats).tolist()


def test_event_rows_are_the_numpy_columns_bit_for_bit():
    wide, narrow = len(CSV_COLUMNS) + 2, len(CSV_COLUMNS)
    short_chunks = 0
    for traj in row_trajectories():
        n = len(traj.events)
        # the chunks the exports ask for: from lo > 0, and a last one shorter
        # than _CHUNK_ROWS when n is not a multiple of it
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            indices, walls, floats = numpy_event_rows(traj, lo, hi)
            expected = indices, walls, bits(floats.T.ravel()).tolist()
            assert split_rows(_event_rows(traj, lo, hi, wide), wide) == expected
            expected = indices, walls, bits(floats[:, :narrow - 2].T.ravel()).tolist()
            assert split_rows(_event_rows(traj, lo, hi, narrow), narrow) == expected
            short_chunks += lo > 0 and hi - lo < _CHUNK_ROWS
    assert short_chunks > 0


def traced_peak(render, data) -> int:
    render(data)  # leaves out what only a first call allocates
    tracemalloc.start()
    try:
        render(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def renderers(size: int):
    """(chunked renderer, its reference, input of ``size`` rows) per export."""
    traj = dense60(size)
    points = sweep_periodic_points(100, 100)[:size]
    assert len(points) == size
    return [
        (trajectory_svg, svg_by_points, traj),
        (trajectory_csv, csv_by_rows, traj),
        (trajectory_json, json_by_dumps, traj),
        (sweep_svg, sweep_svg_by_points, points),
        (sweep_csv, sweep_csv_by_rows, points),
    ]


@pytest.mark.parametrize("size", [500, 5000])
def test_chunked_exports_peak_no_higher_than_references(size):
    for render, reference, data in renderers(size):
        assert traced_peak(render, data) <= traced_peak(reference, data), render.__name__


def test_chunked_exports_working_set_does_not_grow():
    # beyond the text itself, held twice (as chunks, then joined), a chunked
    # export needs a working set of one chunk, whatever the row count
    def working_set(render, data) -> int:
        return traced_peak(render, data) - 2 * len(render(data))

    for (render, _, small), (_, _, large) in zip(renderers(500), renderers(5000)):
        assert working_set(render, large) <= working_set(render, small) + 32 * 1024, render.__name__


def test_degrees_constant_is_math_degrees_bit_for_bit():
    thetas = [pt.theta for pt in sweep_periodic_points(150, 150)]
    assert bits([theta * _RAD_TO_DEG for theta in thetas]).tolist() == bits(
        [math.degrees(theta) for theta in thetas]
    ).tolist()


class TestWrittenInChunks:
    """Exports and plots are written to their files a chunk at a time."""

    def test_files_are_the_joined_exports(self, tmp_path):
        traj = dense60(2 * _CHUNK_ROWS + 1)
        renders = {
            OutputFormat.CSV: trajectory_csv,
            OutputFormat.JSON: trajectory_json,
            OutputFormat.SVG: trajectory_svg,
        }
        for fmt, render in renders.items():
            path = tmp_path / f"traj.{fmt.value}"
            export_trajectory(traj, fmt, str(path))
            assert path.read_text() == render(traj)
        points = sweep_periodic_points(25, 25)
        for data, render in ((traj, trajectory_svg), (points, sweep_svg)):
            path = tmp_path / "plot.svg"
            render_plot(data, str(path))
            assert path.read_text() == render(data)

    def test_plot_peaks_below_its_file_size(self, tmp_path):
        path = tmp_path / "dense.svg"
        traj = dense60(5000)
        render_plot(traj, str(path))  # leaves out what only a first call allocates
        tracemalloc.start()
        try:
            render_plot(traj, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_plot_failing_up_front_leaves_no_file(self, tmp_path):
        # a launch at rest at the vertex has no energy, so no box to draw
        traj = dataclasses.replace(dense60(3), initial=CartesianState(0.0, 0.0, 0.0, 0.0))
        path = tmp_path / "traj.svg"
        with pytest.raises(ValueError, match="energy must be positive"):
            render_plot(traj, str(path))
        assert not path.exists()


class TestPeriodicCommand:
    def test_svg_arc_count_is_one_per_collision(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert run("periodic", "--p", "1", "--q", "2", "--out", str(out)) == 0
        root = ET.fromstring(out.read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3

    def test_multiple_periods(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert run(
            "periodic", "--p", "1", "--q", "2", "--periods", "4", "--out", str(out)
        ) == 0
        root = ET.fromstring(out.read_text())
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 12

    def test_csv_output(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert run("periodic", "--p", "2", "--q", "3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        walls = [line.split(",")[2] for line in lines[1:]]
        assert walls.count("A") == 2 and walls.count("B") == 3

    def test_non_coprime_rejected(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert run("periodic", "--p", "2", "--q", "4", "--out", str(out)) == 2

    def test_large_energy(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert run("periodic", "--p", "3", "--q", "5", "--energy", "1e6", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 9

    def test_energy_above_the_limit_is_a_usage_error(self, tmp_path, capsys):
        assert_usage_error("periodic", "--energy", "1e308", tmp_path, capsys)


class TestSweepCommand:
    def test_csv_rows_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sweep", "--max", "10", "--out", str(a)) == 0
        assert run("sweep", "--max", "10", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        n_coprime = sum(
            1
            for p in range(1, 11)
            for q in range(1, 11)
            if math.gcd(p, q) == 1
        )
        assert len(lines) == n_coprime + 1
        thetas = [float(line.split(",")[3]) for line in lines[1:]]
        assert thetas == sorted(thetas)

    def test_half_restricts_to_lower_angles(self, tmp_path):
        out = tmp_path / "half.csv"
        assert run("sweep", "--max", "10", "--half", "--out", str(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) < 45.0

    def test_svg_scatter(self, tmp_path):
        out = tmp_path / "sweep.svg"
        assert run("sweep", "--max", "6", "--format", "svg", "--out", str(out)) == 0
        root = ET.fromstring(out.read_text())
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        n_coprime = sum(
            1 for p in range(1, 7) for q in range(1, 7) if math.gcd(p, q) == 1
        )
        assert len(circles) == n_coprime

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_empty_sweep(self, fmt, tmp_path):
        # no coprime q > p up to 1: the header alone, or the empty frame
        out = tmp_path / f"empty.{fmt}"
        assert run("sweep", "--max", "1", "--half", "--out", str(out)) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text == "p,q,theta_rad,theta_deg,u_bar\n"
        else:
            root = ET.fromstring(text)
            assert root.findall(".//{http://www.w3.org/2000/svg}rect")
            assert not root.findall(".//{http://www.w3.org/2000/svg}circle")

    @pytest.mark.parametrize(
        "name, extra", [("s.json", ()), ("s.csv", ("--format", "json"))]
    )
    def test_json_rejected(self, name, extra, tmp_path, capsys):
        out = tmp_path / name
        assert run("sweep", "--max", "3", "--out", str(out), *extra) == 2
        assert "not JSON" in capsys.readouterr().err
        assert not out.exists()


class TestClassifyCommand:
    # the whole line each verdict prints at the default tolerance
    def test_dense_launch(self, capsys):
        assert run(*("classify",) + SIMULATE_ARGS[1:], "--n", "2000") == 0
        assert capsys.readouterr().out == (
            "dense (no recurrence within horizon; not a proof of density)\n"
        )

    def test_periodic_launch(self, capsys):
        # seed of the (1, 2) orbit: s chosen so the total energy is 1
        assert run(
            "classify",
            "--p", "1",
            "--q", "2",
            "--wall", "A",
            "--s", str(2 * math.sqrt(5) / 9),
            "--u-bar", str(1 / 3),
            "--w-bar", "1",
            "--n", "60",
        ) == 0
        assert capsys.readouterr().out == "periodic period=3 hits_a=1 hits_b=2\n"

    def test_sliding_launch(self, capsys):
        assert run(
            "classify",
            "--theta-deg", "50",
            "--wall", "A",
            "--s", "1",
            "--u-bar", "0.4",
            "--w-bar", "0",
            "--n", "100",
        ) == 0
        assert capsys.readouterr().out == "sliding\n"

    def test_vertex_hit_launch(self, capsys):
        assert run(
            "classify", "--theta-deg", "45", "--x", "0", "--y", "1", "--u", "0", "--w", "0",
        ) == 0
        assert capsys.readouterr().out == "degenerate (vertex_hit)\n"

    def test_grazing_launch_is_sliding_below_its_normal_speed(self, capsys):
        # normal momentum below the engine's grazing threshold, and above
        # the tolerance
        assert run(
            "classify",
            "--theta-deg", "50",
            "--wall", "A",
            "--s", "1",
            "--u-bar", "0.4",
            "--w-bar", "5e-11",
            "--tol", "1e-12",
        ) == 0
        assert capsys.readouterr().out == "sliding\n"


# Each command's stdout, recorded byte for byte at commit 218b3c1.  At 60
# degrees the GB fixed point differs from FB's in its last digits: the two
# formulas round differently.
RECORDED_STDOUT = {
    ("classify", "--theta-deg", "37", "--wall", "B", "--s", "0.8", "--u-bar", "0.3",
     "--w-bar", "0.9", "--n", "3000", "--tol", "1e-3"):
        b"dense (no recurrence within horizon; not a proof of density)\n",
    ("classify", "--p", "3", "--q", "5", "--wall", "A", "--s", "0.5466517401417469",
     "--u-bar", "0.25", "--w-bar", "1", "--n", "80"):
        b"periodic period=8 hits_a=3 hits_b=5\n",
    # from wall B: a near return within tol 5e-2
    ("classify", "--p", "3", "--q", "5", "--wall", "B", "--s", "0.7", "--u-bar", "0.2",
     "--w-bar", "0.6", "--n", "400", "--tol", "5e-2"):
        b"periodic period=154 hits_a=45 hits_b=109\n",
    ("classify", "--p", "2", "--q", "3", "--x", "0", "--y", "0", "--u", "-0.2773500981126147",
     "--w", "1.3867504905630728", "--n", "100"):
        b"degenerate (vertex_hit)\n",
    ("fixed-points", "--theta-deg", "30"):
        b"FB: u_bar=0.26794919243112281 w_bar=1\nGB: u_bar=0.26794919243112281 w_bar=1\n",
    ("fixed-points", "--theta-deg", "30", "--energy", "1e6"):
        b"FB: u_bar=267.94919243112281 w_bar=1000\nGB: u_bar=267.94919243112281 w_bar=1000\n",
    ("fixed-points", "--theta-deg", "60"):
        b"FB: u_bar=-0.26794919243112258 w_bar=1\nGB: u_bar=-0.26794919243112253 w_bar=1\n",
    ("fixed-points", "--theta-deg", "60", "--energy", "1e6"):
        b"FB: u_bar=-267.94919243112258 w_bar=1000\nGB: u_bar=-267.94919243112253 w_bar=1000\n",
}


@pytest.mark.parametrize("argv", list(RECORDED_STDOUT), ids=" ".join)
def test_stdout_matches_recorded_bytes(argv, capsys):
    assert run(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("ascii") == RECORDED_STDOUT[argv]
    assert captured.err == ""


class TestFixedPointsCommand:
    def test_values_at_30_degrees(self, capsys):
        assert run("fixed-points", "--theta-deg", "30") == 0
        out = capsys.readouterr().out
        angle = WedgeAngle.from_degrees(30)
        tan_t = angle.sin / angle.cos
        expected = (1 - tan_t) / (1 + tan_t)
        assert "FB:" in out and "GB:" in out
        for line in out.splitlines():
            u_bar = float(line.split("u_bar=")[1].split()[0])
            assert u_bar == pytest.approx(expected, abs=1e-12)


class TestErrorPaths:
    def test_angle_and_pq_together_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--theta-deg", "60", "--p", "1", "--q", "2",
            "--wall", "A", "--s", "1", "--u-bar", "0", "--w-bar", "1",
            "--out", str(out),
        ) == 2

    def test_missing_launch_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("simulate", "--theta-deg", "60", "--out", str(out)) == 2

    def test_both_launch_forms_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--theta-deg", "60",
            "--wall", "A", "--s", "1", "--u-bar", "0", "--w-bar", "1",
            "--x", "0", "--y", "1", "--u", "0", "--w", "0",
            "--out", str(out),
        ) == 2

    def test_launch_outside_region_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--theta-deg", "45",
            "--x", "1", "--y", "0", "--u", "0", "--w", "0",
            "--out", str(out),
        ) == 2

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_launch_leaving_through_the_vertex_rejected(self, command, tmp_path, capsys):
        # sits at the vertex, inside the boundary tolerance, and moves out
        # through wall B
        code = run(
            command, "--theta-deg", "40",
            "--x=1.232568334324387e-13", "--y=-1.4088320528055173e-12",
            "--u=-0.6427876104525837", "--w=-0.7660444424761904",
            "--n", "5", *(("--out", str(tmp_path / "t.csv")) if command == "simulate" else ()),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_early_termination_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(
            "simulate", "--theta-deg", "45",
            "--x", "0", "--y", "1", "--u", "0", "--w", "0",
            "--n", "5", "--out", str(out),
        )
        assert code == 3
        assert out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_stop_before_the_first_event_writes_every_format(self, fmt, tmp_path, capsys):
        # leaves the vertex straight up and falls back into it
        out = tmp_path / f"empty.{fmt}"
        code = run(
            "simulate", "--theta-deg", "60",
            "--x", "0", "--y", "0", "--u", "0", "--w", "1",
            "--n", "5", "--out", str(out),
        )
        assert code == 3
        assert "ended early after 0 of 5 collisions" in capsys.readouterr().err
        assert out.exists()
        if fmt == "svg":
            # the walls alone
            root = ET.fromstring(out.read_text())
            assert not root.findall(".//{http://www.w3.org/2000/svg}polyline")
            assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 2

    def test_unwritable_path_exit_code(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        assert run(*SIMULATE_ARGS, "--n", "5", "--out", str(out)) == 4

    def test_bad_angle_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--theta-deg", "95",
            "--wall", "A", "--s", "1", "--u-bar", "0", "--w-bar", "1",
            "--out", str(out),
        ) == 2


THETA_FORM = ("--theta-deg", "45")
PQ_FORM = ("--p", "1", "--q", "2")
WALL_FORM = ("--wall", "A", "--s", "1", "--u-bar", "0", "--w-bar", "1")
CARTESIAN_FORM = ("--x", "0", "--y", "1", "--u", "0.3", "--w", "0")


@pytest.mark.parametrize(
    "options",
    [
        pytest.param(
            (*THETA_FORM, *CARTESIAN_FORM, "--s", "5", "--u-bar", "3"),
            id="partial-wall-beside-cartesian",
        ),
        pytest.param((*THETA_FORM, *WALL_FORM[2:]), id="wall-form-without-wall"),
        pytest.param(("--p", "1", *WALL_FORM), id="p-without-q"),
        pytest.param((*THETA_FORM, "--q", "2", *WALL_FORM), id="theta-with-q"),
        pytest.param((*THETA_FORM, *CARTESIAN_FORM[:6]), id="incomplete-cartesian"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_option_group_without_one_complete_form_is_a_usage_error(
    command, options, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    argv = (command, *options, *(("--out", str(out)) if command == "simulate" else ()))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("angle", [THETA_FORM, PQ_FORM], ids=["theta", "pq"])
@pytest.mark.parametrize("launch", [WALL_FORM, CARTESIAN_FORM], ids=["wall", "cartesian"])
def test_each_complete_form_is_accepted(angle, launch, tmp_path):
    out = tmp_path / "x.csv"
    assert run("simulate", *angle, *launch, "--n", "5", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 6


def test_render_plot_dispatches_on_data(tmp_path):
    from wedge_billiard import OrbitSpec, build_periodic_orbit, sweep_periodic_points
    from wedge_billiard.cli import render_plot

    orbit_path = tmp_path / "orbit.svg"
    render_plot(build_periodic_orbit(OrbitSpec(1, 3)), str(orbit_path))
    assert len(ET.fromstring(orbit_path.read_text()).findall(
        ".//{http://www.w3.org/2000/svg}polyline")) == 4

    sweep_path = tmp_path / "sweep.svg"
    render_plot(sweep_periodic_points(5, 5), str(sweep_path))
    assert ET.fromstring(sweep_path.read_text()).findall(
        ".//{http://www.w3.org/2000/svg}circle")


def test_console_entry_point_help():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_launch_state_energy_inferred():
    # the wall-relative launch at s=1, unit normal momentum has E = 1/2 + cos(theta)
    from wedge_billiard import Wall, launch_from_wall

    angle = WedgeAngle.from_degrees(60)
    state = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    assert hamiltonian(state) == pytest.approx(1.0)


def typed_options(kind: type):
    """(subcommand, option) for every option of the parser of the given type."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, subparser in commands.choices.items()
        for action in subparser._actions
        if action.type is kind
    ]


WALL_LAUNCH = {"--theta-deg": "60", "--wall": "A", "--s": "1", "--u-bar": "0", "--w-bar": "1"}
CARTESIAN_LAUNCH = {"--theta-deg": "45", "--x": "0", "--y": "1", "--u": "0.3", "--w": "0"}
VALID_ARGS = {
    "simulate": {"--n": "20", "--out": "{out}"},
    "classify": {"--n": "100"},
    "periodic": {"--p": "1", "--q": "2", "--out": "{out}"},
    "sweep": {"--max": "3", "--out": "{out}"},
    "fixed-points": {"--theta-deg": "60"},
}


def invocation(command, option, value, tmp_path):
    """argv of a valid invocation of ``command`` with ``option`` set to ``value``."""
    args = dict(VALID_ARGS[command])
    if command in ("simulate", "classify"):
        launch = CARTESIAN_LAUNCH if option in CARTESIAN_LAUNCH else WALL_LAUNCH
        args = {**launch, **args}
        if option in ("--p", "--q"):
            del args["--theta-deg"]
            args.update({"--p": "1", "--q": "2"})
    args[option] = value
    # "--s=-inf" keeps argparse from reading the value as an option
    return [command] + [f"{k}={v.format(out=tmp_path / 'out.csv')}" for k, v in args.items()]


def assert_usage_error(command, option, value, tmp_path, capsys):
    """A valid invocation with ``option`` set to ``value`` exits 2 with an
    ``error:`` line and no traceback."""
    assert main(invocation(command, option, value, tmp_path)) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", typed_options(float))
def test_non_finite_float_option_is_a_usage_error(command, option, value, tmp_path, capsys):
    assert_usage_error(command, option, value, tmp_path, capsys)


@pytest.mark.parametrize(
    "command, option, value",
    [
        (command, option, value)
        for command, option in typed_options(int)
        for value in ("-1", "0")
        if value == "-1" or option in ("--p", "--q", "--periods", "--max")
    ],
)
def test_out_of_range_int_option_is_a_usage_error(command, option, value, tmp_path, capsys):
    assert_usage_error(command, option, value, tmp_path, capsys)


@pytest.mark.parametrize("value", ["1e308", "-1e308", "5e-324"])
@pytest.mark.parametrize("command, option", typed_options(float))
def test_huge_or_tiny_float_option_exits_cleanly(command, option, value, tmp_path, capsys):
    # finite extremes: the run may go through, be refused or end early, but
    # never with a traceback
    code = main(invocation(command, option, value, tmp_path))
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


# Run in a fresh interpreter: with no arguments it imports the package,
# else it runs the command line.  Prints the exit code and whether numpy
# was loaded, on its last line of output.
NUMPY_PROBE = """
import sys
import wedge_billiard
code = 0
if sys.argv[1:]:
    from wedge_billiard import cli
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def loads_numpy(argv: tuple[str, ...], cwd: Path) -> bool:
    src = str(Path(wedge_billiard.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return loaded == "True"


@pytest.mark.parametrize(
    "argv, loads",
    [
        ((), False),
        ((*SIMULATE_ARGS, "--out", "x.csv"), False),
        ((*SIMULATE_ARGS, "--out", "x.json"), False),
        (("periodic", "--p", "2", "--q", "3", "--out", "x.csv"), False),
        (("fixed-points", "--theta-deg", "50"), False),
        (("sweep", "--max", "5", "--out", "x.csv"), False),
        # the positive controls: the probe sees numpy where it is used
        (("classify", *SIMULATE_ARGS[1:], "--n", "50"), True),
        ((*SIMULATE_ARGS, "--out", "x.svg"), True),
    ],
    ids=lambda v: (" ".join(v) or "import wedge_billiard") if isinstance(v, tuple) else None,
)
def test_which_commands_load_numpy(argv, loads, tmp_path):
    assert loads_numpy(argv, tmp_path) is loads


def test_classify_checks_tol_before_simulating(monkeypatch, capsys):
    from wedge_billiard import cli

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --tol")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    code = run(*("classify",) + SIMULATE_ARGS[1:], "--n", "1000000", "--tol=-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tolerance" in err
