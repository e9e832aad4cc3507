import argparse
import dataclasses
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from array import array

import pytest

from wedge_billiard import (
    CartesianState,
    OrbitSpec,
    Trajectory,
    Wall,
    WedgeAngle,
    critical_angle,
    hamiltonian,
    launch_from_wall,
    simulate,
)
from wedge_billiard.cli import (
    CSV_COLUMNS,
    _event_values,
    build_parser,
    main,
    read_trajectory_json,
    trajectory_json,
)
from wedge_billiard.dynamics import EventColumns, EventSequence

from conftest import random_angle, random_launch


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
        loaded = read_trajectory_json(str(out))
        assert loaded.theta.theta == expected.theta.theta
        assert loaded.energy == expected.energy
        assert loaded.initial == expected.initial
        assert len(loaded.events) == len(expected.events)
        for got, want in zip(loaded.events, expected.events):
            assert got.wall is want.wall
            assert got.t == want.t
            assert got.pre == want.pre
            assert got.post == want.post
            assert got.rotating_post == want.rotating_post
        assert loaded.wedge_integrals == expected.wedge_integrals

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

    def test_seed_variable_is_ignored(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(a)) == 0
        monkeypatch.setenv("WEDGE_SEED", "12345")
        assert run(*SIMULATE_ARGS, "--n", "10", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


# The paper's 60-degree launch and the first launch the acceptance suite
# draws from seed 977, each 200 collisions.
GOLDEN_LAUNCHES = {
    "dense60": SIMULATE_ARGS + ("--n", "200"),
    "seed977": (
        "simulate", "--theta-deg", "51.54807695875984", "--wall", "B",
        "--s", "0.7889605216983491", "--u-bar", "0.7499209292109801",
        "--w-bar", "1.4013097017164222", "--n", "200",
    ),
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
}


@pytest.mark.parametrize("launch, fmt", sorted(GOLDEN_EXPORTS))
def test_exports_match_recorded_bytes(launch, fmt, tmp_path):
    """The same invocation writes the same bytes as the recorded version,
    not only as a second run of this one."""
    out = tmp_path / f"{launch}.{fmt}"
    assert run(*GOLDEN_LAUNCHES[launch], "--format", fmt, "--out", str(out)) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_EXPORTS[launch, fmt]


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
        "events": [dict(zip(keys, values)) for values in _event_values(traj)],
    }
    return json.dumps(doc, indent=2) + "\n"


def with_values(traj, name: str, values) -> Trajectory:
    """``traj`` with column ``name`` of its first events set to ``values``."""
    columns = EventColumns(traj.theta)
    for field in ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w"):
        getattr(columns, field).extend(traj.events.column(field).tolist())
    getattr(columns, name)[: len(values)] = array("d", values)
    return dataclasses.replace(traj, events=EventSequence(columns))


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


class TestClassifyCommand:
    def test_dense_launch(self, capsys):
        assert run(*("classify",) + SIMULATE_ARGS[1:], "--n", "2000") == 0
        assert "dense" in capsys.readouterr().out

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
        out = capsys.readouterr().out
        assert "periodic" in out and "period=3" in out

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
        assert "sliding" in capsys.readouterr().out


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


def test_classify_checks_tol_before_simulating(monkeypatch, capsys):
    from wedge_billiard import cli

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --tol")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    code = run(*("classify",) + SIMULATE_ARGS[1:], "--n", "1000000", "--tol=-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tolerance" in err
