"""Seeded inputs and task lists of the three benchmark workloads.

Every workload is a closed loop with one client: its tasks run one after the
other, each starting when the previous one (and its output check) is done.
A task's ``run`` is the timed work and holds every call into the package;
its ``check`` reads the outputs afterwards, outside the timed region.

* ``long_dense``: a few acceptance-style random launches, each simulated for
  a long trajectory, then classified.  ``dynamics.simulate`` dominates.
* ``ensemble_short``: hundreds of 200-event analyses (simulate, the decoupled
  oracle, a map replay over every event pair, classification), the coprime
  (p, q) <= 8 periodic orbits and the sensitivity probes.  Per-call fixed
  costs and the oracle and map layers dominate.
* ``figures``: the paper's pictures and tables through the CLI's export and
  rendering functions, plus coverage at growing horizons.  Export formatting
  and coverage rasterization dominate; dynamics are a few percent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wedge_billiard import (
    CartesianState,
    MapState,
    OrbitKind,
    OrbitSpec,
    Wall,
    WedgeAngle,
    apply_map,
    build_periodic_orbit,
    classify_orbit,
    coverage_fraction,
    decoupled_simulate,
    launch_from_wall,
    map_id_for,
    periodic_initial_condition,
    sensitivity_probe,
    simulate,
    sweep_periodic_points,
)
from wedge_billiard import cli

import checks
from tracing import NullTracer, Tracer


# criterion 09's pairs and criterion 02's figure pairs
SENSITIVITY_PAIRS = ((1, 2), (2, 3), (1, 1))
SENSITIVITY_EPS = (0.0, 1e-3)
FIGURE_PAIRS = ((1, 2), (1, 3), (3, 1), (2, 3), (2, 5))
FIGURE_DEGREES = 60.0
FIGURE_JITTER = 0.1
# events of the `wedge simulate` command timed as a cold CLI call
CLI_EVENTS = 50


@dataclass(frozen=True)
class Size:
    """How much work one round of each workload does."""

    long_launches: int
    long_events: int
    ensemble_launches: int
    ensemble_events: int
    orbit_max: int
    orbit_periods: int
    sensitivity_collisions: int
    figure_periods: int
    dense_events: int
    horizons: tuple[int, ...]
    grid: tuple[int, int]
    sweep_max: int
    setup_repeats: int
    cli_repeats: int


SIZES = {
    "full": Size(
        long_launches=8,
        long_events=10_000,
        ensemble_launches=200,
        ensemble_events=200,
        orbit_max=8,
        orbit_periods=4,
        sensitivity_collisions=1000,
        figure_periods=3,
        dense_events=500,
        horizons=(125, 250, 375, 500),
        grid=(64, 64),
        sweep_max=150,
        setup_repeats=21,
        cli_repeats=25,
    ),
    # for the benchmark's own tests
    "tiny": Size(
        long_launches=2,
        long_events=300,
        ensemble_launches=3,
        ensemble_events=50,
        orbit_max=2,
        orbit_periods=2,
        sensitivity_collisions=100,
        figure_periods=1,
        dense_events=40,
        horizons=(10, 20, 40),
        grid=(16, 16),
        sweep_max=12,
        setup_repeats=1,
        cli_repeats=1,
    ),
}


@dataclass(frozen=True)
class Checked:
    """What a task's output check found."""

    events: int = 0
    failures: tuple[str, ...] = ()
    drift: float = 0.0


@dataclass(frozen=True)
class Task:
    task_id: str
    run: Callable[[NullTracer | Tracer], object]
    check: Callable[[object], Checked]


@dataclass(frozen=True)
class Workload:
    """A workload's tasks, in the order one round runs them.

    ``probe`` is the workload's first ``simulate`` input (launch, angle,
    events), used by the traced run's per-call measurements.  ``cli_argv``
    is a ``wedge simulate`` command on the workload's own launch, without
    ``--out``.  With ``hold_outputs`` a round keeps every task's output
    alive until it ends, so that the outputs' memory shows in the peak RSS.
    """

    tasks: tuple[Task, ...]
    probe: tuple[CartesianState, WedgeAngle, int]
    cli_argv: tuple[str, ...]
    hold_outputs: bool = False


# ---------------------------------------------------------------------------
# Inputs


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(1, limit + 1)
        for q in range(1, limit + 1)
        if math.gcd(p, q) == 1
    ]


def random_angle(rng: np.random.Generator) -> WedgeAngle:
    """Acceptance-style angle, away from the degenerate ends."""
    return WedgeAngle(float(rng.uniform(0.15, math.pi / 2 - 0.15)))


def random_wall_launch(rng: np.random.Generator) -> tuple[Wall, float, float, float]:
    """Acceptance-style wall-relative launch (wall, s, u_bar, w_bar)."""
    wall = Wall.A if rng.random() < 0.5 else Wall.B
    return (
        wall,
        float(rng.uniform(0.3, 1.5)),
        float(rng.uniform(-1.2, 1.2)),
        float(rng.uniform(0.1, 1.5)),
    )


def simulate_argv(
    degrees: float, launch: tuple[Wall, float, float, float], n: int
) -> tuple[str, ...]:
    wall, s, u_bar, w_bar = launch
    return (
        "simulate", "--theta-deg", repr(degrees), "--wall", wall.value,
        "--s", repr(s), "--u-bar", repr(u_bar), "--w-bar", repr(w_bar), "--n", str(n),
    )


def _random_launches(rng: np.random.Generator, count: int):
    """``count`` (angle, wall launch, lab state) triples."""
    out = []
    for _ in range(count):
        angle = random_angle(rng)
        wall_launch = random_wall_launch(rng)
        out.append((angle, wall_launch, launch_from_wall(*wall_launch, angle)))
    return out


# ---------------------------------------------------------------------------
# Tasks


def _count_simulate(tr, traj, layer: str = "dynamics.simulate") -> None:
    tr.count(layer, "events", len(traj.events))
    if traj.termination is not None:
        tr.count(layer, "terminated")


def _classify(tr, traj):
    with tr.span("orbits.classify_orbit"):
        verdict = classify_orbit(traj)
    tr.count("orbits.classify_orbit", "events", len(traj.events))
    return verdict


def _long_task(task_id: str, launch: CartesianState, angle: WedgeAngle, n: int) -> Task:
    def run(tr):
        with tr.span("dynamics.simulate"):
            traj = simulate(launch, angle, n)
        _count_simulate(tr, traj)
        return traj, _classify(tr, traj)

    def check(out) -> Checked:
        traj, verdict = out
        drift = checks.conservation_drift(traj)
        return Checked(
            len(traj.events),
            (
                *checks.drift_failures(drift),
                *checks.length_failures(traj, n),
                *checks.verdict_failures(verdict, OrbitKind.DENSE),
            ),
            drift,
        )

    return Task(task_id, run, check)


def replay_maps(traj) -> list[MapState]:
    """Apply the matching collision map to every event's outgoing momentum."""
    events, angle, energy = traj.events, traj.theta, traj.energy
    return [
        apply_map(
            map_id_for(prev.wall, event.wall),
            MapState(prev.rotating_post.u_bar, prev.rotating_post.w_bar, energy),
            angle,
        )
        for prev, event in zip(events, events[1:])
    ]


def _ensemble_task(task_id: str, launch: CartesianState, angle: WedgeAngle, n: int) -> Task:
    def run(tr):
        with tr.span("dynamics.simulate"):
            traj = simulate(launch, angle, n)
        _count_simulate(tr, traj)
        with tr.span("dynamics.decoupled_simulate"):
            oracle = decoupled_simulate(launch, angle, n)
        _count_simulate(tr, oracle, "dynamics.decoupled_simulate")
        # the span covers building each pair's map state, as the replay must
        with tr.span("collision_maps.apply_map", calls=max(len(traj.events) - 1, 0)):
            replayed = replay_maps(traj)
        return traj, oracle, replayed, _classify(tr, traj)

    def check(out) -> Checked:
        traj, oracle, replayed, verdict = out
        drift = checks.conservation_drift(traj)
        return Checked(
            len(traj.events) + len(oracle.events),
            (
                *checks.drift_failures(drift),
                *checks.length_failures(traj, n),
                *checks.oracle_failures(traj, oracle),
                *checks.map_replay_failures(traj, replayed),
                *checks.verdict_failures(verdict, OrbitKind.DENSE),
            ),
            drift,
        )

    return Task(task_id, run, check)


def _orbit_task(p: int, q: int, periods: int) -> Task:
    spec = OrbitSpec(p, q, 1.0)
    seed = periodic_initial_condition(spec)
    n = spec.period * periods

    def run(tr):
        with tr.span("orbits.build_periodic_orbit"):
            traj = build_periodic_orbit(spec, n)
        tr.count("orbits.build_periodic_orbit", "events", len(traj.events))
        return traj, _classify(tr, traj)

    def check(out) -> Checked:
        traj, verdict = out
        drift = checks.conservation_drift(traj)
        return Checked(
            len(traj.events),
            (
                *checks.drift_failures(drift),
                *checks.closure_failures(traj, p, q, seed),
                *checks.periodic_verdict_failures(verdict, p, q),
            ),
            drift,
        )

    return Task(f"orbit-{p}-{q}", run, check)


def _sensitivity_task(p: int, q: int, eps: float, n: int) -> Task:
    spec = OrbitSpec(p, q, 1.0)

    def run(tr):
        with tr.span("orbits.sensitivity_probe"):
            return sensitivity_probe(spec, eps, n)

    def check(verdict) -> Checked:
        if eps == 0.0:
            return Checked(failures=tuple(checks.periodic_verdict_failures(verdict, p, q)))
        if verdict.kind is OrbitKind.DENSE:
            return Checked()
        return Checked(failures=(f"({p},{q}) eps={eps} verdict {verdict.kind.value}, expected dense",))

    return Task(f"sensitivity-{p}-{q}-{eps:g}", run, check)


class CliReference:
    """Bytes that ``cli.main`` writes for a command, computed once per run."""

    def __init__(self, outdir: Path):
        self._outdir = outdir
        self._cache: dict[tuple[str, ...], bytes | None] = {}

    def __call__(self, argv: tuple[str, ...], suffix: str) -> bytes | None:
        key = (*argv, suffix)
        if key not in self._cache:
            path = self._outdir / f"reference-{len(self._cache)}.{suffix}"
            code = cli.main([*argv, "--out", str(path)])
            self._cache[key] = path.read_bytes() if code == cli.EXIT_OK else None
        return self._cache[key]


def _same_bytes(data: bytes, reference: bytes | None, what: str) -> list[str]:
    if reference is None:
        return [f"cli.main failed to write the reference {what}"]
    return [] if data == reference else [f"{what} differs from cli.main's bytes"]


def figure_launch(rng: np.random.Generator) -> tuple[Wall, float, float, float]:
    """The paper's 60-degree launch (wall A, s = 1, u_bar = 0, w_bar = 1),
    each value moved by up to FIGURE_JITTER.

    Acceptance-style random launches would change the coverage work of a
    round fourfold from seed to seed; this jitter changes it by about 2%.
    """
    j = FIGURE_JITTER
    return (
        Wall.A,
        1.0 + float(rng.uniform(-j, j)),
        float(rng.uniform(-j, j)),
        1.0 + float(rng.uniform(-j, j)),
    )


def _figures_tasks(rng: np.random.Generator, size: Size, outdir: Path):
    reference = CliReference(outdir)
    angle = WedgeAngle.from_degrees(FIGURE_DEGREES)
    wall_launch = figure_launch(rng)
    launch = launch_from_wall(*wall_launch, angle)
    dense_argv = simulate_argv(FIGURE_DEGREES, wall_launch, size.dense_events)
    # outputs of earlier tasks in the same round, read by later ones
    state: dict = {}
    tasks = []

    for p, q in FIGURE_PAIRS:
        tasks.append(_periodic_svg_task(p, q, size.figure_periods, outdir, reference))

    def run_dense(tr):
        with tr.span("dynamics.simulate"):
            traj = simulate(launch, angle, size.dense_events)
        _count_simulate(tr, traj)
        state["traj"] = traj
        state["coverage"] = []
        return traj

    def check_dense(traj) -> Checked:
        drift = checks.conservation_drift(traj)
        failures = (*checks.drift_failures(drift), *checks.length_failures(traj, size.dense_events))
        return Checked(len(traj.events), failures, drift)

    tasks.append(Task("dense-simulate", run_dense, check_dense))
    for fmt in cli.OutputFormat:
        tasks.append(_export_task(fmt, state, dense_argv, outdir, reference))
    for horizon in size.horizons:
        tasks.append(_coverage_task(horizon, size.grid, state))
    tasks.extend(_sweep_tasks(size.sweep_max, state, outdir, reference))
    return tasks, (launch, angle, size.dense_events), simulate_argv(
        FIGURE_DEGREES, wall_launch, CLI_EVENTS
    )


def _periodic_svg_task(p, q, periods, outdir: Path, reference: CliReference) -> Task:
    spec = OrbitSpec(p, q, 1.0)
    seed = periodic_initial_condition(spec)
    path = outdir / f"orbit-{p}-{q}.svg"
    argv = ("periodic", "--p", str(p), "--q", str(q), "--periods", str(periods))

    def run(tr):
        with tr.span("orbits.build_periodic_orbit"):
            traj = build_periodic_orbit(spec, spec.period * periods)
        tr.count("orbits.build_periodic_orbit", "events", len(traj.events))
        with tr.span("cli.render_plot"):
            cli.render_plot(traj, str(path))
        return traj

    def check(traj) -> Checked:
        data = path.read_bytes()
        return Checked(
            len(traj.events),
            (
                *checks.closure_failures(traj, p, q, seed),
                *checks.svg_arc_failures(data, len(traj.events)),
                *_same_bytes(data, reference(argv, "svg"), f"orbit ({p},{q}) SVG"),
            ),
        )

    return Task(f"orbit-svg-{p}-{q}", run, check)


def _export_task(fmt, state: dict, dense_argv, outdir: Path, reference: CliReference) -> Task:
    layer = f"cli.export_{fmt.value}"
    path = outdir / f"dense.{fmt.value}"

    def run(tr):
        traj = state["traj"]
        with tr.span(layer):
            cli.export_trajectory(traj, fmt, str(path))
        if tr.enabled:
            tr.count(layer, "events", len(traj.events))
            tr.count(layer, "bytes_out", path.stat().st_size)
        return traj

    def check(traj) -> Checked:
        data = path.read_bytes()
        failures = _same_bytes(
            data, reference((*dense_argv, "--format", fmt.value), fmt.value), f"dense {fmt.value}"
        )
        if fmt is cli.OutputFormat.CSV:
            failures += checks.csv_row_failures(data, len(traj.events))
        elif fmt is cli.OutputFormat.SVG:
            failures += checks.svg_arc_failures(data, len(traj.events))
        return Checked(failures=tuple(failures))

    return Task(f"export-{fmt.value}", run, check)


def _coverage_task(horizon: int, grid: tuple[int, int], state: dict) -> Task:
    def run(tr):
        traj = state["traj"]
        prefix = dataclasses.replace(traj, events=traj.events[:horizon])
        with tr.span("orbits.coverage_fraction"):
            value = coverage_fraction(prefix, grid)
        tr.count("orbits.coverage_fraction", "events", len(prefix.events))
        state["coverage"].append(value)
        return value

    def check(value) -> Checked:
        failures = checks.monotone_failures(state["coverage"])
        if not 0.0 < value <= 1.0:
            failures.append(f"coverage {value!r} outside (0, 1]")
        return Checked(failures=tuple(failures))

    return Task(f"coverage-{horizon}", run, check)


def _sweep_tasks(bound: int, state: dict, outdir: Path, reference: CliReference) -> list[Task]:
    csv_path = outdir / "sweep.csv"
    svg_path = outdir / "sweep.svg"
    expected_points = len(coprime_pairs(bound))

    def run_points(tr):
        with tr.span("orbits.sweep_periodic_points"):
            points = sweep_periodic_points(bound, bound)
        tr.count("orbits.sweep_periodic_points", "points", len(points))
        state["points"] = points
        return points

    def check_points(points) -> Checked:
        if len(points) == expected_points:
            return Checked()
        return Checked(failures=(f"{len(points)} sweep points, expected {expected_points}",))

    def run_csv(tr):
        with tr.span("cli.sweep_csv"):
            text = cli.sweep_csv(state["points"])
        with csv_path.open("w", encoding="ascii", newline="") as fh:
            fh.write(text)

    def check_csv(_) -> Checked:
        argv = ("sweep", "--max", str(bound))
        return Checked(failures=tuple(_same_bytes(csv_path.read_bytes(), reference(argv, "csv"), "sweep CSV")))

    def run_plot(tr):
        with tr.span("cli.render_plot"):
            cli.render_plot(state["points"], str(svg_path))

    def check_plot(_) -> Checked:
        data = svg_path.read_bytes()
        argv = ("sweep", "--max", str(bound), "--format", "svg")
        failures = _same_bytes(data, reference(argv, "svg"), "sweep SVG")
        circles = data.count(b"<circle")
        if circles != expected_points:
            failures.append(f"{circles} sweep circles, expected {expected_points}")
        return Checked(failures=tuple(failures))

    return [
        Task("sweep-points", run_points, check_points),
        Task("sweep-csv", run_csv, check_csv),
        Task("sweep-plot", run_plot, check_plot),
    ]


# ---------------------------------------------------------------------------
# Workloads


def build(name: str, seed: int, size: Size, outdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and assemble its tasks."""
    rng = np.random.default_rng(seed)
    if name == "long_dense":
        launches = _random_launches(rng, size.long_launches)
        tasks = [
            _long_task(f"launch-{i}", launch, angle, size.long_events)
            for i, (angle, _, launch) in enumerate(launches)
        ]
    elif name == "ensemble_short":
        launches = _random_launches(rng, size.ensemble_launches)
        tasks = [
            _ensemble_task(f"launch-{i}", launch, angle, size.ensemble_events)
            for i, (angle, _, launch) in enumerate(launches)
        ]
        tasks += [_orbit_task(p, q, size.orbit_periods) for p, q in coprime_pairs(size.orbit_max)]
        tasks += [
            _sensitivity_task(p, q, eps, size.sensitivity_collisions)
            for p, q in SENSITIVITY_PAIRS
            for eps in SENSITIVITY_EPS
        ]
    elif name == "figures":
        tasks, probe, cli_argv = _figures_tasks(rng, size, outdir)
        return Workload(tuple(tasks), probe, cli_argv)
    else:
        raise ValueError(f"unknown workload {name!r}")
    angle, wall_launch, launch = launches[0]
    n = size.long_events if name == "long_dense" else size.ensemble_events
    cli_argv = simulate_argv(math.degrees(angle.theta), wall_launch, CLI_EVENTS)
    return Workload(tuple(tasks), (launch, angle, n), cli_argv, hold_outputs=name == "long_dense")


def warm_up(outdir: Path) -> None:
    """One small call into every layer the workloads time."""
    angle = WedgeAngle.from_degrees(FIGURE_DEGREES)
    launch = launch_from_wall(Wall.A, 1.0, 0.0, 1.0, angle)
    traj = simulate(launch, angle, 8)
    decoupled_simulate(launch, angle, 8)
    replay_maps(traj)
    classify_orbit(traj)
    spec = OrbitSpec(1, 2, 1.0)
    build_periodic_orbit(spec, 6)
    sensitivity_probe(spec, 0.0, 12)
    coverage_fraction(traj, (4, 4))
    for fmt in cli.OutputFormat:
        cli.export_trajectory(traj, fmt, str(outdir / f"warm-up.{fmt.value}"))
    points = sweep_periodic_points(3, 3)
    cli.sweep_csv(points)
    cli.render_plot(points, str(outdir / "warm-up-sweep.svg"))
