"""Seeded benchmark of the wedge-billiard package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload long_dense --seed 977 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``.  One run sets up
(imports, input generation, warm-up), then repeats rounds of the workload's
tasks for ``--seconds`` seconds, checking every output outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance and notes.

The end-to-end timings are host-normalized seconds: every timed call, and
every timed child process, is paired with passes of a fixed reference loop
measured next to it in the same process, and scaled by ``REF_S`` over those
passes' time (see ``hostref``).  The raw seconds are in the notes.  The
traced run's per-layer times are raw seconds.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics from
the traced ones; its spans are written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from hostref import REF_S, ChildReference, reference_s
from tracing import TASK_SPAN, NullTracer, Tracer

# Every workload is single-threaded.  Left to itself, OpenBLAS starts a
# thread per core when numpy is imported; on a 2-core host those threads made
# the quartile spread of a child's median wall time 0.11 instead of 0.03.
# Set before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_runs"

# a p90 is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 120
# post-collision states timed by the next_collision probe
PROBE_STATES = 2000
PROBE_REPEATS = 5
WORKLOADS = ("long_dense", "ensemble_short", "figures")
# how much task time may pass between two host reference passes
REF_EVERY_S = 0.04
WAIT_NOTE = (
    "no layer waits: one client, one thread, no queues, so no wait time is reported"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=977)  # the acceptance suite's seed
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once and print the import time (used to time set-up)",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics


def tail_latency(samples: list[float]) -> dict:
    """The p90, reported only when at least TAIL_SAMPLES samples lie beyond it.

    With n samples, n - ceil(0.9 n) lie beyond the nearest-rank p90, which
    is at least TAIL_SAMPLES from n = 100 on.
    """
    n = len(samples)
    beyond = n - math.ceil(0.9 * n)
    if beyond < TAIL_SAMPLES:
        return {"value": None, "samples": n, "beyond": beyond}
    return {"value": sorted(samples)[n - beyond - 1], "samples": n, "beyond": beyond}


def typical_of_rounds(rounds: list, key: str = "norm_s") -> list[float]:
    """Each task's median latency over the rounds, in task order.

    With ``norm_s`` (host-normalized) times, medians over ~20 rounds moved
    ~3% between 30-second windows in which raw medians moved ~13% and raw
    minima ~15%.
    """
    return [statistics.median(times) for times in zip(*(getattr(r, key) for r in rounds))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    """Peak RSS of this process, from ``VmHWM`` where Linux provides it.

    ``ru_maxrss`` is only the fallback: Linux carries it over from the
    parent across fork and exec, so a process started by a larger one
    reads the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports) if reports else 0.0


def _median(times: list, key: str) -> float:
    return statistics.median(getattr(t, key) for t in times) if times else 0.0


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class RoundResult:
    task_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    events: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    drift: float = 0.0


def run_round(tasks, tracer, hold_outputs: bool = False) -> RoundResult:
    """Run every task once, in order; time ``run``, then check untimed.

    A reference pass runs first, then after each stretch of at least
    ``REF_EVERY_S`` of task time and at the end; the mean of the passes
    before and after a stretch scales its task times into ``norm_s``.

    A task fails when its run raises, its check raises or its check reports
    a failure; the round goes on either way.  With ``hold_outputs`` every
    task's output stays alive until the round ends; otherwise it is dropped
    before the next task allocates its own.
    """
    result = RoundResult(ref_s=[reference_s()])
    held = []

    def scale():
        result.ref_s.append(reference_s())
        ref = (result.ref_s[-2] + result.ref_s[-1]) / 2
        result.norm_s.extend(t * REF_S / ref for t in result.task_s[len(result.norm_s):])

    for task in tasks:
        result.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.task(task.task_id):
                out = task.run(tracer)
        except Exception as exc:  # a raising task is a failed task
            failures = (f"run raised {type(exc).__name__}: {exc}",)
        else:
            failures = ()
        elapsed = time.perf_counter() - start
        result.task_s.append(elapsed)
        if sum(result.task_s[len(result.norm_s):]) >= REF_EVERY_S:
            scale()
        if not failures:
            try:
                checked = task.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                failures = (f"check raised {type(exc).__name__}: {exc}",)
            else:
                failures = checked.failures
                result.events += checked.events
                result.drift = max(result.drift, checked.drift)
            if hold_outputs:
                held.append(out)
            out = checked = None
        if failures:
            result.failed += 1
            result.failures.extend(f"{task.task_id}: {msg}" for msg in failures)
    if len(result.norm_s) < len(result.task_s):
        scale()
    return result


def run_rounds(workload, seconds: float, traced: bool, side_jobs=()):
    """Repeat rounds until ``seconds`` have passed, at least once each kind.

    With ``traced`` the rounds alternate untraced and traced, sharing one
    tracer, so tracing overhead is measured in the same process.  The side
    jobs (timed subprocesses) run between rounds, at least one after each
    round, paced so that the share of them done keeps up with the share of
    ``seconds`` gone: their samples are
    spread over the run like the rounds', and the run ends near its
    deadline whatever the host's speed.
    """
    tracer = Tracer() if traced else None
    plain, traced_rounds = [], []
    pending = list(side_jobs)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        use_tracer = traced and len(plain) > len(traced_rounds)
        if use_tracer:
            traced_rounds.append(run_round(workload.tasks, tracer, workload.hold_outputs))
        else:
            plain.append(run_round(workload.tasks, NullTracer(), workload.hold_outputs))
        gone = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        due = math.ceil(len(side_jobs) * min(gone, 1.0)) - (len(side_jobs) - len(pending))
        for _ in range(max(due, 1 if pending else 0)):
            pending.pop(0)()
        enough = plain and (traced_rounds or not traced)
        if enough and time.perf_counter() >= deadline:
            break
    for job in pending:
        job()
    return plain, traced_rounds, tracer


# ---------------------------------------------------------------------------
# Subprocess measurements


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class ChildTime:
    wall_s: float
    norm_s: float


def timed_child(command: list[str], env: dict | None = None):
    """Run one child process; return it with its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        command, capture_output=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT
    )
    return proc, time.perf_counter() - start


def child_time(wall: float, report: dict) -> ChildTime:
    """A child's wall time, and its host-normalized time from the reference
    passes it reports (see ``hostref.ChildReference``): the wall time less
    the passes' own time, scaled by ``REF_S`` over the passes' mean.  Over
    35 batches of 12 ``wedge`` calls, the batch medians of the wall time
    spread 0.20 raw and 0.06 normalized.
    """
    norm = (wall - report["ref_spent_s"]) * REF_S / report["ref_s"]
    return ChildTime(wall, norm)


def setup_job(args, times: list, reports: list, failures: list):
    """A job that times one fresh process that only sets up, and records
    its times and its report (import time and peak RSS)."""
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]

    def job():
        try:
            proc, wall = timed_child(argv)
        except subprocess.TimeoutExpired:
            failures.append(f"set-up process timed out after {CHILD_TIMEOUT_S} s")
            return
        if proc.returncode != 0:
            stderr = proc.stderr[-300:].decode(errors="replace")
            failures.append(f"set-up process exit {proc.returncode}: {stderr}")
            return
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(child_time(wall, report))
        reports.append(report)

    return job


def cli_job(argv: tuple[str, ...], expected: bytes, out: Path, times: list, failures: list):
    """A job that times one ``wedge`` subprocess end to end and compares its
    output with ``expected``, the bytes ``cli.main`` wrote in-process.

    The subprocess is ``cold_cli.py``, which runs the command line as
    ``python -m wedge_billiard.cli`` would, between reference passes.
    """
    command = [sys.executable, str(BENCH_DIR / "cold_cli.py"), *argv, "--out", str(out)]

    def job():
        out.unlink(missing_ok=True)
        try:
            proc, wall = timed_child(command, _child_env())
        except subprocess.TimeoutExpired:
            failures.append(f"wedge subprocess timed out after {CHILD_TIMEOUT_S} s")
            return
        if proc.returncode != 0 or not out.is_file() or out.read_bytes() != expected:
            failures.append(f"wedge subprocess exit {proc.returncode}, or its output differs")
            return
        times.append(child_time(wall, json.loads(proc.stderr.splitlines()[-1])))

    return job


# ---------------------------------------------------------------------------
# Traced-run probes


def probe_bytes_per_event(probe) -> float:
    """Bytes held per event by a ``simulate`` result, from tracemalloc."""
    from wedge_billiard import simulate

    launch, angle, n = probe
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(launch, angle, n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / max(len(traj.events), 1)


def probe_next_collision_ns(probe) -> float:
    """The root solve alone, on post-collision states from the workload's
    run: the fastest of PROBE_REPEATS passes, per call."""
    from wedge_billiard import next_collision, simulate

    launch, angle, n = probe
    states = [e.post for e in simulate(launch, angle, min(n, PROBE_STATES)).events]
    per_call = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        for state in states:
            next_collision(state, angle)
        per_call.append((time.perf_counter_ns() - start) / max(len(states), 1))
    return min(per_call)


# ---------------------------------------------------------------------------
# Metrics


EVENT_LAYERS = (
    "dynamics.simulate",
    "dynamics.decoupled_simulate",
    "orbits.classify_orbit",
    "orbits.build_periodic_orbit",
    "orbits.coverage_fraction",
)
EXPORT_LAYERS = ("cli.export_csv", "cli.export_json", "cli.export_svg")
SPANNED_LAYERS = (
    *EVENT_LAYERS,
    "collision_maps.apply_map",
    "orbits.sensitivity_probe",
    "orbits.sweep_periodic_points",
    *EXPORT_LAYERS,
    "cli.render_plot",
    "cli.sweep_csv",
)


def per_layer_metrics(tracer, rounds: int, traced_wall: float, overhead: float,
                      drift: float, probes: dict) -> tuple[dict, list[str]]:
    """Per-round counts and self times of each layer from the traced rounds.

    ``traced_wall`` is a traced round's measured task time, taken apart from
    the spans, so that the layers' busy times plus ``bench.self_s`` can be
    checked against it.

    A layer the workload never calls reads 0 in every metric; it is also
    named in the returned list.
    """
    self_s = tracer.self_seconds()

    def count(layer, key):
        return tracer.counts.get((layer, key), 0) / rounds

    def busy(layer):
        return self_s.get(layer, 0.0) / rounds

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    out = {}
    for layer in EVENT_LAYERS:
        out[f"{layer}.calls"] = metric(count(layer, "calls"), "count")
        out[f"{layer}.busy_s"] = metric(busy(layer), "s")
        out[f"{layer}.us_per_event"] = metric(per(busy(layer), count(layer, "events"), 1e6), "us/event")
    out["dynamics.simulate.events"] = metric(count("dynamics.simulate", "events"), "count")
    out["dynamics.simulate.terminated"] = metric(count("dynamics.simulate", "terminated"), "count")
    out["dynamics.simulate.bytes_per_event"] = metric(probes["bytes_per_event"], "B/event")
    out["dynamics.simulate.drift_max"] = metric(drift, "ratio")
    out["dynamics.next_collision.ns_per_call"] = metric(probes["next_collision_ns"], "ns/call")

    layer = "collision_maps.apply_map"
    out[f"{layer}.calls"] = metric(count(layer, "calls"), "count")
    out[f"{layer}.busy_s"] = metric(busy(layer), "s")
    out[f"{layer}.ns_per_call"] = metric(per(busy(layer), count(layer, "calls"), 1e9), "ns/call")

    layer = "orbits.sensitivity_probe"
    out[f"{layer}.calls"] = metric(count(layer, "calls"), "count")
    out[f"{layer}.busy_s"] = metric(busy(layer), "s")
    layer = "orbits.sweep_periodic_points"
    out[f"{layer}.busy_s"] = metric(busy(layer), "s")
    out[f"{layer}.points"] = metric(count(layer, "points"), "count")

    for layer in EXPORT_LAYERS:
        out[f"{layer}.busy_s"] = metric(busy(layer), "s")
        out[f"{layer}.us_per_event"] = metric(per(busy(layer), count(layer, "events"), 1e6), "us/event")
        out[f"{layer}.bytes_out"] = metric(count(layer, "bytes_out"), "B")
    out["cli.render_plot.busy_s"] = metric(busy("cli.render_plot"), "s")
    out["cli.sweep_csv.busy_s"] = metric(busy("cli.sweep_csv"), "s")
    out["cli.import_s"] = metric(probes["import_s"], "s")

    out["bench.self_s"] = metric(busy(TASK_SPAN), "s")
    out["bench.traced_wall_s"] = metric(traced_wall, "s")
    out["bench.trace_overhead_frac"] = metric(overhead, "ratio")

    absent = [layer for layer in SPANNED_LAYERS if layer not in self_s]
    return out, absent


# ---------------------------------------------------------------------------
# Provenance


def provenance(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Entry point


def setup_only(args, workdir: Path) -> None:
    ref = ChildReference()
    start = time.perf_counter()
    import wedge_billiard.cli  # noqa: F401  (the first import pulls in numpy)

    import_s = time.perf_counter() - start
    import workloads

    workloads.build(args.workload, args.seed, workloads.SIZES[args.size], workdir)
    workloads.warm_up(workdir)
    rss_mb = peak_rss_mb()
    print(json.dumps({"import_s": import_s, "rss_mb": rss_mb, **ref.report()}))


def benchmark(args, workdir: Path) -> tuple[dict, dict]:
    """One run: returns (notes, result)."""
    import workloads
    from wedge_billiard import cli

    size = workloads.SIZES[args.size]
    start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, size, workdir)
    workloads.warm_up(workdir)
    main_setup_s = time.perf_counter() - start

    setup_times, setup_reports, cli_times, side_failures = [], [], [], []
    setups = [setup_job(args, setup_times, setup_reports, side_failures)] * size.setup_repeats
    clis = []
    if not args.trace:
        reference = workdir / "cli-reference.csv"
        if cli.main([*workload.cli_argv, "--out", str(reference)]) == cli.EXIT_OK:
            job = cli_job(workload.cli_argv, reference.read_bytes(), workdir / "cli-cold.csv",
                          cli_times, side_failures)
            clis = [job] * size.cli_repeats
        else:
            side_failures.append("cli.main failed on the cold-call command")
    side_jobs = [job for pair in itertools.zip_longest(setups, clis) for job in pair if job]

    plain, traced, tracer = run_rounds(workload, args.seconds, bool(args.trace), side_jobs)
    every = plain + traced
    attempted = sum(r.attempted for r in every) + len(side_jobs)
    failed = sum(r.failed for r in every) + len(side_failures)
    failures = [msg for r in every for msg in r.failures] + side_failures
    drift = max(r.drift for r in every)
    typical = typical_of_rounds(plain)
    wall_s = sum(typical)

    notes = {
        "provenance": provenance(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "tasks_per_round": len(workload.tasks),
        "main_setup_s": main_setup_s,
        # the raw seconds behind the host-normalized metrics
        "raw": {
            "wall_s": sum(typical_of_rounds(plain, "task_s")),
            "ref_s": statistics.median(ref for r in plain for ref in r.ref_s),
            "setup_wall_s": _median(setup_times, "wall_s"),
            "cli_cold_wall_s": _median(cli_times, "wall_s"),
        },
        "drift_max": drift,
        "wait": WAIT_NOTE,
    }
    if args.trace:
        probes = {
            "bytes_per_event": probe_bytes_per_event(workload.probe),
            "next_collision_ns": probe_next_collision_ns(workload.probe),
            "import_s": _median_of(setup_reports, "import_s"),
        }
        overhead = sum(typical_of_rounds(traced)) / wall_s - 1.0
        traced_wall = statistics.fmean(sum(r.task_s) for r in traced)
        metrics, absent = per_layer_metrics(tracer, len(traced), traced_wall, overhead, drift, probes)
        accounted = sum(v["value"] for k, v in metrics.items() if k.endswith(".busy_s"))
        notes["accounted_frac"] = (accounted + metrics["bench.self_s"]["value"]) / traced_wall
        notes["absent_layers"] = absent
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        notes["spans"] = str(spans.relative_to(ROOT))
    else:
        notes["task_p90_s"] = tail_latency(typical)
        # the set-up processes' peak RSS: the share of peak_rss_mb that is not the rounds' work
        notes["setup_rss_mb"] = _median_of(setup_reports, "rss_mb")
        metrics = {
            "setup_s": metric(_median(setup_times, "norm_s"), "s"),
            "wall_s": metric(wall_s, "s"),
            "events_per_s": metric(statistics.median(r.events for r in plain) / wall_s, "events/s"),
            "task_p50_s": metric(statistics.median(typical), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "cli_cold_s": metric(_median(cli_times, "norm_s"), "s"),
        }
    notes["failed_frac"] = failed / attempted
    notes["failures"] = failures[:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return notes, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "wedge_billiard" / "__init__.py").is_file():
        print(
            f"error: {SRC / 'wedge_billiard'} not found; run from the root of a "
            "wedge-billiard checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds < 0:
        print("error: --seconds must be nonnegative", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        notes, result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
