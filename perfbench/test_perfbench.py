"""Tests of the benchmark's own logic, at a tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    notes, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, notes["failures"]
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    emitted = result["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in expected)
    for m in expected:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
    for key in ("seed", "commit", "python", "numpy", "nproc", "cpu"):
        assert key in notes["provenance"]
    if trace == "1":
        # layer self times plus the benchmark's own share account for the
        # traced rounds' task time, which is measured apart from the spans
        busy = sum(v["value"] for k, v in emitted.items() if k.endswith(".busy_s"))
        total = busy + emitted["bench.self_s"]["value"]
        assert total == pytest.approx(emitted["bench.traced_wall_s"]["value"], rel=0.05)
        assert notes["accounted_frac"] == pytest.approx(1.0, rel=0.05)
    else:
        assert all(v["value"] > 0 for v in emitted.values())


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 100)]
    assert run.tail_latency(samples) == {"value": None, "samples": 99, "beyond": 9}
    samples.append(100.0)
    assert run.tail_latency(samples) == {"value": 90.0, "samples": 100, "beyond": 10}


def test_child_time_takes_off_and_scales_by_the_reference_passes():
    report = {"ref_s": 2 * run.REF_S, "ref_spent_s": 0.1}
    took = run.child_time(0.5, report)
    assert took.wall_s == 0.5
    # the passes ran at half the nominal speed: the rest of the wall time halves
    assert took.norm_s == pytest.approx(0.2)


def test_injected_failures_raise_failed_frac(tmp_path):
    workload = workloads.build("ensemble_short", 5, workloads.SIZES["tiny"], tmp_path)
    clean = run.run_round(workload.tasks, NullTracer())
    assert clean.failed == 0 and clean.attempted == len(workload.tasks)

    def raise_in_run(tr):
        raise RuntimeError("injected")

    bad_check = workloads.Task(
        "bad-check", workload.tasks[0].run,
        lambda out: workloads.Checked(failures=("injected",)),
    )
    raising = workloads.Task("raising", raise_in_run, workload.tasks[0].check)
    result = run.run_round((*workload.tasks, bad_check, raising), NullTracer())
    assert result.attempted == len(workload.tasks) + 2
    assert result.failed == 2
    assert result.failed / result.attempted > clean.failed / clean.attempted
    assert any("injected" in msg for msg in result.failures)


def test_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "figures", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
