"""The repository's measuring tools run and report what their docstrings say."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_side_by_side_times_each_tree_as_its_own_module_set():
    # each side's submodules load under its own package, from its own tree
    setup = (
        "assert orbits.__name__.split('.')[0] == dynamics.__name__.split('.')[0]"
        " and orbits.__name__ in ('parent.orbits', 'change.orbits')"
        " and orbits.__file__.startswith(%r)" % str(ROOT / "src")
    )
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "side_by_side.py"),
            str(ROOT),
            str(ROOT),
            "orbits.sweep_periodic_points(3, 3)",
            "--setup",
            setup,
            "--pairs",
            "3",
            "--number",
            "2",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.splitlines()
    assert out[0] == (
        "orbits.sweep_periodic_points(3, 3): 3 pairs of 2 runs, seconds per run at host scale,"
        " garbage collector off"
    )
    assert out[1].split()[:2] == ["parent", "median"]
    assert out[2].split()[:2] == ["change", "median"]
    assert out[3].startswith("  change/parent ") and out[3].endswith(" pairs")
    # the per-pair ratios, ordered quartiles about their median
    words = out[4].split()
    assert words[:3] == ["paired", "change/parent", "median"] and words[4] == "quartiles"
    assert words[6] == ".."
    q1, median, q3 = float(words[5]), float(words[3]), float(words[7])
    assert 0.0 < q1 <= median <= q3
    assert len(out) == 5


@pytest.mark.parametrize("flags, mode", [([], "off"), (["--gc"], "on")])
def test_side_by_side_times_with_the_collector_as_asked(flags, mode):
    # the statement fails unless the collector is in the mode the report names
    stmt = "assert gc.isenabled()" if mode == "on" else "assert not gc.isenabled()"
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "side_by_side.py"),
            str(ROOT),
            str(ROOT),
            stmt,
            "--setup",
            "import gc",
            "--pairs",
            "2",
            "--number",
            "3",
            *flags,
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.splitlines()
    assert out[0] == (
        f"{stmt}: 2 pairs of 3 runs, seconds per run at host scale, garbage collector {mode}"
    )
    assert out[3].startswith("  change/parent ")


def test_side_by_side_picks_the_count_of_the_faster_side():
    # the parent's runs sleep 4 times as long as the change's; the count
    # autorange picks for the change (a timing of at least 0.2 s at under 1
    # ms a run: 200 or more) is then the larger, and both sides run it, where
    # the parent's own count (at least 2 ms a run: 100 or fewer) would time
    # the change for under 0.2 s
    stmt = "time.sleep(0.002 if dynamics.__name__.startswith('parent') else 0.0005)"
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "side_by_side.py"),
            str(ROOT),
            str(ROOT),
            stmt,
            "--setup",
            "import time",
            "--pairs",
            "2",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()
    head, tail = out[0].split(" runs (the larger autorange count of the two sides), ")
    prefix = f"{stmt}: 2 pairs of "
    assert head.startswith(prefix) and int(head[len(prefix):]) >= 200
    assert tail == "seconds per run at host scale, garbage collector off"
