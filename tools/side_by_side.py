"""Time one statement against two source trees of the package, in one process.

Each tree's ``src/wedge_billiard`` is loaded as its own module set, under its
own package name (``parent`` and ``change``).  The package's ``__init__`` is
a lazy facade, so it is not run: the package is an empty module whose path
is the tree's package directory, and every submodule is imported from it
directly, so each tree's relative imports resolve within that tree.  The
statement runs in a namespace that holds each submodule by its short name
(``dynamics``, ``orbits``, ...), after ``--setup`` has run there.

The two sides are timed alternately, ``--pairs`` times, and the side that
goes first alternates too.  Each timing is ``--number`` runs of the
statement (``timeit``, so with the garbage collector off unless ``--gc``
turns it on, as it is in perfbench's runs), scaled by the mean of two
passes of ``perfbench/hostref.reference_s`` taken just before and just
after it: a time at a fixed host speed, in seconds per run, at the scale of
``hostref.REF_S``.  With the collector off, a change that keeps more
objects alive reads faster than it runs.  It prints the collector's mode,
each side's median and quartiles, the ratio of the change's median to the
parent's, the number of pairs the change won (ties count for neither), and
the median and quartiles of the per-pair ratios, change over parent.  A
pair's two timings are taken back to back, so its ratio shares their host
phase, which the medians of the two sides, each over every phase, do not.
Only the standard library and ``hostref`` are used, and nothing under
``perfbench/`` is changed.

Run from anywhere, with the two trees as paths to their repository roots
(a copy of the parent made with ``git archive``, and this checkout):

    python3 tools/side_by_side.py PARENT_ROOT CHANGE_ROOT \\
        "orbits.sweep_periodic_points(150, 150)" --pairs 25

``--number`` defaults to the larger of the counts that ``timeit``'s
``autorange`` picks for the two sides, used for both: each side's timing
then lasts at least autorange's 0.2 s, however much slower the other side
is.  The header line says when the count was picked.  Autorange can pick
different counts in different runs of one statement, so runs meant to be
compared with each other should pass ``--number``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import timeit
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_hostref() -> types.ModuleType:
    """``perfbench/hostref.py``, loaded from its file, so that no other
    module of ``perfbench/`` can shadow an import of this process."""
    spec = importlib.util.spec_from_file_location("hostref", ROOT / "perfbench" / "hostref.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostref = load_hostref()


def load_tree(root: Path, name: str) -> dict:
    """The submodules of ``root/src/wedge_billiard``, imported under the
    package name ``name``, by their short names."""
    package_dir = root / "src" / "wedge_billiard"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"no package at {package_dir}")
    package = types.ModuleType(name)
    package.__path__ = [str(package_dir)]
    sys.modules[name] = package
    modules = sorted(p.stem for p in package_dir.glob("*.py") if p.stem != "__init__")
    return {module: importlib.import_module(f"{name}.{module}") for module in modules}


def scaled_time(timer: timeit.Timer, number: int) -> float:
    """Seconds per run of ``timer``'s statement, at the reference host speed."""
    before = hostref.reference_s()
    elapsed = timer.timeit(number)
    after = hostref.reference_s()
    return elapsed / number * hostref.REF_S / ((before + after) / 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="repository root of the parent tree")
    parser.add_argument("change", type=Path, help="repository root of the changed tree")
    parser.add_argument("stmt", help="statement to time, e.g. orbits.sweep_periodic_points(9, 9)")
    parser.add_argument("--setup", default="pass", help="run once per side before timing")
    parser.add_argument("--pairs", type=int, default=15, help="alternations of the two sides")
    parser.add_argument("--number", type=int, help="runs of the statement per timing")
    parser.add_argument(
        "--gc", action="store_true", help="time with the garbage collector on, as perfbench runs"
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.number is not None and args.number < 1:
        parser.error("--number must be at least 1")

    timers = {}
    for side, root in zip(SIDES, (args.parent, args.change)):
        namespace = load_tree(root.resolve(), side)
        exec(args.setup, namespace)
        # timeit turns the collector off around each timing; a setup that
        # turns it back on runs inside that window
        timers[side] = timeit.Timer(
            args.stmt, "import gc; gc.enable()" if args.gc else "pass", globals=namespace
        )
    number = args.number or max(timer.autorange()[0] for timer in timers.values())
    # one untimed pass each, so that neither side pays a first call's costs
    for timer in timers.values():
        timer.timeit(number)

    times = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            times[side].append(scaled_time(timers[side], number))

    mode = "on" if args.gc else "off"
    picked = "" if args.number else " (the larger autorange count of the two sides)"
    print(
        f"{args.stmt}: {args.pairs} pairs of {number} runs{picked}, seconds per run at host"
        f" scale, garbage collector {mode}"
    )
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"  {side:6s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"  change/parent {ratio:.3f}, change faster in {wins}/{args.pairs} pairs")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"  paired change/parent median {median:.3f}  quartiles {q1:.3f} .. {q3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
