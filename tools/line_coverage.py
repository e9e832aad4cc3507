"""List the lines of ``src/wedge_billiard`` that no test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` and
``threading.settrace`` line tracer limited to the package, then prints each
executable line that never ran as ``<module>.py:<line>: <source>``, one a
line, sorted by module and line.  A line is executable when the compiled
module gives an instruction to it (``co_lines``).  Only the standard library
is used, so no coverage package is needed.  The tracer is installed before
the package is imported, so module-level lines count; subprocesses are not
traced.  It takes about twice as long as the plain suite (151 s against
74 s on a 2-core Xeon VM), so it is not part of the suite.

Run from anywhere, with pytest's own arguments appended if wanted:

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py tests/test_dynamics.py

The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wedge_billiard"
PREFIX = str(PACKAGE) + os.sep


def line_tracer(ran: defaultdict[str, set[int]]):
    """A ``settrace`` function that adds each line a package frame runs to
    ``ran[filename]``; other frames get no line tracer."""
    # one line tracer per module, made once: a tracer returns itself, so it
    # is a reference cycle, and one made per call would leave garbage that
    # the suite's allocation tests count
    line_tracers = {}

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        if filename not in line_tracers:
            line_tracers[filename] = lines_into(ran[filename])
        return line_tracers[filename]

    return trace_calls


def lines_into(lines: set[int]):
    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def executable_lines(path: Path) -> set[int]:
    """The lines that the compiled module or any code object in it runs."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    ran: defaultdict[str, set[int]] = defaultdict(set)
    trace_calls = line_tracer(ran)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    import pytest

    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
