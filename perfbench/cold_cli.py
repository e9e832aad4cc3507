"""Run the ``wedge`` command line once, as ``python -m wedge_billiard.cli``
would, between two sets of host reference passes.

    python3 perfbench/cold_cli.py simulate --theta-deg 30 ... --out out.csv

The command's exit code is this process's exit code.  The last line of
standard error is a JSON object with the reference passes' mean time and the
time they took (see ``hostref.ChildReference``).
"""

import json
import runpy
import sys

from hostref import ChildReference


def main() -> int:
    ref = ChildReference()
    sys.argv = ["wedge", *sys.argv[1:]]
    try:
        runpy.run_module("wedge_billiard.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stderr.write("\n" + json.dumps(ref.report()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
