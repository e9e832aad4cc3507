"""The host-speed reference loop, shared by the benchmark and its children.

On a shared host, other tenants' load slows every instruction (CPU time too)
by up to 2x, in bursts of tenths of a second and in phases of tens of
seconds; the two cores of a 2-core VM can also run at different speeds at
the same time.  Minima and medians of raw latencies then move 15-35% between
runs.  A fixed pure-float loop that calls nothing of the package slows with
the host but not with the package, so a time scaled by ``REF_S`` over a pass
of the loop measured next to it, in the same process, is that time at a
fixed host speed.

This module imports only the standard library's ``math`` and ``time``, so a
child process can time passes before it imports anything else.
"""

import math
import time

# iterations of the loop, and the nominal duration its passes are scaled to
# (a fixed constant: only ratios between runs matter)
REF_LOOP = 25_000
REF_S = 2.0e-3


def reference_s() -> float:
    """Time one pass of the loop.  It allocates no object the garbage
    collector tracks, so the memory a workload holds does not slow it."""
    sqrt = math.sqrt
    start = time.perf_counter()
    x = total = 1.0
    for _ in range(REF_LOOP):
        x = x * 1.0000001 + 0.5
        total += sqrt(x)
    return time.perf_counter() - start


class ChildReference:
    """Reference passes a child process times at its start and at its end.

    In a child, passes timed by the parent around it did not follow its
    speed (correlation 0.2 with its CPU time over 426 ``wedge`` calls), and
    passes timed in the child did (0.8): the child may run on the other
    core.  ``report`` gives the mean of the fastest pass of each end, and
    the time all passes took, which the parent takes off the child's time.
    """

    PASSES = 2

    def __init__(self):
        start = time.perf_counter()
        self.first = min(reference_s() for _ in range(self.PASSES))
        self.spent = time.perf_counter() - start

    def report(self) -> dict:
        start = time.perf_counter()
        last = min(reference_s() for _ in range(self.PASSES))
        spent = self.spent + time.perf_counter() - start
        return {"ref_s": (self.first + last) / 2, "ref_spent_s": spent}
