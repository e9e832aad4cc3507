"""Output checks, run outside the timed region at the acceptance suite's
tolerances (``tests/test_acceptance.py``), never looser.

Each check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

from wedge_billiard import (
    MapState,
    OrbitKind,
    Trajectory,
    Wall,
    hamiltonian,
    wedge_hamiltonians,
)

DRIFT_TOL = 1e-9
ORACLE_TOL = 1e-9
MAP_TOL = 1e-9
CLOSURE_TOL = 1e-8


def conservation_drift(traj: Trajectory) -> float:
    """Largest relative drift of H, Hx and Hy over the post-collision states."""
    energy = traj.energy
    hx0, hy0 = traj.wedge_integrals
    angle = traj.theta
    worst = 0.0
    for event in traj.events:
        post = event.post
        hx, hy = wedge_hamiltonians(post, angle)
        worst = max(
            worst,
            abs(hamiltonian(post) - energy),
            abs(hx - hx0),
            abs(hy - hy0),
        )
    return worst / energy


def drift_failures(drift: float) -> list[str]:
    return [] if drift <= DRIFT_TOL else [f"H/Hx/Hy drift {drift:.3e} > {DRIFT_TOL}"]


def length_failures(traj: Trajectory, n: int) -> list[str]:
    """The run produced its whole budget of events without terminating, as
    the acceptance suite requires of its random launches."""
    if len(traj.events) == n and traj.termination is None:
        return []
    return [f"{len(traj.events)} events for a budget of {n}, termination {traj.termination}"]


def verdict_failures(verdict, expected: OrbitKind) -> list[str]:
    return [] if verdict.kind is expected else [f"verdict {verdict.kind.value}, expected {expected.value}"]


def oracle_failures(a: Trajectory, b: Trajectory) -> list[str]:
    """``simulate`` and ``decoupled_simulate`` agree event for event."""
    if len(a.events) != len(b.events):
        return [f"oracle length mismatch {len(a.events)} != {len(b.events)}"]
    worst = 0.0
    for ea, eb in zip(a.events, b.events):
        if ea.wall is not eb.wall:
            return ["oracle wall mismatch"]
        worst = max(
            worst,
            abs(ea.t - eb.t),
            abs(ea.post.x - eb.post.x),
            abs(ea.post.y - eb.post.y),
            abs(ea.post.u - eb.post.u),
            abs(ea.post.w - eb.post.w),
            abs(ea.pre.u - eb.pre.u),
            abs(ea.pre.w - eb.pre.w),
        )
    return [] if worst <= ORACLE_TOL else [f"oracle difference {worst:.3e} > {ORACLE_TOL}"]


def map_replay_failures(traj: Trajectory, replayed: list[MapState]) -> list[str]:
    """Map ``k`` applied to event ``k`` reproduces event ``k + 1``'s momentum."""
    events = traj.events
    if len(replayed) != max(len(events) - 1, 0):
        return [f"{len(replayed)} replayed maps for {len(events)} events"]
    worst = 0.0
    for state, event in zip(replayed, events[1:]):
        worst = max(
            worst,
            abs(state.u_bar - event.rotating_post.u_bar),
            abs(state.w_bar - event.rotating_post.w_bar),
        )
    return [] if worst <= MAP_TOL else [f"map replay residual {worst:.3e} > {MAP_TOL}"]


def closure_failures(traj: Trajectory, p: int, q: int, seed: MapState) -> list[str]:
    """Every period of the (p, q) orbit ends on the launch state, with p
    hits on wall A and q on wall B."""
    period = p + q
    events = traj.events
    if traj.termination is not None or not events or len(events) % period:
        return [f"({p},{q}) orbit has {len(events)} events, termination {traj.termination}"]
    failures = []
    for start in range(0, len(events), period):
        walls = [e.wall for e in events[start:start + period]]
        if walls.count(Wall.A) != p or walls.count(Wall.B) != q:
            failures.append(f"({p},{q}) period at {start}: {walls.count(Wall.A)} A hits")
        last = events[start + period - 1]
        residual = max(
            abs(last.post.x - traj.initial.x),
            abs(last.post.y - traj.initial.y),
            abs(last.rotating_post.u_bar - seed.u_bar),
            abs(last.rotating_post.w_bar - seed.w_bar),
        )
        if not residual <= CLOSURE_TOL:
            failures.append(f"({p},{q}) closure residual {residual:.3e} > {CLOSURE_TOL}")
    return failures


def periodic_verdict_failures(verdict, p: int, q: int) -> list[str]:
    if (
        verdict.kind is OrbitKind.PERIODIC
        and verdict.period == p + q
        and verdict.hits_a == p
        and verdict.hits_b == q
    ):
        return []
    return [f"({p},{q}) verdict {verdict}, expected periodic period {p + q}"]


def svg_arc_failures(svg: bytes, n_events: int) -> list[str]:
    arcs = svg.count(b"<polyline")
    return [] if arcs == n_events else [f"{arcs} SVG polylines for {n_events} events"]


def csv_row_failures(text: bytes, n_events: int) -> list[str]:
    rows = text.count(b"\n") - 1
    return [] if rows == n_events else [f"{rows} CSV rows for {n_events} events"]


def monotone_failures(values: list[float]) -> list[str]:
    bad = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    return [] if not bad else [f"coverage decreases with horizon: {values}"]

