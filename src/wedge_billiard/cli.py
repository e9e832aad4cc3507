"""Command-line front end: simulate, build periodic orbits, sweep, classify.

Angles are degrees on the command line and radians everywhere else.  Output
files are byte-deterministic: identical invocations produce identical bytes
(fixed field order, 17 significant digits, LF newlines).  The environment
variable WEDGE_SEED is accepted for script compatibility but ignored; the
dynamics are deterministic.

Exit codes: 0 success, 2 invalid arguments, 3 simulation ended early
(vertex hit or grazing) although a collision count was required, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from enum import Enum

from .collision_maps import MapId, fixed_point
from .dynamics import (
    WALLS,
    CartesianState,
    CollisionEvent,
    RotatingFrameMomentum,
    Termination,
    TerminationKind,
    Trajectory,
    hamiltonian,
    launch_from_wall,
    simulate,
    wedge_energies,
    wedge_hamiltonians,
)
from .frames import frame_angle
from .geometry import Wall, WedgeAngle, config_bounds, contains, wall_point
from .orbits import (
    OrbitSpec,
    SweepPoint,
    build_periodic_orbit,
    classify_orbit,
    sweep_periodic_points,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TERMINATED = 3
EXIT_IO = 4

CSV_COLUMNS = (
    "event_index",
    "t",
    "wall",
    "x",
    "y",
    "u_post",
    "w_post",
    "u_bar_post",
    "w_bar_post",
    "x_tilde",
    "y_tilde",
    "H",
    "Hx_tilde",
    "Hy_tilde",
)

SVG_WIDTH = 640.0
SVG_MARGIN_FRACTION = 0.05


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"
    SVG = "svg"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _event_values(traj: Trajectory):
    """Each event's values in ``CSV_COLUMNS`` order, then ``u_pre, w_pre``."""
    events = traj.events
    sin_t, cos_t = traj.theta.sin, traj.theta.cos
    columns = [
        events.column(name).tolist()
        for name in ("wall", "t", "x", "y", "u", "w", "u_bar", "w_bar", "u_pre", "w_pre")
    ]
    for index, (code, t, x, y, u, w, u_bar, w_bar, u_pre, w_pre) in enumerate(zip(*columns)):
        hx, hy = wedge_energies(x, y, u, w, sin_t, cos_t)
        yield (
            index,
            t,
            WALLS[code].value,
            x,
            y,
            u,
            w,
            u_bar,
            w_bar,
            x * sin_t + y * cos_t,
            -x * cos_t + y * sin_t,
            (u * u + w * w) / 2.0 + y,
            hx,
            hy,
            u_pre,
            w_pre,
        )


def trajectory_csv(traj: Trajectory) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for index, t, wall, *floats in _event_values(traj):
        del floats[-2:]  # u_pre and w_pre are exported to JSON only
        lines.append(",".join([str(index), _fmt(t), wall, *map(_fmt, floats)]))
    return "\n".join(lines) + "\n"


def _state_dict(s: CartesianState) -> dict:
    return {"x": s.x, "y": s.y, "u": s.u, "w": s.w, "t": s.t}


def trajectory_json(traj: Trajectory) -> str:
    keys = (*CSV_COLUMNS, "u_pre", "w_pre")
    events = [dict(zip(keys, values)) for values in _event_values(traj)]
    term = traj.termination
    doc = {
        "theta": traj.theta.theta,
        "energy": traj.energy,
        "termination": None
        if term is None
        else {"kind": term.kind.value, "t": term.t, "normal_speed": term.normal_speed},
        "initial": _state_dict(traj.initial),
        "events": events,
    }
    return json.dumps(doc, indent=2) + "\n"


def read_trajectory_json(path: str) -> Trajectory:
    """Rebuild a trajectory from its JSON export, floats bit-equal."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    angle = WedgeAngle(doc["theta"])
    initial = CartesianState(**doc["initial"])
    events = []
    for row in doc["events"]:
        wall = Wall(row["wall"])
        pre = CartesianState(row["x"], row["y"], row["u_pre"], row["w_pre"], row["t"])
        post = CartesianState(row["x"], row["y"], row["u_post"], row["w_post"], row["t"])
        rotating = RotatingFrameMomentum(
            row["u_bar_post"], row["w_bar_post"], frame_angle(wall, angle)
        )
        events.append(CollisionEvent(wall, row["t"], pre, post, rotating))
    term = doc["termination"]
    termination = (
        None
        if term is None
        else Termination(TerminationKind(term["kind"]), term["t"], term["normal_speed"])
    )
    return Trajectory(
        initial=initial,
        theta=angle,
        events=tuple(events),
        energy=doc["energy"],
        wedge_integrals=wedge_hamiltonians(initial, angle),
        termination=termination,
    )


def export_trajectory(traj: Trajectory, fmt: OutputFormat, path: str) -> None:
    """Write a trajectory to disk in the requested format."""
    if fmt is OutputFormat.CSV:
        text = trajectory_csv(traj)
    elif fmt is OutputFormat.JSON:
        text = trajectory_json(traj)
    elif fmt is OutputFormat.SVG:
        text = trajectory_svg(traj)
    else:
        raise CliError(f"unknown output format {fmt!r}")
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.6g} {height:.6g}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def trajectory_svg(traj: Trajectory, samples_per_arc: int = 64) -> str:
    """Configuration-space picture: wedge walls plus one polyline per flight arc.

    The viewport frames the reachable box for the trajectory's energy with a
    5% margin.
    """
    if not traj.events:
        raise CliError("cannot render an empty trajectory")
    angle = traj.theta
    bounds = config_bounds(traj.energy, angle)
    corners = [
        (0.0, 0.0),
        tuple(wall_point(Wall.A, bounds.x_tilde_max, angle)),
        tuple(wall_point(Wall.B, bounds.y_tilde_max, angle)),
        (
            bounds.x_tilde_max * angle.sin - bounds.y_tilde_max * angle.cos,
            bounds.x_tilde_max * angle.cos + bounds.y_tilde_max * angle.sin,
        ),
    ]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    margin = SVG_MARGIN_FRACTION * max(x_max - x_min, y_max - y_min)
    x_min -= margin
    x_max += margin
    y_min -= margin
    y_max += margin
    scale = SVG_WIDTH / (x_max - x_min)
    height = (y_max - y_min) * scale

    def to_svg(x: float, y: float) -> tuple[float, float]:
        return (x - x_min) * scale, (y_max - y) * scale

    body = []
    for wall, length in ((Wall.A, bounds.x_tilde_max), (Wall.B, bounds.y_tilde_max)):
        end = wall_point(wall, length, angle)
        (x1, y1), (x2, y2) = to_svg(0.0, 0.0), to_svg(float(end[0]), float(end[1]))
        body.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    for duration, x0, y0, u0, w0 in traj.flights():
        points = []
        for i in range(samples_per_arc + 1):
            tau = duration * i / samples_per_arc
            x = x0 + u0 * tau
            y = y0 + w0 * tau - 0.5 * tau * tau
            sx, sy = to_svg(x, y)
            points.append(f"{sx:.3f},{sy:.3f}")
        body.append(
            f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
            f'points="{" ".join(points)}"/>'
        )
    label_x, label_y = to_svg(x_max - margin, y_min + margin)
    body.append(f'<text x="{label_x - 20:.1f}" y="{label_y:.1f}" font-size="14">x</text>')
    label_x, label_y = to_svg(x_min + margin, y_max - margin)
    body.append(f'<text x="{label_x:.1f}" y="{label_y + 20:.1f}" font-size="14">y</text>')
    return _svg_document(SVG_WIDTH, height, body)


def sweep_svg(points: list[SweepPoint]) -> str:
    """Scatter of periodic-orbit seeds: angle in degrees against u_bar."""
    if not points:
        raise CliError("cannot render an empty sweep")
    width, height = SVG_WIDTH, 480.0
    pad = 40.0
    u_range = max(max(abs(pt.u_bar) for pt in points), 1e-9) * 1.05

    def to_svg(theta_deg: float, u_bar: float) -> tuple[float, float]:
        sx = pad + (theta_deg / 90.0) * (width - 2 * pad)
        sy = pad + (1.0 - (u_bar + u_range) / (2.0 * u_range)) * (height - 2 * pad)
        return sx, sy

    body = [
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>'
    ]
    for pt in points:
        sx, sy = to_svg(math.degrees(pt.theta), pt.u_bar)
        body.append(f'<circle cx="{sx:.3f}" cy="{sy:.3f}" r="2" fill="#1f77b4"/>')
    body.append(
        f'<text x="{width / 2:.1f}" y="{height - 8:.1f}" font-size="14" '
        f'text-anchor="middle">theta (degrees)</text>'
    )
    body.append(
        f'<text x="12" y="{height / 2:.1f}" font-size="14" '
        f'transform="rotate(-90 12 {height / 2:.1f})" text-anchor="middle">u_bar</text>'
    )
    return _svg_document(width, height, body)


def render_plot(data: Trajectory | list[SweepPoint], path: str) -> None:
    """Render a trajectory or a list of sweep points to a self-contained SVG."""
    if isinstance(data, Trajectory):
        _write_text(path, trajectory_svg(data))
    else:
        _write_text(path, sweep_svg(data))


def sweep_csv(points: list[SweepPoint]) -> str:
    lines = ["p,q,theta_rad,theta_deg,u_bar"]
    for pt in points:
        lines.append(
            f"{pt.p},{pt.q},{_fmt(pt.theta)},{_fmt(math.degrees(pt.theta))},{_fmt(pt.u_bar)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument handling


def _resolve_angle(args: argparse.Namespace) -> WedgeAngle:
    has_theta = args.theta_deg is not None
    has_pq = getattr(args, "p", None) is not None or getattr(args, "q", None) is not None
    if has_theta == has_pq:
        raise CliError("supply exactly one of --theta-deg or the pair --p/--q")
    if has_theta:
        try:
            return WedgeAngle.from_degrees(args.theta_deg)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if args.p is None or args.q is None:
        raise CliError("--p and --q must be given together")
    try:
        spec = OrbitSpec(args.p, args.q)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return WedgeAngle(math.atan2(spec.p, spec.q))


def _resolve_launch(args: argparse.Namespace, angle: WedgeAngle) -> CartesianState:
    wall_given = args.wall is not None
    cartesian_given = any(v is not None for v in (args.x, args.y, args.u, args.w))
    if wall_given == cartesian_given:
        raise CliError(
            "supply exactly one launch form: --wall/--s/--u-bar/--w-bar "
            "or --x/--y/--u/--w"
        )
    if wall_given:
        missing = [
            name
            for name, value in (("--s", args.s), ("--u-bar", args.u_bar), ("--w-bar", args.w_bar))
            if value is None
        ]
        if missing:
            raise CliError(f"wall-relative launch needs {', '.join(missing)}")
        if args.s < 0:
            raise CliError("--s must be nonnegative")
        if args.w_bar < 0:
            raise CliError("--w-bar must be nonnegative (outgoing launch)")
        return launch_from_wall(Wall(args.wall), args.s, args.u_bar, args.w_bar, angle)
    missing = [
        name
        for name, value in (("--x", args.x), ("--y", args.y), ("--u", args.u), ("--w", args.w))
        if value is None
    ]
    if missing:
        raise CliError(f"cartesian launch needs {', '.join(missing)}")
    state = CartesianState(args.x, args.y, args.u, args.w, 0.0)
    if not contains(state.position, angle):
        raise CliError(f"launch position {state.position} lies outside the wedge")
    if hamiltonian(state) <= 0.0:
        raise CliError("launch energy must be positive")
    return state


def _resolve_format(args: argparse.Namespace) -> OutputFormat:
    if args.format is not None:
        return OutputFormat(args.format)
    suffix = args.out.rsplit(".", 1)[-1].lower() if "." in args.out else ""
    try:
        return OutputFormat(suffix)
    except ValueError:
        return OutputFormat.CSV


def _check_complete(traj: Trajectory, requested: int) -> int:
    if traj.termination is not None and len(traj.events) < requested:
        kind = traj.termination.kind.value
        print(
            f"simulation ended early after {len(traj.events)} of {requested} "
            f"collisions ({kind})",
            file=sys.stderr,
        )
        return EXIT_TERMINATED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands


def _cmd_simulate(args: argparse.Namespace) -> int:
    angle = _resolve_angle(args)
    initial = _resolve_launch(args, angle)
    traj = simulate(initial, angle, args.n)
    export_trajectory(traj, _resolve_format(args), args.out)
    return _check_complete(traj, args.n)


def _cmd_periodic(args: argparse.Namespace) -> int:
    try:
        spec = OrbitSpec(args.p, args.q, args.energy)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.periods < 1:
        raise CliError("--periods must be at least 1")
    traj = build_periodic_orbit(spec, n_collisions=spec.period * args.periods)
    export_trajectory(traj, _resolve_format(args), args.out)
    return _check_complete(traj, spec.period * args.periods)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise CliError("--max must be at least 1")
    if args.energy <= 0:
        raise CliError("--energy must be positive")
    points = sweep_periodic_points(args.max, args.max, args.energy, half=args.half)
    if _resolve_format(args) is OutputFormat.SVG:
        render_plot(points, args.out)
    else:
        _write_text(args.out, sweep_csv(points))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    angle = _resolve_angle(args)
    initial = _resolve_launch(args, angle)
    if args.tol <= 0:
        raise CliError("--tol must be positive")
    traj = simulate(initial, angle, args.n)
    result = classify_orbit(traj, args.tol)
    if result.period is not None:
        print(
            f"periodic period={result.period} hits_a={result.hits_a} "
            f"hits_b={result.hits_b}"
        )
    elif result.kind.value == "dense":
        print("dense (no recurrence within horizon; not a proof of density)")
    elif result.reason:
        print(f"{result.kind.value} ({result.reason})")
    else:
        print(result.kind.value)
    return EXIT_OK


def _cmd_fixed_points(args: argparse.Namespace) -> int:
    try:
        angle = WedgeAngle.from_degrees(args.theta_deg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.energy <= 0:
        raise CliError("--energy must be positive")
    for map_id in (MapId.FB, MapId.GB):
        state = fixed_point(map_id, args.energy, angle)
        print(f"{map_id.value}: u_bar={_fmt(state.u_bar)} w_bar={_fmt(state.w_bar)}")
    return EXIT_OK


def _add_launch_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("launch (wall-relative)")
    group.add_argument("--wall", choices=["A", "B"], help="wall to launch from")
    group.add_argument("--s", type=float, help="arclength from the vertex")
    group.add_argument("--u-bar", type=float, help="momentum along the wall")
    group.add_argument("--w-bar", type=float, help="momentum along the inward normal")
    group = parser.add_argument_group("launch (cartesian)")
    group.add_argument("--x", type=float)
    group.add_argument("--y", type=float)
    group.add_argument("--u", type=float)
    group.add_argument("--w", type=float)


def _add_angle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta-deg", type=float, help="wedge angle in degrees")
    parser.add_argument("--p", type=int, help="use the critical angle arctan(p/q)")
    parser.add_argument("--q", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedge",
        description="Simulate and analyze the rotated orthogonal gravitational "
        "wedge billiard.",
        epilog="WEDGE_SEED is accepted in the environment but ignored: "
        "the dynamics are deterministic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run n collisions and export the trajectory")
    _add_angle_arguments(p_sim)
    _add_launch_arguments(p_sim)
    p_sim.add_argument("--n", type=int, default=50, help="collision count (default 50)")
    p_sim.add_argument("--out", required=True, help="output path")
    p_sim.add_argument("--format", choices=[f.value for f in OutputFormat])
    p_sim.set_defaults(func=_cmd_simulate)

    p_per = sub.add_parser("periodic", help="construct a (p, q) periodic orbit")
    p_per.add_argument("--p", type=int, required=True)
    p_per.add_argument("--q", type=int, required=True)
    p_per.add_argument("--energy", type=float, default=1.0)
    p_per.add_argument("--periods", type=int, default=1, help="periods to trace")
    p_per.add_argument("--out", required=True)
    p_per.add_argument("--format", choices=[f.value for f in OutputFormat])
    p_per.set_defaults(func=_cmd_periodic)

    p_sweep = sub.add_parser("sweep", help="tabulate periodic-orbit seeds")
    p_sweep.add_argument("--max", type=int, default=25, help="p and q upper bound")
    p_sweep.add_argument("--energy", type=float, default=1.0)
    p_sweep.add_argument("--half", action="store_true", help="keep only q > p")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=[f.value for f in OutputFormat])
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="classify a trajectory")
    _add_angle_arguments(p_cls)
    _add_launch_arguments(p_cls)
    p_cls.add_argument("--n", type=int, default=10000, help="collision horizon")
    p_cls.add_argument("--tol", type=float, default=1e-8, help="recurrence tolerance")
    p_cls.set_defaults(func=_cmd_classify)

    p_fp = sub.add_parser("fixed-points", help="print the cross-wall fixed points")
    p_fp.add_argument("--theta-deg", type=float, required=True)
    p_fp.add_argument("--energy", type=float, default=1.0)
    p_fp.set_defaults(func=_cmd_fixed_points)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
