"""Command-line front end: simulate, build periodic orbits, sweep, classify.

Angles are degrees on the command line and radians everywhere else.  Output
files are byte-deterministic: identical invocations produce identical bytes
(fixed field order, 17 significant digits, LF newlines).  SVG coordinates
have three decimals, as ``"%.3f"`` writes them; the trajectory SVG's arc
points are written from numpy by a kernel that gives the same bytes.  The
environment variable WEDGE_SEED is accepted for script compatibility but
ignored; the dynamics are deterministic.

Exit codes: 0 success, 2 invalid arguments, 3 simulation ended early
(vertex hit or sliding) although a collision count was required, 4 I/O
error.

Each command loads only the package modules it runs.  This module imports
``geometry`` and ``dynamics``, which are all that ``simulate`` needs; the
commands that need ``orbits`` (``periodic``, ``sweep``, ``classify`` and the
``--p/--q`` angle) or ``collision_maps`` (``fixed-points``) import them when
they run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from .dynamics import (
    DEFAULT_PERIODICITY_TOL,
    WALLS,
    CartesianState,
    Trajectory,
    flight_arcs,
    launch_from_wall,
    simulate,
    wedge_energies,
)
from .geometry import Wall, WedgeAngle, config_bounds, from_wedge, to_wedge

if TYPE_CHECKING:
    import numpy as np

    from .orbits import SweepPoint

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
# Each flight arc is drawn as a polyline through this many equal time steps.
_SVG_ARC_STEPS = 64


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"
    SVG = "svg"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Rows formatted per ``%`` call: enough to cost little per row, few enough
# that no value list or string grows with the export.
_CHUNK_ROWS = 128


def _format_rows(template: str, count: int, values: Callable[[int, int], list]) -> Iterator[str]:
    """``count`` rows of ``template``, formatted ``_CHUNK_ROWS`` rows per ``%`` call.

    ``values(lo, hi)`` gives the fields of rows ``lo`` to ``hi - 1``, row
    after row.  Each chunk is yielded as its rows joined by newlines: no
    string is made per row or per value.  Every bulk export is formatted
    here but the trajectory SVG's arcs, which :func:`_format_3f` writes.
    """
    for lo in range(0, count, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, count)
        yield "\n".join([template] * (hi - lo)) % tuple(values(lo, hi))


def _lines(*parts: Iterable[str]) -> Iterator[str]:
    """Each piece of each part, then a newline: ``"\\n".join([*pieces, ""])``
    a piece at a time.  Every export is the join of such a generator, and
    is written to its file as the pieces are made."""
    for part in parts:
        for piece in part:
            yield piece
            yield "\n"


_WALL_NAMES = tuple(wall.value for wall in WALLS)


def _event_rows(traj: Trajectory, lo: int, hi: int, width: int) -> list:
    """Events ``lo`` to ``hi - 1`` as one flat list of Python values, row
    after row: the event index, then the values in ``CSV_COLUMNS`` order,
    and ``u_pre, w_pre`` too if ``width`` is 16.

    Worked out in Python floats from the engine's stored columns, read
    by name.  An event's ``u_bar, w_bar`` is its wedge-frame outgoing
    momentum, swapped on wall B, as
    :attr:`~wedge_billiard.dynamics.CollisionEvent.rotating_post` works it
    out.
    """
    sin_t, cos_t = traj.theta.sin, traj.theta.cos
    with_pre = width > len(CSV_COLUMNS)
    view = traj.events[lo:hi]._view
    names = ("wall", "t", "x", "y", "u_pre", "w_pre", "u", "w")
    columns = [view(name).tolist() for name in names]
    flat = []
    for index, code, t, x, y, u_pre, w_pre, u, w in zip(range(lo, hi), *columns):
        x_tilde, y_tilde = to_wedge(x, y, sin_t, cos_t)
        u_tilde, w_tilde = to_wedge(u, w, sin_t, cos_t)
        hx, hy = wedge_energies(x_tilde, y_tilde, u_tilde, w_tilde, sin_t, cos_t)
        u_bar, w_bar = (w_tilde, u_tilde) if code else (u_tilde, w_tilde)
        energy = (u * u + w * w) / 2.0 + y
        flat += (
            index, t, _WALL_NAMES[code], x, y, u, w, u_bar, w_bar, x_tilde, y_tilde, energy, hx, hy
        )
        if with_pre:
            flat += (u_pre, w_pre)
    return flat


_CSV_ROW = ",".join(["%d", "%.17g", "%s", *["%.17g"] * (len(CSV_COLUMNS) - 3)])


def _trajectory_csv_lines(traj: Trajectory) -> Iterator[str]:
    # u_pre and w_pre are exported to JSON only
    rows = _format_rows(
        _CSV_ROW,
        len(traj.events),
        lambda lo, hi: _event_rows(traj, lo, hi, len(CSV_COLUMNS)),
    )
    return _lines([",".join(CSV_COLUMNS)], rows)


def _state_dict(s: CartesianState) -> dict:
    return {"x": s.x, "y": s.y, "u": s.u, "w": s.w, "t": s.t}


def _json_row_template() -> str:
    """One event of the JSON export as ``json.dumps(indent=2)`` lays it out,
    with ``%`` fields: ``%r`` writes a finite float as json does."""
    keys = (*CSV_COLUMNS, "u_pre", "w_pre")
    fields = ("%d", "%r", '"%s"', *["%r"] * (len(keys) - 3))
    lines = (f'      "{key}": {field}' for key, field in zip(keys, fields))
    return "    {\n" + ",\n".join(lines) + "\n    }"


_JSON_ROW = _json_row_template()
# how %r and json write a non-finite float
_JSON_NON_FINITE = ((": nan", ": NaN"), (": inf", ": Infinity"), (": -inf", ": -Infinity"))


def _trajectory_json_lines(traj: Trajectory) -> Iterator[str]:
    """The trajectory as ``json.dumps(doc, indent=2)`` writes it.

    The event rows are formatted from a template, a chunk of rows at a
    time; with ``indent`` set, json's encoder would format each value in
    Python.
    """
    term = traj.termination
    doc = {
        "theta": traj.theta.theta,
        "energy": traj.energy,
        "termination": None
        if term is None
        else {"kind": term.kind.value, "t": term.t, "normal_speed": term.normal_speed},
        "initial": _state_dict(traj.initial),
        "events": [],
    }
    text = json.dumps(doc, indent=2)
    if not traj.events:
        return _lines([text])
    # in place of the empty events list that ends the document
    return _lines([text.removesuffix("[]\n}") + "["], _json_rows(traj), ["  ]\n}"])


def _json_rows(traj: Trajectory) -> Iterator[str]:
    """The JSON export's event rows, a chunk at a time, with a comma after
    every row but the last."""
    chunks = _format_rows(
        _JSON_ROW + ",",
        len(traj.events),
        lambda lo, hi: _event_rows(traj, lo, hi, len(CSV_COLUMNS) + 2),
    )
    previous = None
    for chunk in chunks:
        for python, json_text in _JSON_NON_FINITE:
            chunk = chunk.replace(python, json_text)
        if previous is not None:
            yield previous
        previous = chunk
    yield previous.removesuffix(",")


def export_trajectory(traj: Trajectory, fmt: OutputFormat, path: str) -> None:
    """Write a trajectory to disk in the requested format."""
    lines = {
        OutputFormat.CSV: _trajectory_csv_lines,
        OutputFormat.JSON: _trajectory_json_lines,
        OutputFormat.SVG: _trajectory_svg_lines,
    }[fmt]
    _write_text(path, lines(traj))


def _write_text(path: str, pieces: Iterator[str]) -> None:
    """Write ``pieces`` to ``path`` as they are made.  The file is opened
    once the first piece is made, so a render that fails up front leaves
    no file."""
    first = next(pieces)
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(first)
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG rendering


def _svg_document(width: float, height: float, *body: Iterable[str]) -> Iterator[str]:
    """The SVG document around the lines of ``body``'s parts."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.6g} {height:.6g}">'
    )
    return _lines([head], *body, ["</svg>"])


_SVG_ARC_HEAD = '<polyline fill="none" stroke="#1f77b4" stroke-width="1" points="'
_SVG_ARC_TAIL = '"/>'
_SVG_ARC = _SVG_ARC_HEAD + " ".join(["%.3f,%.3f"] * (_SVG_ARC_STEPS + 1)) + _SVG_ARC_TAIL
# the byte after each of an arc's values: "x,y x,y ... x,y", then a newline
_SVG_ARC_ENDS = (b", " * (_SVG_ARC_STEPS + 1))[:-1] + b"\n"
# _format_3f handles the values whose rounded thousandths fit an int32
_FORMAT_3F_LIMIT = 2**31


def _format_3f(values: np.ndarray, ends: bytes) -> str | None:
    """Each of ``values`` as ``"%.3f" % v`` writes it, followed by its byte
    of ``ends``, which repeats along the last axis; or None when a value is
    not finite or its rounded thousandths do not fit an int32.

    ``v * 1000`` is worked out exactly as ``high + low`` (Dekker's product,
    with ``v`` split by Veltkamp's method; 1000 needs no split), and rounded
    half to even as ``%`` rounds it.  The digits come from integer division
    by 10, one column of a byte matrix at a time; the matrix is compressed
    by a mask that drops the leading zeros, and the minus sign of a value
    whose sign bit is clear (so ``-0.0`` and a tiny negative value give
    ``-0.000``, as ``%`` does).  The scratch arrays are worked in place and
    dropped as soon as they are read.
    """
    import numpy as np

    sign = np.signbit(values)
    a = np.abs(values)
    # a value that is not finite, or too large, turns to nan or inf silently
    # and fails the limit check below
    with np.errstate(over="ignore", invalid="ignore"):
        low = a * 134217729.0  # 2**27 + 1, for Veltkamp's split
        np.subtract(low, low - a, out=low)  # a's high half
        high = a * 1000.0
        np.subtract(a, low, out=a)  # and its low half
        np.multiply(low, 1000.0, out=low)
        np.subtract(low, high, out=low)
        np.multiply(a, 1000.0, out=a)
        np.add(low, a, out=low)  # high + low is a * 1000 exactly
        del a
        rounded = np.rint(high)
        np.subtract(high, rounded, out=high)  # what rint dropped
        # a dropped half is a tie for high alone; low breaks it
        rounded += (high == 0.5) & (low > 0)
        rounded -= (high == -0.5) & (low < 0)
        del low, high
        if not (rounded < _FORMAT_3F_LIMIT).all():
            return None
    q = rounded.astype(np.int32)
    del rounded
    n_digits = max(4, len(str(q.max(initial=0))))
    point = n_digits - 2
    text = np.empty((*values.shape, n_digits + 3), np.uint8)
    keep = np.ones(text.shape, bool)
    text[..., 0] = ord("-")
    keep[..., 0] = sign
    text[..., point] = ord(".")
    text[..., -1] = np.frombuffer(ends, np.uint8)
    for col in (*range(n_digits + 1, point, -1), *range(point - 1, 0, -1)):
        if col < point - 1:  # no leading zero left of the units digit
            keep[..., col] = q > 0
        tens = q // 10
        text[..., col] = q - tens * 10 + ord("0")
        q = tens
    return text[keep].tobytes().decode("ascii")


def _trajectory_svg_lines(traj: Trajectory) -> Iterator[str]:
    """Configuration-space picture: wedge walls plus one polyline per flight arc.

    The viewport frames the reachable box for the trajectory's energy with a
    5% margin.  A run with no events is drawn as its walls alone.  The arcs'
    points are worked out in numpy and written a chunk of
    :func:`~wedge_billiard.dynamics.flight_arcs` at a time by
    :func:`_format_3f`, each arc 130 values; a chunk with a value that it
    does not handle is formatted by ``%`` from the same ``_SVG_ARC``
    template, so the bytes do not depend on the path.
    """
    import numpy as np
    sin_t, cos_t = traj.theta.sin, traj.theta.cos
    x_tilde_max, y_tilde_max = config_bounds(traj.energy, traj.theta)
    # the vertex, the far ends of walls A and B, and the box's far corner
    corners = [
        from_wedge(x_tilde, y_tilde, sin_t, cos_t)
        for x_tilde, y_tilde in (
            (0.0, 0.0), (x_tilde_max, 0.0), (0.0, y_tilde_max), (x_tilde_max, y_tilde_max)
        )
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

    columns = [traj.events.column(name) for name in ("t", "x", "y", "u", "w")]
    steps = np.arange(_SVG_ARC_STEPS + 1.0)

    def arcs() -> Iterator[str]:
        for _, x0, y0, u0, w0, duration in flight_arcs(traj.initial, columns):
            # to_svg's arithmetic on the arc's equal time steps, in its order;
            # a non-finite value gives nan or inf silently, as in Python floats
            with np.errstate(invalid="ignore", over="ignore"):
                tau = duration[:, None] * steps / _SVG_ARC_STEPS
                x = x0[:, None] + u0[:, None] * tau
                y = y0[:, None] + w0[:, None] * tau - 0.5 * tau * tau
                points = np.stack(((x - x_min) * scale, (y_max - y) * scale), axis=-1)
            points = points.reshape(len(duration), -1)
            rows = _format_3f(points, _SVG_ARC_ENDS)
            if rows is None:
                yield "\n".join([_SVG_ARC] * len(points)) % tuple(points.ravel().tolist())
            else:
                between = _SVG_ARC_TAIL + "\n" + _SVG_ARC_HEAD
                yield _SVG_ARC_HEAD + rows[:-1].replace("\n", between) + _SVG_ARC_TAIL

    walls = []
    for end in corners[1:3]:
        (x1, y1), (x2, y2) = to_svg(*corners[0]), to_svg(*end)
        walls.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    labels = []
    label_x, label_y = to_svg(x_max - margin, y_min + margin)
    labels.append(f'<text x="{label_x - 20:.1f}" y="{label_y:.1f}" font-size="14">x</text>')
    label_x, label_y = to_svg(x_min + margin, y_max - margin)
    labels.append(f'<text x="{label_x:.1f}" y="{label_y + 20:.1f}" font-size="14">y</text>')
    yield from _svg_document(
        SVG_WIDTH,
        height,
        walls,
        arcs(),
        labels,
    )


# what math.degrees multiplies by, bit for bit
_RAD_TO_DEG = 180.0 / math.pi


def _sweep_columns(points: Sequence[SweepPoint]) -> tuple[Sequence, ...]:
    """The one reader of a sweep: its ``p``, ``q``, ``theta`` and ``u_bar``
    columns.  Those of ``sweep_periodic_points`` are read as they are held;
    a list or tuple of points is gathered into columns in one pass."""
    columns = getattr(points, "_columns", None)
    if columns is None:
        columns = tuple(zip(*map(attrgetter("p", "q", "theta", "u_bar"), points))) or ((),) * 4
    return columns


def _sweep_svg_lines(points: Sequence[SweepPoint]) -> Iterator[str]:
    """Scatter of periodic-orbit seeds: angle in degrees against u_bar; no
    points give the empty frame."""
    _, _, theta, u_bar = _sweep_columns(points)
    width, height = SVG_WIDTH, 480.0
    pad = 40.0
    u_range = max(max(map(abs, u_bar), default=0.0), 1e-9) * 1.05
    x_span, y_span, u_span = width - 2 * pad, height - 2 * pad, 2.0 * u_range

    def centres(lo: int, hi: int) -> list[float]:
        # each point's angle in degrees, then its u_bar, scaled to the frame
        values = [0.0] * (2 * (hi - lo))
        values[0::2] = [pad + (t * _RAD_TO_DEG / 90.0) * x_span for t in theta[lo:hi]]
        values[1::2] = [pad + (1.0 - (u + u_range) / u_span) * y_span for u in u_bar[lo:hi]]
        return values

    return _svg_document(
        width,
        height,
        [
            f'<rect x="{pad}" y="{pad}" width="{x_span}" '
            f'height="{y_span}" fill="none" stroke="black"/>'
        ],
        _format_rows(
            '<circle cx="%.3f" cy="%.3f" r="2" fill="#1f77b4"/>', len(points), centres
        ),
        [
            f'<text x="{width / 2:.1f}" y="{height - 8:.1f}" font-size="14" '
            f'text-anchor="middle">theta (degrees)</text>',
            f'<text x="12" y="{height / 2:.1f}" font-size="14" '
            f'transform="rotate(-90 12 {height / 2:.1f})" text-anchor="middle">u_bar</text>',
        ],
    )


def render_plot(data: Trajectory | Sequence[SweepPoint], path: str) -> None:
    """Render a trajectory or a sequence of sweep points to a self-contained
    SVG, written a chunk at a time."""
    if isinstance(data, Trajectory):
        _write_text(path, _trajectory_svg_lines(data))
    else:
        _write_text(path, _sweep_svg_lines(data))


def _sweep_csv_lines(points: Sequence[SweepPoint]) -> Iterator[str]:
    p, q, theta, u_bar = _sweep_columns(points)

    def fields(lo: int, hi: int) -> list:
        # each row's five fields, gathered column by column
        rad = theta[lo:hi]
        values = [0] * (5 * len(rad))
        values[0::5] = p[lo:hi]
        values[1::5] = q[lo:hi]
        values[2::5] = rad
        values[3::5] = [t * _RAD_TO_DEG for t in rad]
        values[4::5] = u_bar[lo:hi]
        return values

    rows = _format_rows("%d,%d,%.17g,%.17g,%.17g", len(points), fields)
    return _lines(["p,q,theta_rad,theta_deg,u_bar"], rows)


def sweep_csv(points: Sequence[SweepPoint]) -> str:
    return "".join(_sweep_csv_lines(points))


# ---------------------------------------------------------------------------
# Argument handling


def _given_form(
    args: argparse.Namespace, group: str, *forms: tuple[str, ...]
) -> tuple[int, list]:
    """The index of the one form of ``group`` given in ``args``, and its
    options' values in the form's order.

    A form is given when any of its options is.  Exactly one form must be
    given, with all of its options.
    """
    # argparse keeps --u-bar as args.u_bar
    values = [[getattr(args, name[2:].replace("-", "_")) for name in form] for form in forms]
    given = [i for i in range(len(forms)) if any(value is not None for value in values[i])]
    if len(given) != 1:
        raise ValueError(
            f"supply exactly one {group} form: {' or '.join('/'.join(form) for form in forms)}"
        )
    (index,) = given
    missing = [name for name, value in zip(forms[index], values[index]) if value is None]
    if missing:
        raise ValueError(f"{group} form {'/'.join(forms[index])} needs {', '.join(missing)}")
    return index, values[index]


def _resolve_angle(args: argparse.Namespace) -> WedgeAngle:
    form, values = _given_form(args, "angle", ("--theta-deg",), ("--p", "--q"))
    if form == 0:
        return WedgeAngle.from_degrees(*values)
    from .orbits import OrbitSpec, critical_angle

    return critical_angle(OrbitSpec(*values))


def _resolve_launch(args: argparse.Namespace, angle: WedgeAngle) -> CartesianState:
    form, values = _given_form(
        args, "launch", ("--wall", "--s", "--u-bar", "--w-bar"), ("--x", "--y", "--u", "--w")
    )
    if form == 1:
        return CartesianState(*values, 0.0)
    wall, s, u_bar, w_bar = values
    if w_bar < 0:
        raise ValueError("--w-bar must be nonnegative (outgoing launch)")
    return launch_from_wall(Wall(wall), s, u_bar, w_bar, angle)


def _resolve_format(args: argparse.Namespace) -> OutputFormat:
    if args.format is not None:
        return OutputFormat(args.format)
    suffix = args.out.rsplit(".", 1)[-1].lower() if "." in args.out else ""
    try:
        return OutputFormat(suffix)
    except ValueError:
        return OutputFormat.CSV


def _check_complete(traj: Trajectory, requested: int) -> int:
    # the engine records a termination only for a run it ends early
    if traj.termination is None:
        return EXIT_OK
    print(
        f"simulation ended early after {len(traj.events)} of {requested} "
        f"collisions ({traj.termination.kind.value})",
        file=sys.stderr,
    )
    return EXIT_TERMINATED


# ---------------------------------------------------------------------------
# Commands


def _cmd_simulate(args: argparse.Namespace) -> int:
    angle = _resolve_angle(args)
    initial = _resolve_launch(args, angle)
    traj = simulate(initial, angle, args.n)
    export_trajectory(traj, _resolve_format(args), args.out)
    return _check_complete(traj, args.n)


def _cmd_periodic(args: argparse.Namespace) -> int:
    from .orbits import OrbitSpec, build_periodic_orbit

    spec = OrbitSpec(args.p, args.q, args.energy)
    if args.periods < 1:
        raise ValueError("--periods must be at least 1")
    traj = build_periodic_orbit(spec, n_collisions=spec.period * args.periods)
    export_trajectory(traj, _resolve_format(args), args.out)
    return _check_complete(traj, spec.period * args.periods)


# The largest --max of the sweep command.  A sweep holds ~0.61 * max**2
# points at ~83 B each before it writes a row: ~50 MB at 1000, and ~5 GB at
# 10000
_SWEEP_MAX = 1000


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.max > _SWEEP_MAX:
        raise ValueError(f"--max must be at most {_SWEEP_MAX}, got {args.max}")
    fmt = _resolve_format(args)
    if fmt is OutputFormat.JSON:
        raise ValueError("sweep writes CSV or SVG, not JSON")
    from .orbits import sweep_periodic_points

    points = sweep_periodic_points(args.max, args.max, args.energy, half=args.half)
    if fmt is OutputFormat.SVG:
        render_plot(points, args.out)
    else:
        _write_text(args.out, _sweep_csv_lines(points))
    return EXIT_OK


# keyed by OrbitKind's values, so that no other command loads orbits
_VERDICT_LINES = {
    "dense": "dense (no recurrence within horizon; not a proof of density)",
    "sliding": "sliding",
    "degenerate": "degenerate (vertex_hit)",
}


def _cmd_classify(args: argparse.Namespace) -> int:
    from .orbits import OrbitKind, check_periodicity_tol, classify_orbit

    # before the whole horizon is simulated
    check_periodicity_tol(args.tol)
    angle = _resolve_angle(args)
    initial = _resolve_launch(args, angle)
    traj = simulate(initial, angle, args.n)
    result = classify_orbit(traj, args.tol)
    if result.kind is OrbitKind.PERIODIC:
        print(
            f"periodic period={result.period} hits_a={result.hits_a} "
            f"hits_b={result.hits_b}"
        )
    else:
        print(_VERDICT_LINES[result.kind.value])
    return EXIT_OK


def _cmd_fixed_points(args: argparse.Namespace) -> int:
    from .collision_maps import MapId, fixed_point

    angle = WedgeAngle.from_degrees(args.theta_deg)
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
    p_cls.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_PERIODICITY_TOL,
        help=f"recurrence tolerance (default {DEFAULT_PERIODICITY_TOL:g}): positions "
        "are compared within tol*E and momenta within tol*sqrt(E)",
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
