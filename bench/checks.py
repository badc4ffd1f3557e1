"""Output checks for the benchmark's ops.

Each check takes the values an op produced (plus any reference value the
checker computed outside the timed region) and returns a list of problems;
an empty list means the op passed.  They take plain values so that
``test_checks.py`` can feed them wrong ones.
"""

from __future__ import annotations

import json
from fractions import Fraction

from laakso.geodesic import Segment, validate
from laakso.numeric import Interval


def _upper(value) -> Fraction:
    return value.hi if isinstance(value, Interval) else value


def check_distance_pair(x, y, d, d_reversed, graph_d=None) -> list[str]:
    """Metric bounds, identity and symmetry; the oracle value when given."""
    problems = []
    dh = abs(y.height - x.height)
    if d < dh:
        problems.append(f"d={d} below |dh|={dh}")
    if d > 2 - dh:
        problems.append(f"d={d} above 2-|dh|={2 - dh}")
    if (d == 0) != (x == y):
        problems.append(f"d={d} but points {'equal' if x == y else 'distinct'}")
    if d != d_reversed:
        problems.append(f"d(x,y)={d} != d(y,x)={d_reversed}")
    if graph_d is not None and graph_d != d:
        problems.append(f"d={d} != oracle {graph_d}")
    return problems


def _turns(path) -> int:
    """Changes of vertical direction along a path, its tail included.

    The tail runs monotonically from the height where the path was cut
    towards its limit; a certified limit lies on one side of that height.
    """
    directions = []

    def walk(elements):
        for element in elements:
            if isinstance(element, Segment) and element.direction:
                directions.append(element.direction)

    walk(path.items)
    if path.tail is not None:
        current = path.start.height
        for element in path.items:
            current = element.h_end if isinstance(element, Segment) else element.height
        omega = path.tail.omega
        lo, hi = (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
        if lo >= current and hi > current:
            directions.append(1)
        elif hi <= current and lo < current:
            directions.append(-1)
    walk(path.post)
    return sum(a != b for a, b in zip(directions, directions[1:]))


def check_paths(space, d, geodesic, geodesic_length, connected) -> list[str]:
    """Chaining, length = distance, connect lengths >= distance, <= 2 turns.

    ``connected`` holds (path, length) for each connect strategy.  Turns are
    counted from the vertical moves, not from the jump kinds: those are
    wrong next to a certified-interval tail (see CHANGES.md).
    """
    problems = []
    for label, path in [("geodesic", geodesic)] + [
        (f"connect#{i}", p) for i, (p, _) in enumerate(connected)
    ]:
        try:
            validate(path, space)
        except AssertionError as exc:
            problems.append(f"{label} invalid: {exc or 'assertion failed'}")
    if isinstance(geodesic_length, Interval):
        if not geodesic_length.contains(d):
            problems.append(f"geodesic length {geodesic_length} misses d={d}")
    elif geodesic_length != d:
        problems.append(f"geodesic length {geodesic_length} != d={d}")
    for i, (_, length) in enumerate(connected):
        if _upper(length) < d:
            problems.append(f"connect#{i} length {length} below d={d}")
    turns = _turns(geodesic)
    if turns > 2:
        problems.append(f"geodesic turns {turns} times")
    return problems


def check_oracle(pairs) -> list[str]:
    """Graph distance equals the closed form at every (graph, closed) pair."""
    return [f"target {i}: oracle {g} != closed form {c}"
            for i, (g, c) in enumerate(pairs) if g != c]


def _fraction_json(value) -> Fraction:
    if isinstance(value, dict):
        return Fraction(value["hi"])
    return Fraction(value)


def check_cli(command, exit_code, stdout, d) -> list[str]:
    """Exit code and JSON, then the command's own property against ``d``.

    ``d`` is the library's distance for the same pair.
    """
    if exit_code != 0:
        return [f"{command}: exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{command}: output is not JSON"]
    problems = []
    if command == "distance":
        if Fraction(payload["distance"]) != d:
            problems.append(f"distance {payload['distance']} != d={d}")
    elif command == "geodesic":
        path = payload["path"]
        if path is not None and path["limit"] is None:
            total = sum(abs(Fraction(s["to"]) - Fraction(s["from"])) for s in path["segments"])
            if total != Fraction(payload["distance"]):
                problems.append(f"segments sum to {total}, distance {payload['distance']}")
    elif command == "path":
        if _fraction_json(payload["length"]) < d:
            problems.append(f"path length {payload['length']} below d={d}")
    else:
        problems.append(f"unknown command {command!r}")
    return problems
