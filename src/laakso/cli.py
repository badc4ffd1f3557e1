"""Command-line surface: exact distances, paths and verification artifacts.

Every fraction is emitted as an exact "p/q" string, never a float.  Exit
codes: 0 on success, 1 when ``oracle-check`` finds a discrepancy, 2 on any
parse/usage error or an SVG file that cannot be written, 3 on an
infeasible branching override, a scale, a level listing, a tail limit or an
oracle graph over its budget, a number too long to print, or a broken
internal invariant.
"""

from __future__ import annotations

import functools
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import click

from . import budget, geodesic
from .errors import InfeasibleSequence, InvariantViolation, ParseError, ResourceLimit
from .fractal import Address, format_address
from .geodesic import MinimalInterval, PathRep, classify, connect, distance, geodesic_path, path_length
from .numeric import Interval
from .space import Space


def _fraction(text: str) -> Fraction:
    budget.check_exponent(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {text!r}") from None


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, over str, int, None, list and dict.

    Any other leaf (a Fraction, a float) raises TypeError, as do keys other than str.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload) -> None:
    click.echo(_json(payload))


def _value_json(v):
    if isinstance(v, Interval):
        return {"lo": budget.text(v.lo), "hi": budget.text(v.hi)}
    return budget.text(v)


def _distance_json(interval: MinimalInterval, x, y) -> dict:
    return {
        "distance": budget.text(interval.length_between(x, y)),
        "interval": {"a": budget.text(interval.a), "b": budget.text(interval.b)},
    }


def _path_json(path: PathRep):
    label, kinds = classify(path)
    texts: dict = {}  # a level ends a segment, is its jump's height and starts the next one

    def height(h) -> str:
        key = (h.numerator, h.denominator)
        text = texts.get(key)
        if text is None:
            text = texts[key] = budget.text(Fraction(*key))
        return text

    limit = None
    if path.tail is not None:
        limit = {
            "omega_bar": _value_json(path.tail.omega),
            "truncated_at": path.tail.truncated_at,
        }
    return {
        "start": budget.text(path.start),
        "end": budget.text(path.end),
        "class": label,
        "segments": [
            {
                "address": format_address(s.address),
                "from": height(s.start),
                "to": height(s.end),
            }
            for s in path.segments()
        ],
        "jumps": [
            {"order": j.level.order, "height": height(j.level), "kind": kind}
            for j, kind in zip(path.jumps(), kinds)
        ],
        "limit": limit,
    }


class _Config:
    def __init__(self, s, q, m_override, seed):
        self.s = s
        self.q = q
        self.m_override = m_override
        self.seed = seed

    @functools.cached_property
    def space(self) -> Space:
        override = ()
        if self.m_override:
            try:
                override = tuple(int(tok) for tok in self.m_override.split(","))
            except ValueError:
                raise ParseError(f"bad override list {self.m_override!r}") from None
        literal = self.s if self.s is not None else self.q
        value = _fraction(literal)
        try:
            if self.s is not None:
                return Space.from_ratio(value, override)
            return Space.from_dimension(value, override)
        except ValueError as exc:  # out of range: put the literal after "scale" or "dimension"
            what, rule = str(exc).split(" ", 1)
            raise ParseError(f"{what} {literal!r} {rule}") from None


class _Group(click.Group):
    """Runs a command; a ParseError exits 2 and the other library errors 3, each with one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ParseError, InfeasibleSequence, InvariantViolation, ResourceLimit) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, ParseError) else 3)


@click.group(cls=_Group)
@click.option("--scale", "-s", "s", default=None, help="Rational scale s > 2, e.g. 3 or 7/2.")
@click.option("--dimension", "-q", "q", default=None, help="Rational dimension Q in (1,2), e.g. 13/10.")
@click.option("--m-override", default=None, help="Comma-separated branching entries to force, e.g. 3,3,4.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for sampling commands.")
@click.pass_context
def main(ctx, s, q, m_override, seed):
    """Exact geometry of a glued Cantor-by-interval space."""
    if (s is None) == (q is None):
        raise click.UsageError("give exactly one of --scale or --dimension")
    ctx.obj = _Config(s, q, m_override, seed)


@main.command("space-info")
@click.option("--entries", type=click.IntRange(min=0), default=8, show_default=True, help="How many branching entries to print.")
@click.pass_obj
def space_info(cfg, entries):
    """Print n, the first branching entries and their product."""
    sp = cfg.space
    # n and every m_i are no longer than a rational scale (budget.MAX_SCALE_LOG2 bounds 2^(a/b))
    scale = budget.text(sp.scale)
    dimension = budget.text(sp.dimension) if sp.dimension is not None else None
    budget.check_printable(sp.n, entries, f"D_{entries}")
    _emit(
        {
            "scale": scale,
            "dimension": dimension,
            "n": sp.n,
            "m": [sp.mseq.entry(i) for i in range(1, entries + 1)],
            "D": budget.text(sp.mseq.D(entries), f"D_{entries}"),
        }
    )


@main.command("wormholes")
@click.option("--order", type=click.IntRange(min=1), required=True, help="Level order k >= 1.")
@click.option("--from", "lo", default="0", show_default=True, help="Lower height bound.")
@click.option("--to", "hi", default="1", show_default=True, help="Upper height bound.")
@click.pass_obj
def wormholes(cfg, order, lo, hi):
    """Sorted identification heights of one order inside a range."""
    levels = cfg.space.wormholes(order, _fraction(lo), _fraction(hi))
    _emit([budget.text(w.value) for w in levels])


@main.command("distance")
@click.argument("x")
@click.argument("y")
@click.pass_obj
def distance_cmd(cfg, x, y):
    """Exact distance between two point literals like "101(0)@1/10"."""
    sp = cfg.space
    px, py = sp.parse_point(x), sp.parse_point(y)
    if px == py:
        _emit({"distance": "0", "interval": None})
        return
    _emit(_distance_json(geodesic.minimal_interval(sp, px, py), px, py))


@main.command("geodesic")
@click.argument("x")
@click.argument("y")
@click.option("--depth", type=click.IntRange(min=1), default=8, show_default=True, help="Jumps to materialize before truncating.")
@click.option("--svg", "svg_out", type=click.Path(dir_okay=False), default=None, help="Also write an SVG figure.")
@click.pass_obj
def geodesic_cmd(cfg, x, y, depth, svg_out):
    """A shortest path, with its minimal interval and exact length."""
    sp = cfg.space
    px, py = sp.parse_point(x), sp.parse_point(y)
    if px == py:
        _emit({"distance": "0", "interval": None, "path": None})
        return
    # looked up at call time, so a patched or traced minimal_interval sees the one call
    interval = geodesic.minimal_interval(sp, px, py)
    path = geodesic_path(sp, px, py, depth, interval)
    if svg_out:
        from . import render

        try:
            with open(svg_out, "w") as handle:
                handle.write(render.path_svg(sp, path))
        except OSError as exc:
            raise ParseError(f"cannot write {svg_out!r}: {exc.strerror}") from None
    _emit({**_distance_json(interval, px, py), "path": _path_json(path)})


@main.command("path")
@click.argument("x")
@click.argument("y")
@click.option("--strategy", type=click.Choice(["nearest", "increasing"]), default="nearest", show_default=True)
@click.option("--depth", type=click.IntRange(min=1), default=8, show_default=True)
@click.pass_obj
def path_cmd(cfg, x, y, strategy, depth):
    """A constructive (not necessarily shortest) path between two points."""
    sp = cfg.space
    px, py = sp.parse_point(x), sp.parse_point(y)
    path = connect(sp, px, py, strategy, depth)
    _emit({"length": _value_json(path_length(path)), "path": _path_json(path)})


@main.command("matrix")
@click.option("--count", type=click.IntRange(min=0), default=8, show_default=True, help="Number of sampled points.")
@click.option("--prefix-len", type=click.IntRange(min=0), default=4, show_default=True, help="Maximum address prefix length.")
@click.pass_obj
def matrix(cfg, count, prefix_len):
    """Exact pairwise distances over deterministically sampled points."""
    sp = cfg.space
    if not count:
        _emit({"points": [], "matrix": []})
        return
    # the heights are j / D_L, refused before D_L is built when its lower bound n**L is too long
    budget.check_printable(sp.n, prefix_len, "a number to print")
    rng = random.Random(cfg.seed)
    grid = sp.mseq.D(prefix_len)
    points = []
    seen = set()
    attempts = 0
    # the draws come from 2**prefix_len addresses times grid + 1 heights: a
    # count over that is refused before the first draw
    allowed = 200 * count if count <= (grid + 1) << prefix_len else 0
    while len(points) < count:
        attempts += 1
        if attempts > allowed:
            raise click.UsageError(
                f"cannot sample {count} distinct points with prefix length {prefix_len}"
            )
        length = rng.randint(0, prefix_len)
        prefix = tuple(rng.randint(0, 1) for _ in range(length))
        point = sp.point(Address(prefix, (0,)), Fraction(rng.randint(0, grid), grid))
        if point not in seen:
            seen.add(point)
            points.append(point)
    # the distance is symmetric and zero on the diagonal: each unordered pair once
    table = [["0"] * count for _ in points]
    for i, a in enumerate(points):
        for j in range(i + 1, count):
            table[i][j] = table[j][i] = budget.text(distance(sp, a, points[j]))
    _emit({"points": [budget.text(p) for p in points], "matrix": table})


@main.command("oracle-check")
@click.option("--depth", type=click.IntRange(min=1), required=True, help="Approximation depth K.")
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.pass_obj
def oracle_check(cfg, depth, samples):
    """Randomized agreement test: graph distance vs closed form."""
    from . import oracle

    checked, worst = oracle.agreement_check(cfg.space, depth, samples, distance, cfg.seed)
    _emit({"depth": depth, "samples": checked, "max_discrepancy": budget.text(worst)})
    if worst != 0:
        sys.exit(1)


@main.command("oracle-export")
@click.option("--depth", type=click.IntRange(min=1), required=True, help="Approximation depth K.")
@click.option("--format", "fmt", type=click.Choice(["edgelist"]), default="edgelist", show_default=True)
@click.option("--extra-height", "extras", multiple=True, help="Insert an extra height node (repeatable).")
@click.pass_obj
def oracle_export(cfg, depth, fmt, extras):
    """Emit the approximation graph as `u v w` lines with exact weights."""
    from . import oracle

    heights = [_fraction(e) for e in extras]
    budget.text(heights)  # formats every height, as the vertex labels will
    try:
        graph = oracle.build(cfg.space, depth, heights)
    except ValueError as exc:  # an extra height outside [0, 1]
        raise ParseError(str(exc)) from None
    for u, v, w in oracle.iter_edges(graph):
        click.echo(f"{u} {v} {budget.text(w)}")


if __name__ == "__main__":
    main()
