"""Command-line surface: exact distances, paths and verification artifacts.

Every fraction is emitted as an exact "p/q" string, never a float.  Exit
codes: 0 on success, 2 on any parse/usage error, 3 on an infeasible
branching override, an exhausted precision budget, a level listing, an
oracle graph or a printed D_k over its budget, or a broken internal
invariant.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction

import click

from . import oracle as oracle_mod
from .errors import (
    InfeasibleSequence,
    InvariantViolation,
    ParseError,
    PrecisionExhausted,
    ResourceLimit,
)
from .fractal import Address, format_address
from .geodesic import PathRep, classify, connect, distance, geodesic_path, minimal_interval, path_length
from .numeric import Interval
from .render import path_svg
from .space import Space


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {text!r}") from None


def _emit(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


def _value_json(v):
    if isinstance(v, Interval):
        return {"lo": str(v.lo), "hi": str(v.hi)}
    return str(v)


def _path_json(path: PathRep):
    label, _ = classify(path)
    limit = None
    if path.tail is not None:
        limit = {
            "omega_bar": _value_json(path.tail.omega),
            "truncated_at": path.tail.truncated_at,
        }
    return {
        "start": str(path.start),
        "end": str(path.end),
        "class": label,
        "segments": [
            {
                "address": format_address(s.address),
                "from": str(s.h_start),
                "to": str(s.h_end),
            }
            for s in path.segments()
        ],
        "jumps": [
            {"order": j.level.order, "height": str(j.level.value), "kind": j.kind}
            for j in path.jumps()
        ],
        "limit": limit,
    }


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (InfeasibleSequence, InvariantViolation, PrecisionExhausted, ResourceLimit) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


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
        try:
            if self.s is not None:
                return Space.from_ratio(_fraction(self.s), override)
            return Space.from_dimension(_fraction(self.q), override)
        except ValueError as exc:  # a scale or dimension out of range
            raise ParseError(str(exc)) from None


@click.group()
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
@_guarded
def space_info(cfg, entries):
    """Print n, the first branching entries and their product."""
    sp = cfg.space
    product = sp.mseq.D(entries)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and product >= 10 ** digits:
        raise ResourceLimit(f"D_{entries} has more than {digits} digits: over the int-to-str limit")
    _emit(
        {
            "scale": str(sp.scale),
            "dimension": str(sp.dimension) if sp.dimension is not None else None,
            "n": sp.n,
            "m": [sp.mseq.entry(i) for i in range(1, entries + 1)],
            "D": str(product),
        }
    )


@main.command("wormholes")
@click.option("--order", type=click.IntRange(min=1), required=True, help="Level order k >= 1.")
@click.option("--from", "lo", default="0", show_default=True, help="Lower height bound.")
@click.option("--to", "hi", default="1", show_default=True, help="Upper height bound.")
@click.pass_obj
@_guarded
def wormholes(cfg, order, lo, hi):
    """Sorted identification heights of one order inside a range."""
    levels = cfg.space.wormholes(order, _fraction(lo), _fraction(hi))
    _emit([str(w.value) for w in levels])


@main.command("distance")
@click.argument("x")
@click.argument("y")
@click.pass_obj
@_guarded
def distance_cmd(cfg, x, y):
    """Exact distance between two point literals like "101(0)@1/10"."""
    sp = cfg.space
    px, py = sp.parse_point(x), sp.parse_point(y)
    if px == py:
        _emit({"distance": "0", "interval": None})
        return
    interval = minimal_interval(sp, px, py)
    _emit(
        {
            "distance": str(interval.length_between(px, py)),
            "interval": {"a": str(interval.a), "b": str(interval.b)},
        }
    )


@main.command("geodesic")
@click.argument("x")
@click.argument("y")
@click.option("--depth", type=click.IntRange(min=1), default=8, show_default=True, help="Jumps to materialize before truncating.")
@click.option("--svg", "svg_out", type=click.Path(dir_okay=False), default=None, help="Also write an SVG figure.")
@click.pass_obj
@_guarded
def geodesic_cmd(cfg, x, y, depth, svg_out):
    """A shortest path, with its minimal interval and exact length."""
    sp = cfg.space
    px, py = sp.parse_point(x), sp.parse_point(y)
    if px == py:
        _emit({"distance": "0", "interval": None, "path": None})
        return
    interval = minimal_interval(sp, px, py)
    path = geodesic_path(sp, px, py, depth)
    if svg_out:
        with open(svg_out, "w") as handle:
            handle.write(path_svg(sp, path))
    _emit(
        {
            "distance": str(interval.length_between(px, py)),
            "interval": {"a": str(interval.a), "b": str(interval.b)},
            "path": _path_json(path),
        }
    )


@main.command("path")
@click.argument("x")
@click.argument("y")
@click.option("--strategy", type=click.Choice(["nearest", "increasing"]), default="nearest", show_default=True)
@click.option("--depth", type=click.IntRange(min=1), default=8, show_default=True)
@click.pass_obj
@_guarded
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
@_guarded
def matrix(cfg, count, prefix_len):
    """Exact pairwise distances over deterministically sampled points."""
    sp = cfg.space
    rng = random.Random(cfg.seed)
    grid = sp.mseq.D(prefix_len)
    points = []
    seen = set()
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise click.UsageError(
                f"cannot sample {count} distinct points with prefix length {prefix_len}"
            )
        length = rng.randint(0, prefix_len)
        prefix = tuple(rng.randint(0, 1) for _ in range(length))
        point = sp.point(Address(prefix, (0,)), Fraction(rng.randint(0, grid), grid))
        if point not in seen:
            seen.add(point)
            points.append(point)
    table = [[str(distance(sp, a, b)) for b in points] for a in points]
    _emit({"points": [str(p) for p in points], "matrix": table})


@main.command("oracle-check")
@click.option("--depth", type=click.IntRange(min=1), required=True, help="Approximation depth K.")
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.pass_obj
@_guarded
def oracle_check(cfg, depth, samples):
    """Randomized agreement test: graph distance vs closed form."""
    checked, worst = oracle_mod.agreement_check(cfg.space, depth, samples, distance, cfg.seed)
    _emit({"depth": depth, "samples": checked, "max_discrepancy": str(worst)})
    if worst != 0:
        sys.exit(1)


@main.command("oracle-export")
@click.option("--depth", type=click.IntRange(min=1), required=True, help="Approximation depth K.")
@click.option("--format", "fmt", type=click.Choice(["edgelist"]), default="edgelist", show_default=True)
@click.option("--extra-height", "extras", multiple=True, help="Insert an extra height node (repeatable).")
@click.pass_obj
@_guarded
def oracle_export(cfg, depth, fmt, extras):
    """Emit the approximation graph as `u v w` lines with exact weights."""
    try:
        graph = oracle_mod.build(cfg.space, depth, [_fraction(e) for e in extras])
    except ValueError as exc:  # an extra height outside [0, 1]
        raise ParseError(str(exc)) from None
    for u, v, w in oracle_mod.iter_edges(graph):
        click.echo(f"{u} {v} {w}")


if __name__ == "__main__":
    main()
