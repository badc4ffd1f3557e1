"""Brute-force verification on a finite quotient of the product space.

At depth K the attractor is cut into its 2**K cells and the unit interval
into the grid of multiples of 1/D_K (which contains every identification
level of order up to K exactly).  Vertical edges carry the exact height
difference, identification edges carry weight zero.  Shortest paths on this
graph give an independent check of the closed-form distance.

Every grid and extra height is a multiple of 1/L, where L is the least
common multiple of the height denominators, so Dijkstra runs on exact
integers in units of 1/L; distances become Fractions only when read.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional

from .errors import NotRepresentable, ResourceLimit
from .fractal import Address, difference_orders
from .space import Point, Space
from .wormhole import classify_height


@dataclass(frozen=True)
class ApproxGraph:
    """Depth-K quotient graph with exact rational edge weights.

    Vertices are (column, height-index) pairs, columns being the 2**K
    length-K digit strings encoded as bit masks (bit j-1 = digit j).  Edges
    are implicit: vertical neighbours plus, at a height identified at order
    k <= K, the column with digit k flipped at weight zero.  Built once with
    the graph: ``scale`` = L, ``units[i]`` = heights[i] * L as an integer,
    and ``flips[i]``, the column bit flipped at row i (0 for none).
    """

    space: Space
    depth: int
    heights: tuple[Fraction, ...]
    orders: tuple[Optional[int], ...]
    height_index: dict[Fraction, int] = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)
    units: tuple[int, ...] = field(init=False, compare=False, repr=False)
    flips: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scale = lcm(*(h.denominator for h in self.heights))
        fields = {
            "height_index": {h: i for i, h in enumerate(self.heights)},
            "scale": scale,
            "units": tuple(h.numerator * (scale // h.denominator) for h in self.heights),
            "flips": tuple(0 if k is None else 1 << (k - 1) for k in self.orders),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def vertex_count(self) -> int:
        return (1 << self.depth) * len(self.heights)


def _check_budget(depth: int, rows: int, max_vertices: int) -> None:
    if (1 << depth) * rows > max_vertices:
        raise ResourceLimit(f"{(1 << depth) * rows} vertices exceed the budget of {max_vertices}")


def build(space: Space, depth: int, extra_heights=(), max_vertices: int = 1_000_000) -> ApproxGraph:
    """Assemble the depth-K graph; the grid always resolves orders <= K."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid_den = space.mseq.D(depth)
    _check_budget(depth, grid_den + 1, max_vertices)  # the grid alone, before it is built
    heights = {Fraction(j, grid_den) for j in range(grid_den + 1)}
    for h in extra_heights:
        h = Fraction(h)
        if not 0 <= h <= 1:
            raise ValueError(f"extra height {h} outside [0, 1]")
        heights.add(h)
    ordered = tuple(sorted(heights))
    _check_budget(depth, len(ordered), max_vertices)
    orders = []
    for h in ordered:
        level = classify_height(space.mseq, h)
        orders.append(level.order if level is not None and level.order <= depth else None)
    return ApproxGraph(space, depth, ordered, tuple(orders))


def _column(graph: ApproxGraph, address: Address) -> int:
    mask = 0
    for j in range(1, graph.depth + 1):
        if address.digit(j):
            mask |= 1 << (j - 1)
    return mask


def _vertex(graph: ApproxGraph, p: Point) -> tuple[int, int]:
    index = graph.height_index.get(p.height)
    if index is None:
        raise NotRepresentable(f"height {p.height} is not a node of the depth-{graph.depth} grid")
    return _column(graph, p.address), index


def _check_pair(graph: ApproxGraph, x: Point, y: Point) -> None:
    diffs = difference_orders(x.address, y.address)
    if not diffs.is_finite or any(order > graph.depth for order in diffs.head):
        raise NotRepresentable(
            f"addresses differ beyond depth {graph.depth}: not representable"
        )


def graph_distance(graph: ApproxGraph, x: Point, y: Point) -> Fraction:
    """Exact shortest-path distance between two representable points."""
    _check_pair(graph, x, y)
    source = _vertex(graph, x)
    target = _vertex(graph, y)
    dist = shortest_paths(graph, source, target)
    return dist[target]


class Distances(Mapping):
    """Exact distances from one source, keyed by (column, height index).

    Holds the settled vertices only, each at its shortest distance.  Values
    are stored as integers in units of 1/L and become Fractions on lookup;
    a vertex not settled raises KeyError.
    """

    __slots__ = ("_rows", "_scale", "_dist", "_done")

    def __init__(self, rows: int, scale: int, dist: list[int], done: bytearray):
        self._rows, self._scale, self._dist, self._done = rows, scale, dist, done

    def _flat(self, vertex) -> int:
        column, hidx = vertex
        v = column * self._rows + hidx
        if not (0 <= hidx < self._rows and 0 <= v < len(self._done) and self._done[v]):
            raise KeyError(vertex)
        return v

    def __getitem__(self, vertex) -> Fraction:
        return Fraction(self._dist[self._flat(vertex)], self._scale)

    def __len__(self) -> int:
        return len(self._done) - self._done.count(0)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for v, settled in enumerate(self._done):
            if settled:
                yield divmod(v, self._rows)


def shortest_paths(graph: ApproxGraph, source: tuple[int, int],
                   target: Optional[tuple[int, int]] = None) -> Distances:
    """Dijkstra on integer weights in units of 1/L (weights are nonnegative).

    Vertex (column, hidx) is the flat index column * rows + hidx.  With a
    target the search stops once the target is settled.
    """
    rows = len(graph.heights)
    units, flips = graph.units, graph.flips
    size = rows << graph.depth
    unreached = (graph.scale << graph.depth) + 1  # longer than all edges together
    dist = [unreached] * size
    done = bytearray(size)
    start = source[0] * rows + source[1]
    stop = -1 if target is None else target[0] * rows + target[1]
    dist[start] = 0
    heap = [(0, start)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, v = pop(heap)
        if done[v]:
            continue
        done[v] = 1
        if v == stop:
            break
        column, hidx = divmod(v, rows)
        if hidx > 0:
            u, nd = v - 1, d + units[hidx] - units[hidx - 1]
            if nd < dist[u]:
                dist[u] = nd
                push(heap, (nd, u))
        if hidx + 1 < rows:
            u, nd = v + 1, d + units[hidx + 1] - units[hidx]
            if nd < dist[u]:
                dist[u] = nd
                push(heap, (nd, u))
        bit = flips[hidx]
        if bit:
            u = v - bit * rows if column & bit else v + bit * rows
            if d < dist[u]:
                dist[u] = d
                push(heap, (d, u))
    return Distances(rows, graph.scale, dist, done)


def vertex_label(graph: ApproxGraph, column: int, hidx: int) -> str:
    digits = "".join(str((column >> j) & 1) for j in range(graph.depth))
    return f"{digits}:{graph.heights[hidx]}"


def iter_edges(graph: ApproxGraph) -> Iterator[tuple[str, str, Fraction]]:
    """Every edge once, as (label, label, weight)."""
    for column in range(1 << graph.depth):
        for hidx in range(len(graph.heights) - 1):
            yield (
                vertex_label(graph, column, hidx),
                vertex_label(graph, column, hidx + 1),
                graph.heights[hidx + 1] - graph.heights[hidx],
            )
    for hidx, order in enumerate(graph.orders):
        if order is None:
            continue
        bit = 1 << (order - 1)
        for column in range(1 << graph.depth):
            if column & bit:
                continue
            yield (
                vertex_label(graph, column, hidx),
                vertex_label(graph, column | bit, hidx),
                Fraction(0),
            )


def point_at(graph: ApproxGraph, column: int, hidx: int) -> Point:
    """The canonical point represented by a graph vertex."""
    digits = tuple((column >> j) & 1 for j in range(graph.depth))
    return graph.space.point(Address(digits, (0,)), graph.heights[hidx])


def agreement_check(space: Space, depth: int, samples: int,
                    closed_form: Callable[[Space, Point, Point], Fraction],
                    seed: int = 0) -> tuple[int, Fraction]:
    """Compare graph and closed-form distances on random representable pairs.

    Returns (pairs checked, max |difference|); the maximum must be zero.
    Pairs are grouped by source so one shortest-path run serves several
    targets.  The caller passes the closed form as ``closed_form(space, x,
    y)``, so the oracle never imports the code it checks.
    """
    graph = build(space, depth)
    rng = random.Random(seed)
    columns = 1 << depth
    rows = len(graph.heights)
    per_source = 5
    worst = Fraction(0)
    checked = 0
    while checked < samples:
        src = (rng.randrange(columns), rng.randrange(rows))
        x = point_at(graph, *src)
        dist = shortest_paths(graph, _vertex(graph, x))
        for _ in range(min(per_source, samples - checked)):
            tgt = (rng.randrange(columns), rng.randrange(rows))
            y = point_at(graph, *tgt)
            exact = closed_form(space, x, y)
            gap = abs(dist[_vertex(graph, y)] - exact)
            worst = max(worst, gap)
            checked += 1
    return checked, worst
