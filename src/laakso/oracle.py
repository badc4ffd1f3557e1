"""Brute-force verification on a finite quotient of the product space.

At depth K the attractor is cut into its 2**K cells and the unit interval
into the grid of multiples of 1/D_K (which contains every identification
level of order up to K exactly).  Vertical edges carry the exact height
difference, identification edges carry weight zero.  Shortest paths on this
graph give an independent check of the closed-form distance.

Every grid and extra height is a multiple of 1/L, where L is the least
common multiple of the height denominators, so Dijkstra runs on exact
integers in units of 1/L; distances become Fractions only when read.  The
search settles sets of columns at one row at a time: the columns of a row
are the bits of one integer, and a zero-weight flip maps that set to itself
shifted, so one heap entry stands for every column reached at one distance.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional

from . import budget
from .errors import NotRepresentable
from .fractal import Address, difference_orders
from .record import Record
from .space import Point, Space
from .wormhole import classify_height


class ApproxGraph(Record):
    """Depth-K quotient graph with exact rational edge weights.

    Vertices are (column, height-index) pairs, columns being the 2**K
    length-K digit strings encoded as bit masks (bit j-1 = digit j).  Edges
    are implicit: vertical neighbours plus, at a height identified at order
    k <= K, the column with digit k flipped at weight zero.  Built once with
    the graph: ``scale`` = L, ``units[i]`` = heights[i] * L as an integer,
    ``flips[i]``, the column bit flipped at row i (0 for none), and
    ``unflipped[i]``, the set of columns (bit c for column c) whose bit
    ``flips[i]`` is clear.  Equality, hashing and the repr follow depth,
    heights and orders alone.
    """

    _fields = ("depth", "heights", "orders")
    __slots__ = _fields + ("height_index", "scale", "units", "flips", "unflipped")

    def __init__(self, depth: int, heights: tuple[Fraction, ...],
                 orders: tuple[Optional[int], ...]):
        scale = lcm(*(h.denominator for h in heights))
        # columns with bit k-1 clear: runs of 2**(k-1) ones, then as many zeros
        every = (1 << (1 << depth)) - 1
        clear = [every // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1) for j in range(depth)]
        fields = {
            "depth": depth,
            "heights": heights,
            "orders": orders,
            "height_index": {h: i for i, h in enumerate(heights)},
            "scale": scale,
            "units": tuple(h.numerator * (scale // h.denominator) for h in heights),
            "flips": tuple(0 if k is None else 1 << (k - 1) for k in orders),
            "unflipped": tuple(0 if k is None else clear[k - 1] for k in orders),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def vertex_count(self) -> int:
        return (1 << self.depth) * len(self.heights)


def build(space: Space, depth: int, extra_heights=()) -> ApproxGraph:
    """Assemble the depth-K graph; the grid always resolves orders <= K."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    budget.check_vertices(depth, 1)  # the columns alone, before D_K is built
    grid_den = space.mseq.D(depth)
    budget.check_vertices(depth, grid_den + 1)  # the grid alone, before it is built
    heights = {Fraction(j, grid_den) for j in range(grid_den + 1)}
    for h in extra_heights:
        h = Fraction(h)
        if not 0 <= h <= 1:
            raise ValueError(f"extra height {h} outside [0, 1]")
        heights.add(h)
    ordered = tuple(sorted(heights))
    budget.check_vertices(depth, len(ordered))
    orders = []
    for h in ordered:
        level = classify_height(space.mseq, h)
        orders.append(level.order if level is not None and level.order <= depth else None)
    return ApproxGraph(depth, ordered, tuple(orders))


def _column(graph: ApproxGraph, address: Address) -> int:
    return address._reaching(graph.depth)[0] & ((1 << graph.depth) - 1)  # the first K digits


def _vertex(graph: ApproxGraph, p: Point) -> tuple[int, int]:
    index = graph.height_index.get(p.height)
    if index is None:
        raise NotRepresentable(f"height {p.height} is not a node of the depth-{graph.depth} grid")
    return _column(graph, p.address), index


def graph_distance(graph: ApproxGraph, x: Point, y: Point) -> Fraction:
    """Exact shortest-path distance between two representable points."""
    diffs = difference_orders(x.address, y.address)
    if not diffs.is_finite or any(order > graph.depth for order in diffs):
        raise NotRepresentable(f"addresses differ beyond depth {graph.depth}: not representable")
    source = _vertex(graph, x)
    target = _vertex(graph, y)
    dist = shortest_paths(graph, source, target)
    return dist[target]


class Distances(Mapping):
    """Exact distances from one source, keyed by (column, height index).

    Holds the settled vertices only, each at its shortest distance.  Row i
    keeps the groups ``(units, columns)`` its settling pops made: ``columns``
    is a set of columns (bit c for column c), all at distance ``units / L``.
    A lookup scans its row's groups and builds the Fraction; a vertex not
    settled raises KeyError.  Iteration is column-major.
    """

    __slots__ = ("_width", "_scale", "_groups", "_settled")

    def __init__(self, width: int, scale: int, groups: list[list[tuple[int, int]]],
                 settled: list[int]):
        self._width, self._scale, self._groups, self._settled = width, scale, groups, settled

    def __getitem__(self, vertex) -> Fraction:
        column, hidx = vertex
        if 0 <= column < self._width and 0 <= hidx < len(self._groups):
            for units, columns in self._groups[hidx]:
                if columns >> column & 1:
                    return Fraction(units, self._scale)
        raise KeyError(vertex)

    def __len__(self) -> int:
        return sum(columns.bit_count() for columns in self._settled)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        settled = self._settled
        for column in range(self._width):
            for hidx, columns in enumerate(settled):
                if columns >> column & 1:
                    yield column, hidx


def _check_vertex(graph: ApproxGraph, vertex: tuple[int, int], role: str) -> None:
    column, hidx = vertex
    if not (0 <= column < 1 << graph.depth and 0 <= hidx < len(graph.heights)):
        raise ValueError(f"{role} {vertex} outside the {1 << graph.depth} x {len(graph.heights)} graph")


def shortest_paths(graph: ApproxGraph, source: tuple[int, int],
                   target: Optional[tuple[int, int]] = None) -> Distances:
    """Dijkstra on integer weights in units of 1/L (weights are nonnegative).

    A heap entry ``(units, row, columns)`` holds every column of a row
    reached at one distance, as the bits of ``columns``.  A pop drops the
    columns already settled at that row, closes the rest under the row's
    zero-weight flip (two shifts), settles them all and pushes the part of
    each vertical neighbour row still unsettled.  Keys never decrease, so
    each vertex is settled at the first pop that holds it.  With a target
    the search stops once the target is settled.  A source or target
    outside the graph raises ValueError.
    """
    _check_vertex(graph, source, "source")
    if target is not None:
        _check_vertex(graph, target, "target")
    rows = len(graph.heights)
    units, flips, unflipped = graph.units, graph.flips, graph.unflipped
    groups = [[] for _ in range(rows)]
    settled = [0] * rows
    stop_row, stop_bit = (-1, 0) if target is None else (target[1], 1 << target[0])
    heap = [(0, source[1], 1 << source[0])]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, row, columns = pop(heap)
        done = settled[row]
        columns &= ~done
        if not columns:
            continue
        bit = flips[row]
        if bit:  # add the flip partners, none settled: settled sets are closed too
            low = unflipped[row]
            columns |= (columns & low) << bit | (columns >> bit) & low
        settled[row] = done | columns
        groups[row].append((d, columns))
        if row == stop_row and columns & stop_bit:
            break
        if row > 0:
            fresh = columns & ~settled[row - 1]
            if fresh:
                push(heap, (d + units[row] - units[row - 1], row - 1, fresh))
        if row + 1 < rows:
            fresh = columns & ~settled[row + 1]
            if fresh:
                push(heap, (d + units[row + 1] - units[row], row + 1, fresh))
    return Distances(1 << graph.depth, graph.scale, groups, settled)


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
    column &= ~graph.flips[hidx]  # as Space.point clears a level's digit; digits past K are 0
    address = object.__new__(Address)._store(column, column.bit_length(), 0, 1)  # ends in 1
    return Point(address, graph.heights[hidx])


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
