"""Brute-force verification on a finite quotient of the product space.

At depth K the attractor is cut into its 2**K cells and the unit interval
into the grid of multiples of 1/D_K (which contains every identification
level of order up to K exactly).  Vertical edges carry the exact height
difference, identification edges carry weight zero.  Shortest paths on this
graph give an independent check of the closed-form distance.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

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
    k <= K, the column with digit k flipped at weight zero.
    """

    space: Space
    depth: int
    heights: tuple[Fraction, ...]
    orders: tuple[Optional[int], ...]
    height_index: dict[Fraction, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height_index", {h: i for i, h in enumerate(self.heights)})

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


def _neighbors(graph: ApproxGraph, column: int, hidx: int):
    heights = graph.heights
    if hidx > 0:
        yield column, hidx - 1, heights[hidx] - heights[hidx - 1]
    if hidx + 1 < len(heights):
        yield column, hidx + 1, heights[hidx + 1] - heights[hidx]
    order = graph.orders[hidx]
    if order is not None:
        yield column ^ (1 << (order - 1)), hidx, Fraction(0)


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


def shortest_paths(graph: ApproxGraph, source: tuple[int, int],
                   target: Optional[tuple[int, int]] = None) -> dict:
    """Dijkstra with exact Fraction keys (weights are nonnegative)."""
    dist: dict[tuple[int, int], Fraction] = {source: Fraction(0)}
    done: set[tuple[int, int]] = set()
    heap: list[tuple[Fraction, int, int]] = [(Fraction(0), *source)]
    while heap:
        d, column, hidx = heapq.heappop(heap)
        vertex = (column, hidx)
        if vertex in done:
            continue
        done.add(vertex)
        if target is not None and vertex == target:
            return dist
        for ncol, nh, weight in _neighbors(graph, column, hidx):
            neighbour = (ncol, nh)
            candidate = d + weight
            if neighbour not in dist or candidate < dist[neighbour]:
                dist[neighbour] = candidate
                heapq.heappush(heap, (candidate, ncol, nh))
    return dist


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


def agreement_check(space: Space, depth: int, samples: int, seed: int = 0,
                    extra_heights=()) -> tuple[int, Fraction]:
    """Compare graph and closed-form distances on random representable pairs.

    Returns (pairs checked, max |difference|); the maximum must be zero.
    Pairs are grouped by source so one shortest-path run serves several
    targets.
    """
    graph = build(space, depth, extra_heights)
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
            exact = space.distance(x, y)
            gap = abs(dist[_vertex(graph, y)] - exact)
            worst = max(worst, gap)
            checked += 1
    return checked, worst
