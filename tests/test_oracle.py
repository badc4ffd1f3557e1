import ast
import heapq
import random
from pathlib import Path
from fractions import Fraction

import pytest

import laakso
from laakso import NotRepresentable, ResourceLimit, Space, distance
from laakso.oracle import (
    agreement_check,
    build,
    graph_distance,
    iter_edges,
    point_at,
    shortest_paths,
    vertex_label,
    _vertex,
)


class TestBuild:
    def test_depth_one_shape(self, s3):
        graph = build(s3, 1)
        assert graph.heights == (0, Fraction(1, 3), Fraction(2, 3), 1)
        assert graph.vertex_count == 8
        assert graph.orders == (None, 1, 1, None)

    def test_depth_two_levels(self, s3):
        graph = build(s3, 2)
        by_height = dict(zip(graph.heights, graph.orders))
        assert by_height[Fraction(1, 3)] == 1 and by_height[Fraction(2, 3)] == 1
        for num in (1, 2, 4, 5, 7, 8):
            assert by_height[Fraction(num, 9)] == 2
        assert by_height[0] is None and by_height[1] is None

    def test_extra_height_splits_column(self, s3):
        graph = build(s3, 1, extra_heights=[Fraction(1, 5)])
        assert Fraction(1, 5) in graph.heights
        idx = graph.heights.index(Fraction(1, 5))
        assert graph.heights[idx - 1] == 0 and graph.heights[idx + 1] == Fraction(1, 3)
        edges = {(u, v): w for u, v, w in iter_edges(graph)}
        assert edges[("0:0", "0:1/5")] == Fraction(1, 5)
        assert edges[("0:1/5", "0:1/3")] == Fraction(1, 3) - Fraction(1, 5)
        assert edges[("0:1/3", "1:1/3")] == 0

    def test_vertex_budget(self, s3):
        with pytest.raises(ResourceLimit):
            build(s3, 10, max_vertices=1000)

    def test_vertex_budget_checked_before_the_grid(self, s3, monkeypatch):
        # 2**20 columns by 3**20 + 1 grid rows: building the grid first would
        # not finish, so any grid height made fails the test at once
        def no_heights(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr("laakso.oracle.Fraction", no_heights)
        with pytest.raises(ResourceLimit, match="budget of 1000$"):
            build(s3, 20, max_vertices=1000)

    def test_integer_units(self, s3):
        graph = build(s3, 2, extra_heights=[Fraction(1, 5)])
        assert graph.scale == 45
        assert [Fraction(u, graph.scale) for u in graph.units] == list(graph.heights)
        assert graph.flips == tuple(0 if k is None else 1 << (k - 1) for k in graph.orders)

    def test_height_index_built_once(self, s3):
        graph = build(s3, 2, extra_heights=[Fraction(1, 5)])
        assert graph.height_index is graph.height_index
        assert [graph.height_index[h] for h in graph.heights] == list(range(len(graph.heights)))
        assert graph == build(s3, 2, extra_heights=[Fraction(1, 5)])


class TestGraphDistance:
    def test_worked_example(self, s3):
        graph = build(s3, 3, extra_heights=[Fraction(1, 5), Fraction(1, 10)])
        x = s3.parse_point("(0)@1/5")
        y = s3.parse_point("101(0)@1/10")
        assert graph_distance(graph, x, y) == Fraction(11, 30)

    def test_same_vertex(self, s3):
        graph = build(s3, 1)
        p = s3.parse_point("(0)@1/3")
        assert graph_distance(graph, p, p) == 0

    def test_straight_column(self, s3):
        graph = build(s3, 1)
        assert graph_distance(graph, s3.parse_point("(0)@0"), s3.parse_point("(0)@1")) == 1

    def test_wormhole_point_reaches_both_columns(self, s3):
        # either preimage works as an endpoint: the zero edge joins them
        graph = build(s3, 1)
        p = s3.parse_point("1(0)@1/3")  # canonicalizes into the 0-column
        q = s3.parse_point("1(0)@0")
        assert graph_distance(graph, p, q) == Fraction(1, 3)

    def test_representability_errors(self, s3):
        graph = build(s3, 2)
        with pytest.raises(NotRepresentable):
            graph_distance(graph, s3.parse_point("(0)@1/5"), s3.parse_point("(0)@0"))
        with pytest.raises(NotRepresentable):
            # addresses differing at order 3 exceed depth 2
            graph_distance(graph, s3.parse_point("(0)@0"), s3.parse_point("001(0)@0"))
        with pytest.raises(NotRepresentable):
            graph_distance(graph, s3.parse_point("(0)@0"), s3.parse_point("(1)@0"))


class TestAgreement:
    def test_exhaustive_depth_one(self, s3):
        graph = build(s3, 1)
        points = [
            point_at(graph, column, hidx)
            for column in range(2)
            for hidx in range(len(graph.heights))
        ]
        for x in points:
            for y in points:
                assert graph_distance(graph, x, y) == distance(s3, x, y)

    def test_randomized_depth_five(self, s3):
        checked, worst = agreement_check(s3, 5, 50, distance, seed=17)
        assert checked == 50 and worst == 0

    def test_exhaustive_depth_two(self, s3):
        graph = build(s3, 2, extra_heights=[Fraction(1, 5)])
        points = [
            point_at(graph, column, hidx)
            for column in range(4)
            for hidx in range(len(graph.heights))
        ]
        for x in points:
            dist = shortest_paths(graph, _vertex(graph, x))
            for y in points:
                assert dist[_vertex(graph, y)] == distance(s3, x, y)

    def test_deeper_graphs_never_lengthen(self, s3):
        rng = random.Random(51)
        shallow = build(s3, 2)
        deep = build(s3, 3)
        deeper = build(s3, 4)
        rows = len(shallow.heights)
        for _ in range(60):
            x = point_at(shallow, rng.randrange(4), rng.randrange(rows))
            y = point_at(shallow, rng.randrange(4), rng.randrange(rows))
            exact = distance(s3, x, y)
            d2 = graph_distance(shallow, x, y)
            d3 = graph_distance(deep, x, y)
            d4 = graph_distance(deeper, x, y)
            assert d2 >= d3 >= d4 >= exact

    def test_height_gap_lower_bound(self, s3):
        graph = build(s3, 2)
        rng = random.Random(52)
        rows = len(graph.heights)
        for _ in range(100):
            x = point_at(graph, rng.randrange(4), rng.randrange(rows))
            y = point_at(graph, rng.randrange(4), rng.randrange(rows))
            assert graph_distance(graph, x, y) >= abs(x.height - y.height)

    def test_randomized_agreement_helper(self, s3):
        checked, worst = agreement_check(s3, 3, 60, distance, seed=9)
        assert checked == 60 and worst == 0

    def test_agreement_on_other_scales(self, s4):
        checked, worst = agreement_check(s4, 2, 40, distance, seed=3)
        assert checked == 40 and worst == 0

    def test_agreement_on_irrational_scale(self, q13):
        checked, worst = agreement_check(q13, 2, 30, distance, seed=5)
        assert checked == 30 and worst == 0

    def test_agreement_with_override_sequence(self):
        from laakso import Space

        space = Space.from_ratio(3, m_override=(4,))
        assert space.mseq.D(2) == 12
        checked, worst = agreement_check(space, 2, 40, distance, seed=7)
        assert checked == 40 and worst == 0


class TestIndependence:
    @pytest.mark.parametrize("module", ["oracle.py", "space.py"])
    def test_imports_nothing_from_geodesic(self, module):
        tree = ast.parse((Path(laakso.__file__).parent / module).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {name for name in imported if "geodesic" in name}

    def test_wrong_closed_form_is_caught(self, s3):
        def off_by_a_billionth(space, x, y):
            return distance(space, x, y) + Fraction(1, 10 ** 9)

        checked, worst = agreement_check(s3, 3, 20, off_by_a_billionth, seed=9)
        assert checked == 20 and worst == Fraction(1, 10 ** 9)


def _reference_distances(graph, source) -> dict:
    """Fraction-keyed Dijkstra over the exported edge list."""
    adjacent: dict[str, list] = {}
    for u, v, w in iter_edges(graph):
        adjacent.setdefault(u, []).append((v, w))
        adjacent.setdefault(v, []).append((u, w))
    start = vertex_label(graph, *source)
    dist = {start: Fraction(0)}
    heap = [(Fraction(0), start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacent[u]:
            if v not in dist or d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


class TestShortestPaths:
    @pytest.mark.parametrize("name,depth,extras", [
        ("s3", 2, [Fraction(1, 5), Fraction(1, 10)]),
        ("s72", 2, [Fraction(3, 7)]),
        ("q13", 1, [Fraction(1, 3)]),
    ])
    def test_matches_fraction_reference(self, request, name, depth, extras):
        graph = build(request.getfixturevalue(name), depth, extra_heights=extras)
        rows = len(graph.heights)
        for column, hidx in [(0, 0), ((1 << depth) - 1, rows // 2), (1, rows - 1)]:
            dist = shortest_paths(graph, (column, hidx))
            expected = _reference_distances(graph, (column, hidx))
            assert {vertex_label(graph, *v): d for v, d in dist.items()} == expected

    def test_mapping_view(self, s3):
        graph = build(s3, 3, extra_heights=[Fraction(1, 5)])
        rows = len(graph.heights)
        dist = shortest_paths(graph, (0, 0))
        assert len(dist) == graph.vertex_count == len(list(dist))
        assert all(type(d) is Fraction for d in dist.values())
        assert dist[(0, rows - 1)] == 1
        for outside in [(8, 0), (0, rows), (-1, 0), (0, -1)]:
            with pytest.raises(KeyError):
                dist[outside]

    def test_early_exit_agrees_with_full_run(self, s72):
        graph = build(s72, 4)
        rng = random.Random(61)
        rows = len(graph.heights)
        for _ in range(20):
            source = (rng.randrange(16), rng.randrange(rows))
            target = (rng.randrange(16), rng.randrange(rows))
            full = shortest_paths(graph, source)
            early = shortest_paths(graph, source, target)
            assert early[target] == full[target]
            assert len(early) <= len(full) == graph.vertex_count
            assert all(early[v] == full[v] for v in early)

    def test_early_exit_leaves_far_vertices_unsettled(self, s3):
        graph = build(s3, 3)
        early = shortest_paths(graph, (0, 0), (0, 1))
        assert early[(0, 1)] == Fraction(1, 27)
        assert len(early) < graph.vertex_count
        with pytest.raises(KeyError):
            early[(0, len(graph.heights) - 1)]


@pytest.fixture(scope="module")
def s3_433():
    return Space.from_ratio(3, m_override=(4, 3, 3))


class TestWiderAgreement:
    @pytest.mark.parametrize("name,depth,vertices", [
        ("s72", 5, 18_464),
        ("s4", 5, 32_800),  # Q = 3/2
        ("s3_433", 5, 10_400),
        ("q13", 3, 8_008),
    ])
    def test_random_pairs(self, request, name, depth, vertices):
        space = request.getfixturevalue(name)
        assert build(space, depth).vertex_count == vertices
        checked, worst = agreement_check(space, depth, 100, distance, seed=29)
        assert checked == 100 and worst == 0
