import random
from fractions import Fraction

import pytest

from laakso import NotRepresentable, ResourceLimit, distance
from laakso.oracle import (
    agreement_check,
    build,
    graph_distance,
    iter_edges,
    point_at,
    shortest_paths,
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
        checked, worst = agreement_check(s3, 5, samples=50, seed=17)
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
        checked, worst = agreement_check(s3, 3, samples=60, seed=9)
        assert checked == 60 and worst == 0

    def test_agreement_on_other_scales(self, s4):
        checked, worst = agreement_check(s4, 2, samples=40, seed=3)
        assert checked == 40 and worst == 0

    def test_agreement_on_irrational_scale(self, q13):
        checked, worst = agreement_check(q13, 2, samples=30, seed=5)
        assert checked == 30 and worst == 0

    def test_agreement_with_override_sequence(self):
        from laakso import Space

        space = Space.from_ratio(3, m_override=(4,))
        assert space.mseq.D(2) == 12
        checked, worst = agreement_check(space, 2, samples=40, seed=7)
        assert checked == 40 and worst == 0
