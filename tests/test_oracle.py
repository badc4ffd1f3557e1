import ast
import heapq
import random
from pathlib import Path
from fractions import Fraction

import pytest

import laakso
from laakso import (Address, Jump, NotRepresentable, ResourceLimit, Space, distance, geodesic_path,
                    path_length)
from laakso.oracle import (
    agreement_check,
    build,
    graph_distance,
    iter_edges,
    point_at,
    shortest_paths,
    vertex_label,
    _column,
    _vertex,
)
from conftest import CLOSED_FORM_SPACES, random_address


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

    def test_vertex_budget(self, s3, monkeypatch):
        monkeypatch.setattr("laakso.budget.MAX_VERTICES", 1000)
        with pytest.raises(ResourceLimit):
            build(s3, 10)

    def test_vertex_budget_checked_before_the_grid(self, s3, monkeypatch):
        # 2**20 columns by 3**20 + 1 grid rows: building the grid first would
        # not finish, so any grid height made fails the test at once
        def no_heights(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr("laakso.budget.MAX_VERTICES", 1000)
        monkeypatch.setattr("laakso.oracle.Fraction", no_heights)
        with pytest.raises(ResourceLimit, match="budget of 1000$"):
            build(s3, 20)

    def test_deep_graph_is_refused_before_the_sequence_is_extended(self):
        space = Space.from_ratio(3)
        with pytest.raises(ResourceLimit, match="budget of 1000000$"):
            build(space, 20000)
        assert space.mseq._products == [1]  # no entry was chosen

    def test_integer_units(self, s3):
        graph = build(s3, 2, extra_heights=[Fraction(1, 5)])
        assert graph.scale == 45
        assert [Fraction(u, graph.scale) for u in graph.units] == list(graph.heights)
        assert graph.flips == tuple(0 if k is None else 1 << (k - 1) for k in graph.orders)

    def test_unflipped_columns(self, s3):
        graph = build(s3, 3, extra_heights=[Fraction(1, 5)])
        for bit, columns in zip(graph.flips, graph.unflipped):
            expected = sum(1 << c for c in range(8) if not c & bit) if bit else 0
            assert columns == expected

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

    @pytest.mark.parametrize("name,depth", [("s3", 3), ("s3", 4), ("s72", 3), ("q13", 2)])
    def test_exhaustive_up_to_both_symmetries(self, request, name, depth):
        # a common flip of the columns and the reflection h -> 1 - h are
        # isometries of the graph (TestColumnSets) and of the closed form
        # (test_geodesic.py::TestClosedForm), so the sources (0, r) for the
        # lower half of the rows, against every target, cover every pair
        space = request.getfixturevalue(name)
        graph = build(space, depth)
        rows = len(graph.heights)
        assert all(graph.heights[r] + graph.heights[-1 - r] == 1
                   and graph.orders[r] == graph.orders[-1 - r] for r in range(rows))
        targets = [((c, r), point_at(graph, c, r)) for c in range(1 << depth) for r in range(rows)]
        for row in range((rows + 1) // 2):
            x = point_at(graph, 0, row)
            dist = shortest_paths(graph, (0, row))
            for vertex, y in targets:
                assert dist[vertex] == distance(space, x, y)


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


#: (space fixture, depth, extra heights) of the column-set search tests.
SEARCH_SPACES = [
    ("s3", 3, [Fraction(1, 5), Fraction(1, 10)]),
    ("s72", 3, [Fraction(3, 7)]),
    ("q13", 2, [Fraction(1, 3), Fraction(2, 7)]),
    ("s3_433", 3, [Fraction(1, 5)]),
]


class TestColumnSets:
    @pytest.mark.parametrize("name,depth,extras", SEARCH_SPACES)
    def test_every_vertex_matches_the_reference(self, request, name, depth, extras):
        graph = build(request.getfixturevalue(name), depth, extra_heights=extras)
        columns, rows = 1 << depth, len(graph.heights)
        every = [(c, r) for c in range(columns) for r in range(rows)]  # column-major
        rng = random.Random(f"{name}/reference")
        for _ in range(4):
            source = (rng.randrange(columns), rng.randrange(rows))
            dist = shortest_paths(graph, source)
            assert len(dist) == graph.vertex_count and list(dist) == every
            assert all(type(d) is Fraction for d in dist.values())
            expected = _reference_distances(graph, source)
            assert {vertex_label(graph, *v): d for v, d in dist.items()} == expected
            for outside in [(columns, 0), (0, rows), (-1, 0), (0, -1)]:
                with pytest.raises(KeyError):
                    dist[outside]
            for _ in range(4):
                target = (rng.randrange(columns), rng.randrange(rows))
                early = shortest_paths(graph, source, target)
                settled = list(early)
                assert settled == sorted(settled) and len(early) == len(settled)
                assert early[target] == dist[target]
                assert all(early[v] == dist[v] for v in settled)
                assert sum(v in early for v in every) == len(settled)

    @pytest.mark.parametrize("name,depth,extras", SEARCH_SPACES)
    def test_a_common_flip_is_an_isometry(self, request, name, depth, extras):
        # flips[i] does not depend on the column, so xor-ing every column with
        # c maps the graph onto itself
        graph = build(request.getfixturevalue(name), depth, extra_heights=extras)
        columns, rows = 1 << depth, len(graph.heights)
        rng = random.Random(f"{name}/isometry")
        for _ in range(5):
            c, r = rng.randrange(columns), rng.randrange(rows)
            moved = shortest_paths(graph, (c, r))
            home = shortest_paths(graph, (0, r))
            for c2 in range(columns):
                for r2 in range(rows):
                    assert moved[(c2, r2)] == home[(c ^ c2, r2)]

    def test_vertices_outside_the_graph_are_refused(self):
        graph = build(Space.from_ratio(3), 2)
        rows = len(graph.heights)
        # (0, rows) is the flat index of (1, 0) in a column-major numbering
        with pytest.raises(ValueError, match="source"):
            shortest_paths(graph, (0, rows))
        with pytest.raises(ValueError, match="target"):
            shortest_paths(graph, (0, 0), (0, rows))
        for outside in [(4, 0), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="source"):
                shortest_paths(graph, outside)
            with pytest.raises(ValueError, match="target"):
                shortest_paths(graph, (0, 0), outside)


class TestVertexPoints:
    """Grid vertices to canonical points and back, read off the graph's own data."""

    @staticmethod
    def graph(space, depth):
        # a free height and two levels deeper than K
        deeper, deepest = space.mseq.D(depth + 1), space.mseq.D(depth + 2)
        extras = [Fraction(1, 5), Fraction(1, deeper), Fraction(deepest - 1, deepest)]
        return build(space, depth, extra_heights=extras)

    @pytest.mark.parametrize("name", CLOSED_FORM_SPACES)
    def test_point_at_is_the_canonical_point(self, request, name):
        space = request.getfixturevalue(name)
        graph = self.graph(space, 2)
        assert Fraction(1, space.mseq.D(3)) in graph.heights
        for column in range(4):
            digits = tuple((column >> j) & 1 for j in range(2))
            for row, height in enumerate(graph.heights):
                assert point_at(graph, column, row) == space.point(Address(digits, (0,)), height)

    @pytest.mark.parametrize("name", CLOSED_FORM_SPACES)
    def test_vertex_reads_the_first_k_digits(self, request, name):
        graph = self.graph(request.getfixturevalue(name), 3)
        for column in range(8):
            for row in range(len(graph.heights)):
                p = point_at(graph, column, row)
                digits = sum(1 << (j - 1) for j in range(1, 4) if p.address.digit(j))
                assert _vertex(graph, p) == (digits, row) == (column & ~graph.flips[row], row)

    def test_column_of_prefixes_shorter_and_longer_than_k(self, s3):
        graph = build(s3, 4)
        rng = random.Random(71)
        lengths = set()
        for _ in range(300):
            address = random_address(rng, 9, 4)
            lengths.add(len(address.prefix) > 4)
            digits = sum(1 << (j - 1) for j in range(1, 5) if address.digit(j))
            assert _column(graph, address) == digits
        assert lengths == {False, True}


#: (space fixture, depth) of the geodesic-vertex check.
GEODESIC_GRAPHS = [("s3", 4), ("s72", 3), ("q13", 2), ("s3_433", 3)]


class TestGeodesicVertices:
    """Geodesics checked point by point against the graph, with no closed form.

    A vertex p lies on a shortest graph path from x to y exactly when
    d_G(x, p) + d_G(p, y) = d_G(x, y), and one search from each end gives
    both terms for every p.
    """

    @staticmethod
    def vertices(space, path) -> set:
        """The canonical points of every segment end and jump of a path."""
        points = set()
        for move in path.items:
            if isinstance(move, Jump):
                points.add(space.point(move.from_address, move.height))
            else:
                points.add(space.point(move.address, move.h_start))
                points.add(space.point(move.address, move.h_end))
        return points

    @pytest.mark.parametrize("name,depth", GEODESIC_GRAPHS)
    def test_every_vertex_lies_on_a_graph_geodesic(self, request, name, depth):
        space = request.getfixturevalue(name)
        graph = build(space, depth)
        columns, rows = 1 << depth, len(graph.heights)
        rng = random.Random(f"{name}/geodesic-vertices")
        pairs = checked = 0
        off = []
        while pairs < 100:
            x, y = (point_at(graph, rng.randrange(columns), rng.randrange(rows)) for _ in "xy")
            if x == y:
                continue
            pairs += 1
            from_x = shortest_paths(graph, _vertex(graph, x))
            from_y = shortest_paths(graph, _vertex(graph, y))
            span = from_x[_vertex(graph, y)]
            path = geodesic_path(space, x, y, 8)
            # both addresses end in zeros, so they differ at orders up to K only
            assert path.tail is None and path_length(path) == span
            for p in self.vertices(space, path):
                vertex = _vertex(graph, p)
                checked += 1
                if from_x[vertex] + from_y[vertex] != span:
                    off.append((x, y, p))
        assert off == [] and checked > 2 * pairs
