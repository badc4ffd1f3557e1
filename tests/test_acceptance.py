"""End-to-end acceptance criteria.

Each test prints one PASS line with its runtime; every comparison is exact
rational equality.  Budgets: the closed-form checks must run inside one
second each, the bulk suites inside thirty.
"""

import random
import time
from fractions import Fraction

import pytest

from laakso import (
    Space,
    classify,
    classify_height,
    connect,
    difference_orders,
    distance,
    first_in_interval,
    geodesic_path,
    minimal_interval,
    path_length,
)
from laakso.geodesic import INVERSION, MONOTONE_DOWN, MONOTONE_UP
from laakso.oracle import agreement_check, build, point_at, shortest_paths, _vertex
from conftest import random_point, sandwich_holds


@pytest.fixture(scope="module")
def s3():
    return Space.from_ratio(3)


def _report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget:.0f}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_wormhole_tables(s3):
    started = time.monotonic()
    assert [w.value for w in s3.wormholes(1)] == [Fraction(1, 3), Fraction(2, 3)]
    order2 = {w.digits: w.value for w in s3.wormholes(2)}
    assert order2 == {
        (0, 1): Fraction(1, 9), (0, 2): Fraction(2, 9), (1, 1): Fraction(4, 9),
        (1, 2): Fraction(5, 9), (2, 1): Fraction(7, 9), (2, 2): Fraction(8, 9),
    }
    order3 = {w.digits: w.value for w in s3.wormholes(3)}
    assert len(order3) == 18
    assert order3 == {
        (0, 0, 1): Fraction(1, 27), (0, 0, 2): Fraction(2, 27), (0, 1, 1): Fraction(4, 27),
        (0, 1, 2): Fraction(5, 27), (0, 2, 1): Fraction(7, 27), (0, 2, 2): Fraction(8, 27),
        (1, 0, 1): Fraction(10, 27), (1, 0, 2): Fraction(11, 27), (1, 1, 1): Fraction(13, 27),
        (1, 1, 2): Fraction(14, 27), (1, 2, 1): Fraction(16, 27), (1, 2, 2): Fraction(17, 27),
        (2, 0, 1): Fraction(19, 27), (2, 0, 2): Fraction(20, 27), (2, 1, 1): Fraction(22, 27),
        (2, 1, 2): Fraction(23, 27), (2, 2, 1): Fraction(25, 27), (2, 2, 2): Fraction(26, 27),
    }
    _report("criterion 1: level tables for scale 3", started, 1.0)


def test_criterion_2_worked_distance(s3):
    started = time.monotonic()
    x = s3.parse_point("(0)@1/5")
    y = s3.parse_point("101(0)@1/10")
    interval = minimal_interval(s3, x, y)
    assert (interval.a, interval.b) == (Fraction(1, 10), Fraction(1, 3))
    assert distance(s3, x, y) == Fraction(11, 30)
    nearest_length = path_length(connect(s3, x, y, strategy="nearest"))
    assert nearest_length == Fraction(119, 270)
    assert nearest_length - distance(s3, x, y) == Fraction(2, 27)
    _report("criterion 2: worked distance 11/30, detour path 119/270, gap 2/27", started, 1.0)


def test_criterion_3_infinite_case(s3):
    started = time.monotonic()
    x = s3.parse_point("(0)@0")
    y = s3.parse_point("(1)@1")
    interval = minimal_interval(s3, x, y)
    assert (interval.a, interval.b) == (Fraction(0), Fraction(1))
    assert distance(s3, x, y) == 1
    path = geodesic_path(s3, x, y, depth=4)
    assert path.tail is not None and path.tail.omega == Fraction(1, 2)
    assert path_length(path) == 1
    _report("criterion 3: corner-to-corner distance 1, limit height 1/2", started, 1.0)


def test_criterion_4_oracle_equivalence(s3):
    started = time.monotonic()
    graph = build(s3, 3, extra_heights=[Fraction(1, 5), Fraction(1, 10)])
    points = [
        point_at(graph, column, hidx)
        for column in range(8)
        for hidx in range(len(graph.heights))
    ]
    vertices = [_vertex(graph, p) for p in points]
    mismatches = 0
    for i, x in enumerate(points):
        reachable = shortest_paths(graph, vertices[i])
        for j in range(i, len(points)):
            if reachable[vertices[j]] != distance(s3, x, points[j]):
                mismatches += 1
    assert mismatches == 0
    checked, worst = agreement_check(s3, 4, 1000, distance, seed=2024)
    assert checked == 1000 and worst == 0
    _report(
        "criterion 4: oracle agreement (depth 3 exhaustive, depth 4 x1000)", started, 30.0
    )


def test_criterion_5_metric_axioms(s3):
    started = time.monotonic()
    rng = random.Random(500)
    for _ in range(500):
        x, y, z = (random_point(s3, rng) for _ in range(3))
        dxy, dyz, dxz = distance(s3, x, y), distance(s3, y, z), distance(s3, x, z)
        assert (dxy == 0) == (x == y)
        assert dxy == distance(s3, y, x)
        assert dxz <= dxy + dyz
    for _ in range(500):
        x, y = random_point(s3, rng), random_point(s3, rng)
        if x == y:
            continue
        d = distance(s3, x, y)
        gap = abs(x.height - y.height)
        assert d >= gap
        # monotone-connectable iff every required order has a level between
        # the endpoint heights: the characterisation must match exactly
        low, high = sorted((x.height, y.height))
        orders = difference_orders(x.address, y.address)
        witnessed = [
            first_in_interval(s3.mseq, order, low, high) is not None
            for order in orders.first(2)
        ]
        if len(witnessed) == 2 and all(witnessed):
            monotone = True  # two witnessed orders nest every higher one
        elif orders.is_finite and all(
            first_in_interval(s3.mseq, order, low, high) is not None
            for order in orders.head
        ):
            monotone = True
        else:
            monotone = False
        assert (d == gap) == monotone
        if monotone:
            label, _ = classify(geodesic_path(s3, x, y))
            assert label in (MONOTONE_UP, MONOTONE_DOWN)
    _report("criterion 5: metric axioms and monotone characterisation x500", started, 30.0)


def test_criterion_6_structural_suite(s3):
    started = time.monotonic()
    rng = random.Random(600)
    for _ in range(500):
        x, y = random_point(s3, rng), random_point(s3, rng)
        if x == y:
            continue
        path = geodesic_path(s3, x, y)
        _, kinds = classify(path)
        assert kinds.count(INVERSION) <= 2
        for jump in path.jumps():
            assert jump.to_address == jump.from_address.switch(jump.level.order)
            level = classify_height(s3.mseq, jump.level.value)
            assert level is not None and level.order == jump.level.order
    for space in (s3, Space.from_dimension(Fraction(3, 2)), Space.from_dimension(Fraction(13, 10))):
        for i in range(1, 65):
            assert sandwich_holds(space.mseq, i)
    _report("criterion 6: inversion bound, jump validity, product bounds to 64", started, 30.0)
