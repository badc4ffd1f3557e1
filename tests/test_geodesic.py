import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest

from laakso import (
    Address,
    Interval,
    Segment,
    Space,
    WormholeLevel,
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
from laakso.geodesic import INVERSION, MONOTONE_DOWN, MONOTONE_UP, OSCILLATING, validate
from conftest import random_point, stepwise_length


@pytest.fixture(scope="module")
def worked_pair(s3):
    return s3.parse_point("(0)@1/5"), s3.parse_point("101(0)@1/10")


@pytest.fixture(scope="module")
def corner_pair(s3):
    return s3.parse_point("(0)@0"), s3.parse_point("(1)@1")


class TestMinimalInterval:
    def test_worked_example(self, s3, worked_pair):
        interval = minimal_interval(s3, *worked_pair)
        assert (interval.a, interval.b) == (Fraction(1, 10), Fraction(1, 3))

    def test_full_unit_interval(self, s3, corner_pair):
        interval = minimal_interval(s3, *corner_pair)
        assert (interval.a, interval.b) == (0, 1)

    def test_monotone_pair_needs_no_extension(self, s3):
        x = s3.parse_point("(0)@1/5")
        y = s3.parse_point("(0)@4/5")
        interval = minimal_interval(s3, x, y)
        assert (interval.a, interval.b) == (Fraction(1, 5), Fraction(4, 5))

    def test_witnesses_live_inside(self, s3):
        rng = random.Random(41)
        for _ in range(300):
            x, y = random_point(s3, rng), random_point(s3, rng)
            if x == y:
                continue
            interval = minimal_interval(s3, x, y)
            assert interval.a <= min(x.height, y.height)
            assert interval.b >= max(x.height, y.height)
            for order, witness in interval.witnesses:
                assert witness.order == order
                assert interval.a <= witness.value <= interval.b

    def test_every_required_order_is_witnessable(self, s3):
        # conditions (1)-(2): each needed order has a level inside the interval
        rng = random.Random(42)
        for _ in range(300):
            x, y = random_point(s3, rng), random_point(s3, rng)
            if x == y:
                continue
            interval = minimal_interval(s3, x, y)
            for order in islice(difference_orders(x.address, y.address), 12):
                assert first_in_interval(s3.mseq, order, interval.a, interval.b) is not None

    def test_degenerate_input_rejected(self, s3):
        p = s3.parse_point("(0)@1/2")
        with pytest.raises(ValueError):
            minimal_interval(s3, p, p)


class TestDistance:
    def test_worked_value(self, s3, worked_pair):
        assert distance(s3, *worked_pair) == Fraction(11, 30)

    def test_corner_to_corner(self, s3, corner_pair):
        assert distance(s3, *corner_pair) == 1

    def test_identity(self, s3):
        p = s3.parse_point("(0)@1/2")
        assert distance(s3, p, p) == 0

    def test_metric_axioms(self, s3):
        rng = random.Random(43)
        for _ in range(300):
            x, y, z = (random_point(s3, rng) for _ in range(3))
            dxy = distance(s3, x, y)
            assert (dxy == 0) == (x == y)
            assert dxy == distance(s3, y, x)
            assert distance(s3, x, z) <= dxy + distance(s3, y, z)

    def test_long_cycles_read_digits_up_to_the_second_order_only(self, s3, monkeypatch):
        # cycles of 2000 and 2001 digits first differ at orders 2000 and 2001;
        # a scan over the lcm of the cycle lengths reads about 8 million digits
        x = s3.parse_point("(" + "0" * 1999 + "1)@1/3")
        y = s3.parse_point("(" + "0" * 2000 + "1)@1/3")
        reads = 0
        digit = Address.digit

        def counted(address, i):
            nonlocal reads
            reads += 1
            return digit(address, i)

        monkeypatch.setattr(Address, "digit", counted)
        diffs = difference_orders(x.address, y.address)
        assert reads == 0 and not diffs.is_finite
        assert distance(s3, x, y) > 0
        assert reads <= 2 * 2001

    def test_long_cycles_on_a_fresh_space_within_15_ms(self):
        # the distance extends a fresh sequence to order 2001; building each
        # entry from fresh powers of s and D takes about 70 ms
        texts = "(" + "0" * 1999 + "1)@1/3", "(" + "0" * 2000 + "1)@1/3"
        best = float("inf")
        for _ in range(3):
            began = time.process_time()
            space = Space.from_ratio(3)
            assert distance(space, *map(space.parse_point, texts)) > 0
            best = min(best, time.process_time() - began)
        assert best < 0.015

    def test_height_lower_bound_and_monotone_characterisation(self, s3):
        rng = random.Random(44)
        for _ in range(300):
            x, y = random_point(s3, rng), random_point(s3, rng)
            if x == y:
                continue
            d = distance(s3, x, y)
            gap = abs(x.height - y.height)
            assert d >= gap
            interval = minimal_interval(s3, x, y)
            monotone = (interval.a, interval.b) == tuple(sorted((x.height, y.height)))
            assert (d == gap) == monotone
            if monotone:
                label, _ = classify(geodesic_path(s3, x, y))
                assert label in (MONOTONE_UP, MONOTONE_DOWN)


class TestConnect:
    def test_nearest_follows_worked_construction(self, s3, worked_pair):
        path = connect(s3, *worked_pair, strategy="nearest")
        validate(path, s3)
        segments = path.segments()
        assert [(str(s.address), s.h_start, s.h_end) for s in segments] == [
            ("(0)", Fraction(1, 5), Fraction(1, 3)),
            ("1(0)", Fraction(1, 3), Fraction(10, 27)),
            ("101(0)", Fraction(10, 27), Fraction(1, 10)),
        ]
        assert [j.level.value for j in path.jumps()] == [Fraction(1, 3), Fraction(10, 27)]
        assert path_length(path) == Fraction(119, 270)

    def test_nearest_path_dominates_distance(self, s3):
        rng = random.Random(45)
        for _ in range(200):
            x, y = random_point(s3, rng), random_point(s3, rng)
            path = connect(s3, x, y, strategy="nearest")
            validate(path, s3)
            assert path_length(path) >= distance(s3, x, y)

    def test_increasing_matches_known_iterates(self, s3, corner_pair):
        path = connect(s3, *corner_pair, strategy="increasing", depth=4)
        validate(path, s3)
        heights = [(s.h_start, s.h_end) for s in path.segments()]
        assert heights == [
            (0, Fraction(1, 3)),
            (Fraction(1, 3), Fraction(4, 9)),
            (Fraction(4, 9), Fraction(13, 27)),
            (Fraction(13, 27), Fraction(40, 81)),
            (Fraction(1, 2), 1),
        ]
        assert path.tail.omega == Fraction(1, 2)
        assert path.tail.truncated_at == 4
        assert path_length(path) == 1

    def test_degenerate(self, s3):
        p = s3.parse_point("(0)@1/2")
        path = connect(s3, p, p)
        assert path.jumps() == ()
        assert path_length(path) == 0

    def test_wormhole_endpoint_uses_matching_preimage(self, s3):
        # starting at an identification height, the construction starts from
        # the preimage whose digit already agrees with the target
        x = s3.parse_point("(0)@1/3")
        y = s3.parse_point("1(0)@1/5")
        path = connect(s3, x, y, strategy="nearest")
        validate(path, s3)
        assert path.jumps() == ()
        assert path_length(path) == distance(s3, x, y) == Fraction(1, 3) - Fraction(1, 5)

    def test_depth_controls_truncation(self, s3, corner_pair):
        for depth in (2, 6, 11):
            path = connect(s3, *corner_pair, strategy="increasing", depth=depth)
            assert path.tail.truncated_at == depth
            assert path_length(path) == 1

    def test_unknown_strategy_rejected(self, s3, corner_pair):
        with pytest.raises(ValueError):
            connect(s3, *corner_pair, strategy="widest")


class TestWork:
    """Deterministic work guards on the path builders."""

    def test_builders_make_few_fractions(self, s3, fraction_count):
        # heights on a path are integers over units and Fractions are built
        # on output only (with Fraction heights: 139 per connect, 45 per
        # geodesic)
        x, y = s3.parse_point("0110(01)@1/9"), s3.parse_point("1(0011)@5/27")
        for strategy in ("nearest", "increasing"):
            connect(s3, x, y, strategy, 32)  # grows the branching sequence first
        geodesic_path(s3, x, y, 32)
        for build in (lambda: connect(s3, x, y, "nearest", 32),
                      lambda: connect(s3, x, y, "increasing", 32),
                      lambda: geodesic_path(s3, x, y, 32)):
            before = fraction_count()
            path = build()
            assert path.tail is not None and len(path.jumps()) >= 32
            assert fraction_count() - before <= 8
            before = fraction_count()
            path_length(path)
            classify(path)
            assert fraction_count() - before <= 2

    def test_limit_reads_the_digits_past_the_truncation_only(self, s3, monkeypatch):
        # a 300-digit prefix: the limit sums the orders of one period past
        # the truncation, read directly rather than by a scan from digit 1
        x = s3.parse_point("0" * 300 + "(01)@1/9")
        y = s3.parse_point("0" * 299 + "1(10)@5/27")
        diffs = difference_orders(x.address, y.address)
        reads = 0
        digit = Address.digit

        def counted(address, i):
            nonlocal reads
            reads += 1
            return digit(address, i)

        monkeypatch.setattr(Address, "digit", counted)
        for strategy in ("nearest", "increasing"):
            reads = 0
            assert connect(s3, x, y, strategy, 8).tail is not None
            # one pass over the orders' window, two endpoint decodings, the limit
            assert reads <= 2 * (diffs.start + diffs.period) + 4 + 4 * diffs.period


class TestSegment:
    def test_equality_and_hash_follow_the_heights_whatever_the_unit(self):
        # heights held as Fractions, ints and levels (numerators over D_k)
        a, b = Address((0,), (1,)), Address((), (1,))
        third = Segment(a, Fraction(1, 3), Fraction(2, 3))
        same = Segment(a, WormholeLevel(1, 1, 3), WormholeLevel(1, 2, 3))
        assert third == same and hash(third) == hash(same)
        assert (same.h_start, same.h_end, same.direction) == (Fraction(1, 3), Fraction(2, 3), 1)
        assert Segment(a, 0, WormholeLevel(1, 1, 3)) == Segment(a, Fraction(0), Fraction(1, 3))
        assert third != Segment(a, Fraction(1, 4), Fraction(2, 4))
        assert third != Segment(a, Fraction(2, 3), Fraction(1, 3))
        assert third != Segment(b, Fraction(1, 3), Fraction(2, 3))
        assert len({third, same, Segment(a, Fraction(2, 6), WormholeLevel(1, 2, 3))}) == 1


class TestGeodesic:
    def test_worked_example(self, s3, worked_pair):
        path = geodesic_path(s3, *worked_pair)
        validate(path, s3)
        assert path_length(path) == Fraction(11, 30)
        order3 = [j for j in path.jumps() if j.level.order == 3]
        assert len(order3) == 1
        assert Fraction(1, 10) <= order3[0].level.value <= Fraction(1, 3)
        nearest_len = path_length(connect(s3, *worked_pair, strategy="nearest"))
        assert nearest_len - path_length(path) == Fraction(2, 27)

    def test_infinite_case(self, s3, corner_pair):
        path = geodesic_path(s3, *corner_pair, depth=4)
        validate(path, s3)
        assert path.tail.omega == Fraction(1, 2)
        assert path_length(path) == 1
        label, kinds = classify(path)
        assert label == MONOTONE_UP
        assert INVERSION not in kinds
        final = path.post[-1]
        assert isinstance(final, Segment)
        assert (final.h_start, final.h_end) == (Fraction(1, 2), Fraction(1))

    def test_same_vertical(self, s3):
        x = s3.parse_point("(0)@1/5")
        y = s3.parse_point("(0)@7/10")
        path = geodesic_path(s3, x, y)
        assert path.jumps() == ()
        assert path_length(path) == Fraction(1, 2) == distance(s3, x, y)
        assert classify(path)[0] == MONOTONE_UP
        assert classify(geodesic_path(s3, y, x))[0] == MONOTONE_DOWN

    def test_length_equals_distance(self, s3):
        rng = random.Random(46)
        for _ in range(300):
            x, y = random_point(s3, rng), random_point(s3, rng)
            if x == y:
                continue
            path = geodesic_path(s3, x, y)
            validate(path, s3)
            assert path_length(path) == distance(s3, x, y)

    @pytest.mark.parametrize("name", ["s3", "s72", "q13"])
    def test_at_most_two_inversions(self, name, request):
        space = request.getfixturevalue(name)
        rng = random.Random(47)
        for _ in range(300):
            x, y = random_point(space, rng), random_point(space, rng)
            if x == y:
                continue
            _, kinds = classify(geodesic_path(space, x, y))
            assert kinds.count(INVERSION) <= 2, (str(x), str(y))

    @pytest.mark.parametrize("depth", [4, 8, 32])
    def test_interval_tail_jumps_take_the_limit_side(self, s72, depth):
        # the run into a certified limit keeps rising although the enclosure
        # starts at the last jump's height: only the two turns are inversions
        x = s72.parse_point("10000000(1)@11/24")
        y = s72.parse_point("0111(001)@46/97")
        for a, b in ((x, y), (y, x)):
            path = geodesic_path(s72, a, b, depth)
            assert isinstance(path.tail.omega, Interval)
            label, kinds = classify(path)
            assert label == OSCILLATING
            assert kinds.count(INVERSION) == 2
            assert kinds[0] == kinds[-1] == INVERSION

    def test_run_into_the_tail_sets_the_label(self, s72):
        # at depth 1 the path has no segment: it runs down from height 1
        # into a certified limit and then only jumps
        x, y = s72.parse_point("10(1)@1"), s72.parse_point("01(0)@1/4")
        path = geodesic_path(s72, x, y, depth=1)
        assert not path.segments()
        assert classify(path) == (MONOTONE_DOWN, ("downward",))

    @pytest.mark.parametrize("strategy", ["nearest", "increasing"])
    def test_the_run_into_the_tail_follows_the_jump_before_it(self, s3, strategy):
        # up from 1/3 to the level 4/9, a jump, a hidden rise into the limit
        # 11/24 and a descent back to 1/3: the jump continues the rise
        x, y = s3.parse_point("0(1)@1/3"), s3.parse_point("0(01)@1/3")
        path = connect(s3, x, y, strategy, depth=1)
        assert path.tail.omega == Fraction(11, 24) and len(path.items) == 2
        assert classify(path) == (OSCILLATING, ("upward",))

    def test_oscillating_kinds_on_worked_path(self, s3, worked_pair):
        label, kinds = classify(connect(s3, *worked_pair, strategy="nearest"))
        assert label == OSCILLATING
        assert kinds == ("upward", "inversion")

    def test_post_tail_jump_when_coarse_level_sits_on_top(self, s3):
        # all orders differ; the only order-1 level in reach is the interval's
        # upper endpoint, which must be crossed after the accumulation
        x = s3.parse_point("(0)@13/50")
        y = s3.parse_point("(1)@13/50")
        interval = minimal_interval(s3, x, y)
        assert (interval.a, interval.b) == (Fraction(2, 9), Fraction(1, 3))
        path = geodesic_path(s3, x, y, depth=8)
        validate(path, s3)
        assert path_length(path) == distance(s3, x, y) == Fraction(2, 9)
        assert [j.level.order for j in path.post if hasattr(j, "level")] == [1]
        _, kinds = classify(path)
        assert kinds.count(INVERSION) == 2

    def test_reversed_orientation(self, s3):
        x = s3.parse_point("(1)@1")
        y = s3.parse_point("(0)@0")
        path = geodesic_path(s3, x, y, depth=4)
        validate(path, s3)
        assert path_length(path) == 1
        label, _ = classify(path)
        assert label == MONOTONE_DOWN

    def test_jumps_are_valid_switches(self, s3):
        rng = random.Random(48)
        for _ in range(200):
            x, y = random_point(s3, rng), random_point(s3, rng)
            if x == y:
                continue
            path = geodesic_path(s3, x, y)
            for jump in path.jumps():
                assert jump.to_address == jump.from_address.switch(jump.level.order)
                level = classify_height(s3.mseq, jump.level.value)
                assert level is not None and level.order == jump.level.order


class TestOtherScales:
    def test_scale_four_worked_distance(self, s4):
        # order-1 levels are 1/4, 2/4, 3/4; the analogue of the worked example
        x = s4.parse_point("(0)@1/5")
        y = s4.parse_point("1(0)@1/10")
        interval = minimal_interval(s4, x, y)
        assert (interval.a, interval.b) == (Fraction(1, 10), Fraction(1, 4))
        assert distance(s4, x, y) == 2 * Fraction(3, 20) - Fraction(1, 10)

    def test_irrational_scale_distances_are_exact(self, q13):
        # heights and level values stay rational even though s is not
        x = q13.parse_point("(0)@1/7")
        y = q13.parse_point("11(0)@1/2")
        d = distance(q13, x, y)
        assert isinstance(d, Fraction)
        assert d >= abs(x.height - y.height)
        path = geodesic_path(q13, x, y)
        validate(path, q13)
        assert path_length(path) == d

    def test_irrational_scale_infinite_tail_is_certified(self, q13):
        x = q13.parse_point("(0)@0")
        y = q13.parse_point("(1)@1")
        path = geodesic_path(q13, x, y, depth=6)
        assert isinstance(path.tail.omega, Interval)
        length = path_length(path)
        assert isinstance(length, Interval)
        assert length.contains(distance(q13, x, y))
        assert path.tail.omega.width <= Fraction(1, q13.mseq.D(6))

    def test_interval_tail_with_anchored_top_keeps_post_moves_exact(self):
        # rational non-integer scale: mixed branching entries, interval tail,
        # an anchored upper endpoint and a reversed orientation all at once
        from laakso import Space

        sp = Space.from_ratio(Fraction(7, 2))
        x = sp.parse_point("1(0)@149/729")
        y = sp.parse_point("001111111110(1)@2/729")
        d = distance(sp, x, y)
        path = geodesic_path(sp, x, y, depth=6)
        validate(path, sp)
        length = path_length(path)
        assert isinstance(length, Interval)
        assert length.contains(d)
        top = minimal_interval(sp, x, y).b
        assert any(j.level.value == top for j in path.jumps())


@pytest.mark.parametrize("name", ["s3", "s72", "q13"])
def test_path_length_matches_stepwise_sum(request, name):
    space = request.getfixturevalue(name)
    rng = random.Random(71)
    enclosures = 0
    for _ in range(30):
        x, y = random_point(space, rng), random_point(space, rng)
        if x == y:
            continue
        for path in (geodesic_path(space, x, y, 6), connect(space, x, y, "increasing", 6)):
            length = path_length(path)
            assert length == stepwise_length(path)
            enclosures += isinstance(length, Interval)
    assert enclosures or name == "s3"


def test_validate_checks_survive_optimisation():
    script = (
        "from laakso import Space, Segment, geodesic_path\n"
        "from laakso.geodesic import PathRep, validate\n"
        "s3 = Space.from_ratio(3)\n"
        "x, y = s3.parse_point('(0)@1/5'), s3.parse_point('101(0)@1/10')\n"
        "path = geodesic_path(s3, x, y)\n"
        "broken = PathRep(x, y, (Segment(x.address, 0, 1),) + path.items[1:])\n"
        "try:\n"
        "    validate(broken, s3)\n"
        "except AssertionError as exc:\n"
        "    print('caught', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.stdout.startswith("caught"), result.stderr
