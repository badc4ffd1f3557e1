import random
import time
from fractions import Fraction
from types import SimpleNamespace
from itertools import islice, takewhile
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from laakso import (
    Address,
    ParseError,
    ScaleFactor,
    difference_orders,
    format_address,
    parse_address,
    value,
)
from laakso.oracle import _column, build, point_at
from laakso.space import Space
from conftest import (TupleAddress, TupleDifferenceOrders, random_address, tuple_column,
                      tuple_format, tuple_parse, tuple_point_address)

ZERO = Address((), (0,))
ONE = Address((), (1,))
B101 = Address((1, 0, 1), (0,))  # 1010...


def geometric_oracle(a: Address, s: Fraction, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Partial coordinate sum plus a bound on the discarded tail."""
    partial = sum(
        (Fraction(a.digit(i)) * (s - 1) / s ** i for i in range(1, terms + 1)),
        Fraction(0),
    )
    tail = (s - 1) / s ** terms / (1 - 1 / s)
    return partial, tail


class TestCanonicalForm:
    def test_known_literals(self):
        assert parse_address("101(0)") == B101
        assert parse_address("(0)") == ZERO
        assert parse_address("0") == ZERO
        assert parse_address("1010(0)") == B101  # trailing cycle copy absorbed

    def test_primitive_cycle(self):
        assert Address((), (1, 0, 1, 0)) == Address((), (1, 0))

    def test_rotation_same_string(self):
        a = Address((), (1, 0))
        b = Address((1,), (0, 1))
        assert a == b
        # long cycles: a rotation, a doubling and a copy in the prefix spell
        # the same string, and its cycle is primitive and the least rotation
        rng = random.Random(13)
        for _ in range(200):
            base = tuple(rng.randint(0, 1) for _ in range(rng.randint(13, 64)))
            prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
            turn = rng.randrange(len(base))
            a = Address(prefix, base)
            for b in (Address(prefix + base[:turn], base[turn:] + base[:turn]),
                      Address(prefix, base * 2), Address(prefix + base, base)):
                assert b == a and (b.prefix, b.cycle) == (a.prefix, a.cycle)
            m = len(a.cycle)
            rotations = [a.cycle[t:] + a.cycle[:t] for t in range(m)]
            assert a.cycle == min(rotations) and rotations.count(a.cycle) == 1
            expansion = prefix + base * 3
            assert all(a.digit(i) == expansion[i - 1] for i in range(1, len(expansion) + 1))

    def test_an_8000_digit_cycle_parses_within_20_ms(self):
        # the period is a byte-string search and the least phase a min over
        # byte slices, both in C; a least rotation built from m tuples of m
        # digits takes well over 20 ms at m = 8000
        text = "(" + "0" * 7999 + "1)"
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            a = parse_address(text)
            best = min(best, time.perf_counter() - began)
        assert a.prefix == () and a.cycle == (0,) * 7999 + (1,)
        assert best < 0.02

    @pytest.mark.parametrize("prefix, cycle", [((), (1, 2)), ((0, 1), (0, 0, 2, 1)), ((0, 2, 1), (1,))])
    def test_a_digit_2_is_rejected_in_either_part(self, prefix, cycle):
        with pytest.raises(ValueError, match="digits must be 0 or 1"):
            Address(prefix, cycle)

    def test_least_rotation_matches_brute_force(self):
        def reference(prefix, cycle):
            m = next(p for p in range(1, len(cycle) + 1)
                     if len(cycle) % p == 0 and cycle == cycle[p:] + cycle[:p])
            base = cycle[:m]
            j = min(range(m), key=lambda t: base[t:] + base[:t])  # first least rotation
            pre, cyc = prefix + base[:j], base[j:] + base[:j]
            while pre[-m:] == cyc:
                pre = pre[:-m]
            return pre, cyc

        rng = random.Random(29)
        for _ in range(2000):
            prefix = tuple(rng.getrandbits(1) for _ in range(rng.randint(0, 8)))
            unit = tuple(rng.getrandbits(1) for _ in range(rng.randint(1, 6)))
            cycle = unit * rng.randint(1, 3)
            a = Address(prefix, cycle)
            assert (a.prefix, a.cycle) == reference(prefix, cycle), (prefix, cycle)

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(300):
            a = random_address(rng)
            assert Address(a.prefix, a.cycle) == a

    def test_equality_window_matches_digitwise_comparison(self):
        rng = random.Random(2)
        for _ in range(500):
            a, b = random_address(rng), random_address(rng)
            window = len(a.prefix) + len(b.prefix) + lcm(len(a.cycle), len(b.cycle))
            same_in_window = all(a.digit(i) == b.digit(i) for i in range(1, window + 1))
            same_far = all(a.digit(i) == b.digit(i) for i in range(1, 4 * window + 8))
            assert same_in_window == same_far
            assert (a == b) == same_in_window

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            Address((2,), (0,))
        with pytest.raises(ValueError):
            Address((), ())


class TestDigitsAndSwitch:
    def test_digit_examples(self):
        assert ZERO.digit(7) == 0
        assert B101.digit(3) == 1
        assert Address((), (1, 0)).digit(4) == 0

    def test_switch_worked_steps(self):
        x1 = ZERO.switch(1)
        assert x1 == parse_address("1(0)")
        assert x1.switch(3) == B101

    def test_switch_is_involution(self):
        rng = random.Random(3)
        for _ in range(300):
            a = random_address(rng)
            n = rng.randint(1, 12)
            assert a.switch(n).switch(n) == a
            assert a.switch(n).digit(n) == 1 - a.digit(n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=10),
        st.lists(st.integers(0, 1), min_size=1, max_size=12),
        st.integers(1, 40),
    )
    def test_switch_matches_full_canonicalisation(self, prefix, cycle, n):
        a = Address(tuple(prefix), tuple(cycle))
        # the flipped string, with the cycle attached where its phase is unchanged
        length = len(a.prefix)
        while length < n:
            length += len(a.cycle)
        digits = [a.digit(i) for i in range(1, length + 1)]
        digits[n - 1] = 1 - digits[n - 1]
        expected = Address(tuple(digits), a.cycle)
        switched = a.switch(n)
        assert (switched.prefix, switched.cycle) == (expected.prefix, expected.cycle)
        assert switched == expected and hash(switched) == hash(expected)
        assert switched.switch(n) == a and hash(switched.switch(n)) == hash(a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=10),
        st.lists(st.integers(0, 1), min_size=1, max_size=12),
        st.integers(1, 400),
    )
    def test_switch_past_the_prefix_matches_full_canonicalisation(self, prefix, cycle, past):
        # a flip past the prefix lands in an appended copy of the cycle, up
        # to 400 digits on: the prefix needs no absorption
        a = Address(tuple(prefix), tuple(cycle))
        n = len(a.prefix) + past
        length = len(a.prefix) + -(-past // len(a.cycle)) * len(a.cycle)
        digits = [a.digit(i) for i in range(1, length + 1)]
        digits[n - 1] = 1 - digits[n - 1]
        expected = Address(tuple(digits), a.cycle)
        switched = a.switch(n)
        assert (switched.prefix, switched.cycle) == (expected.prefix, expected.cycle)
        assert switched == expected and hash(switched) == hash(expected)
        assert switched.switch(n) == a and hash(switched.switch(n)) == hash(a)


class TestAsymptotics:
    def test_known_pairs(self):
        assert difference_orders(ZERO, B101).is_finite
        assert not difference_orders(ZERO, ONE).is_finite

    def test_reflexive(self):
        rng = random.Random(4)
        for _ in range(100):
            a = random_address(rng)
            assert difference_orders(a, a).is_finite

    def test_difference_orders_examples(self):
        d = difference_orders(ZERO, B101)
        assert d.is_finite and d.head == (1, 3)
        d = difference_orders(ZERO, ONE)
        assert not d.is_finite and d.period == 1
        assert list(islice(d, 5)) == [1, 2, 3, 4, 5]
        d = difference_orders(ZERO, ZERO)
        assert d.is_finite and d.head == ()

    def test_difference_orders_agree_with_direct_scan(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b = random_address(rng), random_address(rng)
            reported = list(islice(difference_orders(a, b), 40))
            direct = [i for i in range(1, 200) if a.digit(i) != b.digit(i)][:40]
            assert reported == direct[: len(reported)]
            if len(reported) < 40:
                assert reported == direct


    @pytest.mark.parametrize("a, b, finite", [("0(10)", "(01)", True), ("1(01)", "(10)", True),
                                              ("0(10)", "(10)", False), ("101(0)", "(0)", True)])
    def test_finiteness_of_literal_pairs(self, a, b, finite):
        a, b = parse_address(a), parse_address(b)
        d = difference_orders(a, b)
        assert d.is_finite == finite
        assert list(islice(d, 3)) == _window_scan(a, b)[:3]

    def test_finiteness_and_orders_agree_with_a_window_scan(self):
        # half the pairs share b's tail behind another prefix, rotated by a
        # random turn: finite exactly when the turn lines the tails up
        rng = random.Random(12)
        finite = 0
        for index in range(600):
            a = random_address(rng, max_prefix=8, max_cycle=12)
            if index % 2:
                b = random_address(rng, max_prefix=8, max_cycle=12)
            else:
                prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
                turn = rng.randrange(len(a.cycle))
                b = Address(prefix, a.cycle[turn:] + a.cycle[:turn])
            d = difference_orders(a, b)
            direct = _window_scan(a, b)
            tail_agrees = not direct or direct[-1] <= max(len(a.prefix), len(b.prefix))
            assert d.is_finite == tail_agrees
            finite += d.is_finite
            if d.is_finite:
                assert list(d) == direct and d.head == tuple(direct)
            else:
                assert list(islice(d, len(direct))) == direct
                assert d.head == tuple(k for k in direct if k < d.start)
        assert 50 < finite < 300  # both branches are exercised

    def test_between_reads_a_range_of_positions(self):
        rng = random.Random(13)
        for _ in range(300):
            a = random_address(rng, max_prefix=8, max_cycle=6)
            b = random_address(rng, max_prefix=8, max_cycle=6)
            d = difference_orders(a, b)
            lo = rng.randint(0, 30)
            hi = lo + rng.randint(0, 30)
            assert list(d.between(lo, hi)) == [k for k in range(lo + 1, hi + 1)
                                               if a.digit(k) != b.digit(k)]
            assert list(d.between(0, 60)) == list(takewhile(lambda k: k <= 60, d))


def _window_scan(a: Address, b: Address) -> list[int]:
    """Differing positions through three periods past the longer prefix, digit by digit."""
    end = max(len(a.prefix), len(b.prefix)) + 3 * lcm(len(a.cycle), len(b.cycle))
    return [i for i in range(1, end + 1) if a.digit(i) != b.digit(i)]


class TestValue:
    def test_known_coordinates(self, s3):
        assert value(ZERO, s3.scale) == 0
        assert value(B101, s3.scale) == Fraction(20, 27)
        assert value(ONE, s3.scale) == 1

    def test_against_geometric_oracle(self, s3):
        rng = random.Random(6)
        for _ in range(200):
            a = random_address(rng)
            got = value(a, s3.scale)
            partial, tail = geometric_oracle(a, Fraction(3))
            assert abs(got - partial) <= tail

    def test_irrational_scale_enclosure(self, q13):
        import mpmath

        mpmath.mp.dps = 60
        s = mpmath.mpf(2) ** (mpmath.mpf(10) / 3)
        rng = random.Random(7)
        for _ in range(40):
            a = random_address(rng, max_prefix=4, max_cycle=2)
            enc = value(a, q13.scale, bits=48)
            truth = sum(a.digit(i) * (s - 1) / s ** i for i in range(1, 120))
            assert enc.width <= Fraction(1, 2 ** 48)
            assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= truth + mpmath.mpf(10) ** -30
            assert truth - mpmath.mpf(10) ** -30 <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator

    @pytest.mark.parametrize("q", [Fraction(13, 10), Fraction(7, 5), Fraction(99, 50), Fraction(1999, 1000)])
    def test_enclosure_contains_the_coordinate_within_its_bit_budget(self, q):
        # the direct series, 700 terms at 600 bits, against every enclosure;
        # Q near 2 puts 1/s just under 1/2, where the derivative bound is loosest
        import mpmath

        scale = ScaleFactor.from_dimension(q)
        rng = random.Random(11)
        addresses = [ZERO, ONE, B101, Address((1,) * 12, (0, 1))]
        addresses += [random_address(rng, max_prefix=12, max_cycle=6) for _ in range(2)]
        with mpmath.workprec(600):
            u = mpmath.mpf(2) ** (-mpmath.mpf(q.denominator) / (q.numerator - q.denominator))
            for a in addresses:
                truth = sum(a.digit(i) * (1 - u) * u ** (i - 1) for i in range(1, 701))
                for bits in [*range(10), *range(48, 257, 32), 256]:
                    enc = value(a, scale, bits)
                    assert enc.width <= Fraction(1, 2 ** bits)
                    lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
                    hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
                    assert lo <= truth <= hi

    def test_monotone_in_lexicographic_order(self, s3):
        rng = random.Random(8)
        for _ in range(300):
            a, b = random_address(rng), random_address(rng)
            if a == b:
                continue
            first_diff = next(iter(difference_orders(a, b)))
            smaller, larger = (a, b) if a.digit(first_diff) == 0 else (b, a)
            assert value(smaller, s3.scale) < value(larger, s3.scale)

    def test_switch_moves_value_by_cell_width(self, s3):
        # the identification precondition: one differing digit at position k
        rng = random.Random(9)
        for _ in range(200):
            a = random_address(rng)
            k = rng.randint(1, 5)
            delta = abs(value(a, s3.scale) - value(a.switch(k), s3.scale))
            assert delta == Fraction(2, 3 ** k)


def cell_ends(prefix: tuple[int, ...], scale) -> tuple[Fraction, Fraction]:
    """Coordinates of the least and greatest points of the cell a prefix selects."""
    return value(Address(prefix, (0,)), scale), value(Address(prefix, (1,)), scale)


class TestCells:
    def test_examples(self, s3):
        assert cell_ends((), s3.scale) == (0, 1)
        assert cell_ends((1,), s3.scale) == (Fraction(2, 3), 1)
        assert cell_ends((0, 0), s3.scale) == (0, Fraction(1, 9))

    def test_against_oracle(self, s3):
        lo, hi = cell_ends((1, 0), s3.scale)
        partial, tail = geometric_oracle(Address((1, 0), (0,)), Fraction(3))
        assert abs(lo - partial) <= tail
        partial, tail = geometric_oracle(Address((1, 0), (1,)), Fraction(3))
        assert abs(hi - partial) <= tail


class TestParsing:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(300):
            a = random_address(rng)
            assert parse_address(format_address(a)) == a

    @staticmethod
    def joined(a: Address) -> str:
        """The digits joined one ``str`` at a time: the plain definition to match."""
        return "%s(%s)" % ("".join(map(str, a.prefix)), "".join(map(str, a.cycle)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=500), st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_format_matches_the_joined_digits(self, prefix, cycle):
        a = Address(tuple(prefix), tuple(cycle))
        assert format_address(a) == self.joined(a) == str(a)
        assert parse_address(format_address(a)) == a

    def test_format_after_deep_switches(self):
        rng = random.Random(22)
        for _ in range(50):
            a = random_address(rng, max_prefix=10, max_cycle=12)
            for order in rng.sample(range(380, 420), 3):
                a = a.switch(order)
            assert len(a.prefix) >= 380
            assert format_address(a) == self.joined(a)
            assert parse_address(format_address(a)) == a

    @pytest.mark.parametrize("bad", ["", "()", "2(0)", "1(2)", "10(", "(01)x", "1 (0)"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_address(bad)


def _agrees_with_reference(a: Address, ref: TupleAddress) -> None:
    """Every reading of a matches the tuple-backed reference holding the same string."""
    assert (a.prefix, a.cycle) == (ref.prefix, ref.cycle)
    assert repr(a) == repr(ref).replace("TupleAddress(", "Address(", 1)
    twin = Address(ref.prefix, ref.cycle)
    assert a == twin and hash(a) == hash(twin)
    reach = len(ref.prefix) + 2 * len(ref.cycle) + 1
    assert [a.digit(i) for i in range(1, reach + 1)] == [ref.digit(i) for i in range(1, reach + 1)]
    text = format_address(a)
    assert text == tuple_format(ref) and parse_address(text) == a
    for depth in (1, len(ref.prefix), len(ref.prefix) + 1, reach, 100):
        if depth:
            assert _column(SimpleNamespace(depth=depth), a) == tuple_column(depth, ref)


class TestAgainstTupleReference:
    """Addresses held as bit strings against the tuple-backed reference in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), min_size=1, max_size=12),
           st.lists(st.integers(1, 400), max_size=5),
           st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), min_size=1, max_size=12),
           st.integers(0, 11), st.booleans())
    def test_canonical_form_switches_and_literals_agree(self, prefix, cycle, flips, other_prefix,
                                                        other_cycle, turn, twin):
        literal = "%s(%s)" % ("".join(map(str, prefix)), "".join(map(str, cycle)))
        a, ref = parse_address(literal), tuple_parse(literal)
        assert a == Address(tuple(prefix), tuple(cycle))
        _agrees_with_reference(a, ref)
        for n in flips:  # each switch from the last, flips up to 400 digits deep
            a, ref = a.switch(n), ref.switch(n)
            _agrees_with_reference(a, ref)
        if twin:  # the same string, a turn of the cycle moved into the prefix and the cycle doubled
            turn %= len(ref.cycle)
            other_prefix = ref.prefix + ref.cycle[:turn]
            other_cycle = (ref.cycle[turn:] + ref.cycle[:turn]) * 2
        b = Address(tuple(other_prefix), tuple(other_cycle))
        ref_b = TupleAddress(tuple(other_prefix), tuple(other_cycle))
        _agrees_with_reference(b, ref_b)
        assert (a == b) == (ref == ref_b) and (a != b) == (ref != ref_b)
        assert twin <= (a == b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), min_size=1, max_size=12),
           st.lists(st.integers(0, 1), max_size=40),
           st.lists(st.integers(0, 1), min_size=1, max_size=12),
           st.lists(st.integers(1, 400), max_size=3),
           st.integers(0, 400), st.integers(0, 400))
    def test_difference_orders_agree(self, prefix, cycle, other_prefix, other_cycle, flips,
                                     lo, width):
        a, ref = Address(tuple(prefix), tuple(cycle)), TupleAddress(tuple(prefix), tuple(cycle))
        b = Address(tuple(other_prefix), tuple(other_cycle))
        ref_b = TupleAddress(tuple(other_prefix), tuple(other_cycle))
        if flips:  # b is a with the flips made, so the two differ at finitely many digits
            b, ref_b = a, ref
            for n in flips:
                b, ref_b = b.switch(n), ref_b.switch(n)
        for x, y, ref_x, ref_y in ((a, b, ref, ref_b), (b, a, ref_b, ref)):
            diffs, expected = difference_orders(x, y), TupleDifferenceOrders(ref_x, ref_y)
            assert (diffs.is_finite, diffs.start, diffs.period) == \
                (expected.is_finite, expected.start, expected.period)
            assert diffs.head == expected.head
            end = diffs.start + 2 * diffs.period  # the first two period windows
            assert list(takewhile(lambda k: k < end, diffs)) == \
                list(takewhile(lambda k: k < end, expected))
            assert list(diffs.between(lo, lo + width)) == list(expected.between(lo, lo + width))

    @pytest.mark.parametrize("ratio, override, depth",
                             [(3, (), 4), (3, (4, 3, 3), 3), (Fraction(7, 2), (), 3)])
    def test_oracle_vertices_agree(self, ratio, override, depth):
        graph = build(Space.from_ratio(ratio, m_override=override), depth)
        for column in range(1 << depth):
            for hidx, height in enumerate(graph.heights):
                point = point_at(graph, column, hidx)
                ref = tuple_point_address(column & ~graph.flips[hidx])
                _agrees_with_reference(point.address, ref)
                assert point.height == height
                assert _column(graph, point.address) == column & ~graph.flips[hidx]
