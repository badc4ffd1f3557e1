import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from laakso import (
    Address,
    ParseError,
    difference_orders,
    format_address,
    parse_address,
    value,
)
from conftest import random_address

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
        assert d.first(5) == [1, 2, 3, 4, 5]
        d = difference_orders(ZERO, ZERO)
        assert d.is_finite and d.head == ()

    def test_difference_orders_agree_with_direct_scan(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b = random_address(rng), random_address(rng)
            reported = difference_orders(a, b).first(40)
            direct = [i for i in range(1, 200) if a.digit(i) != b.digit(i)][:40]
            assert reported == direct[: len(reported)]
            if len(reported) < 40:
                assert reported == direct


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

    @pytest.mark.parametrize("bad", ["", "()", "2(0)", "1(2)", "10(", "(01)x", "1 (0)"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_address(bad)
