import random
from fractions import Fraction

import pytest

from laakso import Interval, ParseError, ResourceLimit, Space, difference_orders, parse_address, value
from conftest import omega_value, preimages, random_address

ZERO = parse_address("(0)")


class TestConfig:
    def test_dimension_recorded_only_when_given(self, s3, s4):
        assert s3.dimension is None
        assert s4.dimension == Fraction(3, 2)
        assert s4.n == 4

    def test_override_threading(self):
        space = Space.from_ratio(3, m_override=(4,))
        assert space.mseq.entry(1) == 4


class TestCanonicalize:
    def test_examples(self, s3):
        p = s3.point(ZERO, Fraction(1, 3))
        assert p == s3.point(parse_address("1(0)"), Fraction(1, 3))  # identified preimage
        assert p.address == ZERO
        q = s3.point(ZERO, Fraction(1, 5))
        assert q.address == ZERO and q.height == Fraction(1, 5)

    def test_idempotent_and_class_constant(self, s3):
        rng = random.Random(31)
        for _ in range(300):
            a = random_address(rng)
            k = rng.randint(1, 5)
            digits = [rng.randint(0, 2) for _ in range(k - 1)] + [rng.randint(1, 2)]
            y = omega_value(s3.mseq, digits).value
            p = s3.point(a, y)
            assert s3.point(p.address, p.height) == p
            assert s3.point(a.switch(k), y) == p
            assert p.address.digit(k) == 0

    def test_height_range_validated(self, s3):
        with pytest.raises(ParseError):
            s3.point(ZERO, Fraction(3, 2))
        with pytest.raises(ParseError):
            s3.point(ZERO, Fraction(-1, 10))
        # the message leaves out a height too long for str()
        with pytest.raises(ParseError, match=r"^height outside \[0, 1\]$"):
            s3.point(ZERO, Fraction(10 ** 5000))


class TestPreimages:
    def test_examples(self, s3):
        only = preimages(s3, s3.point(ZERO, Fraction(1, 5)))
        assert len(only) == 1

        pair = preimages(s3, s3.point(ZERO, Fraction(1, 3)))
        assert {addr for addr, _ in pair} == {parse_address("(0)"), parse_address("1(0)")}
        assert {h for _, h in pair} == {Fraction(1, 3)}

        pair = preimages(s3, s3.point(ZERO, Fraction(5, 9)))
        assert {addr for addr, _ in pair} == {parse_address("(0)"), parse_address("01(0)")}

    def test_preimages_differ_at_the_level_order(self, s3):
        rng = random.Random(32)
        for _ in range(200):
            k = rng.randint(1, 5)
            digits = [rng.randint(0, 2) for _ in range(k - 1)] + [rng.randint(1, 2)]
            y = omega_value(s3.mseq, digits).value
            p = s3.point(random_address(rng), y)
            (a1, _), (a2, _) = preimages(s3, p)
            diffs = difference_orders(a1, a2)
            assert diffs.is_finite and diffs.head == (k,)
            assert abs(value(a1, s3.scale) - value(a2, s3.scale)) == Fraction(2, 3 ** k)


def embed(space: Space, literal: str):
    """Coordinates of a point's canonical preimage in the ambient product."""
    p = space.parse_point(literal)
    return value(p.address, space.scale), p.height


class TestEmbed:
    def test_examples(self, s3):
        assert embed(s3, "101(0)@1/10") == (Fraction(20, 27), Fraction(1, 10))
        assert embed(s3, "(0)@0") == (0, 0)
        assert embed(s3, "(1)@1") == (1, 1)

    def test_irrational_scale_gives_enclosure(self, q13):
        horizontal, vertical = embed(q13, "1(0)@1/2")
        assert isinstance(horizontal, Interval)
        assert vertical == Fraction(1, 2)


class TestWormholes:
    def test_budget_decided_before_the_sequence_grows(self):
        space = Space.from_ratio(Fraction(7, 2))
        with pytest.raises(ResourceLimit, match="over the listing budget"):
            space.wormholes(2000)
        assert space.mseq._products == [1]  # no entry was chosen

    def test_a_range_with_no_level_lists_none(self):
        # the only order-1 levels at s=3 are 1/3 and 2/3
        assert Space.from_ratio(3).wormholes(1, Fraction(1, 10), Fraction(1, 5)) == []

    def test_bounds_outside_zero_one_are_clamped(self):
        space = Space.from_ratio(3)
        below = [Fraction(1, 9), Fraction(2, 9), Fraction(4, 9)]
        assert [w.value for w in space.wormholes(2, Fraction(-1, 2), Fraction(1, 2))] == below
        assert [w.value for w in space.wormholes(1, Fraction(1, 2), 7)] == [Fraction(2, 3)]
        assert [w.value for w in space.wormholes(1, -5, 5)] == [Fraction(1, 3), Fraction(2, 3)]
        assert space.wormholes(1, 1, 7) == space.wormholes(1, -7, -1) == []


class TestPointLiterals:
    def test_round_trip(self, s3):
        rng = random.Random(33)
        for _ in range(300):
            p = s3.point(random_address(rng), Fraction(rng.randint(0, 81), 81))
            assert s3.parse_point(str(p)) == p

    def test_canonicalizes_on_ingestion(self, s3):
        assert s3.parse_point("1(0)@1/3") == s3.parse_point("(0)@1/3")

    @pytest.mark.parametrize("bad", ["(0)", "(0)@", "@1/2", "(0)@2", "(0)@1/0", "(0)@x", "a@1/2", "(0)@1/2@3"])
    def test_rejects(self, s3, bad):
        with pytest.raises(ParseError):
            s3.parse_point(bad)

    @pytest.mark.parametrize("text, message", [
        ("(0)@-1/2", "height '-1/2' in '(0)@-1/2' outside [0, 1]"),
        ("(0)@3/2", "height '3/2' in '(0)@3/2' outside [0, 1]"),
        ("(0)@1/x", "bad height '1/x' in '(0)@1/x'"),
        ("(0)@1/0", "bad height '1/0' in '(0)@1/0'"),
    ])
    def test_height_messages(self, s3, text, message):
        with pytest.raises(ParseError) as info:
            s3.parse_point(text)
        assert str(info.value) == message

    def test_point_takes_int_str_and_fraction_heights(self, s3):
        one = parse_address("1(0)")
        assert s3.point(one, 1) == s3.point(one, "1") == s3.point(one, Fraction(1))
        third = s3.point(one, "1/3")
        assert third == s3.point(one, Fraction(1, 3)) == s3.parse_point("1(0)@1/3")
        assert third.address == ZERO  # flipped at the order-1 level
        for bad in (2, "-1/3", Fraction(4, 3)):
            with pytest.raises(ParseError, match=r"height outside \[0, 1\]"):
                s3.point(one, bad)
