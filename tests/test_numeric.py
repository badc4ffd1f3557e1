import random
from fractions import Fraction

import mpmath
import pytest
from conftest import interval_abs, interval_add, interval_sub

from laakso import Interval, ResourceLimit, ScaleFactor, iroot
from laakso.budget import MAX_SCALE_LOG2


def test_iroot_matches_defining_inequality():
    rng = random.Random(7)
    for _ in range(500):
        x = rng.randrange(0, 1 << rng.randint(1, 200))
        k = rng.randint(1, 12)
        r = iroot(x, k)
        assert r ** k <= x < (r + 1) ** k


def test_iroot_exact_powers():
    for base in (2, 3, 10, 123456789):
        for k in (1, 2, 3, 7):
            assert iroot(base ** k, k) == base


class TestExactScale:
    def test_floor(self):
        assert ScaleFactor.from_ratio(3).floor_s() == 3
        assert ScaleFactor.from_ratio(Fraction(7, 2)).floor_s() == 3
        assert ScaleFactor.from_ratio(Fraction(21, 10)).floor_s() == 2

    def test_rejects_small_scales(self):
        with pytest.raises(ValueError):
            ScaleFactor.from_ratio(2)
        with pytest.raises(ValueError):
            ScaleFactor.from_ratio(Fraction(3, 2))

    def test_compare_spower_exact(self):
        s3 = ScaleFactor.from_ratio(3)
        assert s3.compare_spower(2, Fraction(1, 9)) == 0
        assert s3.compare_spower(1, Fraction(1, 2)) == -1
        assert s3.compare_spower(1, Fraction(1, 4)) == 1

    def test_self_powers_equal_up_to_64(self):
        s3 = ScaleFactor.from_ratio(3)
        for i in range(1, 65):
            assert s3.compare_spower(i, Fraction(1, 3 ** i)) == 0


class TestDerivedScale:
    def test_integer_power_collapses_to_exact(self):
        s = ScaleFactor.from_dimension(Fraction(3, 2))  # 2**2
        assert s.is_exact and s.power == 4
        assert s.floor_s() == 4
        assert s.dimension == Fraction(3, 2)

    def test_floor_of_irrational_scale(self):
        s = ScaleFactor.from_dimension(Fraction(13, 10))  # 2**(10/3)
        assert not s.is_exact
        assert s.floor_s() == 10

    def test_compare_against_bignum_oracle(self):
        # independent high-precision exponentiation decides the orderings
        s = ScaleFactor.from_dimension(Fraction(13, 10))
        mpmath.mp.dps = 80
        value = mpmath.mpf(2) ** (mpmath.mpf(10) / 3)
        rng = random.Random(3)
        assert s.compare_spower(1, Fraction(1, 10)) == -1
        for _ in range(200):
            i = rng.randint(1, 24)
            r = Fraction(rng.randint(1, 10 ** 8), rng.randint(1, 10 ** 8))
            expected = value ** (-i) - mpmath.mpf(r.numerator) / r.denominator
            got = s.compare_spower(i, r)
            if abs(expected) > mpmath.mpf(10) ** -60:
                assert got == (1 if expected > 0 else -1)

    def test_detects_genuine_rational_powers(self):
        # s = 2**(10/3) is irrational but s**-3 = 2**-10 is not
        s = ScaleFactor.from_dimension(Fraction(13, 10))
        assert s.compare_spower(3, Fraction(1, 1024)) == 0
        assert s.compare_spower(3, Fraction(1, 1023)) == -1
        assert s.compare_spower(3, Fraction(1, 1025)) == 1

    def test_enclosures_shrink_and_contain(self):
        s = ScaleFactor.from_dimension(Fraction(13, 10))
        mpmath.mp.dps = 80
        truth = 1 / mpmath.mpf(2) ** (mpmath.mpf(10) / 3)
        previous = None
        for bits in (16, 32, 64, 128):
            enc = s.recip_enclosure(bits)
            assert enc.width <= Fraction(1, 2 ** bits)
            assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator <= truth
            assert truth <= mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
            if previous is not None:
                assert enc.width <= previous
            previous = enc.width


@pytest.mark.parametrize("s", [Fraction(7, 2), Fraction(11, 2)])
def test_compare_spower_against_bignum_oracle_on_rational_scales(s):
    # random rationals, exact powers of 1/s and their near neighbours, and
    # ints, each passed as it is (an int is not turned into a Fraction)
    scale = ScaleFactor.from_ratio(s)
    mpmath.mp.dps = 80
    value = mpmath.mpf(s.numerator) / s.denominator
    rng = random.Random(17)
    for _ in range(200):
        i = rng.randint(1, 24)
        exact = 1 / s ** i
        for r in (Fraction(rng.randint(1, 10 ** 8), rng.randint(1, 10 ** 8)), exact,
                  exact + Fraction(1, 10 ** 40), exact - Fraction(1, 10 ** 40),
                  rng.randint(1, 100)):
            expected = value ** (-i) - mpmath.mpf(r.numerator) / r.denominator
            want = 0 if abs(expected) < mpmath.mpf(10) ** -60 else (1 if expected > 0 else -1)
            assert scale.compare_spower(i, r) == want


@pytest.mark.parametrize("s", [Fraction(3), Fraction(7, 2)])
def test_rational_recip_enclosure_contains_and_is_narrow(s):
    scale = ScaleFactor.from_ratio(s)
    for bits in (1, 8, 16, 64, 128):
        enc = scale.recip_enclosure(bits)
        assert enc.contains(1 / s)
        assert 0 < enc.width <= Fraction(1, 2 ** bits)  # 1/s is not dyadic


def test_recip_enclosure_is_degenerate_where_the_reciprocal_is_dyadic():
    scale = ScaleFactor.from_ratio(4)
    for bits in (2, 8, 64):
        assert scale.recip_enclosure(bits) == Interval(Fraction(1, 4), Fraction(1, 4))


def test_derived_scale_bound_is_checked_before_the_power_is_built():
    at_bound = ScaleFactor.from_dimension(1 + Fraction(1, MAX_SCALE_LOG2))
    assert at_bound.power == 2 ** MAX_SCALE_LOG2
    with pytest.raises(ResourceLimit):
        ScaleFactor.from_dimension(1 + Fraction(1, MAX_SCALE_LOG2 + 1))
    with pytest.raises(ResourceLimit):  # 2**(10**11) would take 12.5 GB
        ScaleFactor.from_dimension(Fraction("1.00000000001"))


def test_compare_spower_monotone_in_r():
    # no ordering reversal as r increases across s**-i
    for scale in (ScaleFactor.from_ratio(3), ScaleFactor.from_dimension(Fraction(13, 10))):
        rng = random.Random(11)
        for _ in range(200):
            i = rng.randint(1, 16)
            r1 = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            r2 = r1 + Fraction(rng.randint(1, 100), rng.randint(1, 100))
            assert scale.compare_spower(i, r1) >= scale.compare_spower(i, r2)


def test_fraction_algebra_stays_reduced():
    rng = random.Random(5)
    for _ in range(300):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
        for v in (a + b, a - b, a * b):
            assert v.denominator > 0
            from math import gcd

            assert gcd(abs(v.numerator), v.denominator) == 1


class TestInterval:
    def test_arithmetic_bounds(self):
        rng = random.Random(13)
        for _ in range(200):
            a = Interval(Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(51, 150), 7))
            b = Interval(Fraction(rng.randint(1, 60), 11), Fraction(rng.randint(61, 200), 11))
            sample_a = a.lo + (a.hi - a.lo) * Fraction(rng.randint(0, 8), 8)
            sample_b = b.lo + (b.hi - b.lo) * Fraction(rng.randint(0, 8), 8)
            assert interval_add(a, b).contains(sample_a + sample_b)
            assert interval_sub(a, b).contains(sample_a - sample_b)
            assert interval_abs(interval_sub(a, b)).contains(abs(sample_a - sample_b))

    def test_bad_endpoints(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))
