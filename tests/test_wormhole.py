import bisect
import functools
import itertools
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from laakso import (
    InfeasibleSequence,
    MSequence,
    ScaleFactor,
    classify_height,
    first_in_interval,
    last_in_interval,
    levels_in_range,
    nearest,
    snap,
)
from conftest import level_digits, omega_value, reference_entries, sandwich_holds

# the order-2 and order-3 tables for the middle-thirds construction
ORDER2 = {
    (0, 1): Fraction(1, 9), (0, 2): Fraction(2, 9), (1, 1): Fraction(4, 9),
    (1, 2): Fraction(5, 9), (2, 1): Fraction(7, 9), (2, 2): Fraction(8, 9),
}
ORDER3 = {
    (0, 0, 1): Fraction(1, 27), (0, 0, 2): Fraction(2, 27), (0, 1, 1): Fraction(4, 27),
    (0, 1, 2): Fraction(5, 27), (0, 2, 1): Fraction(7, 27), (0, 2, 2): Fraction(8, 27),
    (1, 0, 1): Fraction(10, 27), (1, 0, 2): Fraction(11, 27), (1, 1, 1): Fraction(13, 27),
    (1, 1, 2): Fraction(14, 27), (1, 2, 1): Fraction(16, 27), (1, 2, 2): Fraction(17, 27),
    (2, 0, 1): Fraction(19, 27), (2, 0, 2): Fraction(20, 27), (2, 1, 1): Fraction(22, 27),
    (2, 1, 2): Fraction(23, 27), (2, 2, 1): Fraction(25, 27), (2, 2, 2): Fraction(26, 27),
}


def brute_levels(ms: MSequence, k: int) -> list[Fraction]:
    """Independent enumeration of the order-k level set."""
    den = ms.D(k)
    return [Fraction(n, den) for n in range(1, den) if n % ms.entry(k) != 0]


#: Sequences for the property tests: constant, mixed, irrational-scale and
#: overridden branching.
LEVEL_SPACES = {
    "s3": MSequence(ScaleFactor.from_ratio(3)),
    "s72": MSequence(ScaleFactor.from_ratio(Fraction(7, 2))),
    "q13": MSequence(ScaleFactor.from_dimension(Fraction(13, 10))),
    "s3-433": MSequence(ScaleFactor.from_ratio(3), override=(4, 3, 3)),
}


@functools.lru_cache(maxsize=None)
def sorted_levels(name: str, k: int) -> list[Fraction]:
    return brute_levels(LEVEL_SPACES[name], k)


@st.composite
def heights(draw, ms: MSequence):
    """The bounds 0 and 1, grid points of orders 1-6, and arbitrary fractions."""
    den = ms.D(draw(st.integers(1, 6)))
    return draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(1)]),
        st.integers(0, den).map(lambda j: Fraction(j, den)),
        st.fractions(min_value=0, max_value=1, max_denominator=10_000),
    ))


class TestMSequence:
    def test_constant_three(self, s3):
        assert s3.n == 3
        assert all(s3.mseq.entry(i) == 3 for i in range(1, 33))
        assert s3.mseq.D(5) == 243

    def test_constant_four_from_dimension(self, s4):
        assert s4.scale.power == 4
        assert all(s4.mseq.entry(i) == 4 for i in range(1, 33))

    def test_sandwich_holds_to_64(self, s3, s4, q13):
        for space in (s3, s4, q13):
            for i in range(1, 65):
                assert sandwich_holds(space.mseq, i)

    def test_greedy_matches_brute_force_for_irrational_scale(self, q13):
        # every admissible assignment of the first 8 entries, checked with an
        # independent high-precision evaluation of 2**(10/3)
        mpmath.mp.dps = 60
        s = mpmath.mpf(2) ** (mpmath.mpf(10) / 3)
        valid = []
        for combo in itertools.product((10, 11), repeat=8):
            product = 1
            ok = True
            for i, m in enumerate(combo, start=1):
                product *= m
                lo = mpmath.mpf(10) / 11 / product
                hi = mpmath.mpf(11) / 10 / product
                if not lo <= s ** -i <= hi:
                    ok = False
                    break
            if ok:
                valid.append(combo)
        assert valid, "the two-sided bound admits at least one assignment"
        greedy = tuple(q13.mseq.entry(i) for i in range(1, 9))
        assert greedy in valid

    def test_override_accepted_when_valid(self):
        ms = MSequence(ScaleFactor.from_ratio(3), override=(4, 3, 3))
        assert ms.entry(1) == 4
        assert ms.entry(5) == 3  # greedy continues beyond the override
        assert all(sandwich_holds(ms, i) for i in range(1, 20))

    def test_override_rejected_with_index(self):
        with pytest.raises(InfeasibleSequence) as info:
            MSequence(ScaleFactor.from_ratio(3), override=(3, 4, 4))
        assert info.value.index == 3
        with pytest.raises(InfeasibleSequence) as info:
            MSequence(ScaleFactor.from_ratio(3), override=(5,))
        assert info.value.index == 1

    @pytest.mark.parametrize("scale", [
        *(ScaleFactor.from_ratio(Fraction(rng.randint(2 * d + 1, 40 * d), d))
          for rng in [random.Random(15)] for d in (rng.randint(1, 60) for _ in range(8))),
        # roots 1, 2, 2 and 3: s = 4, 2**(3/2), 2**(5/2) and 2**(10/3)
        *(ScaleFactor.from_dimension(Fraction(q)) for q in ("3/2", "5/3", "7/5", "13/10")),
    ], ids=str)
    def test_entries_match_the_reference_rule(self, scale):
        assert [MSequence(scale).entry(i) for i in range(1, 301)] == reference_entries(scale, 300)

    def test_overrides_match_the_reference_rule(self):
        rng = random.Random(1515)
        outcomes = set()
        for scale in (ScaleFactor.from_ratio(3), ScaleFactor.from_ratio(Fraction(7, 2)),
                      ScaleFactor.from_ratio(Fraction(31, 7)),
                      ScaleFactor.from_dimension(Fraction(5, 3)),
                      ScaleFactor.from_dimension(Fraction(13, 10))):
            n = scale.floor_s()
            for _ in range(12):
                override = tuple(rng.choice((n, n, n + 1, n + 1, n + 2)) for _ in range(rng.randint(1, 8)))
                try:
                    want = reference_entries(scale, 300, override)
                except InfeasibleSequence as error:
                    with pytest.raises(InfeasibleSequence) as info:
                        MSequence(scale, override).D(300)
                    assert (info.value.index, str(info.value)) == (error.index, str(error))
                    outcomes.add("not in" if "not in" in str(error) else "bounds")
                else:
                    ms = MSequence(scale, override)
                    assert [ms.entry(i) for i in range(1, 301)] == want
                    outcomes.add("valid")
        assert outcomes == {"valid", "not in", "bounds"}

    @pytest.mark.parametrize("scale", [ScaleFactor.from_ratio(3), ScaleFactor.from_ratio(Fraction(7, 2)),
                                       ScaleFactor.from_dimension(Fraction(13, 10))], ids=str)
    def test_tie_test_is_exact_inside_its_bracket(self, scale):
        # t**root = top/bottom within 2**-64 of sqrt((n(n+1))**root) on either
        # side: the bracket cannot decide, and the exact squaring must
        ms = MSequence(scale)
        n, root = ms.n, scale.root
        tie = (n * (n + 1)) ** root
        lo = isqrt(tie << 128)
        bottom = 1 << 256
        below = isqrt(tie * bottom * bottom)  # below**2 <= tie * bottom**2 < (below+1)**2
        for top, prefers_n in ((below, True), (below + 1, False)):
            assert lo * bottom < top << 64 <= (lo + 1) * bottom
            assert ms._prefers_n(top, bottom) is prefers_n

    @pytest.mark.parametrize("scale, limit", [(ScaleFactor.from_ratio(Fraction(7, 2)), 0.2),
                                              (ScaleFactor.from_dimension(Fraction(13, 10)), 1.0)],
                             ids=str)
    def test_order_4000_extends_within_its_time(self, scale, limit):
        # a fresh sequence each time; rebuilding s**i and D_i**root at every
        # entry takes about twice the limit
        best = float("inf")
        for _ in range(3):
            began = time.process_time()
            MSequence(scale).D(4000)
            best = min(best, time.process_time() - began)
        assert best < limit


class TestOmegaValues:
    def test_order1(self, s3):
        assert omega_value(s3.mseq, (1,)).value == Fraction(1, 3)
        assert omega_value(s3.mseq, (2,)).value == Fraction(2, 3)

    def test_tables(self, s3):
        for digits, expected in {**ORDER2, **ORDER3}.items():
            level = omega_value(s3.mseq, digits)
            assert level.value == expected
            assert level_digits(s3.mseq, level) == digits
            assert level.order == len(digits)

    def test_digit_range_errors(self, s3):
        with pytest.raises(ValueError):
            omega_value(s3.mseq, (3,))
        with pytest.raises(ValueError):
            omega_value(s3.mseq, (1, 0))
        with pytest.raises(ValueError):
            omega_value(s3.mseq, ())


class TestClassify:
    def test_examples(self, s3):
        level = classify_height(s3.mseq, Fraction(5, 9))
        assert level.order == 2 and level_digits(s3.mseq, level) == (1, 2)
        assert classify_height(s3.mseq, Fraction(1, 5)) is None
        assert classify_height(s3.mseq, 0) is None
        assert classify_height(s3.mseq, 1) is None

    def test_one_fifth_is_never_integral(self, s3):
        # denominator 5 never divides a power of three
        for k in range(1, 11):
            assert (3 ** k) % 5 != 0

    def test_round_trip(self, s3):
        rng = random.Random(21)
        for _ in range(300):
            k = rng.randint(1, 6)
            digits = [rng.randint(0, 2) for _ in range(k - 1)] + [rng.randint(1, 2)]
            level = omega_value(s3.mseq, digits)
            decoded = classify_height(s3.mseq, level.value)
            assert decoded == level

    def test_non_levels_decode_to_none(self, s3):
        rng = random.Random(22)
        levels = {v for k in range(1, 7) for v in brute_levels(s3.mseq, k)}
        for _ in range(300):
            y = Fraction(rng.randint(1, 3 ** 6 - 1), 3 ** 6)
            got = classify_height(s3.mseq, y)
            if y in levels:
                assert got is not None and got.value == y
            else:
                assert got is None

    def test_irrational_scale_roundtrip(self, q13):
        rng = random.Random(23)
        for _ in range(100):
            k = rng.randint(1, 4)
            digits = [rng.randint(0, q13.mseq.entry(j) - 1) for j in range(1, k)]
            digits.append(rng.randint(1, q13.mseq.entry(k) - 1))
            level = omega_value(q13.mseq, digits)
            assert classify_height(q13.mseq, level.value) == level

    def test_override_changes_grid(self):
        ms = MSequence(ScaleFactor.from_ratio(3), override=(4,))
        level = classify_height(ms, Fraction(1, 4))
        assert level is not None and level.order == 1
        # 8 = 2**3 never divides 4 * 3**k
        assert classify_height(ms, Fraction(1, 8)) is None


class TestDisjointAndDense:
    def test_disjoint_orders(self, s3):
        sets = {k: set(brute_levels(s3.mseq, k)) for k in range(1, 5)}
        for k, h in itertools.combinations(sets, 2):
            assert not sets[k] & sets[h]

    def test_union_gap_bound(self, s3):
        for k in range(1, 6):
            union = sorted(
                {Fraction(0), Fraction(1)}
                | {v for j in range(1, k + 1) for v in brute_levels(s3.mseq, j)}
            )
            bound = Fraction(2, s3.mseq.D(k))
            assert all(b - a <= bound for a, b in zip(union, union[1:]))


class TestQueries:
    def test_first_in_interval_examples(self, s3):
        assert first_in_interval(s3.mseq, 3, Fraction(1, 10), Fraction(1, 3)).value == Fraction(4, 27)
        assert first_in_interval(s3.mseq, 1, Fraction(1, 10), Fraction(1, 5)) is None
        assert first_in_interval(s3.mseq, 2, 0, 1).value == Fraction(1, 9)

    def test_interval_queries_match_enumeration(self, s3):
        rng = random.Random(24)
        for _ in range(300):
            k = rng.randint(1, 5)
            lo = Fraction(rng.randint(0, 162), 162)
            hi = lo + Fraction(rng.randint(0, 162 - lo.numerator * 162 // 162), 162)
            hi = min(hi, Fraction(1))
            inside = [v for v in brute_levels(s3.mseq, k) if lo <= v <= hi]
            first = first_in_interval(s3.mseq, k, lo, hi)
            last = last_in_interval(s3.mseq, k, lo, hi)
            assert (first.value if first else None) == (inside[0] if inside else None)
            assert (last.value if last else None) == (inside[-1] if inside else None)

    def test_nearest_examples(self, s3):
        assert nearest(s3.mseq, 1, Fraction(1, 5)).value == Fraction(1, 3)
        assert snap(s3.mseq, 3, Fraction(1, 3), up=True).value == Fraction(10, 27)
        # an exact tie resolves to the lower level
        assert nearest(s3.mseq, 1, Fraction(1, 2)).value == Fraction(1, 3)

    def test_snap_finds_none_past_the_last_level(self, s3):
        assert snap(s3.mseq, 1, Fraction(1, 5), up=False) is None
        assert snap(s3.mseq, 1, Fraction(9, 10), up=True) is None

    def test_nearest_matches_enumeration(self, s3):
        rng = random.Random(25)
        for _ in range(300):
            k = rng.randint(1, 4)
            y = Fraction(rng.randint(0, 243), 243)
            values = brute_levels(s3.mseq, k)
            best = min(values, key=lambda v: (abs(v - y), v))
            assert nearest(s3.mseq, k, y).value == best

    def test_levels_in_range_sorted(self, s3):
        got = [w.value for w in levels_in_range(s3.mseq, 2, 0, 1)]
        assert got == sorted(ORDER2.values())


class TestNestedBetween:
    """Between two distinct levels lies a level of every higher order."""

    def test_examples(self, s3):
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        assert first_in_interval(s3.mseq, 2, third, two_thirds).value == Fraction(4, 9)
        assert first_in_interval(s3.mseq, 3, third, two_thirds).value == Fraction(10, 27)
        lo = omega_value(s3.mseq, (0, 1)).value
        hi = omega_value(s3.mseq, (0, 2)).value
        assert first_in_interval(s3.mseq, 3, lo, hi).value == Fraction(4, 27)

    def test_exhaustive_small_orders(self, s3):
        levels = [
            lvl
            for k in range(1, 4)
            for lvl in levels_in_range(s3.mseq, k, 0, 1)
        ]
        for w1, w2 in itertools.permutations(levels, 2):
            lower, upper = sorted((w1.value, w2.value))
            for target in range(max(w1.order, w2.order) + 1, 6):
                mid = first_in_interval(s3.mseq, target, lower, upper)
                assert mid is not None and mid.order == target
                assert lower < mid.value < upper


@pytest.mark.parametrize("name", sorted(LEVEL_SPACES))
class TestLevelProperties:
    """The level queries against an enumeration of the whole level set."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5))
    def test_interval_queries(self, name, data, k):
        ms = LEVEL_SPACES[name]
        lo, hi = data.draw(heights(ms)), data.draw(heights(ms))
        levels = sorted_levels(name, k)
        inside = levels[bisect.bisect_left(levels, lo):bisect.bisect_right(levels, hi)]
        first = first_in_interval(ms, k, lo, hi)
        last = last_in_interval(ms, k, lo, hi)
        assert (first.value if first else None) == (inside[0] if inside else None)
        assert (last.value if last else None) == (inside[-1] if inside else None)
        listed = [w.value for w in itertools.islice(levels_in_range(ms, k, lo, hi), 100)]
        assert listed == inside[:100]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5))
    def test_nearest(self, name, data, k):
        ms = LEVEL_SPACES[name]
        y = data.draw(heights(ms))
        levels = sorted_levels(name, k)
        below_cut, above_cut = bisect.bisect_right(levels, y), bisect.bisect_left(levels, y)
        below = levels[below_cut - 1] if below_cut else None
        above = levels[above_cut] if above_cut < len(levels) else None
        for up, expected in ((False, below), (True, above)):
            level = snap(ms, k, y, up)
            assert (level.value if level else None) == expected
        best = min((v for v in (below, above) if v is not None), key=lambda v: (abs(v - y), v))
        assert nearest(ms, k, y).value == best

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5))
    def test_decode_and_digits_round_trip(self, name, data, k):
        ms = LEVEL_SPACES[name]
        levels = sorted_levels(name, k)
        value = levels[data.draw(st.integers(0, len(levels) - 1))]
        level = first_in_interval(ms, k, value, value)
        assert (level.order, level.value) == (k, value)
        assert classify_height(ms, level.value) == level
        digits = level_digits(ms, level)
        assert omega_value(ms, digits) == level
        assert len(digits) == k and digits[-1] != 0


    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5))
    def test_levels_are_heights(self, name, data, k):
        # a level goes into a query as its numerator over D_order, which need
        # not be reduced: such levels are drawn half of the time where they exist
        ms = LEVEL_SPACES[name]
        order = data.draw(st.integers(1, 4))
        den = ms.D(order)
        numerators = [j for j in range(1, den) if j % ms.entry(order)]
        shared = [j for j in numerators if gcd(j, den) > 1]
        drawn = st.sampled_from(numerators)
        w = classify_height(ms, Fraction(data.draw(st.sampled_from(shared) | drawn if shared else drawn), den))
        assert (w.order, w.denominator) == (order, den)
        y = data.draw(heights(ms))
        for up in (False, True):
            assert snap(ms, k, w, up) == snap(ms, k, w.value, up)
        assert first_in_interval(ms, k, w, y) == first_in_interval(ms, k, w.value, y)
        assert last_in_interval(ms, k, y, w) == last_in_interval(ms, k, y, w.value)
        assert first_in_interval(ms, k, y, w) == first_in_interval(ms, k, y, w.value)
        assert last_in_interval(ms, k, w, y) == last_in_interval(ms, k, w.value, y)


class TestDeepLevels:
    def test_order_1000_decodes(self, s3):
        level = omega_value(s3.mseq, (1,) * 999 + (2,))
        decoded = classify_height(s3.mseq, level.value)
        assert decoded == level and decoded.order == 1000
        assert level_digits(s3.mseq, decoded) == level_digits(s3.mseq, level)

    def test_foreign_factor_decodes_to_none(self, s3):
        assert classify_height(s3.mseq, Fraction(1, 2 * 3 ** 1000)) is None
