import random
import re
from fractions import Fraction
from itertools import islice, takewhile
from math import lcm

import pytest

from laakso import (Address, InfeasibleSequence, Interval, InvariantViolation, Jump, MSequence,
                    Point, ScaleFactor, Segment, Space, WormholeLevel, classify_height,
                    difference_orders, first_in_interval)
from laakso.record import Record
from laakso.wormhole import level_from_numerator, snap


@pytest.fixture(scope="session")
def s3():
    """The classical middle-thirds space: scale 3, constant branching 3."""
    return Space.from_ratio(3)


@pytest.fixture(scope="session")
def s4():
    """Dimension 3/2 gives the exact integer scale 4."""
    return Space.from_dimension(Fraction(3, 2))


@pytest.fixture(scope="session")
def s72():
    """Rational non-integer scale 7/2: mixed branching entries, interval tails."""
    return Space.from_ratio(Fraction(7, 2))


@pytest.fixture(scope="session")
def q13():
    """Dimension 13/10: irrational scale 2**(10/3)."""
    return Space.from_dimension(Fraction(13, 10))


@pytest.fixture(scope="session")
def s3_433():
    """Scale 3 with the override prefix 4, 3, 3."""
    return Space.from_ratio(3, m_override=(4, 3, 3))


#: The four spaces of the closed-form checks, as fixture names.
CLOSED_FORM_SPACES = ["s3", "s72", "q13", "s3_433"]


@pytest.fixture
def fraction_count(monkeypatch):
    """Count every Fraction built from here on; calling the result reads the count."""
    built = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return lambda: built


def sandwich_holds(ms: MSequence, i: int) -> bool:
    """The two-sided bound n/(n+1)/D_i <= s**-i <= (n+1)/n/D_i, decided exactly."""
    n, product = ms.n, ms.D(i)
    low = Fraction(n, (n + 1) * product)
    high = Fraction(n + 1, n * product)
    return ms.scale.compare_spower(i, low) >= 0 and ms.scale.compare_spower(i, high) <= 0


def reference_entries(scale: ScaleFactor, count: int, override=()) -> list[int]:
    """The first count entries of the greedy rule, each decided by compare_spower.

    An independent statement of the rule ``MSequence`` implements with
    carried integers: n when s**(2i) <= D_(i-1)**2 n(n+1) (the log-distance
    tie), else n+1, or the override entry; then the two-sided bound on
    s**i/D_i.  Raises the ``InfeasibleSequence`` the rule fails with.
    """
    n, product, entries = scale.floor_s(), 1, []
    for i in range(1, count + 1):
        if i <= len(override):
            choice = override[i - 1]
            if choice not in (n, n + 1):
                raise InfeasibleSequence(i, f"override entry {choice} not in {{{n}, {n + 1}}}")
            problem = f"override entry {choice} violates the product bounds"
        else:
            tie = Fraction(1, product * product * n * (n + 1))
            choice = n if scale.compare_spower(2 * i, tie) >= 0 else n + 1
            problem = f"greedy entry {choice} violates the product bounds (scale handling bug)"
        product *= choice
        low, high = Fraction(n, (n + 1) * product), Fraction(n + 1, n * product)
        if scale.compare_spower(i, low) < 0 or scale.compare_spower(i, high) > 0:
            raise InfeasibleSequence(i, problem)
        entries.append(choice)
    return entries


def reference_limit(ms: MSequence, diffs, order: int, h, bound):
    """The exact tail limit at an integer scale, summed over 1/D_top; None past bound.

    An independent statement of the sum ``geodesic._limit`` takes from one
    base-n window: with floor = max(order, override length, start - 1) and
    top = floor + period, every order k in (order, top] counts D_top // D_k
    units of 1/D_top, and the orders past floor, repeating with the period
    while each D_k gains growth = n**period, count growth / (growth - 1)
    times over.  The sequence is extended to top.
    """
    h, bound = Fraction(h.numerator, h.denominator), Fraction(bound)
    side = (bound > h) - (bound < h)
    if side == 0:
        return Fraction(bound)
    floor = max(order, len(ms.override), diffs.start - 1)
    top = floor + diffs.period
    growth = ms.n ** diffs.period
    big = ms.D(top)
    near = sum(big // ms.D(k) for k in diffs.between(order, floor))
    repeating = sum(big // ms.D(k) for k in diffs.between(floor, top))
    omega = h + side * Fraction(near * (growth - 1) + repeating * growth, big * (growth - 1))
    return None if side * (omega - bound) > 0 else omega


def reference_snap(ms: MSequence, k: int, y, up: bool):
    """The least order-k level at or above y (up), or the greatest at or below it; None if none.

    An independent statement of ``wormhole.snap``: round y * D_k up or
    down, clamp into 1..D_k - 1, and step off a multiple of m_k, with D_k
    and m_k read separately.
    """
    den = ms.D(k)
    if up:
        level = max(1, -(-y.numerator * den // y.denominator))
    else:
        level = min(den - 1, y.numerator * den // y.denominator)
    if level % ms.entry(k) == 0:
        level += 1 if up else -1
    if not 0 < level < den:
        return None
    return WormholeLevel(k, level, den)


def reference_nearest(ms: MSequence, k: int, y):
    """The closer of the two ``reference_snap`` levels, measured in Fractions; a tie goes up."""
    y = Fraction(y.numerator, y.denominator)
    sides = [w for w in (reference_snap(ms, k, y, False), reference_snap(ms, k, y, True)) if w]
    return min(sides, key=lambda w: (abs(w.value - y), -w.value))


def reference_interval(space: Space, x: Point, y: Point):
    """The minimal interval in Fractions, as (a, b, witnesses).

    An independent statement of the search ``geodesic.minimal_interval``
    runs in integers over one unit: the candidates, their order and the
    tie-break are the same, and each bound is a Fraction snapped through
    ``first_in_interval`` and ``snap``.
    """
    if x == y:
        raise ValueError("minimal interval undefined for equal points")
    ms = space.mseq
    lo0, hi0 = sorted((x.height, y.height))
    candidates: list[tuple[Fraction, Fraction, dict]] = [(lo0, hi0, {})]
    for order in islice(difference_orders(x.address, y.address), 2):
        grown: list[tuple[Fraction, Fraction, dict]] = []
        for a, b, witnesses in candidates:
            inside = first_in_interval(ms, order, a, b)
            if inside is not None:
                grown.append((a, b, {**witnesses, order: inside}))
                continue
            below = snap(ms, order, a, up=False)
            if below is not None:
                grown.append((below.value, b, {**witnesses, order: below}))
            above = snap(ms, order, b, up=True)
            if above is not None:
                grown.append((a, above.value, {**witnesses, order: above}))
        candidates = grown
    if not candidates:
        raise InvariantViolation("a required order had no level on either side")
    a, b, witnesses = min(candidates, key=lambda t: (t[1] - t[0], t[1]))
    return a, b, tuple(sorted(witnesses.items()))


def random_address(rng: random.Random, max_prefix: int = 6, max_cycle: int = 3) -> Address:
    prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_cycle)))
    return Address(prefix, cycle)


def random_point(space: Space, rng: random.Random, max_prefix: int = 6,
                 height_denominator: int = 81):
    height = Fraction(rng.randint(0, height_denominator), height_denominator)
    return space.point(random_address(rng, max_prefix), height)


def seeded_pairs(space: Space, rng: random.Random, count: int) -> list[tuple[Point, Point]]:
    """Distinct point pairs over the cases the closed form distinguishes.

    Heights are free (j/97), grid levels of order 1 to 6, levels of order
    40 to 100, or 0 and 1; a fifth of the pairs share one height.  A third
    share a first 40 to 100 digits, so that they differ at deep orders
    only; random cycles make most difference sets infinite.
    """
    ms = space.mseq

    def height() -> Fraction:
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(rng.randint(0, 97), 97)
        if kind == 1:
            den = ms.D(rng.randint(1, 6))
            return Fraction(rng.randint(0, den), den)
        if kind == 2:
            k = rng.randint(40, 100)
            numerator = rng.randint(1, ms.D(k) - 1)
            if numerator % ms.entry(k) == 0:  # D_k - 1 is no multiple of m_k
                numerator += 1
            return Fraction(numerator, ms.D(k))
        return Fraction(rng.randint(0, 1))

    def point(common: tuple[int, ...], h: Fraction) -> Point:
        address = random_address(rng, 8, 4)
        return space.point(Address(common + address.prefix, address.cycle), h)

    pairs = []
    while len(pairs) < count:
        common = tuple(rng.getrandbits(1) for _ in range(rng.choice((0, 0, rng.randint(40, 100)))))
        hx = height()
        x, y = point(common, hx), point(common, hx if rng.random() < 0.2 else height())
        if x != y:
            pairs.append((x, y))
    return pairs


def omega_value(ms: MSequence, digits) -> WormholeLevel:
    """The level with the given mixed-radix digits (radices m_1..m_k, last digit nonzero).

    A zero last digit makes the numerator a multiple of m_k, which
    ``level_from_numerator`` rejects, as it rejects an empty digit list.
    """
    numerator = 0
    for j, d in enumerate(digits, start=1):
        radix = ms.entry(j)
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} at position {j} outside 0..{radix - 1}")
        numerator = numerator * radix + d
    return level_from_numerator(ms, len(digits), numerator)


def level_digits(ms: MSequence, level: WormholeLevel) -> tuple[int, ...]:
    """The mixed-radix digits of a level's numerator, most significant first."""
    digits = []
    rest = level.numerator
    for j in range(level.order, 0, -1):
        rest, digit = divmod(rest, ms.entry(j))
        digits.append(digit)
    return tuple(reversed(digits))


def preimages(space: Space, p: Point) -> tuple[tuple[Address, Fraction], ...]:
    """The one or two (address, height) pairs projecting to p."""
    level = classify_height(space.mseq, p.height)
    if level is None:
        return ((p.address, p.height),)
    return ((p.address, p.height), (p.address.switch(level.order), p.height))


def interval_add(a, b):
    """a + b, where either may be an ``Interval``; an Interval when either is one.

    Outward-exact: the endpoints are Fractions, so the sum adds no rounding
    and all of its width comes from the operands.  The library builds
    intervals from their ends only; this arithmetic serves the tests.
    """
    if not isinstance(a, Interval) and not isinstance(b, Interval):
        return a + b
    (a_lo, a_hi), (b_lo, b_hi) = (_ends(v) for v in (a, b))
    return Interval(a_lo + b_lo, a_hi + b_hi)


def interval_sub(a, b):
    """a - b, where either may be an ``Interval``, as for ``interval_add``."""
    return interval_add(a, Interval(-b.hi, -b.lo) if isinstance(b, Interval) else -b)


def interval_abs(a):
    """The least interval holding |v| for every v in a, or |a| for an exact a."""
    if not isinstance(a, Interval):
        return abs(a)
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(Fraction(0), max(-a.lo, a.hi))


def _ends(value):
    return (value.lo, value.hi) if isinstance(value, Interval) else (value, value)


def stepwise_length(path):
    """path_length as a running Fraction (or Interval) sum, one move at a time.

    Built from the Fraction heights alone (``h_start``, ``h_end``, the jump
    heights and the tail's limit), so it is independent of the units the
    path holds its heights in.
    """
    def step(total, frm, to):
        return interval_add(total, interval_abs(interval_sub(to, frm)))

    total, current = Fraction(0), path.start.height
    for move in path.items + ((path.tail.omega,) if path.tail else ()) + path.post:
        if isinstance(move, Segment):
            total = step(step(total, current, move.h_start), move.h_start, move.h_end)
            current = move.h_end
        else:
            height = move.height if isinstance(move, Jump) else move
            total = step(total, current, height)
            current = height
    total = step(total, current, path.end.height)
    return total.lo if isinstance(total, Interval) and total.lo == total.hi else total


# ---------------------------------------------------------------------------
# the tuple-backed address that bit strings replaced, kept as a reference


class TupleAddress(Record):
    """An address with its digits held as tuples of ints, canonical as ``Address`` is."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[int, ...], cycle: tuple[int, ...]):
        text = bytes(cycle)
        m = (text + text).find(text, 1)  # the primitive period
        doubled = text[:m] * 2
        j = doubled.find(min(doubled[t:t + m] for t in range(m)))  # the least rotation
        self._store(prefix + cycle[:j], tuple(doubled[j:j + m]))

    def _store(self, pre: tuple[int, ...], cyc: tuple[int, ...]) -> "TupleAddress":
        m = len(cyc)
        while len(pre) >= m and pre[-m:] == cyc:
            pre = pre[:-m]
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "cycle", cyc)
        return self

    def digit(self, i: int) -> int:
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[(i - len(self.prefix) - 1) % len(self.cycle)]

    def switch(self, n: int) -> "TupleAddress":
        pre, cyc = self.prefix, self.cycle
        past = n - len(pre)
        digits = list(pre)
        if past > 0:  # n lies in the last of the appended copies of the cycle
            digits += cyc * -(-past // len(cyc))
        digits[n - 1] ^= 1
        return object.__new__(TupleAddress)._store(tuple(digits), cyc)


class TupleDifferenceOrders:
    """The differing positions of two ``TupleAddress`` values, read one digit at a time."""

    def __init__(self, a: TupleAddress, b: TupleAddress):
        m = len(a.cycle)
        self.a, self.b = a, b
        self.start = max(len(a.prefix), len(b.prefix)) + 1
        self.period = lcm(m, len(b.cycle))
        self.is_finite = a.cycle == b.cycle and (len(a.prefix) - len(b.prefix)) % m == 0

    @property
    def head(self) -> tuple[int, ...]:
        return tuple(takewhile(lambda k: k < self.start, self))

    def between(self, lo: int, hi: int):
        return (k for k in range(lo + 1, hi + 1) if self.a.digit(k) != self.b.digit(k))

    def __iter__(self):
        window = []
        for k in range(1, self.start + (0 if self.is_finite else self.period)):
            if self.a.digit(k) != self.b.digit(k):
                yield k
                if k >= self.start:
                    window.append(k)
        shift = self.period
        while window:
            for k in window:
                yield k + shift
            shift += self.period


def tuple_parse(text: str) -> TupleAddress:
    """``parse_address`` on the reference, for literals it accepts."""
    prefix, cycle = re.fullmatch(r"([01]*)(?:\(([01]+)\))?", text).groups("0")
    return TupleAddress(tuple(map(int, prefix)), tuple(map(int, cycle)))


def tuple_format(a: TupleAddress) -> str:
    return "%s(%s)" % ("".join(map(str, a.prefix)), "".join(map(str, a.cycle)))


def tuple_column(depth: int, a: TupleAddress) -> int:
    """``oracle._column``: the first depth digits as a mask, digit j at bit j-1."""
    pre, cyc = a.prefix, a.cycle
    digits = (pre + cyc * -(-(depth - len(pre)) // len(cyc)))[:depth]
    return sum(digit << j for j, digit in enumerate(digits))


def tuple_point_address(column: int) -> TupleAddress:
    """The address ``oracle.point_at`` gives a column whose flipped bit is already cleared."""
    digits = tuple((column >> j) & 1 for j in range(column.bit_length()))
    return object.__new__(TupleAddress)._store(digits, (0,))
