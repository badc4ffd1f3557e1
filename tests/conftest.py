import random
from fractions import Fraction

import pytest

from laakso import (Address, InfeasibleSequence, Interval, Jump, MSequence, Point, ScaleFactor,
                    Segment, Space, WormholeLevel, classify_height)
from laakso.wormhole import level_from_numerator


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


def random_address(rng: random.Random, max_prefix: int = 6, max_cycle: int = 3) -> Address:
    prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_cycle)))
    return Address(prefix, cycle)


def random_point(space: Space, rng: random.Random, max_prefix: int = 6,
                 height_denominator: int = 81):
    height = Fraction(rng.randint(0, height_denominator), height_denominator)
    return space.point(random_address(rng, max_prefix), height)


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


def stepwise_length(path):
    """path_length as a running Fraction (or Interval) sum, one move at a time.

    Built from the Fraction heights alone (``h_start``, ``h_end``, the jump
    heights and the tail's limit), so it is independent of the units the
    path holds its heights in.
    """
    total, current = Fraction(0), path.start.height
    for move in path.items + ((path.tail.omega,) if path.tail else ()) + path.post:
        if isinstance(move, Segment):
            total += abs(move.h_start - current) + abs(move.h_end - move.h_start)
            current = move.h_end
        else:
            height = move.height if isinstance(move, Jump) else move
            total += abs(height - current)
            current = height
    total += abs(path.end.height - current)
    return total.lo if isinstance(total, Interval) and total.lo == total.hi else total
