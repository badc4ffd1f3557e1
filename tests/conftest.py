import random
from fractions import Fraction

import pytest

from laakso import Address, MSequence, Space


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


def sandwich_holds(ms: MSequence, i: int) -> bool:
    """The two-sided bound n/(n+1)/D_i <= s**-i <= (n+1)/n/D_i, decided exactly."""
    n, product = ms.n, ms.D(i)
    low = Fraction(n, (n + 1) * product)
    high = Fraction(n + 1, n * product)
    return ms.scale.compare_spower(i, low) >= 0 and ms.scale.compare_spower(i, high) <= 0


def random_address(rng: random.Random, max_prefix: int = 6, max_cycle: int = 3) -> Address:
    prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_cycle)))
    return Address(prefix, cycle)


def random_point(space: Space, rng: random.Random, max_prefix: int = 6,
                 height_denominator: int = 81):
    height = Fraction(rng.randint(0, height_denominator), height_denominator)
    return space.point(random_address(rng, max_prefix), height)
