"""Exact arithmetic on the contraction scale s.

The scale is either a rational number greater than 2 or, when the space is
configured by its dimension Q in (1,2), the generally irrational value
s = 2**(1/(Q-1)).  Both are held as one fact, s**root = power with power a
rational and root = 1 for a rational scale, so every ordering decision of
s**-i against a rational is one comparison of two integers.  The quantities
that are genuinely irrational (the horizontal coordinates of points, limit
heights of infinite paths) are certified rational enclosures: an ``Interval``
with exact endpoints, and the enclosure of 1/s that every coordinate bound
starts from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import budget
from .record import Record


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer.

    Integer Newton iteration starting from a power-of-two upper bound; the
    loop is the usual isqrt recurrence generalised to k-th roots.
    """
    if x < 0:
        raise ValueError("iroot of a negative number")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r ** k > x:  # guard against an off-by-one from the last step
        r -= 1
    return r


def _pow(x: int, i: int) -> int:
    """x**i for x >= 1, with the factors of two of x applied as one shift."""
    twos = (x & -x).bit_length() - 1
    return (x >> twos) ** i << twos * i


class Interval(Record):
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class ScaleFactor(Record):
    """The contraction scale s > 2 of the two-branch system, as s**root = power.

    ``power`` is a Fraction and ``root`` a positive integer: root is 1 when s
    itself is rational, and a scale s = 2**(a/b) derived from a dimension is
    held as power = 2**a, root = b.  Every question about s is then one
    integer formula.  ``dimension`` records the configuring Q when one was
    given; it is never re-derived numerically.
    """

    __slots__ = ("power", "root", "dimension")

    def __init__(self, power: Fraction, root: int = 1, dimension: Optional[Fraction] = None):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def from_ratio(cls, s) -> "ScaleFactor":
        s = Fraction(s)
        if s <= 2:  # the value is not printed: it may be too long for str()
            raise ValueError("scale must exceed 2")
        return cls(s)

    @classmethod
    def from_dimension(cls, q) -> "ScaleFactor":
        q = Fraction(q)
        if not Fraction(1) < q < Fraction(2):
            raise ValueError("dimension must lie strictly inside (1, 2)")
        exponent = 1 / (q - 1)  # s = 2**exponent, exponent > 1
        budget.check_scale(exponent.numerator)
        return cls(Fraction(1 << exponent.numerator), exponent.denominator, q)

    @property
    def is_exact(self) -> bool:
        """True when s is rational and every quantity is a Fraction."""
        return self.root == 1

    @property
    def is_integer(self) -> bool:
        return self.root == 1 and self.power.denominator == 1

    def floor_s(self) -> int:
        """The unique integer n with n <= s < n+1 (always >= 2)."""
        return iroot(self.power.numerator // self.power.denominator, self.root)

    def compare_spower(self, i: int, r) -> int:
        """Exact ordering of s**-i against a positive rational r.

        Returns -1, 0 or 1 for s**-i less than, equal to, or greater than r.
        Raised to the root, s**-i <> r holds iff q**i * y**root <> p**i * x**root
        with power = p/q and r = x/y: an integer comparison that also decides
        genuine ties such as s**-3 = 1/1024 for s = 2**(10/3).
        """
        if i < 1:
            raise ValueError("exponent must be >= 1")
        x, y = r.numerator, r.denominator
        if x <= 0:
            raise ValueError("comparison value must be positive")
        p, q = self.power.numerator, self.power.denominator
        left = _pow(q, i) * _pow(y, self.root)
        right = _pow(p, i) * _pow(x, self.root)
        return (left > right) - (left < right)

    @lru_cache(maxsize=64)
    def recip_enclosure(self, bits: int) -> Interval:
        """Certified enclosure of 1/s with width at most 2**-bits, from floor(2**bits / s)."""
        p, q = self.power.numerator, self.power.denominator
        scaled = q << bits * self.root  # (2**bits / s)**root = scaled / p
        lo = iroot(scaled // p, self.root)
        hi = lo if lo ** self.root * p == scaled else lo + 1
        return Interval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))

    def __str__(self):
        if self.root == 1:
            return str(self.power)
        return f"2^({self.power.numerator.bit_length() - 1}/{self.root})"
