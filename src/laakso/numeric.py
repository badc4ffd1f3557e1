"""Exact arithmetic on the contraction scale s.

The scale is either a rational number greater than 2 or, when the space is
configured by its dimension Q in (1,2), the generally irrational value
s = 2**(1/(Q-1)).  In both modes every ordering decision of s**-i against a
rational is made exactly with integer arithmetic: for the derived mode the
comparison s**-i <> r is raised to the denominator of the exponent, which
turns it into a comparison of two integers.  Certified rational enclosures
are available for the quantities that are genuinely irrational (the
horizontal coordinates of points, limit heights of infinite paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PrecisionExhausted

#: Bit ceiling for certified enclosure refinement.
MAX_BITS = 4096


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


def _as_bounds(value: Union["Interval", Fraction, int]) -> tuple[Fraction, Fraction]:
    if isinstance(value, Interval):
        return value.lo, value.hi
    f = Fraction(value)
    return f, f


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints.

    Arithmetic is outward-exact: endpoints are Fractions, so no rounding is
    introduced by the operations themselves; all width comes from the
    operands.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def __add__(self, other):
        lo, hi = _as_bounds(other)
        return Interval(self.lo + lo, self.hi + hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Interval) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        lo, hi = _as_bounds(other)
        products = (self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        lo, hi = _as_bounds(other)
        if lo <= 0 <= hi:
            raise ZeroDivisionError("interval division by a range containing zero")
        quotients = (self.lo / lo, self.lo / hi, self.hi / lo, self.hi / hi)
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other):
        lo, hi = _as_bounds(other)
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval division by a range containing zero")
        quotients = (lo / self.lo, lo / self.hi, hi / self.lo, hi / self.hi)
        return Interval(min(quotients), max(quotients))

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class ScaleFactor:
    """The contraction scale s > 2 of the two-branch system.

    Exactly one description is active: ``ratio`` when s itself is rational,
    or ``log2`` = log2(s) (a non-integer rational > 1) when the scale was
    derived from a dimension and is irrational.  ``dimension`` records the
    configuring Q when one was given; it is never re-derived numerically.
    """

    ratio: Optional[Fraction] = None
    log2: Optional[Fraction] = None
    dimension: Optional[Fraction] = None

    @classmethod
    def from_ratio(cls, s) -> "ScaleFactor":
        s = Fraction(s)
        if s <= 2:
            raise ValueError(f"scale must exceed 2, got {s}")
        return cls(ratio=s)

    @classmethod
    def from_dimension(cls, q) -> "ScaleFactor":
        q = Fraction(q)
        if not Fraction(1) < q < Fraction(2):
            raise ValueError(f"dimension must lie strictly inside (1, 2), got {q}")
        exponent = 1 / (q - 1)  # s = 2**exponent, exponent > 1
        if exponent.denominator == 1:
            return cls(ratio=Fraction(2 ** exponent.numerator), dimension=q)
        return cls(log2=exponent, dimension=q)

    def __post_init__(self):
        if (self.ratio is None) == (self.log2 is None):
            raise ValueError("exactly one of ratio/log2 must be set")

    @property
    def is_exact(self) -> bool:
        """True when s is rational and every quantity is a Fraction."""
        return self.ratio is not None

    @property
    def is_integer(self) -> bool:
        return self.ratio is not None and self.ratio.denominator == 1

    def floor_s(self) -> int:
        """The unique integer n with n <= s < n+1 (always >= 2)."""
        if self.ratio is not None:
            return self.ratio.numerator // self.ratio.denominator
        a, b = self.log2.numerator, self.log2.denominator
        return iroot(2 ** a, b)

    def compare_spower(self, i: int, r) -> int:
        """Exact ordering of s**-i against a positive rational r.

        Returns -1, 0 or 1 for s**-i less than, equal to, or greater than r.
        In derived mode the comparison is cleared of the fractional exponent:
        with s = 2**(a/b), s**-i <> r holds iff 2**(i*a) * r**b <> 1, an
        integer comparison that also decides genuine ties such as
        s**-3 = 1/1024 for s = 2**(10/3).
        """
        if i < 1:
            raise ValueError("exponent must be >= 1")
        r = Fraction(r)
        if r <= 0:
            raise ValueError("comparison value must be positive")
        if self.ratio is not None:
            lhs = Fraction(self.ratio.denominator ** i, self.ratio.numerator ** i)
            return (lhs > r) - (lhs < r)
        a, b = self.log2.numerator, self.log2.denominator
        left = r.numerator ** b << (i * a)  # (r * s**i)**b numerator
        right = r.denominator ** b
        # s**-i > r  iff  r * s**i < 1  iff  left < right
        return (left < right) - (left > right)

    def recip_enclosure(self, bits: int) -> Interval:
        """Certified enclosure of 1/s with width at most 2**-bits."""
        if self.ratio is not None:
            u = 1 / self.ratio
            return Interval(u, u)
        a, b = self.log2.numerator, self.log2.denominator
        exponent = bits * b - a  # (1/s) * 2**bits = 2**(exponent/b)
        if exponent < 0:
            return Interval(Fraction(0), Fraction(1, 2 ** bits))
        lo = iroot(2 ** exponent, b)
        scale = Fraction(1, 2 ** bits)
        if lo ** b == 2 ** exponent:
            return Interval(lo * scale, lo * scale)
        return Interval(lo * scale, (lo + 1) * scale)

    def __str__(self):
        if self.ratio is not None:
            return str(self.ratio)
        return f"2^({self.log2})"


def refine(compute, target_width: Fraction, start_bits: int = 64):
    """Run ``compute(bits)`` with doubling precision until the interval it
    returns is narrower than ``target_width``; raise on hitting the cap."""
    bits = start_bits
    while True:
        result = compute(bits)
        if not isinstance(result, Interval) or result.width <= target_width:
            return result
        if bits >= MAX_BITS:
            raise PrecisionExhausted(
                f"enclosure still {result.width} wide at {bits} bits "
                f"(cap {MAX_BITS}); a near-tie needs a higher cap"
            )
        bits *= 2
