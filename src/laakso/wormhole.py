"""Identification levels and the branching sequence behind them.

The heights at which adjacent cells of the attractor get glued are the
values N/D_k, where D_k is the product of the first k entries of a sequence
m with m_i in {n, n+1} tracking s**i, and N runs over 1..D_k-1 avoiding the
multiples of m_k.  Everything here works on numerators over D_k; level sets
are never enumerated unless a caller explicitly iterates a range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from .errors import InfeasibleSequence
from .numeric import ScaleFactor


def _strip(value: int, factor: int) -> int:
    """Remove from value every prime factor it shares with factor."""
    g = gcd(value, factor)
    while g > 1:
        value //= g
        g = gcd(value, factor)
    return value


class MSequence:
    """Lazily extended choice of m_i in {n, n+1} with memoized products.

    Entries are produced by a deterministic greedy rule: take the m_i whose
    product D_i is log-closest to s**i, preferring n on a tie.  That choice
    always keeps the two-sided bound n/(n+1) <= s**i/D_i <= (n+1)/n.  By the
    bound at i-1 (or D_0 = 1), t = s**i/D_(i-1) lies in [s*n/(n+1),
    s*(n+1)/n], which n <= s < n+1 puts inside [n*n/(n+1), (n+1)**2/n]; the
    entry log-closest to t (n when t <= n, n+1 when t >= n+1, and within a
    factor sqrt((n+1)/n) of t in between) leaves t/m_i inside the bound.
    Each entry is still checked, and a greedy entry that fails reports a
    library bug.  A user supplied override prefix is validated entry by
    entry instead of chosen.  Extension must be serialized by the caller;
    materialized entries are safe to read concurrently.

    With power = p/q, two integers are carried from entry to entry: top =
    p**i and bottom = q**i * D_i**root, so (s**i/D_i)**root = top/bottom
    and an entry costs a few multiplications by p, q and m**root.  The
    bound is then two cross-multiplications by n**root and (n+1)**root.
    The tie test compares top * 2**64 against bottom times the bracket
    [lo, lo+1] of sqrt((n(n+1))**root) * 2**64, with lo from one isqrt;
    only a ratio inside that 2**-64 band is squared exactly.
    """

    def __init__(self, scale: ScaleFactor, override=()):
        self.scale = scale
        self.n = scale.floor_s()
        self.override = tuple(int(v) for v in override)
        self._m: list[int] = []
        self._products: list[int] = [1]  # _products[i] = D_i
        self._top = self._bottom = 1  # p**i and q**i * D_i**root for i = len(self._m)
        self._powers = {m: m ** scale.root for m in (self.n, self.n + 1)}
        self._tie = self._powers[self.n] * self._powers[self.n + 1]  # (n(n+1))**root
        self._lo = isqrt(self._tie << 128)  # sqrt(tie) * 2**64 lies in [lo, lo+1)
        for _ in self.override:
            self._extend()

    def entry(self, i: int) -> int:
        """m_i (1-based)."""
        if i < 1:
            raise ValueError("entries are indexed from 1")
        self.D(i)
        return self._m[i - 1]

    def D(self, k: int) -> int:
        """Product of the first k entries; D(0) = 1."""
        if k < 0:
            raise ValueError("k must be >= 0")
        while len(self._m) < k:
            self._extend()
        return self._products[k]

    def _prefers_n(self, top: int, bottom: int) -> bool:
        """Whether t**2 <= n(n+1), for t**root = top/bottom: n is as log-close to t as n+1."""
        scaled, low = top << 64, self._lo * bottom
        if scaled <= low:
            return True
        if scaled > low + bottom:
            return False
        return top * top <= self._tie * bottom * bottom

    def _extend(self):
        i = len(self._m) + 1
        n = self.n
        # (s**i / D_(i-1))**root = top / bottom
        top = self._top * self.scale.power.numerator
        bottom = self._bottom * self.scale.power.denominator
        if i <= len(self.override):
            choice = self.override[i - 1]
            if choice not in (n, n + 1):
                raise InfeasibleSequence(i, f"override entry {choice} not in {{{n}, {n + 1}}}")
            problem = f"override entry {choice} violates the product bounds"
        else:
            choice = n if self._prefers_n(top, bottom) else n + 1
            problem = f"greedy entry {choice} violates the product bounds (scale handling bug)"
        bottom *= self._powers[choice]
        low, high = self._powers[n], self._powers[n + 1]
        if top * high < bottom * low or top * low > bottom * high:
            raise InfeasibleSequence(i, problem)
        self._m.append(choice)
        self._products.append(self._products[-1] * choice)
        self._top, self._bottom = top, bottom


@dataclass(frozen=True)
class WormholeLevel:
    """A single identification height: numerator / denominator, denominator = D_order.

    The order and the numerator fix the level, and equality and hashing use
    only them.  The numerator is never a multiple of m_order, which keeps
    level sets of different orders disjoint.  Like a ``Fraction`` or an
    ``int``, a level is a height read through ``numerator`` and
    ``denominator`` (not reduced); its ``Fraction`` value is built on first
    request and kept.
    """

    order: int
    numerator: int
    denominator: int = field(compare=False, repr=False)

    @property
    def value(self) -> Fraction:
        cache = self.__dict__
        value = cache.get("_value")
        if value is None:
            value = cache["_value"] = Fraction(self.numerator, self.denominator)
        return value

    def __str__(self):
        return f"{self.value} (order {self.order})"


def level_from_numerator(ms: MSequence, k: int, numerator: int) -> WormholeLevel:
    if k < 1:
        raise ValueError("order must be >= 1")
    den = ms.D(k)
    if not 1 <= numerator <= den - 1:
        raise ValueError(f"numerator {numerator} outside 1..{den - 1}")
    if numerator % ms.entry(k) == 0:
        raise ValueError(f"numerator {numerator} is a multiple of m_{k}")
    return WormholeLevel(k, numerator, den)


def classify_height(ms: MSequence, y) -> Optional[WormholeLevel]:
    """Decode a height into its unique level, or None.

    A height is a level of order k exactly when y*D_k is an integer for the
    minimal such k (the minimality forces the non-multiple condition).  A
    height whose reduced denominator no D_k is a multiple of is rejected
    before the search.
    """
    y = Fraction(y)
    if not 0 < y < 1:
        return None
    q = y.denominator
    n = ms.n
    if _strip(q, n * (n + 1)) != 1:
        return None
    if ms.scale.is_integer:
        # every entry past the override is n, so q divides some D_k exactly
        # when the part of q outside D_L (L the override length) divides a
        # power of n
        if _strip(q // gcd(q, ms.D(len(ms.override))), n) != 1:
            return None
    # The search ends: at an integer scale by the test above, and at a
    # non-integer scale because the sandwich bound forces both n and n+1 to
    # recur, so every prime power of n(n+1) eventually divides D_k.
    k = 0
    while True:
        k += 1
        den = ms.D(k)
        if den % q == 0:
            return WormholeLevel(k, y.numerator * (den // q), den)


def snap(ms: MSequence, k: int, y, up: bool) -> Optional[WormholeLevel]:
    """The least order-k level at or above y (up), or the greatest at or below it.

    y is any height, a Fraction, an int or a level, compared in integers;
    None when no order-k level lies on that side.
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


def first_in_interval(ms: MSequence, k: int, lo, hi) -> Optional[WormholeLevel]:
    """Least order-k level inside [lo, hi]; the bounds are heights, as for ``snap``."""
    level = snap(ms, k, lo, up=True)
    if level is None or level.numerator * hi.denominator > hi.numerator * level.denominator:
        return None
    return level


def last_in_interval(ms: MSequence, k: int, lo, hi) -> Optional[WormholeLevel]:
    """Greatest order-k level inside [lo, hi]; the bounds are heights, as for ``snap``."""
    level = snap(ms, k, hi, up=False)
    if level is None or level.numerator * lo.denominator < lo.numerator * level.denominator:
        return None
    return level


def nearest(ms: MSequence, k: int, y) -> WormholeLevel:
    """The order-k level closest to y; an exact tie returns the lower level."""
    below, above = snap(ms, k, y, up=False), snap(ms, k, y, up=True)
    if below is None or above is None:  # every order has a level in (0, 1)
        return below or above
    return below if y - below.value <= above.value - y else above


def level_count(ms: MSequence, k: int, lo, hi) -> int:
    """How many order-k levels lie inside [lo, hi], counted without listing them."""
    first = first_in_interval(ms, k, lo, hi)
    if first is None:
        return 0
    last = last_in_interval(ms, k, lo, hi).numerator
    m_k = ms.entry(k)
    # the numerators first..last less the multiples of m_k among them
    # (first is not a multiple, so first // m_k counts those below it)
    return last - first.numerator + 1 - (last // m_k - first.numerator // m_k)


def levels_in_range(ms: MSequence, k: int, lo, hi) -> Iterator[WormholeLevel]:
    """All order-k levels inside [lo, hi], ascending."""
    first = first_in_interval(ms, k, lo, hi)
    if first is None:
        return
    last = last_in_interval(ms, k, lo, hi)
    m_k = ms.entry(k)
    for numerator in range(first.numerator, last.numerator + 1):
        if numerator % m_k:
            yield WormholeLevel(k, numerator, first.denominator)
