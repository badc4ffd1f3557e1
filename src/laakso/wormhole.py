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
from math import gcd
from typing import Iterator, Optional

from .errors import InfeasibleSequence, NoLevelFound
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

    Entries are produced by a deterministic greedy rule: among the choices
    that keep the two-sided product bound satisfied, take the one whose
    product D_i stays log-closest to s**i, preferring n on a tie.  A user
    supplied override prefix is validated entry by entry instead of chosen.
    Extension must be serialized by the caller; materialized entries are
    safe to read concurrently.
    """

    def __init__(self, scale: ScaleFactor, override=()):
        self.scale = scale
        self.n = scale.floor_s()
        self.override = tuple(int(v) for v in override)
        self._m: list[int] = []
        self._products: list[int] = [1]  # _products[i] = D_i
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

    def _feasible(self, i: int, product: int) -> bool:
        n = self.n
        low = Fraction(n, (n + 1) * product)
        high = Fraction(n + 1, n * product)
        return (
            self.scale.compare_spower(i, low) >= 0
            and self.scale.compare_spower(i, high) <= 0
        )

    def _prefers_n(self, i: int, previous: int) -> bool:
        # log-distance tie test: n is at least as close iff s**(2i) <= D**2 n(n+1)
        n = self.n
        bound = Fraction(1, previous * previous * n * (n + 1))
        return self.scale.compare_spower(2 * i, bound) >= 0

    def _extend(self):
        i = len(self._m) + 1
        n = self.n
        previous = self._products[-1]
        if i <= len(self.override):
            choice = self.override[i - 1]
            if choice not in (n, n + 1):
                raise InfeasibleSequence(i, f"override entry {choice} not in {{{n}, {n + 1}}}")
            if not self._feasible(i, previous * choice):
                raise InfeasibleSequence(i, f"override entry {choice} violates the product bounds")
        else:
            feasible = [m for m in (n, n + 1) if self._feasible(i, previous * m)]
            if not feasible:
                raise InfeasibleSequence(i, "no admissible entry (scale handling bug)")
            if len(feasible) == 2:
                choice = n if self._prefers_n(i, previous) else n + 1
            else:
                choice = feasible[0]
        self._m.append(choice)
        self._products.append(previous * choice)


@dataclass(frozen=True)
class WormholeLevel:
    """A single identification height: value = numerator / D_order.

    The order and the numerator fix the level.  Its mixed-radix digits
    (most significant first, radices m_1..m_k) are derived on request; the
    last digit is never zero, which keeps level sets of different orders
    disjoint.
    """

    order: int
    numerator: int
    value: Fraction
    mseq: MSequence = field(compare=False, repr=False)

    @property
    def digits(self) -> tuple[int, ...]:
        digits = []
        rest = self.numerator
        for j in range(self.order, 0, -1):
            rest, digit = divmod(rest, self.mseq.entry(j))
            digits.append(digit)
        return tuple(reversed(digits))

    def __str__(self):
        return f"{self.value} (order {self.order})"


def _level(ms: MSequence, k: int, numerator: int) -> WormholeLevel:
    """The order-k level with a numerator the caller knows to be valid."""
    return WormholeLevel(k, numerator, Fraction(numerator, ms.D(k)), ms)


def level_from_numerator(ms: MSequence, k: int, numerator: int) -> WormholeLevel:
    if k < 1:
        raise ValueError("order must be >= 1")
    den = ms.D(k)
    if not 1 <= numerator <= den - 1:
        raise ValueError(f"numerator {numerator} outside 1..{den - 1}")
    if numerator % ms.entry(k) == 0:
        raise ValueError(f"numerator {numerator} is a multiple of m_{k}")
    return _level(ms, k, numerator)


def omega_value(ms: MSequence, digits) -> WormholeLevel:
    """The level with the given mixed-radix digits (last digit nonzero)."""
    digits = tuple(int(d) for d in digits)
    if not digits:
        raise ValueError("at least one digit required")
    numerator = 0
    for j, d in enumerate(digits, start=1):
        radix = ms.entry(j)
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} at position {j} outside 0..{radix - 1}")
        numerator = numerator * radix + d
    if digits[-1] == 0:
        raise ValueError("last digit must be nonzero")
    return _level(ms, len(digits), numerator)


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
            return _level(ms, k, y.numerator * (den // q))


def _snap(ms: MSequence, k: int, y: Fraction, up: bool) -> Optional[WormholeLevel]:
    """The least order-k level at or above y (up), or the greatest at or below it."""
    den = ms.D(k)
    if up:
        numerator = max(1, -(-y.numerator * den // y.denominator))
    else:
        numerator = min(den - 1, y.numerator * den // y.denominator)
    if numerator % ms.entry(k) == 0:
        numerator += 1 if up else -1
    if not 0 < numerator < den:
        return None
    return _level(ms, k, numerator)


def first_in_interval(ms: MSequence, k: int, lo, hi) -> Optional[WormholeLevel]:
    """Least order-k level inside [lo, hi], by numerator arithmetic."""
    level = _snap(ms, k, Fraction(lo), up=True)
    return level if level is not None and level.value <= Fraction(hi) else None


def last_in_interval(ms: MSequence, k: int, lo, hi) -> Optional[WormholeLevel]:
    """Greatest order-k level inside [lo, hi]."""
    level = _snap(ms, k, Fraction(hi), up=False)
    return level if level is not None and level.value >= Fraction(lo) else None


def nearest(ms: MSequence, k: int, y, mode: str = "either") -> WormholeLevel:
    """The order-k level closest to y, restricted by mode.

    ``below``/``above`` are non-strict; an exact tie in ``either`` mode
    returns the lower level.
    """
    y = Fraction(y)
    if mode not in ("below", "above", "either"):
        raise ValueError(f"unknown mode {mode!r}")
    below = None if mode == "above" else _snap(ms, k, y, up=False)
    above = None if mode == "below" else _snap(ms, k, y, up=True)
    if below is None or above is None:
        if below is None and above is None:  # only in "below" or "above" mode
            raise NoLevelFound(f"no order-{k} level at or {mode} {y}")
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
            yield _level(ms, k, numerator)
