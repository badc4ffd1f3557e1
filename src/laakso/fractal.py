"""Binary addresses on the attractor of the two-branch contraction system.

A point of the attractor is an infinite 0/1 string read left to right; the
first digit selects the coarse half, later digits ever finer cells.  This module
represents the eventually periodic strings as a finite prefix plus a
repeating cycle, normalised so that equal infinite strings have equal
representations and equality is a tuple comparison.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import takewhile
from math import lcm
from typing import Iterator, Union

from .errors import InvariantViolation, ParseError
from .numeric import Interval, ScaleFactor
from .record import Record, slot_setters


_DIGITS = frozenset((0, 1))


class Address(Record):
    """Canonical eventually periodic 0/1 string.

    Canonical form: the cycle is primitive and rotated to its
    lexicographically least phase (the displaced digits are pushed into the
    prefix), and the prefix does not end with a whole copy of the cycle.
    Digits are tuples of ints 0 and 1.  The period and the least phase are
    read off the cycle as a byte string, searched and compared in C.
    """

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[int, ...], cycle: tuple[int, ...]):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if not _DIGITS.issuperset(prefix) or not _DIGITS.issuperset(cycle):
            raise ValueError("digits must be 0 or 1")
        # the primitive period is the first shift at which the cycle recurs
        text = bytes(cycle)
        m = (text + text).find(text, 1)
        # lexicographically least rotation, compensated through the prefix
        doubled = text[:m] * 2
        j = doubled.find(min(doubled[t:t + m] for t in range(m)))
        self._store(prefix + cycle[:j], tuple(doubled[j:j + m]))

    def _store(self, pre: tuple[int, ...], cyc: tuple[int, ...]) -> "Address":
        """Set the parts from a canonical cycle, absorbing trailing whole copies of it."""
        m = len(cyc)
        while len(pre) >= m and pre[-m:] == cyc:
            pre = pre[:-m]
        _set_prefix(self, pre)
        _set_cycle(self, cyc)
        return self

    def digit(self, i: int) -> int:
        """The i-th digit (1-based) of the infinite expansion."""
        if i < 1:
            raise ValueError("digit positions start at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[(i - len(self.prefix) - 1) % len(self.cycle)]

    def switch(self, n: int) -> "Address":
        """The address with digit n flipped and all others unchanged."""
        if n < 1:
            raise ValueError("digit positions start at 1")
        pre, cyc = self.prefix, self.cycle
        past = n - len(pre)
        digits = list(pre)
        if past > 0:  # n lies in the last of the appended copies of the cycle
            digits += cyc * -(-past // len(cyc))
        digits[n - 1] ^= 1
        switched = object.__new__(Address)  # the cycle is unchanged and so still canonical
        if past <= 0:  # the flip may leave whole copies of the cycle at the end
            return switched._store(tuple(digits), cyc)
        # the last copy now differs from the cycle: nothing to absorb
        _set_prefix(switched, tuple(digits))
        _set_cycle(switched, cyc)
        return switched

    def __str__(self):
        return format_address(self)


_set_prefix, _set_cycle = slot_setters(Address)


class DifferenceOrders(Record):
    """The increasing set of digit positions at which two addresses differ.

    From ``start`` on both strings are purely periodic, so the set repeats
    with ``period``, the least common multiple of the cycle lengths.
    Iterating reads digits up to the end of the first period window (only
    up to ``start`` when the set is finite) and yields each differing
    position as it is found; later windows repeat the first one shifted.
    """

    __slots__ = ("a", "b", "start", "period", "is_finite")

    def __init__(self, a: Address, b: Address, start: int, period: int, is_finite: bool):
        _set_a(self, a)
        _set_b(self, b)
        _set_start(self, start)
        _set_period(self, period)
        _set_is_finite(self, is_finite)

    @property
    def head(self) -> tuple[int, ...]:
        """The positions below ``start``: the whole set when it is finite."""
        return tuple(takewhile(lambda k: k < self.start, self))

    def between(self, lo: int, hi: int) -> Iterator[int]:
        """The positions k with lo < k <= hi, read from those digits alone."""
        a, b = self.a, self.b
        return (k for k in range(lo + 1, hi + 1) if a.digit(k) != b.digit(k))

    def __iter__(self) -> Iterator[int]:
        window = []
        for k in range(1, self.start + (0 if self.is_finite else self.period)):
            if self.a.digit(k) != self.b.digit(k):
                yield k
                if k >= self.start:
                    window.append(k)
        shift = self.period
        while window:  # empty exactly when the set is finite
            for k in window:
                yield k + shift
            shift += self.period


_set_a, _set_b, _set_start, _set_period, _set_is_finite = slot_setters(DifferenceOrders)


def difference_orders(a: Address, b: Address) -> DifferenceOrders:
    """All positions where the expansions of a and b disagree, read lazily.

    Canonical cycles are primitive and least rotations, so the tails agree
    exactly when the cycles are equal and in phase: finiteness is decided
    without reading a digit.
    """
    m = len(a.cycle)
    in_phase = a.cycle == b.cycle and (len(a.prefix) - len(b.prefix)) % m == 0
    return DifferenceOrders(a, b, max(len(a.prefix), len(b.prefix)) + 1,
                            lcm(m, len(b.cycle)), in_phase)


def _series_value(a: Address, u: Fraction) -> Fraction:
    """Evaluate the coordinate series at u = 1/s.

    value = (1-u) * (sum_i d_i u**(i-1) + u**L * C / (1 - u**m)) with C the
    one-cycle polynomial sum_j c_j u**j.
    """
    acc = Fraction(0)
    power = Fraction(1)  # u**(i-1)
    for d in a.prefix:
        if d:
            acc += power
        power *= u
    cyc = Fraction(0)
    u_cycle = Fraction(1)  # u**j
    for d in a.cycle:
        if d:
            cyc += u_cycle
        u_cycle *= u
    return (1 - u) * (acc + power * cyc / (1 - u_cycle))


def value(a: Address, scale: ScaleFactor, bits: int = 64) -> Union[Fraction, Interval]:
    """Horizontal coordinate of the address on the attractor.

    Exact Fraction for a rational scale; otherwise a certified enclosure of
    width at most 2**-bits.  The series v(u) has |v'(u)| <= 2/(1-u)**2 for
    digits 0 and 1, so its value at the lower end u of an enclosure [u, hi]
    of 1/s moves by at most 2*(hi-u)/(1-hi)**2 on the way to 1/s.  As
    hi <= 1/2 (s > 2), an enclosure of 1/s of width 2**-(bits+6) gives a
    result at most 2**-(bits+2) wide.
    """
    if scale.is_exact:
        return _series_value(a, 1 / scale.power)
    enclosure = scale.recip_enclosure(bits + 6)
    u, hi = enclosure.lo, enclosure.hi
    centre = _series_value(a, u)
    slack = 2 * (hi - u) / (1 - hi) ** 2
    result = Interval(centre - slack, centre + slack)
    if result.width > Fraction(1, 1 << bits):
        raise InvariantViolation("coordinate enclosure wider than its bit budget")
    return result


_ADDRESS_RE = re.compile(r"^([01]*)(?:\(([01]+)\))?$")

#: The ASCII digits "0" and "1" to the byte values 0 and 1, and back.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def parse_address(text: str) -> Address:
    """Parse ``"101(0)"`` style literals.

    ``"(10)"`` is purely periodic; a bare digit string such as ``"101"``
    abbreviates ``"101(0)"``.
    """
    match = _ADDRESS_RE.match(text)
    if match is None:
        raise ParseError(
            f"bad address {text!r}: expected digits in {{0,1}} with an "
            f"optional nonempty (cycle)"
        )
    prefix, cycle = match.group(1), match.group(2)
    if cycle is None:
        if not prefix:
            raise ParseError(f"bad address {text!r}: empty")
        cycle = "0"
    return Address(tuple(prefix.encode().translate(_DIGIT_VALUES)),
                   tuple(cycle.encode().translate(_DIGIT_VALUES)))


def format_address(a: Address) -> str:
    """The literal ``parse_address`` reads back, e.g. ``"101(0)"``."""
    return "%s(%s)" % (bytes(a.prefix).translate(_DIGIT_TEXT).decode(),
                       bytes(a.cycle).translate(_DIGIT_TEXT).decode())
