"""Binary addresses on the attractor of the two-branch contraction system.

A point of the attractor is an infinite 0/1 string read left to right; the
first digit selects the coarse half, later digits ever finer cells.  This module
represents the eventually periodic strings as a finite prefix plus a
repeating cycle, normalised so that equal infinite strings have equal
representations and equality is a comparison of four ints.
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
    Each part is an int (digit i at bit i-1) and a length.  The period and
    the least phase are read off the cycle's text, searched and compared in C.
    """

    _fields = ("prefix", "cycle")
    __slots__ = ("prefix_bits", "prefix_len", "cycle_bits", "cycle_len")

    def __init__(self, prefix: tuple[int, ...], cycle: tuple[int, ...]):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if not _DIGITS.issuperset(prefix) or not _DIGITS.issuperset(cycle):
            raise ValueError("digits must be 0 or 1")
        self._canonical(bytes(prefix).translate(_DIGIT_TEXT), bytes(cycle).translate(_DIGIT_TEXT))

    prefix = property(lambda self: tuple(
        _text(self.prefix_bits, self.prefix_len).encode().translate(_DIGIT_VALUES)))
    cycle = property(lambda self: tuple(
        _text(self.cycle_bits, self.cycle_len).encode().translate(_DIGIT_VALUES)))

    def _canonical(self, prefix, cycle) -> "Address":
        """Store the digits of the texts (str or bytes of "0" and "1") in canonical form."""
        # the primitive period is the first shift at which the cycle recurs
        m = (cycle + cycle).find(cycle, 1)
        # lexicographically least rotation, compensated through the prefix
        doubled = cycle[:m] * 2
        j = doubled.find(min(doubled[t:t + m] for t in range(m)))
        prefix, cycle = prefix + cycle[:j], doubled[j:j + m]
        return self._store(int(prefix[::-1] or "0", 2), len(prefix), int(cycle[::-1], 2), m)

    def _store(self, bits: int, length: int, cycle_bits: int, cycle_len: int) -> "Address":
        """Set the parts from a canonical cycle, absorbing trailing whole copies of it."""
        while length >= cycle_len and bits >> (length - cycle_len) == cycle_bits:
            length -= cycle_len
            bits ^= cycle_bits << length
        _set_prefix_bits(self, bits)
        _set_prefix_len(self, length)
        _set_cycle_bits(self, cycle_bits)
        _set_cycle_len(self, cycle_len)
        return self

    def _reaching(self, n: int) -> tuple[int, int]:
        """The prefix, extended by the fewest whole copies of the cycle that reach digit n."""
        length, m = self.prefix_len, self.cycle_len
        copies = max(0, -(-(n - length) // m))
        repeat = ((1 << copies * m) - 1) // ((1 << m) - 1)  # bit c * m set for c < copies
        return self.prefix_bits | self.cycle_bits * repeat << length, length + copies * m

    def digit(self, i: int) -> int:
        """The i-th digit (1-based) of the infinite expansion."""
        if i < 1:
            raise ValueError("digit positions start at 1")
        if i <= self.prefix_len:
            return self.prefix_bits >> (i - 1) & 1
        return self.cycle_bits >> ((i - self.prefix_len - 1) % self.cycle_len) & 1

    def switch(self, n: int) -> "Address":
        """The address with digit n flipped and all others unchanged."""
        if n < 1:
            raise ValueError("digit positions start at 1")
        length, m, cycle = self.prefix_len, self.cycle_len, self.cycle_bits
        if n <= length:  # the flip may leave whole copies of the cycle at the end
            return object.__new__(Address)._store(self.prefix_bits ^ 1 << (n - 1), length, cycle, m)
        # past the prefix: append the whole copies of the cycle that reach digit n,
        # as _reaching does; the last of them now differs from the cycle
        copies = -(-(n - length) // m)
        repeat = ((1 << copies * m) - 1) // ((1 << m) - 1)
        switched = object.__new__(Address)
        _set_prefix_bits(switched, (self.prefix_bits | cycle * repeat << length) ^ 1 << (n - 1))
        _set_prefix_len(switched, length + copies * m)
        _set_cycle_bits(switched, cycle)
        _set_cycle_len(switched, m)
        return switched

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prefix_bits == other.prefix_bits and self.prefix_len == other.prefix_len
                    and self.cycle_bits == other.cycle_bits and self.cycle_len == other.cycle_len)
        return NotImplemented

    def __hash__(self):
        return hash((self.prefix_bits, self.prefix_len, self.cycle_bits, self.cycle_len))

    def __str__(self):
        return format_address(self)


_set_prefix_bits, _set_prefix_len, _set_cycle_bits, _set_cycle_len = slot_setters(Address)


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
        """The positions k with lo < k <= hi, read by ``_scan`` up to each window holding one."""
        width = 64
        while lo < hi:
            bits, top, width = _scan(self.a, self.b, lo, hi, width, 1)
            while bits:  # the set bits, lowest first
                yield lo + (bits & -bits).bit_length()
                bits &= bits - 1
            lo = top

    def __iter__(self) -> Iterator[int]:
        window = []
        for k in self.between(0, self.start - 1 + (0 if self.is_finite else self.period)):
            yield k
            if k >= self.start:
                window.append(k)
        shift = self.period
        while window:  # empty exactly when the set is finite
            for k in window:
                yield k + shift
            shift += self.period


_set_a, _set_b, _set_start, _set_period, _set_is_finite = slot_setters(DifferenceOrders)


def _tails(a: Address, b: Address) -> tuple[int, int, bool]:
    """(start, period, in phase): from start on both strings repeat with period, and agree when in phase.

    Canonical cycles are primitive and least rotations, so the tails agree
    exactly when the cycles are equal and in phase: finiteness is decided
    without reading a digit.
    """
    m = a.cycle_len
    in_phase = (a.cycle_bits == b.cycle_bits and m == b.cycle_len
                and (a.prefix_len - b.prefix_len) % m == 0)
    return max(a.prefix_len, b.prefix_len) + 1, lcm(m, b.cycle_len), in_phase


def _scan(a: Address, b: Address, lo: int, hi: int, width: int, count: int) -> tuple[int, int, int]:
    """The XOR of digits lo+1..top of a and b, shifted down by lo: (bits, top, next width).

    Windows of doubling width, from ``width``, are read until they hold
    count differing positions or reach hi.
    """
    bits, top = 0, lo
    while top < hi and bits.bit_count() < count:
        top = min(hi, top + width)
        bits = (a._reaching(top)[0] ^ b._reaching(top)[0]) >> lo & ((1 << (top - lo)) - 1)
        width *= 2
    return bits, top, width


def difference_orders(a: Address, b: Address) -> DifferenceOrders:
    """All positions where the expansions of a and b disagree, read lazily."""
    return DifferenceOrders(a, b, *_tails(a, b))


def first_two_orders(a: Address, b: Address) -> tuple[int, int]:
    """The first two positions where a and b disagree, 0 for each one missing.

    One ``_scan`` to the end of the first period window (to the periodic
    start when the set is finite).  An infinite set differs in every period
    window, so a lone position found lies there and the next is a period on.
    """
    start, period, in_phase = _tails(a, b)
    bits = _scan(a, b, 0, start - 1 + (0 if in_phase else period), 64, 2)[0]
    k1 = (bits & -bits).bit_length()
    bits &= bits - 1
    k2 = (bits & -bits).bit_length()
    return k1, k2 or (0 if in_phase else k1 + period)


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


_ADDRESS_RE = re.compile(r"([01]*)(?:\(([01]+)\))?")

#: The byte values 0 and 1 to the ASCII digits "0" and "1", and back.
_DIGIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _text(bits: int, length: int) -> str:
    """The first length digits held in bits, digit 1 first; a sentinel bit above them keeps zeros."""
    return format(bits | 1 << length, "b")[:0:-1]


def parse_address(text: str) -> Address:
    """Parse ``"101(0)"`` style literals.

    ``"(10)"`` is purely periodic; a bare digit string such as ``"101"``
    abbreviates ``"101(0)"``.
    """
    match = _ADDRESS_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"bad address {text!r}: expected digits in {{0,1}} with an "
                         f"optional nonempty (cycle)")
    if not text:
        raise ParseError(f"bad address {text!r}: empty")
    return object.__new__(Address)._canonical(*match.groups("0"))


def format_address(a: Address) -> str:
    """The literal ``parse_address`` reads back, e.g. ``"101(0)"``."""
    return "%s(%s)" % (_text(a.prefix_bits, a.prefix_len), _text(a.cycle_bits, a.cycle_len))
