"""Binary addresses on the attractor of the two-branch contraction system.

A point of the attractor is an infinite 0/1 string read left to right; the
first digit selects the coarse half, later digits refine.  This module
represents the eventually periodic strings as a finite prefix plus a
repeating cycle, normalised so that equal infinite strings have equal
representations and equality is a tuple comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Union

from .errors import ParseError
from .numeric import Interval, ScaleFactor, refine


@dataclass(frozen=True)
class Address:
    """Canonical eventually periodic 0/1 string.

    Canonical form: the cycle is primitive and rotated to its
    lexicographically least phase (the displaced digits are pushed into the
    prefix), and the prefix does not end with a whole copy of the cycle.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        pre = tuple(int(d) for d in self.prefix)
        cyc = tuple(int(d) for d in self.cycle)
        if not cyc:
            raise ValueError("cycle must be nonempty")
        if any(d not in (0, 1) for d in pre + cyc):
            raise ValueError("digits must be 0 or 1")
        # primitive cycle
        m = len(cyc)
        for d in range(1, m):
            if m % d == 0 and cyc == cyc[:d] * (m // d):
                cyc = cyc[:d]
                m = d
                break
        # lexicographically least rotation, compensated through the prefix
        j = min(range(m), key=lambda t: cyc[t:] + cyc[:t])
        pre = pre + cyc[:j]
        cyc = cyc[j:] + cyc[:j]
        self._store(pre, cyc)

    def _store(self, pre: tuple[int, ...], cyc: tuple[int, ...]) -> "Address":
        """Set the parts from a canonical cycle, absorbing trailing whole copies of it."""
        m = len(cyc)
        while len(pre) >= m and pre[-m:] == cyc:
            pre = pre[:-m]
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "cycle", cyc)
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
        if n > len(pre):
            reps = -(-(n - len(pre)) // len(cyc))
            pre = pre + cyc * reps
        flipped = pre[: n - 1] + (1 - pre[n - 1],) + pre[n:]
        # the cycle is unchanged and so still canonical: skip to the absorption
        return object.__new__(Address)._store(flipped, cyc)

    def __str__(self):
        return format_address(self)


@dataclass(frozen=True)
class DifferenceOrders:
    """The increasing set of digit positions at which two addresses differ.

    Positions below ``start`` are listed explicitly in ``head``; from
    ``start`` on the pattern repeats with the given period, differing at the
    listed offsets.  The set is finite exactly when ``offsets`` is empty.
    """

    head: tuple[int, ...]
    start: int
    period: int
    offsets: tuple[int, ...]

    @property
    def is_finite(self) -> bool:
        return not self.offsets

    def __iter__(self) -> Iterator[int]:
        yield from self.head
        if not self.offsets:
            return
        block = 0
        while True:
            for off in self.offsets:
                yield self.start + off + block
            block += self.period

    def first(self, count: int) -> list[int]:
        out = []
        for order in self:
            if len(out) >= count:
                break
            out.append(order)
        return out


def difference_orders(a: Address, b: Address) -> DifferenceOrders:
    """All positions where the expansions of a and b disagree.

    Beyond the longer prefix both strings are purely periodic, so one least
    common multiple of the cycle lengths decides the whole tail.
    """
    start = max(len(a.prefix), len(b.prefix)) + 1
    period = lcm(len(a.cycle), len(b.cycle))
    head = tuple(i for i in range(1, start) if a.digit(i) != b.digit(i))
    offsets = tuple(
        off for off in range(period) if a.digit(start + off) != b.digit(start + off)
    )
    return DifferenceOrders(head, start, period, offsets)


def _series_value(a: Address, u):
    """Evaluate the coordinate series at u = 1/s.

    value = (1-u) * (sum_i d_i u**(i-1) + u**L * C / (1 - u**m)) with C the
    one-cycle polynomial; works for Fraction and Interval alike.
    """
    acc = Fraction(0)
    power = Fraction(1)  # u**(i-1)
    for d in a.prefix:
        if d:
            acc = acc + power
        power = power * u
    cyc = Fraction(0)
    cyc_power = power  # u**L
    u_cycle = Fraction(1)
    for d in a.cycle:
        if d:
            cyc = cyc + cyc_power
        cyc_power = cyc_power * u
        u_cycle = u_cycle * u
    total = acc
    if not (isinstance(cyc, Fraction) and cyc == 0):
        total = total + cyc / (1 - u_cycle)
    return (1 - u) * total


def value(a: Address, scale: ScaleFactor, bits: int = 64) -> Union[Fraction, Interval]:
    """Horizontal coordinate of the address on the attractor.

    Exact Fraction for a rational scale; otherwise a certified enclosure of
    width at most 2**-bits.
    """
    if scale.is_exact:
        return _series_value(a, 1 / scale.ratio)

    def compute(work_bits):
        return _series_value(a, scale.recip_enclosure(work_bits))

    return refine(compute, Fraction(1, 2 ** bits), start_bits=max(64, bits + 8))


_ADDRESS_RE = re.compile(r"^([01]*)(?:\(([01]+)\))?$")


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
    return Address(tuple(int(c) for c in prefix), tuple(int(c) for c in cycle))


def format_address(a: Address) -> str:
    return "%s(%s)" % ("".join(map(str, a.prefix)), "".join(map(str, a.cycle)))
