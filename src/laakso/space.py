"""The glued space itself: configuration, canonical points, level listings.

A point is an equivalence class of (address, height) pairs: at a level of
order k the two addresses differing exactly at digit k are the same point.
The canonical representative forces digit k to 0 there, which makes point
equality and hashing syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import budget
from .errors import ParseError
from .fractal import Address, format_address, parse_address
from .numeric import ScaleFactor
from .record import Record, slot_setters
from .wormhole import MSequence, WormholeLevel, classify_height, level_count, levels_in_range


class Point(Record):
    """Canonical (address, height) representative of a point of the space.

    Build points through :meth:`Space.point` or :meth:`Space.parse_point`,
    which enforce the digit convention at identification heights.
    """

    __slots__ = ("address", "height")

    def __init__(self, address: Address, height: Fraction):
        _set_address(self, address)
        _set_height(self, height)

    def __str__(self):
        return f"{format_address(self.address)}@{self.height}"


_set_address, _set_height = slot_setters(Point)


class Space:
    """A glued product of the attractor with the unit interval.

    Configured either by a rational scale s > 2 or by a rational dimension
    Q in (1, 2); the branching sequence is derived greedily from the scale
    unless an explicit override prefix is supplied.
    """

    def __init__(self, scale: ScaleFactor, m_override=()):
        self.scale = scale
        self.mseq = MSequence(scale, m_override)

    @classmethod
    def from_ratio(cls, s, m_override=()) -> "Space":
        return cls(ScaleFactor.from_ratio(s), m_override)

    @classmethod
    def from_dimension(cls, q, m_override=()) -> "Space":
        return cls(ScaleFactor.from_dimension(q), m_override)

    @property
    def n(self) -> int:
        return self.mseq.n

    @property
    def dimension(self) -> Optional[Fraction]:
        """The configuring dimension Q, when the space was built from one."""
        return self.scale.dimension

    # -- points ---------------------------------------------------------

    def point(self, address: Address, height) -> Point:
        """The canonical point: digit k is 0 at a height identified at order k."""
        height = Fraction(height)
        if not 0 <= height <= 1:  # not printed: it may be too long for str()
            raise ParseError("height outside [0, 1]")
        return self._canonical(address, height)

    def parse_point(self, text: str) -> Point:
        """Parse ``"101(0)@1/10"`` literals."""
        addr_text, at, height_text = text.partition("@")
        if not at or "@" in height_text:
            raise ParseError(f"bad point {text!r}: expected address@height")
        address = parse_address(addr_text)
        if "e" in height_text.lower():  # an exponent: Fraction would build its power of ten unchecked
            budget.check_exponent(height_text)
        try:
            height = Fraction(height_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad height {height_text!r} in {text!r}") from None
        if not 0 <= height.numerator <= height.denominator:
            raise ParseError(f"height {height_text!r} in {text!r} outside [0, 1]")
        return self._canonical(address, height)

    def _canonical(self, address: Address, height: Fraction) -> Point:
        """The point at a height already in [0, 1], with digit k flipped to 0 at an order-k level."""
        level = classify_height(self.mseq, height)
        if level is not None and address.digit(level.order) == 1:
            address = address.switch(level.order)
        return Point(address, height)

    # -- level queries ---------------------------------------------------

    def wormholes(self, order: int, lo=0, hi=1) -> list[WormholeLevel]:
        """The order-k levels inside [lo, hi], ascending, at most ``budget.MAX_LISTED_LEVELS``."""
        width = Fraction(min(hi, 1) - max(lo, 0))
        if width <= 0:  # one height or none: decode it instead of building D_k
            level = classify_height(self.mseq, lo) if width == 0 else None
            return [level] if level is not None and level.order == order else []
        budget.check_listing(self.n, order, width, lambda: level_count(self.mseq, order, lo, hi))
        return list(levels_in_range(self.mseq, order, lo, hi))

    def __repr__(self):
        return f"Space(scale={self.scale})"
