"""The glued space itself: configuration, canonical points, embeddings.

A point is an equivalence class of (address, height) pairs: at a level of
order k the two addresses differing exactly at digit k are the same point.
The canonical representative forces digit k to 0 there, which makes point
equality and hashing syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError, ResourceLimit
from .fractal import Address, format_address, parse_address, value
from .numeric import Interval, ScaleFactor
from .wormhole import MSequence, WormholeLevel, classify_height, level_count, levels_in_range

#: Most levels ``Space.wormholes`` lists; at s = 3, order 11 has 118 100.
MAX_LISTED_LEVELS = 200_000


@dataclass(frozen=True)
class Point:
    """Canonical (address, height) representative of a point of the space.

    Build points through :meth:`Space.point` / :meth:`Space.canonicalize`,
    which enforce the digit convention at identification heights.
    """

    address: Address
    height: Fraction

    def __str__(self):
        return f"{format_address(self.address)}@{self.height}"


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

    def canonicalize(self, address: Address, height) -> Point:
        height = Fraction(height)
        if not 0 <= height <= 1:
            raise ParseError(f"height {height} outside [0, 1]")
        level = classify_height(self.mseq, height)
        if level is not None and address.digit(level.order) == 1:
            address = address.switch(level.order)
        return Point(address, height)

    def point(self, address: Union[Address, str], height) -> Point:
        if isinstance(address, str):
            address = parse_address(address)
        return self.canonicalize(address, height)

    def parse_point(self, text: str) -> Point:
        """Parse ``"101(0)@1/10"`` literals."""
        if text.count("@") != 1:
            raise ParseError(f"bad point {text!r}: expected address@height")
        addr_text, height_text = text.split("@")
        address = parse_address(addr_text)
        try:
            height = Fraction(height_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad height {height_text!r} in {text!r}") from None
        return self.canonicalize(address, height)

    def preimages(self, p: Point) -> tuple[tuple[Address, Fraction], ...]:
        """The one or two (address, height) pairs projecting to p."""
        level = classify_height(self.mseq, p.height)
        if level is None:
            return ((p.address, p.height),)
        return (
            (p.address, p.height),
            (p.address.switch(level.order), p.height),
        )

    def embed(self, p: Point, bits: int = 64) -> tuple[Union[Fraction, Interval], Fraction]:
        """Coordinates of the canonical preimage in the ambient product."""
        return value(p.address, self.scale, bits), p.height

    # -- level queries ---------------------------------------------------

    def level_of(self, height) -> Optional[WormholeLevel]:
        return classify_height(self.mseq, height)

    def wormholes(self, order: int, lo=0, hi=1) -> list[WormholeLevel]:
        """The order-k levels inside [lo, hi], ascending, at most MAX_LISTED_LEVELS."""
        if level_count(self.mseq, order, lo, hi) > MAX_LISTED_LEVELS:
            # the count itself is not printed: at high orders it has thousands of digits
            raise ResourceLimit(
                f"more than {MAX_LISTED_LEVELS} order-{order} levels: over the listing budget"
            )
        return list(levels_in_range(self.mseq, order, lo, hi))

    # -- metric facade (implemented in the geodesic module) ---------------

    def distance(self, x: Point, y: Point) -> Fraction:
        from . import geodesic

        return geodesic.distance(self, x, y)

    def minimal_interval(self, x: Point, y: Point):
        from . import geodesic

        return geodesic.minimal_interval(self, x, y)

    def geodesic(self, x: Point, y: Point, depth: int = 8):
        from . import geodesic

        return geodesic.geodesic_path(self, x, y, depth)

    def connect(self, x: Point, y: Point, strategy: str = "nearest", depth: int = 8):
        from . import geodesic

        return geodesic.connect(self, x, y, strategy, depth)

    def __repr__(self):
        return f"Space(scale={self.scale})"
