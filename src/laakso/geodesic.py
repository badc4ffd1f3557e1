"""Paths, minimal height intervals, exact distances and geodesics.

A path is stored combinatorially: vertical segments alternating with
zero-length jumps through identification levels.  When the two endpoint
addresses differ at infinitely many digits the jump heights accumulate; the
representation then truncates after a configurable number of jumps and a
tail record carries the exact (or certified-interval) limit height, with
the finitely many moves beyond the accumulation kept in a post list.

Builders hold every height on a path as an integer numerator over a unit:
a level over its own D_k, an endpoint over its denominator.  Two heights
are brought over one unit only where a segment needs both, and a
``Fraction`` is built only on output (``Segment.h_start``, a level's
value, the length of a path, an exact limit height).

The distance between two points is 2(b-a) - |h(y)-h(x)| for the minimal
height interval [a, b]: the shortest interval containing both endpoint
heights and at least one level of every order at which the addresses
differ.  Orders beyond the first two witnessed ones never enlarge the
interval, because between two distinct levels there is a level of every
higher order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import sub
from typing import Optional, Union

from .errors import InvariantViolation
from .fractal import Address, DifferenceOrders, difference_orders
from .numeric import Interval
from .space import Point, Space
from .wormhole import (
    MSequence,
    WormholeLevel,
    classify_height,
    first_in_interval,
    snap,
    snap_units,
)

UPWARD, DOWNWARD, INVERSION = "upward", "downward", "inversion"
MONOTONE_UP, MONOTONE_DOWN, OSCILLATING = "monotone-up", "monotone-down", "oscillating"

NEAREST, INCREASING = "nearest", "increasing"


#: A height held as (numerator, unit): the value numerator / unit.
Height = tuple[int, int]


def _units(h: Fraction) -> Height:
    return h.numerator, h.denominator


@dataclass(frozen=True, eq=False)
class Segment:
    """A vertical run at a fixed address, from start / unit to end / unit.

    The builders give start and end as integers over one unit; with the
    default unit 1 any exact heights may be given.  Equality and hashing
    follow the heights' values, whatever the unit.
    """

    address: Address
    start: int
    end: int
    unit: int = 1

    @property
    def h_start(self) -> Fraction:
        return Fraction(self.start, self.unit)

    @property
    def h_end(self) -> Fraction:
        return Fraction(self.end, self.unit)

    @property
    def direction(self) -> int:
        return (self.end > self.start) - (self.end < self.start)

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        return (self.address == other.address
                and self.start * other.unit == other.start * self.unit
                and self.end * other.unit == other.end * self.unit)

    def __hash__(self):
        return hash((self.address, self.h_start, self.h_end))


@dataclass(frozen=True)
class Jump:
    """A zero-length passage through an identification level."""

    level: WormholeLevel
    from_address: Address
    to_address: Address
    kind: str = UPWARD

    @property
    def height(self) -> Fraction:
        return self.level.value


@dataclass(frozen=True)
class Tail:
    """Accumulation record for the truncated infinite part of a path."""

    omega: Union[Fraction, Interval]
    truncated_at: int
    side: int  # direction of the run into omega: 1 up, -1 down, 0 none


@dataclass(frozen=True)
class PathRep:
    """Combinatorial path: items, an optional tail, and post-tail moves.

    ``items`` alternate segments and jumps (zero-length segments are
    omitted, so a jump may sit first or last).  ``post`` holds the moves
    that happen beyond the accumulation height - normally just the final
    approach segment, but a coarse-order jump can land there too.
    """

    start: Point
    end: Point
    items: tuple
    tail: Optional[Tail] = None
    post: tuple = ()

    def segments(self):
        return tuple(e for e in self.items + self.post if isinstance(e, Segment))

    def jumps(self):
        return tuple(e for e in self.items + self.post if isinstance(e, Jump))


@dataclass(frozen=True)
class MinimalInterval:
    """[a, b] with one witnessing level per processed required order."""

    a: Fraction
    b: Fraction
    witnesses: tuple[tuple[int, WormholeLevel], ...]

    @property
    def width(self) -> Fraction:
        return self.b - self.a

    def length_between(self, x: Point, y: Point) -> Fraction:
        """2(b-a) - |h(y)-h(x)|: the length of a shortest path from x to y over [a, b]."""
        return 2 * self.width - abs(y.height - x.height)


# ---------------------------------------------------------------------------
# minimal interval and distance


def minimal_interval(space: Space, x: Point, y: Point) -> MinimalInterval:
    """The shortest height interval supporting a path between x and y.

    Scans the required orders ascending.  An order already witnessed inside
    the current interval costs nothing; an unsatisfied order extends the
    interval either down or up to the nearest level, and both extensions
    are kept as branches.  After two orders every branch holds witnesses of
    two distinct orders, and the nesting property supplies every higher
    required order in between, so at most the first two orders matter.
    The best branch wins: minimal width, then smaller b.
    """
    if x == y:
        raise ValueError("minimal interval undefined for equal points")
    ms = space.mseq
    lo0, hi0 = sorted((x.height, y.height))
    candidates: list[tuple[Fraction, Fraction, dict]] = [(lo0, hi0, {})]
    for order in islice(difference_orders(x.address, y.address), 2):
        grown: list[tuple[Fraction, Fraction, dict]] = []
        for a, b, witnesses in candidates:
            inside = first_in_interval(ms, order, a, b)
            if inside is not None:
                grown.append((a, b, {**witnesses, order: inside}))
                continue
            below = snap(ms, order, a, up=False)
            if below is not None:
                grown.append((below.value, b, {**witnesses, order: below}))
            above = snap(ms, order, b, up=True)
            if above is not None:
                grown.append((a, above.value, {**witnesses, order: above}))
        candidates = grown
    if not candidates:
        raise InvariantViolation("a required order had no level on either side")
    a, b, witnesses = min(candidates, key=lambda t: (t[1] - t[0], t[1]))
    return MinimalInterval(a, b, tuple(sorted(witnesses.items())))


def distance(space: Space, x: Point, y: Point) -> Fraction:
    """Exact geodesic distance: 2(b-a) - |h(y)-h(x)| over the minimal interval."""
    if x == y:
        return Fraction(0)
    return minimal_interval(space, x, y).length_between(x, y)


# ---------------------------------------------------------------------------
# level selection for monotone sweeps


def _limit(ms: MSequence, diffs: DifferenceOrders, order: int, h: Height,
           bound: Height) -> Union[Fraction, Interval, None]:
    """Where the jumps through the difference orders past order accumulate.

    The run starts at h and heads towards bound.  When the branching
    sequence is eventually the constant n (an integer scale past any
    override), each periodic block of orders contributes a geometric
    series and the limit is h plus or minus the exact sum of 1/D_k over the
    orders k > order; None when that overshoots bound.  Otherwise it is
    certified to lie within one order-`order` step of h, clipped at bound.
    """
    (num, unit), (bound_num, bound_unit) = h, bound
    side = bound_num * unit - num * bound_unit
    if side == 0:
        # a chain at its ceiling: every later order drops in just below it
        return Fraction(bound_num, bound_unit)
    up = side > 0
    if not ms.scale.is_integer:
        den = ms.D(order)
        here, edge = Fraction(num, unit), Fraction(bound_num, bound_unit)
        far = Fraction(num * den + (unit if up else -unit), unit * den)
        return Interval(here, min(edge, far)) if up else Interval(max(edge, far), here)
    # past floor the orders repeat with the period and each D_k gains
    # n**period = growth, so one period window times growth / (growth - 1)
    # covers them; both sums count units of 1/D_top
    floor = max(order, len(ms.override), diffs.start - 1)
    top = floor + diffs.period
    growth = ms.n ** diffs.period
    big = ms.D(top)
    near = repeating = 0
    for k in diffs.between(order, top):
        if k > floor:
            repeating += big // ms.D(k)
        else:
            near += big // ms.D(k)
    den = unit * big * (growth - 1)
    rest = unit * (near * (growth - 1) + repeating * growth)
    omega = num * big * (growth - 1) + (rest if up else -rest)
    if (omega * bound_unit > bound_num * den) if up else (omega * bound_unit < bound_num * den):
        return None
    return Fraction(omega, den)


def _sweep_levels(space: Space, lo: Height, hi: Height, diffs: DifferenceOrders,
                  anchors: dict[int, WormholeLevel], depth: int):
    """Pick one level inside [lo, hi] per required order, sorted by height.

    Orders are taken ascending; each either continues the rising chain
    (least level at or above the current height) or, when the chain has
    outrun it, drops in below as a straggler.  Returns the levels below the
    accumulation, the accumulation height (None when the set is finite),
    and the levels at or above it.
    """
    ms = space.mseq
    placed: list[WormholeLevel] = list(anchors.values())
    (lo_num, lo_unit), (hi_num, hi_unit) = lo, hi
    num, unit = lo  # the top of the chain
    omega: Union[Fraction, Interval, None] = None
    for order in diffs:
        if order in anchors:
            continue
        level = snap_units(ms, order, num, unit, up=True)
        if level is not None and level.numerator * hi_unit <= hi_num * level.den:
            num, unit = level.numerator, level.den
        else:
            level = snap_units(ms, order, num, unit, up=False)
            if level is None or level.numerator * lo_unit < lo_num * level.den:
                raise InvariantViolation("minimal interval misses a required order")
        placed.append(level)
        count = len(placed) - len(anchors)
        if diffs.is_finite or count < depth:
            continue
        omega = _limit(ms, diffs, order, (num, unit), hi)
        if omega is not None:
            break
        if count > depth + 512:
            raise InvariantViolation("sweep did not stabilise")  # unreachable
    # every D_k divides the deepest one, so heights compare over that unit
    deepest = max((w.den for w in placed), default=1)
    placed.sort(key=lambda w: w.numerator * (deepest // w.den))
    if omega is None:
        return placed, None, []
    # materialized chain levels sit below an exact limit, and at or below
    # the floor of an enclosure
    edge, closed = (omega.lo, True) if isinstance(omega, Interval) else (omega, False)
    split = 0
    for w in placed:
        gap = edge.numerator * w.den - w.numerator * edge.denominator
        if gap < 0 or (gap == 0 and not closed):
            break
        split += 1
    return placed[:split], omega, placed[split:]


# ---------------------------------------------------------------------------
# path assembly
#
# Builders record a path as a list of moves in traversal order: Segments,
# (level, from_address, to_address) jump records, and the limit height where
# a tail hides the accumulating moves.  ``_assemble`` turns the list into a
# PathRep and gives each jump its kind.


def _side(h: Height, omega: Union[Fraction, Interval]) -> int:
    """Direction of the run from height h into the limit omega (0: none)."""
    num, unit = h
    lo, hi = (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
    lo_gap = lo.numerator * unit - num * lo.denominator
    hi_gap = hi.numerator * unit - num * hi.denominator
    return 1 if lo_gap >= 0 and hi_gap > 0 else -1 if hi_gap <= 0 and lo_gap < 0 else 0


def _append_segment(moves: list, address: Address, h_from: Optional[Height], h_to: Height):
    """Record the run from h_from to h_to, unless it is empty or hidden by a tail."""
    if h_from is None:
        return
    (start, unit), (end, other) = h_from, h_to
    if unit != other:  # level units divide each other: no gcd between two D_k
        common = other if other % unit == 0 else unit if unit % other == 0 else lcm(unit, other)
        start, end, unit = start * (common // unit), end * (common // other), common
    if start != end:
        moves.append(Segment(address, start, end, unit))


def _jump(moves: list, address: Address, h: Optional[Height], level: WormholeLevel) -> tuple[Address, Height]:
    """Record the run from h to level and the jump there; return the new address and height."""
    here = (level.numerator, level.den)
    _append_segment(moves, address, h, here)
    switched = address.switch(level.order)
    moves.append((level, address, switched))
    return switched, here


def _flip(move):
    """The move walked the other way."""
    if isinstance(move, Segment):
        return Segment(move.address, move.end, move.start, move.unit)
    if isinstance(move, tuple):
        return (move[0], move[2], move[1])
    return move


def _assemble(start: Point, end: Point, moves: list) -> PathRep:
    """The PathRep of a move list, each jump's kind fixed from its sides.

    A jump's sides are the nearest vertical moves before and after it, a
    tail counting by the side of its limit; with motion on one side only,
    that side stands for both, and a jump with none is upward.
    """
    elements: list = []
    pending: list[tuple[int, Optional[int]]] = []  # jumps still lacking the side out
    into: Optional[int] = None
    h = _units(start.height)
    jumps = 0
    tail = None
    split = None

    def settle(out: Optional[int]) -> None:
        for idx, before in pending:
            before, after = before or out, out or before
            kind = INVERSION if before != after else DOWNWARD if before == -1 else UPWARD
            elements[idx] = Jump(*elements[idx], kind)
        pending.clear()

    for move in moves:
        if isinstance(move, tuple):
            pending.append((len(elements), into))
            elements.append(move)
            jumps += 1
            h = (move[0].numerator, move[0].den)
            continue
        if isinstance(move, Segment):
            direction = move.direction
            elements.append(move)
            h = (move.end, move.unit)
        else:
            direction = _side(h, move)
            split = len(elements)
            tail = Tail(move, jumps, direction)
        if direction:
            if pending:
                settle(direction)
            into = direction
    settle(None)
    if tail is None:
        return PathRep(start, end, tuple(elements))
    return PathRep(start, end, tuple(elements[:split]), tail, tuple(elements[split:]))


def _resting(point: Point) -> PathRep:
    """The path from a point to itself: one empty segment."""
    h = point.height
    return PathRep(point, point, (Segment(point.address, h.numerator, h.numerator, h.denominator),))


def _at(level: WormholeLevel, h: Fraction) -> bool:
    return level.numerator * h.denominator == h.numerator * level.den


def geodesic_path(space: Space, x: Point, y: Point, depth: int = 8) -> PathRep:
    """A shortest path realizing the minimal interval.

    Built from the lower endpoint: descend to a, sweep monotonically up to
    b taking one jump per required order, descend to the other endpoint;
    degenerate legs are omitted.  The result makes at most two inversions
    and its length equals the distance exactly whenever the limit height is
    exact (always so for an integer scale).
    """
    if x == y:
        return _resting(x)
    interval = minimal_interval(space, x, y)
    low, high = (x, y) if x.height <= y.height else (y, x)
    diffs = difference_orders(low.address, high.address)
    anchors: dict[int, WormholeLevel] = {}
    for order, witness in interval.witnesses:
        boundary_low = interval.a < low.height and _at(witness, interval.a)
        boundary_high = interval.b > high.height and _at(witness, interval.b)
        if boundary_low or boundary_high:
            anchors[order] = witness
    a, b = _units(interval.a), _units(interval.b)
    pre, omega, post = _sweep_levels(space, a, b, diffs, anchors, depth)

    moves: list = []
    address = low.address
    _append_segment(moves, address, _units(low.height), a)
    h = a
    for level in pre:
        address, h = _jump(moves, address, h, level)
    if omega is None:
        _append_segment(moves, address, h, b)
        h = b
    else:
        moves.append(omega)
        address = high.address
        for level in post:
            address = address.switch(level.order)  # undo the post flips: limit address
        # past a certified enclosure the run up to the first post move stays
        # implicit; everything after it is exact
        h = _units(omega) if isinstance(omega, Fraction) else None
        for level in post:
            address, h = _jump(moves, address, h, level)
    _append_segment(moves, address, h, _units(high.height))
    if address != high.address:
        raise InvariantViolation("geodesic ends at the wrong address")
    if low is not x:
        moves = [_flip(move) for move in reversed(moves)]
    return _assemble(x, y, moves)


# ---------------------------------------------------------------------------
# the constructive connection algorithm


def _pick_level(ms: MSequence, order: int, h: Height, strategy: str, upward: bool) -> WormholeLevel:
    num, unit = h
    if strategy == NEAREST:
        below = snap_units(ms, order, num, unit, up=False)
        above = snap_units(ms, order, num, unit, up=True)
        if below is None or above is None:  # every order has a level in (0, 1)
            return below or above
        # h - below < above - h over the unit D_order * unit; an exact tie
        # follows the worked construction and goes above
        closer = 2 * num * below.den < (below.numerator + above.numerator) * unit
        return below if closer else above
    # the side towards the target, or the other when it has no level
    return (snap_units(ms, order, num, unit, up=upward)
            or snap_units(ms, order, num, unit, up=not upward))


def connect(space: Space, x: Point, y: Point, strategy: str = NEAREST, depth: int = 8) -> PathRep:
    """A (not necessarily shortest) path built by the step-by-step algorithm.

    ``nearest`` jumps, for each differing digit in increasing position,
    through the level of that order closest to the current height (ties go
    up).  ``increasing`` keeps the sweep monotone towards the target height
    whenever a level is available on that side.
    """
    if strategy not in (NEAREST, INCREASING):
        raise ValueError(f"unknown strategy {strategy!r}")
    if x == y:
        return _resting(x)
    ms = space.mseq
    start_address, end_address = x.address, y.address
    # start and end from the identification-compatible representatives
    level = classify_height(ms, x.height)
    if level is not None and start_address.digit(level.order) != end_address.digit(level.order):
        start_address = start_address.switch(level.order)
    level = classify_height(ms, y.height)
    if level is not None and end_address.digit(level.order) != start_address.digit(level.order):
        end_address = end_address.switch(level.order)
    diffs = difference_orders(start_address, end_address)

    # every step beyond the truncation moves one grid unit towards the
    # limit: up towards 1 for the nearest rule (ties go up) and for rising
    # sweeps, down towards 0 otherwise
    upward = y.height >= x.height
    rising = strategy == NEAREST or upward
    moves: list = []
    address = start_address
    h = _units(x.height)
    for count, order in enumerate(diffs, 1):
        level = _pick_level(ms, order, h, strategy, upward)
        address, h = _jump(moves, address, h, level)
        if diffs.is_finite or count < depth:
            continue
        omega = _limit(ms, diffs, order, h, (int(rising), 1))
        if omega is None:
            raise InvariantViolation("connect's limit lies outside [0, 1]")
        moves.append(omega)
        address = end_address
        h = _units(omega) if isinstance(omega, Fraction) else None
        break
    _append_segment(moves, address, h, _units(y.height))
    if address != end_address:
        raise InvariantViolation("path ends at the wrong address")
    return _assemble(x, y, moves)


# ---------------------------------------------------------------------------
# measurements over paths


def _heights(elements) -> list[Height]:
    out: list[Height] = []
    for element in elements:
        if isinstance(element, Segment):
            out += ((element.start, element.unit), (element.end, element.unit))
        else:
            out.append((element.level.numerator, element.level.den))
    return out


def _run(scaled: list[int]) -> int:
    return sum(map(abs, map(sub, scaled[1:], scaled)))


def path_length(path: PathRep) -> Union[Fraction, Interval]:
    """Total vertical extent: the sum of |h-end - h-start| over all moves.

    The truncated part contributes |omega - h| for the height h at the
    truncation point (the tail is always height-monotone by construction),
    and any residual approach to the endpoint is added the same way.  The
    result is an exact Fraction whenever the limit height is exact, and
    otherwise the enclosure that omega's enclosure gives.  Every height is
    taken over one common unit, so the sum is integer arithmetic.
    """
    heights = [_units(path.start.height), *_heights(path.items)]
    cut = len(heights)
    heights += _heights(path.post)
    heights.append(_units(path.end.height))
    if path.tail is not None:
        omega = path.tail.omega
        lo, hi = (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
        heights += (_units(lo), _units(hi))
    units = {unit for _, unit in heights}
    common = max(units)
    for unit in units:
        if common % unit:  # level units D_k divide the deepest one
            common = lcm(common, unit)
    factor = {unit: common // unit for unit in units}
    scaled = [num * factor[unit] for num, unit in heights]
    if path.tail is None:
        return Fraction(_run(scaled), common)
    hi = scaled.pop()
    lo = scaled.pop()
    low = high = _run(scaled[:cut]) + _run(scaled[cut:])
    for h in (scaled[cut - 1], scaled[cut]):  # |omega - h| over omega in [lo, hi]
        if lo >= h:
            low, high = low + lo - h, high + hi - h
        elif hi <= h:
            low, high = low + h - hi, high + h - lo
        else:
            high += max(h - lo, hi - h)
    if low == high:
        return Fraction(low, common)
    return Interval(Fraction(low, common), Fraction(high, common))


def classify(path: PathRep) -> tuple[str, tuple[str, ...]]:
    """Overall monotonicity label plus the per-jump kinds."""
    kinds = tuple(j.kind for j in path.jumps())
    directions = {s.direction for s in path.segments()}
    if path.tail is not None:
        directions.add(path.tail.side)
    if INVERSION in kinds or {1, -1} <= directions:
        label = OSCILLATING
    elif -1 in directions:
        label = MONOTONE_DOWN
    else:
        label = MONOTONE_UP
    return label, kinds


def validate(path: PathRep, space: Space) -> None:
    """Check the chaining invariants, raising AssertionError (also under -O)."""

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(message)

    current_h: Union[Fraction, None] = path.start.height
    address = None
    for element in path.items + (("tail",) if path.tail else ()) + path.post:
        if isinstance(element, str):
            # the tail hides infinitely many moves: the next explicit element
            # resumes at the truncation side of the accumulation, so neither
            # the height nor the address is constrained across it
            current_h = None
            address = None
            continue
        if isinstance(element, Segment):
            if current_h is not None:
                check(element.h_start == current_h, "segment does not chain")
            if address is not None:
                check(element.address == address, "segment address does not chain")
            current_h = element.h_end
            address = element.address
        else:
            if current_h is not None:
                check(element.height == current_h, "jump height does not chain")
            check(element.to_address == element.from_address.switch(element.level.order),
                  "jump does not switch its order's digit")
            lvl = classify_height(space.mseq, element.height)
            check(lvl is not None and lvl.order == element.level.order,
                  "jump height is not a level of its order")
            if address is not None:
                check(element.from_address == address, "jump address does not chain")
            address = element.to_address
    if path.tail is None and path.items:
        check(current_h == path.end.height, "path does not end at its end height")
