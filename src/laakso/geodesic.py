"""Paths, minimal height intervals, exact distances and geodesics.

A path is stored combinatorially: vertical segments alternating with
zero-length jumps through identification levels.  When the two endpoint
addresses differ at infinitely many digits the jump heights accumulate; the
representation then truncates after a configurable number of jumps and a
tail record carries the exact (or certified-interval) limit height, with
the finitely many moves beyond the accumulation kept in a post list.

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
    last_in_interval,
    snap,
)

UPWARD, DOWNWARD, INVERSION = "upward", "downward", "inversion"
MONOTONE_UP, MONOTONE_DOWN, OSCILLATING = "monotone-up", "monotone-down", "oscillating"

NEAREST, INCREASING = "nearest", "increasing"


@dataclass(frozen=True)
class Segment:
    """A vertical run at a fixed address."""

    address: Address
    h_start: Fraction
    h_end: Fraction

    @property
    def direction(self) -> int:
        return (self.h_end > self.h_start) - (self.h_end < self.h_start)


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


def _limit(ms: MSequence, diffs: DifferenceOrders, order: int, h: Fraction,
           bound: Fraction) -> Union[Fraction, Interval, None]:
    """Where the jumps through the difference orders past order accumulate.

    The run starts at h and heads towards bound.  When the branching
    sequence is eventually the constant n (an integer scale past any
    override), each periodic block of orders contributes a geometric
    series and the limit is h plus or minus the exact sum of 1/D_k over the
    orders k > order; None when that overshoots bound.  Otherwise it is
    certified to lie within one order-`order` step of h, clipped at bound.
    """
    if h == bound:
        # a chain at its ceiling: every later order drops in just below it
        return bound
    up = bound > h
    if not ms.scale.is_integer:
        far = h + Fraction(1 if up else -1, ms.D(order))
        return Interval(h, min(bound, far)) if up else Interval(max(bound, far), h)
    # past floor the orders repeat with the period and each D_k gains
    # n**period, so one period window times the geometric ratio covers them
    floor = max(order, len(ms.override), diffs.start - 1)
    growth = ms.n ** diffs.period
    ratio = Fraction(growth, growth - 1)
    rest = Fraction(0)
    for k in diffs:
        if k > floor + diffs.period:
            break
        if k > order:
            rest += Fraction(1, ms.D(k)) * (ratio if k > floor else 1)
    omega = h + rest if up else h - rest
    return omega if (omega <= bound if up else omega >= bound) else None


def _sweep_levels(space: Space, lo: Fraction, hi: Fraction, diffs: DifferenceOrders,
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
    current = lo
    omega: Union[Fraction, Interval, None] = None
    for order in diffs:
        if order in anchors:
            continue
        level = first_in_interval(ms, order, current, hi)
        if level is None:
            level = last_in_interval(ms, order, lo, current)
            if level is None:
                raise InvariantViolation("minimal interval misses a required order")
        else:
            current = level.value
        placed.append(level)
        count = len(placed) - len(anchors)
        if diffs.is_finite or count < depth:
            continue
        omega = _limit(ms, diffs, order, current, hi)
        if omega is not None:
            break
        if count > depth + 512:
            raise InvariantViolation("sweep did not stabilise")  # unreachable
    placed.sort(key=lambda w: w.value)
    if isinstance(omega, Interval):
        # materialized chain levels sit at or below the enclosure's floor
        pre = [w for w in placed if w.value <= omega.lo]
    else:
        pre = [w for w in placed if omega is None or w.value < omega]
    return pre, omega, placed[len(pre):]


# ---------------------------------------------------------------------------
# path assembly
#
# Builders record a path as a list of moves in traversal order: Segments,
# (level, from_address, to_address) jump records, and the limit height where
# a tail hides the accumulating moves.  ``_assemble`` turns the list into a
# PathRep and gives each jump its kind.


def _side(h: Fraction, omega: Union[Fraction, Interval]) -> int:
    """Direction of the run from height h into the limit omega (0: none)."""
    lo, hi = (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
    return 1 if lo >= h and hi > h else -1 if hi <= h and lo < h else 0


def _append_segment(moves: list, address: Address, h_from: Optional[Fraction], h_to: Fraction):
    """Record the run from h_from to h_to, unless it is empty or hidden by a tail."""
    if h_from is not None and h_from != h_to:
        moves.append(Segment(address, h_from, h_to))


def _jump(moves: list, address: Address, h: Optional[Fraction], level: WormholeLevel) -> tuple[Address, Fraction]:
    """Record the run from h to level and the jump there; return the new address and height."""
    _append_segment(moves, address, h, level.value)
    switched = address.switch(level.order)
    moves.append((level, address, switched))
    return switched, level.value


def _flip(move):
    """The move walked the other way."""
    if isinstance(move, Segment):
        return Segment(move.address, move.h_end, move.h_start)
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
    h = start.height
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
            h = move[0].value
            continue
        if isinstance(move, Segment):
            direction = move.direction
            elements.append(move)
            h = move.h_end
        else:
            direction = _side(h, move)
            split = len(elements)
            tail = Tail(move, sum(not isinstance(e, Segment) for e in elements), direction)
        if direction:
            settle(direction)
            into = direction
    settle(None)
    if tail is None:
        return PathRep(start, end, tuple(elements))
    return PathRep(start, end, tuple(elements[:split]), tail, tuple(elements[split:]))


def geodesic_path(space: Space, x: Point, y: Point, depth: int = 8) -> PathRep:
    """A shortest path realizing the minimal interval.

    Built from the lower endpoint: descend to a, sweep monotonically up to
    b taking one jump per required order, descend to the other endpoint;
    degenerate legs are omitted.  The result makes at most two inversions
    and its length equals the distance exactly whenever the limit height is
    exact (always so for an integer scale).
    """
    if x == y:
        return PathRep(x, y, (Segment(x.address, x.height, x.height),))
    interval = minimal_interval(space, x, y)
    low, high = (x, y) if x.height <= y.height else (y, x)
    diffs = difference_orders(low.address, high.address)
    anchors: dict[int, WormholeLevel] = {}
    for order, witness in interval.witnesses:
        boundary_low = witness.value == interval.a and interval.a < low.height
        boundary_high = witness.value == interval.b and interval.b > high.height
        if boundary_low or boundary_high:
            anchors[order] = witness
    pre, omega, post = _sweep_levels(space, interval.a, interval.b, diffs, anchors, depth)

    moves: list = []
    address = low.address
    _append_segment(moves, address, low.height, interval.a)
    h = interval.a
    for level in pre:
        address, h = _jump(moves, address, h, level)
    if omega is None:
        _append_segment(moves, address, h, interval.b)
        h = interval.b
    else:
        moves.append(omega)
        address = high.address
        for level in post:
            address = address.switch(level.order)  # undo the post flips: limit address
        # past a certified enclosure the run up to the first post move stays
        # implicit; everything after it is exact
        h = omega if isinstance(omega, Fraction) else None
        for level in post:
            address, h = _jump(moves, address, h, level)
    _append_segment(moves, address, h, high.height)
    if address != high.address:
        raise InvariantViolation("geodesic ends at the wrong address")
    if low is not x:
        moves = [_flip(move) for move in reversed(moves)]
    return _assemble(x, y, moves)


# ---------------------------------------------------------------------------
# the constructive connection algorithm


def _pick_level(ms: MSequence, order: int, height: Fraction, strategy: str, upward: bool) -> WormholeLevel:
    below, above = snap(ms, order, height, up=False), snap(ms, order, height, up=True)
    if below is None or above is None:  # every order has a level in (0, 1)
        return below or above
    if strategy == NEAREST:
        # an exact tie follows the worked construction and goes above
        return below if height - below.value < above.value - height else above
    return above if upward else below


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
        return PathRep(x, y, (Segment(x.address, x.height, x.height),))
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
    h = x.height
    for count, order in enumerate(diffs, 1):
        level = _pick_level(ms, order, h, strategy, upward)
        address, h = _jump(moves, address, h, level)
        if diffs.is_finite or count < depth:
            continue
        omega = _limit(ms, diffs, order, h, Fraction(rising))
        if omega is None:
            raise InvariantViolation("connect's limit lies outside [0, 1]")
        moves.append(omega)
        address = end_address
        h = omega if isinstance(omega, Fraction) else None
        break
    _append_segment(moves, address, h, y.height)
    if address != end_address:
        raise InvariantViolation("path ends at the wrong address")
    return _assemble(x, y, moves)


# ---------------------------------------------------------------------------
# measurements over paths


def _run_length(heights: list[Fraction]) -> Fraction:
    """Sum of |h[i+1] - h[i]|, taken in integers over one common denominator."""
    dens = sorted({h.denominator for h in heights}, reverse=True)
    common = dens[0]
    for den in dens[1:]:
        if common % den:  # level denominators D_k divide the deepest one
            common = lcm(common, den)
    scaled = [h.numerator * (common // h.denominator) for h in heights]
    return Fraction(sum(abs(b - a) for a, b in zip(scaled, scaled[1:])), common)


def path_length(path: PathRep) -> Union[Fraction, Interval]:
    """Total vertical extent: the sum of |h-end - h-start| over all moves.

    The truncated part contributes |omega - h| for the height h at the
    truncation point (the tail is always height-monotone by construction),
    and any residual approach to the endpoint is added the same way.  The
    result is an exact Fraction whenever the limit height is exact.
    """

    def heights(elements) -> list[Fraction]:
        out = []
        for element in elements:
            if isinstance(element, Segment):
                out += (element.h_start, element.h_end)
            else:
                out.append(element.height)
        return out

    before = [path.start.height, *heights(path.items)]
    after = [*heights(path.post), path.end.height]
    omega = path.tail.omega if path.tail is not None else None
    if not isinstance(omega, Interval):
        return _run_length(before + ([] if omega is None else [omega]) + after)
    total = _run_length(before) + abs(omega - before[-1]) + abs(after[0] - omega) + _run_length(after)
    return total.lo if total.lo == total.hi else total


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
