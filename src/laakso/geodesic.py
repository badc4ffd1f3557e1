"""Paths, minimal height intervals, exact distances and geodesics.

A path is stored combinatorially: vertical segments alternating with
zero-length jumps through identification levels.  When the two endpoint
addresses differ at infinitely many digits the jump heights accumulate; the
representation then truncates after a configurable number of jumps and a
tail record carries the exact (or certified-interval) limit height, with
the finitely many moves beyond the accumulation kept in a post list.

Every height is an exact rational read through ``numerator`` and
``denominator``: an endpoint's ``Fraction``, a level or an exact limit.
Segments hold the heights they join, builders compare heights by
cross-multiplication, and the closed form below compares its widths over
one common unit, so a ``Fraction`` is built only on output: an
interval's ends, a distance, a path's length, an exact limit, and for a
printed path one per distinct height (a level ends a segment, is its
jump's height and starts the next segment, and is printed once).

The distance between two points is 2(b-a) - |h(y)-h(x)| for the minimal
height interval [a, b]: the shortest interval containing both endpoint
heights and at least one level of every order at which the addresses
differ.  Orders beyond the first two never enlarge the interval, because
between two distinct levels there is a level of every higher order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub
from typing import Optional, Union

from . import budget
from .errors import InvariantViolation
from .fractal import Address, DifferenceOrders, difference_orders, first_two_orders
from .numeric import Interval
from .record import Record, slot_setters
from .space import Point, Space
from .wormhole import (
    MSequence,
    WormholeLevel,
    bracket,
    classify_height,
    nearest,
    snap,
)

UPWARD, DOWNWARD, INVERSION = "upward", "downward", "inversion"
MONOTONE_UP, MONOTONE_DOWN, OSCILLATING = "monotone-up", "monotone-down", "oscillating"

NEAREST, INCREASING = "nearest", "increasing"


def _cmp(a, b) -> int:
    """-1, 0 or 1 as the height a lies below, at or above the height b."""
    left, right = a.numerator * b.denominator, b.numerator * a.denominator
    return (left > right) - (left < right)


class Segment(Record):
    """A vertical run at a fixed address, from height start to height end.

    The heights are exact: Fractions, ints or levels.  Equality and hashing
    follow their values, whatever type holds them.
    """

    __slots__ = ("address", "start", "end")

    def __init__(self, address: Address, start, end):
        _set_address(self, address)
        _set_start(self, start)
        _set_end(self, end)

    @property
    def h_start(self) -> Fraction:
        return Fraction(self.start.numerator, self.start.denominator)

    @property
    def h_end(self) -> Fraction:
        return Fraction(self.end.numerator, self.end.denominator)

    @property
    def direction(self) -> int:
        return _cmp(self.end, self.start)

    def __eq__(self, other):
        return (other.__class__ is Segment and self.address == other.address
                and _cmp(self.start, other.start) == 0 and _cmp(self.end, other.end) == 0)

    def __hash__(self):
        return hash((self.address, self.h_start, self.h_end))


_set_address, _set_start, _set_end = slot_setters(Segment)


class Jump(Record):
    """A zero-length passage through an identification level."""

    __slots__ = ("level", "from_address", "to_address")

    def __init__(self, level: WormholeLevel, from_address: Address, to_address: Address):
        _set_level(self, level)
        _set_from_address(self, from_address)
        _set_to_address(self, to_address)

    @property
    def height(self) -> Fraction:
        return self.level.value


_set_level, _set_from_address, _set_to_address = slot_setters(Jump)


class Tail(Record):
    """Accumulation record for the truncated infinite part of a path.

    ``truncated_at`` counts the jumps before the limit omega.  The run
    between omega and the chain of jumps piling up at it is not stored, nor
    the run on its other side unless omega is exact: ``classify`` reads a
    run left out off the heights the path shows beside the tail.
    """

    __slots__ = ("omega", "truncated_at")

    def __init__(self, omega: Union[Fraction, Interval], truncated_at: int):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "truncated_at", truncated_at)


class PathRep(Record):
    """Combinatorial path: items, an optional tail, and post-tail moves.

    ``items`` alternate segments and jumps (zero-length segments are
    omitted, so a jump may sit first or last; with no jump and no rise, one
    empty segment).  ``post`` holds the moves past the limit.  The jumps
    pile up at it from ``items`` on a ``connect`` path and on a geodesic
    from its lower end, from ``post`` on one from its upper end; an exact
    limit's run on the other side opens ``post`` or closes ``items``.
    """

    __slots__ = ("start", "end", "items", "tail", "post")

    def __init__(self, start: Point, end: Point, items: tuple, tail: Optional[Tail] = None,
                 post: tuple = ()):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "post", post)

    def segments(self):
        return tuple(e for e in self.items + self.post if isinstance(e, Segment))

    def jumps(self):
        return tuple(e for e in self.items + self.post if isinstance(e, Jump))


class MinimalInterval(Record):
    """[a, b] = [low, high] / unit, with one witnessing level per processed required order.

    Equality, hashing and the repr follow a, b and the witnesses, whatever the unit.
    """

    _fields = ("a", "b", "witnesses")
    __slots__ = ("low", "high", "unit", "witnesses")

    def __init__(self, low: int, high: int, unit: int,
                 witnesses: tuple[tuple[int, WormholeLevel], ...]):
        _set_low(self, low)
        _set_high(self, high)
        _set_unit(self, unit)
        _set_witnesses(self, witnesses)

    a = property(lambda self: Fraction(self.low, self.unit))
    b = property(lambda self: Fraction(self.high, self.unit))

    def length_between(self, x: Point, y: Point) -> Fraction:
        """2(b-a) - |h(y)-h(x)|: the length of a shortest path from x to y over [a, b]."""
        unit = lcm(self.unit, x.height.denominator, y.height.denominator)  # self.unit for its own endpoints
        return _length((self.high - self.low) * (unit // self.unit), unit, x, y)


_set_low, _set_high, _set_unit, _set_witnesses = slot_setters(MinimalInterval)


def _length(width: int, unit: int, x: Point, y: Point) -> Fraction:
    """2 * width - |h(y)-h(x)| over unit, which both height denominators divide: one Fraction."""
    hx, hy = x.height, y.height
    rise = hy.numerator * (unit // hy.denominator) - hx.numerator * (unit // hx.denominator)
    return Fraction(2 * width - abs(rise), unit)


# ---------------------------------------------------------------------------
# minimal interval and distance


def _interval_bounds(space: Space, x: Point, y: Point) -> tuple[int, int, int, tuple]:
    """The minimal interval of x and y in integers: (low, high, unit, witnesses).

    [a, b] = [low, high] / unit, unit the lcm of both height denominators
    and D_k2, the level denominator of the last of the first two difference
    orders; each witness is a level's (order, numerator, D_order).  The
    interval starts at the endpoint heights, and the two orders, read by
    ``first_two_orders`` with no lazy scan, are taken ascending.  An order
    already witnessed inside the current interval costs nothing; an
    unsatisfied order extends the interval either down or up to the
    nearest level, and both extensions are kept as candidates.  After two
    orders every candidate holds witnesses of two distinct orders, and the
    nesting property supplies every higher required order in between, so
    no later order is read.  The least width wins, then the smaller b.
    Equal points give their height twice and no witness.
    """
    ms = space.mseq
    required = first_two_orders(x.address, y.address)  # ascending, 0 past the last order
    hx, hy = x.height, y.height
    if hx.numerator * hy.denominator <= hy.numerator * hx.denominator:
        lo, hi = hx, hy
    else:
        lo, hi = hy, hx
    unit = lcm(lo.denominator, hi.denominator, ms.D(max(required)))
    # a candidate: its bounds over the unit, and its witnesses
    candidates = [(lo.numerator * (unit // lo.denominator), hi.numerator * (unit // hi.denominator), ())]
    for order in required:
        if not order:
            break
        den, m_k = ms.grid(order)
        step = unit // den
        grown = []
        for a, b, witnesses in candidates:
            below, above = bracket(den, m_k, a, unit)  # the levels at or below a and at or above it
            if above < den and above * step <= b:  # inside [a, b]
                grown.append((a, b, witnesses + ((order, above, den),)))
                continue
            if below > 0:
                grown.append((below * step, b, witnesses + ((order, below, den),)))
            if above < den:  # none inside [a, b], so the least above a lies above b
                grown.append((a, above * step, witnesses + ((order, above, den),)))
        candidates = grown
    if not candidates:
        raise InvariantViolation("a required order had no level on either side")
    if len(candidates) == 1:
        low, high, witnesses = candidates[0]
    else:
        low, high, witnesses = min(candidates, key=lambda t: (t[1] - t[0], t[1]))
    return low, high, unit, witnesses


def minimal_interval(space: Space, x: Point, y: Point) -> MinimalInterval:
    """The shortest height interval supporting a path between x and y.

    The record of ``_interval_bounds``'s search, with its witnesses as levels.
    """
    if x == y:
        raise ValueError("minimal interval undefined for equal points")
    low, high, unit, witnesses = _interval_bounds(space, x, y)
    return MinimalInterval(low, high, unit, tuple((w[0], WormholeLevel(*w)) for w in witnesses))


def distance(space: Space, x: Point, y: Point) -> Fraction:
    """Exact geodesic distance: 2(b-a) - |h(y)-h(x)| over the minimal interval.

    Taken straight from the integers of ``_interval_bounds``, over its unit,
    which both height denominators divide: one ``Fraction``, and no record.
    Equal points need no test of their own: their interval is their height.
    """
    low, high, unit, _ = _interval_bounds(space, x, y)
    return _length(high - low, unit, x, y)


# ---------------------------------------------------------------------------
# level selection for monotone sweeps


def _limit(ms: MSequence, diffs: DifferenceOrders, order: int, h,
           bound) -> Union[Fraction, Interval, None]:
    """Where the jumps through the difference orders past order accumulate.

    The run starts at h and heads towards bound.  At an integer scale the
    limit is h plus or minus the exact sum of 1/D_k over the orders k >
    order; None when that overshoots bound.  Past floor every entry is n
    and the orders repeat with the period P, so there the sum is window /
    (D_floor (n**P - 1)), window being one period of orders read as base-n
    digits.  At any other scale the limit is certified to lie within one
    order-`order` step of h, clipped at bound.
    """
    side = _cmp(bound, h)
    if side == 0:
        # a chain at its ceiling: every later order drops in just below it
        return Fraction(bound)
    num, unit = h.numerator, h.denominator
    if not ms.scale.is_integer:
        den = ms.D(order)
        here, edge = Fraction(num, unit), Fraction(bound)
        far = Fraction(num * den + side * unit, unit * den)
        return Interval(here, min(edge, far)) if side > 0 else Interval(max(edge, far), here)
    n, period = ms.n, diffs.period
    budget.check_tail(n, period)  # before any power of n is formed
    floor = max(order, len(ms.override), diffs.start - 1)
    base = ms.D(floor)
    near = sum(base // ms.D(k) for k in diffs.between(order, floor))
    window, last = 0, floor  # Horner's rule: one base-n digit per order of the window
    for k in diffs.between(floor, floor + period):
        window, last = window * n ** (k - last) + 1, k
    window *= n ** (floor + period - last)
    growth = n ** period - 1
    den = unit * base * growth
    omega = num * base * growth + side * unit * (near * growth + window)
    if side * (omega * bound.denominator - bound.numerator * den) > 0:  # past bound
        return None
    return Fraction(omega, den)


def _sweep_levels(space: Space, lo: Fraction, hi: Fraction, diffs: DifferenceOrders,
                  at_lo: list[WormholeLevel], at_hi: list[WormholeLevel], depth: int):
    """Pick one level inside [lo, hi] per difference order, placed in height order.

    The witnesses at lo and at hi come first and last.  Every other order
    of ``diffs``, ascending, either continues the rising chain with the
    least level at or above its top, if that lies at or below hi, or drops
    in below the top as a straggler, the greatest level at or below it;
    one rounding at the top finds both.  Returns the levels in height order
    and, when the set is infinite, the Tail of their accumulation height,
    cutting after the levels below it; None when the set is finite.
    """
    ms = space.mseq
    anchored = {w.order for w in at_lo + at_hi}
    placed: list[WormholeLevel] = []
    top = lo  # the top of the chain, and the last level placed
    omega: Union[Fraction, Interval, None] = None
    for order in diffs:
        if order in anchored:
            continue
        den, m_k = ms.grid(order)
        below, above = bracket(den, m_k, top.numerator, top.denominator)  # -1 or den + 1: none
        if above * hi.denominator <= hi.numerator * den:
            top = WormholeLevel(order, above, den)
            placed.append(top)
        elif below * lo.denominator >= lo.numerator * den:
            # every placed level has a lower order, and by the nesting property
            # two of them enclose an order-k level: the last under the top lies
            # above every level placed before the top, earlier stragglers too
            placed.insert(len(placed) - 1, WormholeLevel(order, below, den))
        else:
            raise InvariantViolation("minimal interval misses a required order")
        if diffs.is_finite or len(placed) < depth:
            continue
        omega = _limit(ms, diffs, order, top, hi)
        if omega is not None:
            break
        if len(placed) > depth + 512:
            raise InvariantViolation("sweep did not stabilise")  # unreachable
    levels = at_lo + placed + at_hi
    if omega is None:
        return levels, None
    # materialized chain levels sit below an exact limit (reach -1), and at
    # or below the floor of an enclosure (reach 0), as _cmp(w, edge) tells;
    # the levels rise, so those are the first ones
    edge, reach = (omega.lo, 0) if isinstance(omega, Interval) else (omega, -1)
    return levels, Tail(omega, sum(_cmp(w, edge) <= reach for w in levels))


# ---------------------------------------------------------------------------
# path assembly


def _side(h, omega: Union[Fraction, Interval]) -> int:
    """Direction of the run from the height h into the limit omega (0: none)."""
    lo, hi = (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
    lo_gap, hi_gap = _cmp(lo, h), _cmp(hi, h)
    return 1 if lo_gap >= 0 and hi_gap > 0 else -1 if hi_gap <= 0 and lo_gap < 0 else 0


def _walk(moves: list, address: Address, h, levels: list, back: bool = False):
    """Append a run (unless empty) and a jump per level; the last address and height.

    With back, the walk starts at the end and meets the levels in reverse,
    and each move is appended as walked forward: the list reads backwards.
    """
    for level in levels:
        if _cmp(h, level):
            moves.append(Segment(address, level, h) if back else Segment(address, h, level))
        switched = address.switch(level.order)
        moves.append(Jump(level, switched, address) if back else Jump(level, address, switched))
        address, h = switched, level
    return address, h


def _route(start: Point, end: Point, address: Address, end_address: Address, levels: list,
           tail: Optional[Tail] = None, chain_first: bool = True) -> PathRep:
    """The path from start, at address, to end, at end_address, through levels in order.

    A run and a jump reach each level in turn, and a last run the end
    height; with no level and no rise, the path is one empty run.  A tail
    cuts the levels after its ``truncated_at``-th; the moves past it are
    walked back from the end, so they start at end_address with the later
    levels' flips undone.  The chain piles up at the limit before the cut
    if chain_first, after it otherwise; the runs beside the limit follow
    ``Tail``.
    """
    cut = len(levels) if tail is None else tail.truncated_at
    items: list = []
    address, h = _walk(items, address, start.height, levels[:cut])
    if tail is None:
        if _cmp(h, end.height):
            items.append(Segment(address, h, end.height))
        if address != end_address:
            raise InvariantViolation("path ends at the wrong address")
        return PathRep(start, end, tuple(items) or (Segment(address, h, h),))
    omega = tail.omega
    exact = not isinstance(omega, Interval)
    if exact and not chain_first and _cmp(h, omega):
        items.append(Segment(address, h, omega))
    post: list = []
    address, h = _walk(post, end_address, end.height, levels[cut:][::-1], back=True)
    if exact and chain_first and _cmp(omega, h):
        post.append(Segment(address, omega, h))
    post.reverse()
    return PathRep(start, end, tuple(items), tail, tuple(post))


def geodesic_path(space: Space, x: Point, y: Point, depth: int = 8,
                  interval: Optional[MinimalInterval] = None) -> PathRep:
    """A shortest path realizing the minimal interval.

    From the lower endpoint: descend to a, sweep monotonically up to b
    taking one jump per required order, descend to the other endpoint;
    degenerate legs are omitted.  From the upper endpoint the same levels
    are passed the other way.  A witness at a or b beyond the endpoints
    is an anchor, so the sweep's first or last level.  The result makes at
    most two inversions and its length equals the distance exactly
    whenever the limit height is exact (always so for an integer scale).
    ``interval``, if given, is ``minimal_interval(space, x, y)``, found by
    the caller; it is not found again.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if x == y:  # no interval: one empty run
        return _route(x, y, x.address, y.address, [])
    low, high = (x, y) if x.height <= y.height else (y, x)
    if interval is None:
        interval = minimal_interval(space, low, high)
    a, b = interval.a, interval.b
    at_a = [w for _, w in interval.witnesses if a < low.height and _cmp(w, a) == 0]
    at_b = [w for _, w in interval.witnesses if b > high.height and _cmp(w, b) == 0]
    diffs = difference_orders(low.address, high.address)
    levels, tail = _sweep_levels(space, a, b, diffs, at_a, at_b, depth)
    if low is not x:  # walked down from the top: the cut counts from the other end
        levels.reverse()
        if tail is not None:
            tail = Tail(tail.omega, len(levels) - tail.truncated_at)
    return _route(x, y, x.address, y.address, levels, tail, low is x)


# ---------------------------------------------------------------------------
# the constructive connection algorithm


def connect(space: Space, x: Point, y: Point, strategy: str = NEAREST, depth: int = 8) -> PathRep:
    """A (not necessarily shortest) path built by the step-by-step algorithm.

    ``nearest`` jumps, for each differing digit in increasing position,
    through the level of that order closest to the current height (ties go
    up).  ``increasing`` keeps the sweep monotone towards the target height
    whenever a level is available on that side.
    """
    if strategy not in (NEAREST, INCREASING):
        raise ValueError(f"unknown strategy {strategy!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
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
    levels: list = []
    tail: Optional[Tail] = None
    h = x.height
    for count, order in enumerate(diffs, 1):
        if strategy == NEAREST:
            h = nearest(ms, order, h)
        else:  # the side towards the target, or the other when it has no level
            h = snap(ms, order, h, up=upward) or snap(ms, order, h, up=not upward)
        levels.append(h)
        if diffs.is_finite or count < depth:
            continue
        omega = _limit(ms, diffs, order, h, int(rising))
        if omega is None:
            raise InvariantViolation("connect's limit lies outside [0, 1]")
        tail = Tail(omega, count)
        break
    return _route(x, y, start_address, end_address, levels, tail)


# ---------------------------------------------------------------------------
# measurements over paths


def _heights(elements, out: list) -> list:
    """out and the heights the moves pass, less repeats of the last one: they add |h - h| = 0."""
    for element in elements:
        if isinstance(element, Segment):
            if element.start is not out[-1]:
                out.append(element.start)
            out.append(element.end)
        elif element.level is not out[-1]:
            out.append(element.level)
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
    heights = _heights(path.items, [path.start.height])
    cut = len(heights)
    heights += _heights(path.post, [None])[1:]
    heights.append(path.end.height)
    if path.tail is not None:
        omega = path.tail.omega
        heights += (omega.lo, omega.hi) if isinstance(omega, Interval) else (omega, omega)
    dens = {h.denominator for h in heights}
    common = max(dens)  # level denominators D_k divide the deepest one
    common = lcm(common, *[den for den in dens if common % den])
    scaled = [h.numerator * (common // h.denominator) for h in heights]
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
    """Overall monotonicity label plus the per-jump kinds.

    Each vertical move has a direction: a segment's, and for a tail both
    the run into its limit and the run out of it, read off the heights on
    either side.  A jump's kind compares the nearest moves with a direction
    before and after it; one side stands for both, and with neither it is
    upward.
    """
    steps = [m.direction if isinstance(m, Segment) else None for m in path.items]  # None: a jump
    if path.tail is not None:
        last_h = _heights(path.items[-1:], [path.start.height])[-1]
        next_h = (_heights(path.post[:1], [None])[1:] or [path.end.height])[0]
        steps += (_side(last_h, path.tail.omega), -_side(next_h, path.tail.omega))
    steps += (m.direction if isinstance(m, Segment) else None for m in path.post)
    outs, out = [], 0  # the direction after each jump, found from the end
    for step in reversed(steps):
        if step is None:
            outs.append(out)
        else:
            out = step or out
    kinds, into = [], 0
    for step in steps:
        if step is None:
            out = outs.pop()
            before, after = into or out, out or into
            kinds.append(INVERSION if before != after else DOWNWARD if before < 0 else UPWARD)
        else:
            into = step or into
    if {1, -1} <= set(steps):
        label = OSCILLATING
    elif -1 in steps:
        label = MONOTONE_DOWN
    else:
        label = MONOTONE_UP
    return label, tuple(kinds)


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
