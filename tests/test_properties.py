"""Properties of the closed-form metric over randomly drawn spaces.

Each example draws a space (a rational scale in (2, 6], or a dimension in
[11/10, 19/10], with a valid branching override prefix) and points on it,
then checks that its first 100 branching entries keep the sandwich bound,
the metric axioms, that the geodesic's length is the distance,
that constructive paths are no shorter, that reversal changes nothing, and
that two literals of the same point parse to the same canonical point.
On four fixed spaces it also checks that path lengths and segment
directions, computed by integer cross-multiplication, agree with Fraction
arithmetic, and that a path's segments are non-empty and alternate with
its jumps.  Two seeded checks on fixed spaces cover ``classify``: a path's
label agrees with the way its end lies from its start, and a geodesic
walked the other way reads its label and kinds in reverse.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import random_point, sandwich_holds, stepwise_length
from laakso import (
    Address,
    InfeasibleSequence,
    Interval,
    Segment,
    Space,
    classify,
    classify_height,
    connect,
    distance,
    geodesic_path,
    path_length,
)

PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def spaces(draw) -> Space:
    if draw(st.booleans()):
        build, value = Space.from_ratio, draw(
            st.fractions(2, 6, max_denominator=4).filter(lambda s: s > 2))
    else:
        build, value = Space.from_dimension, draw(
            st.fractions(Fraction(11, 10), Fraction(19, 10), max_denominator=10))
    n = build(value).n
    override = tuple(n + bit for bit in draw(st.lists(st.integers(0, 1), max_size=4)))
    try:
        return build(value, override)
    except InfeasibleSequence as exc:  # keep the valid part of the prefix
        return build(value, override[:exc.index - 1])


@PROPERTY
@given(space=spaces())
def test_entries_keep_the_sandwich_bound(space):
    # the greedy rule checks only the entry it chose; this checks the bound
    # independently, on the override prefix and the greedy entries after it
    assert all(sandwich_holds(space.mseq, i) for i in range(1, 101))


@st.composite
def addresses(draw) -> Address:
    prefix = draw(st.lists(st.integers(0, 1), max_size=5))
    cycle = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    return Address(tuple(prefix), tuple(cycle))


def heights(space: Space):
    """Heights on the grids of orders 1-3 (levels among them) and off them."""
    dens = [space.mseq.D(k) for k in (1, 2, 3)] + [7, 10]
    return st.sampled_from(dens).flatmap(
        lambda den: st.integers(0, den).map(lambda num: Fraction(num, den)))


def points(space: Space):
    return st.builds(space.point, addresses(), heights(space))


@PROPERTY
@given(data=st.data())
def test_metric_axioms(data):
    space = data.draw(spaces())
    x, y, z = (data.draw(points(space)) for _ in range(3))
    dxy, dyz, dxz = distance(space, x, y), distance(space, y, z), distance(space, x, z)
    assert distance(space, x, x) == 0
    assert (dxy > 0) == (x != y)
    assert dxy == distance(space, y, x)
    assert dxz <= dxy + dyz


@PROPERTY
@given(data=st.data())
def test_geodesic_length_is_the_distance_and_paths_are_no_shorter(data):
    space = data.draw(spaces())
    x, y = data.draw(points(space)), data.draw(points(space))
    d = distance(space, x, y)
    length = path_length(geodesic_path(space, x, y, 8))
    assert length.lo <= d <= length.hi if isinstance(length, Interval) else length == d
    for strategy in ("nearest", "increasing"):
        length = path_length(connect(space, x, y, strategy, 8))
        assert (length.hi if isinstance(length, Interval) else length) >= d


@PROPERTY
@given(data=st.data())
def test_reversal_changes_neither_distance_nor_geodesic_length(data):
    space = data.draw(spaces())
    x, y = data.draw(points(space)), data.draw(points(space))
    forward, backward = geodesic_path(space, x, y, 8), geodesic_path(space, y, x, 8)
    assert distance(space, x, y) == distance(space, y, x)
    assert path_length(forward) == path_length(backward)


@PROPERTY
@given(data=st.data())
def test_literals_of_one_point_parse_to_one_canonical_point(data):
    space = data.draw(spaces())
    a, h = data.draw(addresses()), data.draw(heights(space))
    prefix, cycle = "".join(map(str, a.prefix)), "".join(map(str, a.cycle))
    # the same digit string spelled with an unrolled, rotated, doubled cycle,
    # and the same height with its fraction unreduced
    turn = data.draw(st.integers(0, len(cycle) - 1))
    unrolled = prefix + cycle + cycle[:turn] + "(" + (cycle[turn:] + cycle[:turn]) * 2 + ")"
    scale = data.draw(st.integers(2, 5))
    unreduced = f"{h.numerator * scale}/{h.denominator * scale}"
    first = space.parse_point(f"{prefix}({cycle})@{h}")
    second = space.parse_point(f"{unrolled}@{unreduced}")
    assert first == second and first.address == second.address
    level = classify_height(space.mseq, h)
    if level is not None:  # the two addresses glued at this height
        assert space.point(a.switch(level.order), h) == first


#: Integer, non-integer rational and irrational scales, and an override.
FIXED_SPACES = (Space.from_ratio(3), Space.from_ratio(Fraction(7, 2)),
                Space.from_dimension(Fraction(13, 10)), Space.from_ratio(3, (4, 3, 3)))


@PROPERTY
@given(data=st.data())
def test_integer_lengths_and_directions_match_fraction_arithmetic(data):
    space = data.draw(st.sampled_from(FIXED_SPACES))
    x = data.draw(points(space))
    if data.draw(st.booleans()):  # the same tail behind another prefix: finitely many orders
        prefix = data.draw(st.lists(st.integers(0, 1), min_size=len(x.address.prefix),
                                    max_size=len(x.address.prefix)))
        y = space.point(Address(tuple(prefix), x.address.cycle), data.draw(heights(space)))
    else:
        y = data.draw(points(space))
    depth = data.draw(st.integers(1, 8))
    for path in (geodesic_path(space, x, y, depth), connect(space, x, y, "nearest", depth),
                 connect(space, x, y, "increasing", depth)):
        assert path_length(path) == stepwise_length(path)
        for segment in path.segments():
            ends = segment.h_start, segment.h_end
            assert segment.direction == (ends[1] > ends[0]) - (ends[1] < ends[0])
            # no empty segment, except the one of the path from a point to itself
            assert segment.direction or x == y
        for moves in (path.items, path.post):  # segments and jumps alternate
            assert not any(isinstance(a, Segment) and isinstance(b, Segment)
                           for a, b in zip(moves, moves[1:]))


def _seeded_pairs(space: Space, seed: int, count: int):
    """Up to count seeded pairs of distinct points, heights on the order-3 grid or in 81sts."""
    rng = random.Random(seed)
    for _ in range(count):
        den = rng.choice((81, space.mseq.D(3)))
        x, y = (random_point(space, rng, height_denominator=den) for _ in range(2))
        if x != y:
            yield x, y


def test_a_path_is_never_labelled_against_the_way_its_end_lies():
    # a tail hides two runs, into its limit and out of it; both count
    for space in FIXED_SPACES:
        for x, y in _seeded_pairs(space, 7, 200):
            for depth in (1, 8):
                for path in (geodesic_path(space, x, y, depth),
                             connect(space, x, y, "nearest", depth),
                             connect(space, x, y, "increasing", depth)):
                    label, _ = classify(path)
                    if y.height < x.height:
                        assert label != "monotone-up", (str(x), str(y), depth)
                    if y.height > x.height:
                        assert label != "monotone-down", (str(x), str(y), depth)


SWAPPED = {"upward": "downward", "downward": "upward", "inversion": "inversion",
           "monotone-up": "monotone-down", "monotone-down": "monotone-up",
           "oscillating": "oscillating"}


def test_a_geodesic_walked_back_reads_its_kinds_in_reverse():
    # with equal heights each orientation sweeps upward, so they are left out
    space = FIXED_SPACES[0]
    for x, y in _seeded_pairs(space, 11, 300):
        if x.height == y.height:
            continue
        for depth in (1, 2, 8):
            label, kinds = classify(geodesic_path(space, x, y, depth))
            back = classify(geodesic_path(space, y, x, depth))
            assert back == (SWAPPED[label], tuple(SWAPPED[k] for k in reversed(kinds))), \
                (str(x), str(y), depth)
