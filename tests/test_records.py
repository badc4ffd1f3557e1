"""The twelve immutable records: frozen fields, equality and hashing over fixed fields, reprs, copies.

Each record compares and hashes as the tuple of its compared fields (an
address hashes the four ints it stores instead), equals no plain tuple and
no record of another type, prints the repr recorded below, and survives
``copy.copy``, ``copy.deepcopy`` and a pickle round trip as an equal
record with every slot as stored, without ``__init__`` running again.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from laakso import (Address, Interval, Jump, MinimalInterval, Point, ScaleFactor, Segment, Space,
                    WormholeLevel, difference_orders, minimal_interval)
from laakso.fractal import DifferenceOrders
from laakso.geodesic import PathRep, Tail
from laakso.oracle import ApproxGraph, build
from laakso.record import Record

S3 = Space.from_ratio(3)
A = Address((1, 0), (0, 1))
B = Address((1,), (0,))
LEVEL = WormholeLevel(2, 5, 9)
X = S3.parse_point("10(01)@1/10")
Y = S3.parse_point("(1)@1/2")
HALF = Interval(Fraction(1, 3), Fraction(1, 2))
PATH = PathRep(X, Y, (Segment(A, Fraction(1, 10), LEVEL), Jump(LEVEL, A, A.switch(2))),
               Tail(Fraction(1, 2), 4), (Segment(B, Fraction(1, 2), 1),))
INTERVAL = minimal_interval(S3, X, Y)
GRAPH = build(S3, 1)

#: (record, its compared fields, records that differ from it in one of them)
CASES = [
    (A, ("prefix", "cycle"), [B, Address((1, 0), (1, 0)), Address((0, 0), (0, 1))]),
    (difference_orders(A, B), ("a", "b", "start", "period", "is_finite"), [
        difference_orders(B, A), difference_orders(A, A), DifferenceOrders(A, B, 4, 2, False),
        DifferenceOrders(A, B, 3, 4, False), DifferenceOrders(A, B, 3, 2, True),
    ]),
    (HALF, ("lo", "hi"), [Interval(Fraction(1, 4), Fraction(1, 2)), Interval(Fraction(1, 3), 1)]),
    (ScaleFactor.from_ratio(Fraction(7, 2)), ("power", "root", "dimension"), [
        ScaleFactor(Fraction(4)), ScaleFactor(Fraction(7, 2), 2),
        ScaleFactor(Fraction(7, 2), 1, Fraction(3, 2)),
    ]),
    (ScaleFactor.from_dimension(Fraction(13, 10)), ("power", "root", "dimension"), [
        ScaleFactor(Fraction(1024), 3), ScaleFactor.from_dimension(Fraction(14, 10)),
    ]),
    (X, ("address", "height"), [Y, Point(A, Fraction(1, 9)), Point(B, Fraction(1, 10))]),
    (Tail(Fraction(1, 2), 4), ("omega", "truncated_at"), [Tail(HALF, 4), Tail(Fraction(1, 2), 5)]),
    (Tail(HALF, 7), ("omega", "truncated_at"), [Tail(Interval(Fraction(1, 3), 1), 7)]),
    (PATH, ("start", "end", "items", "tail", "post"), [
        PathRep(Y, Y, PATH.items, PATH.tail, PATH.post),
        PathRep(X, X, PATH.items, PATH.tail, PATH.post),
        PathRep(X, Y, PATH.items[:1], PATH.tail, PATH.post),
        PathRep(X, Y, PATH.items, None, PATH.post),
        PathRep(X, Y, PATH.items, PATH.tail),
    ]),
    (INTERVAL, ("a", "b", "witnesses"), [
        MinimalInterval(INTERVAL.low - 1, INTERVAL.high, INTERVAL.unit, INTERVAL.witnesses),
        MinimalInterval(INTERVAL.low, INTERVAL.high + 1, INTERVAL.unit, INTERVAL.witnesses),
        MinimalInterval(INTERVAL.low, INTERVAL.high, INTERVAL.unit, INTERVAL.witnesses[:1]),
    ]),
    (GRAPH, ("depth", "heights", "orders"), [
        build(S3, 2), build(S3, 1, [Fraction(1, 5)]),
        ApproxGraph(1, GRAPH.heights, (None, 1, None, None)),
    ]),
    (LEVEL, ("order", "numerator"), [WormholeLevel(3, 5, 27), WormholeLevel(2, 4, 9)]),
    (Segment(A, Fraction(1, 10), Fraction(1, 2)), ("address", "start", "end"), [
        Segment(B, Fraction(1, 10), Fraction(1, 2)), Segment(A, Fraction(1, 9), Fraction(1, 2)),
        Segment(A, Fraction(1, 10), 1),
    ]),
    (PATH.post[0], ("address", "start", "end"), [Segment(B, 0, 1), Segment(B, Fraction(1, 2), 0)]),
    (PATH.items[1], ("level", "from_address", "to_address"), [
        Jump(WormholeLevel(2, 4, 9), A, A.switch(2)), Jump(LEVEL, B, A.switch(2)), Jump(LEVEL, A, A),
    ]),
]

#: Other attributes a record holds, which assigning or deleting must refuse too.
DERIVED = {
    WormholeLevel: ("denominator",),
    MinimalInterval: ("low", "high", "unit"),
    ApproxGraph: ("height_index", "scale", "units", "flips", "unflipped"),
}

REPRS = [
    "Address(prefix=(1, 0), cycle=(0, 1))",
    "DifferenceOrders(a=Address(prefix=(1, 0), cycle=(0, 1)), b=Address(prefix=(1,), cycle=(0,)), "
    "start=3, period=2, is_finite=False)",
    "Interval(lo=Fraction(1, 3), hi=Fraction(1, 2))",
    "ScaleFactor(power=Fraction(7, 2), root=1, dimension=None)",
    "ScaleFactor(power=Fraction(1024, 1), root=3, dimension=Fraction(13, 10))",
    "Point(address=Address(prefix=(1, 0), cycle=(0, 1)), height=Fraction(1, 10))",
    "Tail(omega=Fraction(1, 2), truncated_at=4)",
    "Tail(omega=Interval(lo=Fraction(1, 3), hi=Fraction(1, 2)), truncated_at=7)",
    "PathRep(start=Point(address=Address(prefix=(1, 0), cycle=(0, 1)), height=Fraction(1, 10)), "
    "end=Point(address=Address(prefix=(), cycle=(1,)), height=Fraction(1, 2)), "
    "items=(Segment(address=Address(prefix=(1, 0), cycle=(0, 1)), start=Fraction(1, 10), "
    "end=WormholeLevel(order=2, numerator=5)), Jump(level=WormholeLevel(order=2, numerator=5), "
    "from_address=Address(prefix=(1, 0), cycle=(0, 1)), "
    "to_address=Address(prefix=(1, 1), cycle=(0, 1)))), tail=Tail(omega=Fraction(1, 2), "
    "truncated_at=4), post=(Segment(address=Address(prefix=(1,), cycle=(0,)), "
    "start=Fraction(1, 2), end=1),))",
    "MinimalInterval(a=Fraction(1, 10), b=Fraction(1, 2), witnesses=((2, WormholeLevel(order=2, "
    "numerator=1)), (3, WormholeLevel(order=3, numerator=4))))",
    "ApproxGraph(depth=1, heights=(Fraction(0, 1), Fraction(1, 3), Fraction(2, 3), "
    "Fraction(1, 1)), orders=(None, 1, 1, None))",
    "WormholeLevel(order=2, numerator=5)",
    "Segment(address=Address(prefix=(1, 0), cycle=(0, 1)), start=Fraction(1, 10), "
    "end=Fraction(1, 2))",
    "Segment(address=Address(prefix=(1,), cycle=(0,)), start=Fraction(1, 2), end=1)",
    "Jump(level=WormholeLevel(order=2, numerator=5), from_address=Address(prefix=(1, 0), "
    "cycle=(0, 1)), to_address=Address(prefix=(1, 1), cycle=(0, 1)))",
]

RECORDS = [record for record, _, _ in CASES]
IDS = [f"{type(record).__name__}-{i}" for i, record in enumerate(RECORDS)]


def test_all_twelve_records_are_covered():
    assert len({type(record) for record in RECORDS}) == 12
    assert all(isinstance(record, Record) for record in RECORDS)


def test_only_segments_override_the_base():
    # a segment compares its heights by value, whatever type holds them; an
    # address compares and hashes its four stored ints rather than the tuples
    # its fields are read back as
    for kind in {type(record) for record in RECORDS}:
        overridden = {"__eq__", "__hash__", "__ne__", "__repr__", "__reduce__"} & set(vars(kind))
        assert overridden == ({"__eq__", "__hash__"} if kind in (Segment, Address) else set()), kind


@pytest.mark.parametrize("record, compared, _", CASES, ids=IDS)
def test_fields_cannot_be_assigned_deleted_or_added(record, compared, _):
    for name in compared + DERIVED.get(type(record), ()):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None
    with pytest.raises(AttributeError):
        del record.other


@pytest.mark.parametrize("record, compared, others", CASES, ids=IDS)
def test_equality_and_hash_follow_the_compared_fields(record, compared, others):
    values = tuple(getattr(record, name) for name in compared)
    if type(record) is not Address:  # test_an_address_hashes_its_stored_ints
        assert hash(record) == hash(values)
    for other in others:
        assert record != other and not record == other
        assert other != record and not other == record


def test_records_equal_across_what_they_do_not_compare():
    twice = MinimalInterval(2 * INTERVAL.low, 2 * INTERVAL.high, 2 * INTERVAL.unit,
                            INTERVAL.witnesses)
    assert twice == INTERVAL and not twice != INTERVAL and hash(twice) == hash(INTERVAL)
    rebuilt = ApproxGraph(GRAPH.depth, GRAPH.heights, GRAPH.orders)
    assert rebuilt == GRAPH and hash(rebuilt) == hash(GRAPH)
    for twin in (Address((1, 0, 0), (1, 0)), Address((1, 0, 0, 1), (0, 1, 0, 1))):
        assert twin == A and hash(twin) == hash(A)
    assert Interval(1, 2) == Interval(Fraction(1), Fraction(2))


def test_an_address_hashes_its_stored_ints(monkeypatch):
    twins = [Address((1, 0, 0), (1, 0)), Address((1, 0, 0, 1), (0, 1, 0, 1)), A.switch(9).switch(9)]
    point = Point(A, Fraction(1, 10))

    def unread(self):
        raise AssertionError("hashing rebuilt the digit tuples")

    monkeypatch.setattr(Address, "prefix", property(unread))
    monkeypatch.setattr(Address, "cycle", property(unread))
    assert all(twin == A and hash(twin) == hash(A) for twin in twins)
    assert hash(point) == hash(X) and len({A, B, *twins}) == 2


@pytest.mark.parametrize("record, compared, _", CASES, ids=IDS)
def test_a_record_equals_no_plain_tuple_and_no_other_record(record, compared, _):
    plain = tuple(getattr(record, name) for name in compared)
    assert not record == plain and not plain == record
    assert record != plain and plain != record
    for other in RECORDS:
        if type(other) is not type(record):
            assert not record == other and record != other


def test_reprs_are_unchanged():
    assert [repr(record) for record in RECORDS] == REPRS


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(duplicate, record):
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    # every slot comes back as stored, the ones no comparison reads too
    for name in type(record).__slots__:
        assert getattr(twin, name) == getattr(record, name)


def test_copies_and_pickles_do_not_run_init(monkeypatch):
    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__}.__init__ ran")

    for kind in {type(record) for record in RECORDS}:
        monkeypatch.setattr(kind, "__init__", refuse)
    for record in RECORDS:
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
