"""Byte-for-byte pins of the JSON the CLI emits, one sha256 per case.

Named cases run through the CLI in both argument orders.  Random cases draw
seeded pairs on three spaces and on two spaces with a branching override,
and hash the distance payload, the depth-8 geodesic and both connect
strategies, serialised as the CLI serialises them.  Tail cases do the same
for pairs with cycles up to 24 digits, half of them sharing an infinite
tail behind different prefixes so that they differ at finitely many orders.  Deep cases do the
same at depth 32 for pairs with short cycles and shallow heights, three in
four of them differing at infinitely many orders, so that jumps reach orders
near 400.  Sequence cases hash the
printed scale, n and the first 200 branching entries of seeded scales and
dimensions.  Run this file as a script to record ``golden_sha256.txt`` and
``golden_sequences_sha256.txt`` again after an intended change of output;
it prints the names of the cases whose digest changed.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from conftest import random_address, random_point
from laakso import (Address, Space, connect, difference_orders, distance, geodesic_path,
                    minimal_interval, path_length)
from laakso.cli import _path_json, _value_json, main

DATA = Path(__file__).with_name("golden_sha256.txt")
SEQUENCE_DATA = Path(__file__).with_name("golden_sequences_sha256.txt")
SEQUENCE_ENTRIES = 200

NAMED_PAIRS = [
    (("-s", "3"), "(0)@1/5", "101(0)@1/10"),  # the worked pair
    (("-s", "3"), "(0)@0", "(1)@1"),  # corner pair
    (("-q", "13/10"), "(0)@0", "(1)@1"),  # corner pair, certified tail
    (("-s", "7/2"), "1(0)@149/729", "001111111110(1)@2/729"),  # anchored top
    (("-s", "3"), "(0)@13/50", "(1)@13/50"),  # coarse jump after the tail
    (("-s", "7/2"), "10000000(1)@11/24", "0111(001)@46/97"),  # rising into an interval
]
COMMANDS = [
    ("distance",),
    ("geodesic", "--depth", "8"),
    ("geodesic", "--depth", "32"),
    ("path", "--strategy", "nearest"),
    ("path", "--strategy", "increasing"),
]
RANDOM_SPACES = [  # flag, value, branching override, pairs, path depths
    ("-s", "3", "", 200, (8,)),
    ("-s", "7/2", "", 200, (8,)),
    ("-q", "13/10", "", 200, (8,)),
    # overrides; a tail cut at depth 1 starts inside the override, where the
    # exact tail sum adds term by term (with 3,3,4 a geometric series from
    # order 1 or 2 would be wrong)
    ("-s", "3", "4,3,3", 100, (8, 1)),
    ("-s", "5", "6,5", 100, (8, 1)),
    ("-s", "3", "3,3,4", 100, (8, 1)),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_cases():
    runner = CliRunner()
    for space_args, x, y in NAMED_PAIRS:
        for a, b in ((x, y), (y, x)):
            for command in COMMANDS:
                args = [*space_args, command[0], a, b, *command[1:]]
                result = runner.invoke(main, args, catch_exceptions=False)
                assert result.exit_code == 0, " ".join(args)
                yield " ".join(args), _digest(result.output)


def _pair_json(space: Space, x, y, depths=(8,)) -> str:
    interval = minimal_interval(space, x, y)
    payloads = [
        {
            "distance": str(distance(space, x, y)),
            "interval": {"a": str(interval.a), "b": str(interval.b)},
        },
    ]
    for depth in depths:
        payloads.append(_path_json(geodesic_path(space, x, y, depth)))
        for strategy in ("nearest", "increasing"):
            path = connect(space, x, y, strategy, depth)
            payloads.append({"length": _value_json(path_length(path)), "path": _path_json(path)})
    return json.dumps(payloads, indent=2)


def _random_cases():
    for seed, (flag, value, override, pairs, depths) in enumerate(RANDOM_SPACES):
        build = Space.from_ratio if flag == "-s" else Space.from_dimension
        space = build(Fraction(value), tuple(int(m) for m in override.split(",") if m))
        label = f"{flag} {value}" + (f" --m-override {override}" if override else "")
        at = "" if depths == (8,) else " at depths " + ",".join(map(str, depths))
        rng = random.Random(9000 + seed)
        denominators = (81, space.mseq.D(3))
        for index in range(pairs):
            x = y = None
            while x == y:
                x, y = (random_point(space, rng, height_denominator=rng.choice(denominators))
                        for _ in range(2))
            case = f"{label} pair {index}: distance, geodesic, path x2{at} {x} {y}"
            yield case, _digest(_pair_json(space, x, y, depths))

TAIL_SPACES = [("-s", "3"), ("-s", "7/2")]
TAIL_PAIRS = 50  # per space; the odd ones share a tail


def _tail_address(rng: random.Random, a: Address) -> Address:
    """a's infinite tail behind a random prefix, its cycle rotated to line up."""
    prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
    turn = (len(prefix) - len(a.prefix)) % len(a.cycle)
    return Address(prefix, a.cycle[turn:] + a.cycle[:turn])


def _tail_cases():
    for seed, (flag, value) in enumerate(TAIL_SPACES):
        space = Space.from_ratio(Fraction(value))
        rng = random.Random(9100 + seed)
        denominators = (81, space.mseq.D(3))
        for index in range(TAIL_PAIRS):
            x = y = None
            while x == y:
                a = random_address(rng, max_prefix=8, max_cycle=24)
                b = _tail_address(rng, a) if index % 2 else random_address(rng, 8, 24)
                x, y = (space.point(address, Fraction(rng.randint(0, den), den))
                        for address, den in ((a, rng.choice(denominators)),
                                             (b, rng.choice(denominators))))
            case = f"{flag} {value} tail pair {index}: distance, geodesic, path x2 {x} {y}"
            yield case, _digest(_pair_json(space, x, y))


DEEP_SPACES = [("-s", "3"), ("-s", "7/2"), ("-q", "13/10")]
DEEP_PAIRS = 60  # per space; one in four differs at finitely many orders
DEEP_DEPTH = 32


def _shallow_height(rng: random.Random, space: Space) -> Fraction:
    """A grid height of order at most 6, or one that is no level (j/97)."""
    den = space.mseq.D(rng.randint(1, 6)) if rng.getrandbits(1) else 97
    return Fraction(rng.randint(0, den), den)


def _deep_cases():
    for seed, (flag, value) in enumerate(DEEP_SPACES):
        build = Space.from_ratio if flag == "-s" else Space.from_dimension
        space = build(Fraction(value))
        rng = random.Random(9200 + seed)
        for index in range(DEEP_PAIRS):
            finite = index % 4 == 3
            while True:
                a, b = random_address(rng, 8, 4), random_address(rng, 8, 4)
                if finite:
                    b = Address(b.prefix, a.cycle)
                x, y = (space.point(address, _shallow_height(rng, space)) for address in (a, b))
                if x != y and difference_orders(x.address, y.address).is_finite == finite:
                    break
            case = (f"{flag} {value} deep pair {index}: distance, geodesic, path x2 "
                    f"at depth {DEEP_DEPTH} {x} {y}")
            yield case, _digest(_pair_json(space, x, y, (DEEP_DEPTH,)))


def _sequence_spaces():
    """Rational scales in (2, 9], dimensions in (1, 2) and two overrides."""
    rng = random.Random(8100)
    scales = set()
    dimensions = {Fraction(3, 2), Fraction(5, 4), Fraction(13, 10)}  # s = 4, 16, 2^(10/3)
    while len(scales) < 30:
        den = rng.randint(1, 12)
        scales.add(Fraction(rng.randint(2 * den + 1, 9 * den), den))
    while len(dimensions) < 19:  # the random ones give an irrational scale
        den = rng.randint(2, 20)
        q = Fraction(rng.randint(den + 1, 2 * den - 1), den)
        if (q - 1).numerator != 1:
            dimensions.add(q)
    yield from (("-s", s, "") for s in sorted(scales))
    yield from (("-q", q, "") for q in sorted(dimensions))
    yield "-s", Fraction(3), "4,3,3"
    yield "-s", Fraction(5), "6,5"


def _sequence_cases():
    for flag, value, override in _sequence_spaces():
        build = Space.from_ratio if flag == "-s" else Space.from_dimension
        space = build(value, tuple(int(m) for m in override.split(",") if m))
        label = f"{flag} {value}" + (f" --m-override {override}" if override else "")
        entries = ",".join(str(space.mseq.entry(i)) for i in range(1, SEQUENCE_ENTRIES + 1))
        text = f"scale {space.scale}\nn {space.n}\nm {entries}\n"
        yield f"{label} sequence m_1..m_{SEQUENCE_ENTRIES}", _digest(text)


def _recorded(data: Path = DATA) -> dict:
    lines = data.read_text().splitlines()
    return {case: digest for digest, case in (line.split("  ", 1) for line in lines)}


def test_sequences_match_recorded():
    recorded = _recorded(SEQUENCE_DATA)
    computed = dict(_sequence_cases())
    differ = [case for case, digest in computed.items() if recorded.get(case) != digest]
    assert not differ, f"{len(differ)} sequences differ, first: " + "; ".join(differ[:5])
    assert set(recorded) == set(computed), "recorded sequences no longer generated"


def test_outputs_match_recorded():
    recorded = _recorded()
    computed = dict([*_cli_cases(), *_random_cases(), *_tail_cases(), *_deep_cases()])
    differ = [case for case, digest in computed.items() if recorded.get(case) != digest]
    assert not differ, f"{len(differ)} cases differ, first: " + "; ".join(differ[:5])
    assert set(recorded) == set(computed), "recorded cases no longer generated"


if __name__ == "__main__":
    for data, cases in ((DATA, [*_cli_cases(), *_random_cases(), *_tail_cases(), *_deep_cases()]),
                        (SEQUENCE_DATA, list(_sequence_cases()))):
        recorded = _recorded(data)
        differ = [case for case, digest in cases if recorded.get(case) != digest]
        data.write_text("".join(f"{digest}  {case}\n" for case, digest in cases))
        print(f"recorded {len(cases)} cases in {data}, {len(differ)} of them changed:")
        print("".join(f"  {case}\n" for case in differ), end="")
