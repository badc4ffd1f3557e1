"""Byte-for-byte pins of the JSON the CLI emits, one sha256 per case.

Named cases run through the CLI in both argument orders.  Random cases draw
seeded pairs on three spaces and on two spaces with a branching override,
and hash the distance payload, the depth-8 geodesic and both connect
strategies, serialised as the CLI serialises them.  Run this file as a
script to record ``golden_sha256.txt`` again after an intended change of
output.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from conftest import random_point
from laakso import Space, connect, distance, geodesic_path, minimal_interval, path_length
from laakso.cli import _path_json, _value_json, main

DATA = Path(__file__).with_name("golden_sha256.txt")

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


def _recorded() -> dict:
    lines = DATA.read_text().splitlines()
    return {case: digest for digest, case in (line.split("  ", 1) for line in lines)}


def test_outputs_match_recorded():
    recorded = _recorded()
    computed = dict([*_cli_cases(), *_random_cases()])
    differ = [case for case, digest in computed.items() if recorded.get(case) != digest]
    assert not differ, f"{len(differ)} cases differ, first: " + "; ".join(differ[:5])
    assert set(recorded) == set(computed), "recorded cases no longer generated"


if __name__ == "__main__":
    cases = [*_cli_cases(), *_random_cases()]
    DATA.write_text("".join(f"{digest}  {case}\n" for case, digest in cases))
    print(f"recorded {len(cases)} cases in {DATA}")
