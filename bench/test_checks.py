"""Each benchmark check passes on a right value and fires on a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
from laakso import Space, classify, connect, distance, geodesic_path, path_length  # noqa: E402
from laakso.geodesic import PathRep, Segment  # noqa: E402


@pytest.fixture(scope="module")
def s3():
    return Space.from_ratio(3)


@pytest.fixture(scope="module")
def worked(s3):
    x = s3.parse_point("(0)@1/5")
    y = s3.parse_point("101(0)@1/10")
    return x, y, distance(s3, x, y)


class TestDistancePair:
    def test_right(self, worked):
        x, y, d = worked
        assert checks.check_distance_pair(x, y, d, d, graph_d=d) == []

    @pytest.mark.parametrize("wrong", [Fraction(1, 20), Fraction(2), Fraction(0)])
    def test_wrong_distance(self, worked, wrong):
        x, y, _ = worked
        assert checks.check_distance_pair(x, y, wrong, wrong)

    def test_nonzero_for_equal_points(self, worked):
        x, _, _ = worked
        assert checks.check_distance_pair(x, x, Fraction(1, 3), Fraction(1, 3))

    def test_asymmetric(self, worked):
        x, y, d = worked
        assert checks.check_distance_pair(x, y, d, d + Fraction(1, 100))

    def test_oracle_disagrees(self, worked):
        x, y, d = worked
        assert checks.check_distance_pair(x, y, d, d, graph_d=d + Fraction(1, 100))


def _paths(space, x, y):
    path = geodesic_path(space, x, y, 32)
    connected = [(p, path_length(p)) for p in
                 (connect(space, x, y, s, 32) for s in ("nearest", "increasing"))]
    return path, path_length(path), connected


class TestPaths:
    def test_right(self, s3, worked):
        x, y, d = worked
        assert checks.check_paths(s3, d, *_paths(s3, x, y)) == []

    def test_infinite_right(self, s3):
        x, y = s3.parse_point("(0)@0"), s3.parse_point("(1)@1")
        path, length, connected = _paths(s3, x, y)
        assert path.tail is not None
        assert checks.check_paths(s3, distance(s3, x, y), path, length, connected) == []

    def test_interval_tail_turns_twice(self):
        # the jump kinds report three inversions here; the moves turn twice
        space = Space.from_ratio(Fraction(7, 2))
        x = space.parse_point("10000000(1)@11/24")
        y = space.parse_point("0111(001)@46/97")
        path, length, connected = _paths(space, x, y)
        assert classify(path)[1].count("inversion") == 3
        assert checks._turns(path) == 2
        assert checks.check_paths(space, distance(space, x, y), path, length, connected) == []

    def test_wrong_length(self, s3, worked):
        x, y, d = worked
        path, length, connected = _paths(s3, x, y)
        assert checks.check_paths(s3, d, path, length + 1, connected)

    def test_connect_shorter_than_distance(self, s3, worked):
        x, y, d = worked
        path, length, connected = _paths(s3, x, y)
        short = [(p, d - Fraction(1, 100)) for p, _ in connected]
        assert checks.check_paths(s3, d, path, length, short)

    def test_broken_chain(self, s3, worked):
        x, y, d = worked
        path, length, connected = _paths(s3, x, y)
        first = path.items[0]
        broken = PathRep(path.start, path.end,
                         (Segment(first.address, first.h_start, first.h_end + Fraction(1, 7)),)
                         + path.items[1:])
        assert checks.check_paths(s3, d, broken, length, connected)

    def test_three_turns(self, s3, worked):
        x, y, d = worked
        path, length, connected = _paths(s3, x, y)
        a = x.address
        zigzag = PathRep(x, x, tuple(Segment(a, h0, h1) for h0, h1 in (
            (x.height, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 10)),
            (Fraction(1, 10), Fraction(3, 5)), (Fraction(3, 5), x.height))))
        assert checks._turns(zigzag) == 3
        assert any("turns" in p for p in checks.check_paths(s3, d, zigzag, length, connected))


def test_oracle():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert checks.check_oracle([(half, half), (third, third)]) == []
    assert checks.check_oracle([(half, half), (half, third)])


class TestCli:
    D = Fraction(11, 30)

    def test_exit_code(self):
        assert checks.check_cli("distance", 1, "", self.D)

    def test_not_json(self):
        assert checks.check_cli("distance", 0, "distance: 11/30", self.D)

    def test_distance(self):
        assert checks.check_cli("distance", 0, json.dumps({"distance": "11/30"}), self.D) == []
        assert checks.check_cli("distance", 0, json.dumps({"distance": "1/3"}), self.D)

    def test_geodesic_segments(self):
        def payload(to):
            path = {"limit": None, "segments": [{"from": "1/5", "to": "1/3"},
                                                {"from": "1/3", "to": to}]}
            return json.dumps({"distance": "11/30", "path": path})
        assert checks.check_cli("geodesic", 0, payload("1/10"), self.D) == []
        assert checks.check_cli("geodesic", 0, payload("1/5"), self.D)

    def test_path_length(self):
        assert checks.check_cli("path", 0, json.dumps({"length": "119/270"}), self.D) == []
        assert checks.check_cli("path", 0, json.dumps({"length": "1/3"}), self.D)
        assert checks.check_cli("path", 0, json.dumps({"length": {"lo": "1/4", "hi": "1/3"}}), self.D)
