import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hypothesis import given, settings, strategies as st

from laakso import InvariantViolation, MSequence, Space, distance, geodesic_path
from laakso.budget import MAX_SCALE_LOG2
from laakso.cli import _json, main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, args, catch_exceptions=False)


def run_child(*args, timeout=120):
    """Run the command line in a child capped at 2 GB; its exit code, stderr and CPU seconds."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run([sys.executable, "-m", "laakso.cli", *args], capture_output=True,
                            text=True, env=env, preexec_fn=cap, timeout=timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    seconds = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return result.returncode, result.stderr, seconds


class TestGlobalOptions:
    def test_exactly_one_space_option(self, runner):
        result = runner.invoke(main, ["space-info"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["-s", "3", "-q", "3/2", "space-info"])
        assert result.exit_code == 2

    def test_infeasible_override_exits_3_citing_index(self, runner):
        result = invoke(runner, "-s", "3", "--m-override", "3,4,4", "space-info")
        assert result.exit_code == 3
        assert "entry 3" in result.output

    def test_broken_invariant_exits_3(self, runner, monkeypatch):
        def broken(*args):
            raise InvariantViolation("a required order had no level on either side")

        monkeypatch.setattr("laakso.geodesic.minimal_interval", broken)
        result = invoke(runner, "-s", "3", "geodesic", "(0)@1/5", "101(0)@1/10")
        assert result.exit_code == 3
        assert "no level on either side" in result.output

    def test_bad_fraction_exits_2(self, runner):
        result = invoke(runner, "-s", "x3", "space-info")
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ("-s", "2", "space-info"),
        ("-q", "5/2", "space-info"),
        ("-s", "3", "wormholes", "--order", "0"),
        ("-s", "3", "space-info", "--entries", "-1"),
        ("-s", "3", "matrix", "--prefix-len", "-1"),
        ("-s", "3", "oracle-check", "--depth", "0"),
        ("-s", "3", "oracle-check", "--depth", "2", "--samples", "0"),
        ("-s", "3", "geodesic", "(0)@0", "(1)@1", "--depth", "0"),
        ("-s", "3", "geodesic", "(0)@0", "(1)@1", "--depth", "-1"),
        ("-s", "3", "path", "(0)@0", "(1)@1", "--depth", "0"),
        ("-s", "3", "path", "(0)@0", "(1)@1", "--depth", "-1"),
        ("-s", "3", "matrix", "--count", "-2"),
        ("-s", "3", "oracle-export", "--depth", "1", "--extra-height", "3/2"),
    ])
    def test_out_of_range_input_exits_2(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 2

    def test_out_of_range_height_names_its_literal(self, runner):
        result = invoke(runner, "-s", "3", "distance", "(0)@1e5000", "(1)@0")
        assert result.exit_code == 2
        assert result.output == "error: height '1e5000' in '(0)@1e5000' outside [0, 1]\n"

    @pytest.mark.parametrize("args, message", [
        (("-s", "1e-5000", "space-info"), "error: scale '1e-5000' must exceed 2\n"),
        (("-q", "1e5000", "space-info"),
         "error: dimension '1e5000' must lie strictly inside (1, 2)\n"),
    ])
    def test_out_of_range_scale_names_its_literal(self, runner, args, message):
        started = time.monotonic()
        result = invoke(runner, *args)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 2
        assert result.output == message

    @pytest.mark.parametrize("q", [
        "1.00000000001",  # s = 2^(10^11)
        str(1 + Fraction(1, MAX_SCALE_LOG2 + 1)),  # s = 2^a, a one past the bound
        str(1 + Fraction(MAX_SCALE_LOG2, MAX_SCALE_LOG2 + 1)),  # s = 2^(a/(a-1)), likewise
    ])
    def test_derived_scale_past_the_bound_exits_3(self, runner, q):
        started = time.monotonic()
        result = invoke(runner, "-q", q, "space-info")
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        assert result.output == (
            f"error: dimension gives s = 2^(a/b) with a over {MAX_SCALE_LOG2}: over the scale budget\n"
        )

    @pytest.mark.parametrize("b", [1, 3, MAX_SCALE_LOG2 - 1])
    def test_derived_scale_at_the_bound_finishes(self, runner, b):
        started = time.monotonic()
        result = invoke(runner, "-q", str(1 + Fraction(b, MAX_SCALE_LOG2)), "space-info")
        assert time.monotonic() - started < 1.0
        assert "scale budget" not in result.output
        # s = 2^(2^14) and D_8 for s = 2^(2^14/3) are too long to print
        assert result.exit_code == (0 if b == MAX_SCALE_LOG2 - 1 else 3)

    @pytest.mark.parametrize("args", [
        ("-s", "11/2", "distance", "(0)@1e-10000000", "(1)@1/2"),  # Fraction alone took 7.9 s
        ("-s", "11/2", "distance", "(0)@1e-20000", "(1)@1/2"),  # decoding took 35 s
        ("-s", "11/2", "distance", "(0)@1e-100000", "(1)@1/2"),  # a MemoryError under 2 GB
        ("-s", "1e1000000", "space-info"),
    ])
    def test_a_huge_exponent_is_refused_before_its_power_is_built(self, args):
        code, stderr, seconds = run_child(*args, timeout=30)
        limit = sys.get_int_max_str_digits()
        assert (code, stderr) == (3, f"error: a literal's power of ten has {4 * limit} bits or more: "
                                     "over the int-to-str limit\n")
        assert seconds < 1.0

    @pytest.mark.parametrize("args", [
        ("-q", "1E+20000", "space-info"),
        ("-s", "3", "wormholes", "--order", "2", "--from", "1e-1_000_000"),
        ("-s", "3", "wormholes", "--order", "2", "--to", "0.5e-20000"),
        ("-s", "3", "oracle-export", "--depth", "1", "--extra-height", " 1e-0020000 "),
        ("-s", "3", "distance", "(0)@1/3", "(1)@2E-20000"),
    ])
    def test_every_literal_checks_its_exponent(self, runner, args):
        started = time.monotonic()
        result = invoke(runner, *args)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        assert result.output.startswith("error: a literal's power of ten")

    @pytest.mark.parametrize("args", [
        ("-s", "3", "distance", "(0)@1e-4400", "(1)@1/2"),
        ("-s", "3", "geodesic", "(0)@1e-4400", "(1)@1/2"),
        ("-s", "3", "path", "(0)@1e-4400", "(1)@1/2"),
        ("-s", "1024", "wormholes", "--order", "1430", "--to", "1e-4304"),
        ("-s", "1024", "matrix", "--count", "2", "--prefix-len", "1500"),
        ("-s", "1e4400", "space-info", "--entries", "1"),
        ("-s", "3", "oracle-export", "--depth", "1", "--extra-height", "1e-4400"),
    ])
    def test_number_past_the_digit_limit_exits_3(self, runner, args):
        started = time.monotonic()
        result = invoke(runner, *args)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        limit = sys.get_int_max_str_digits()
        assert result.output == (
            f"error: a number to print has more than {limit} digits: over the int-to-str limit\n"
        )


class TestErrorBoundary:
    """Every command maps a library error to its exit code and one ``error:`` line."""

    COMMANDS = [
        ("space-info",),
        ("wormholes", "--order", "1"),
        ("distance", "(0)@0", "(1)@1"),
        ("geodesic", "(0)@0", "(1)@1"),
        ("path", "(0)@0", "(1)@1"),
        ("matrix",),
        ("oracle-check", "--depth", "1"),
        ("oracle-export", "--depth", "1"),
    ]

    def test_every_command_is_covered(self):
        assert sorted(args[0] for args in self.COMMANDS) == sorted(main.commands)

    @pytest.mark.parametrize("command", COMMANDS, ids=[args[0] for args in COMMANDS])
    def test_parse_error_exits_2(self, runner, command):
        result = invoke(runner, "-s", "2", *command)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: scale '2' must exceed 2\n"

    @pytest.mark.parametrize("command", COMMANDS, ids=[args[0] for args in COMMANDS])
    def test_infeasible_override_exits_3(self, runner, command):
        result = invoke(runner, "-s", "3", "--m-override", "5", *command)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: entry 1: override entry 5 not in {3, 4}\n"

    def test_bad_override_list_exits_2(self, runner):
        result = invoke(runner, "-s", "3", "--m-override", "3,x", "space-info")
        assert result.exit_code == 2
        assert result.stderr == "error: bad override list '3,x'\n"

    def test_matrix_without_enough_points_exits_2(self, runner):
        result = invoke(runner, "-s", "3", "matrix", "--count", "5", "--prefix-len", "0")
        assert result.exit_code == 2
        assert "cannot sample 5 distinct points with prefix length 0" in result.stderr

    @pytest.mark.parametrize("count, prefix_len", [("2000", "0"), ("1000000", "4")])
    def test_matrix_refuses_a_count_over_its_points_before_sampling(self, runner, count, prefix_len):
        # prefix length L draws from 2**L addresses and D_L + 1 heights
        started = time.monotonic()
        result = invoke(runner, "-s", "3", "matrix", "--count", count, "--prefix-len", prefix_len)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 2
        assert f"cannot sample {count} distinct points with prefix length {prefix_len}" in result.stderr

    def test_matrix_samples_a_count_at_its_bound(self, runner):
        result = invoke(runner, "-s", "3", "matrix", "--count", "2", "--prefix-len", "0")
        assert result.exit_code == 0
        assert sorted(json.loads(result.output)["points"]) == ["(0)@0", "(0)@1"]


class TestSpaceInfo:
    def test_payload(self, runner):
        result = invoke(runner, "-s", "3", "space-info", "--entries", "5")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 3
        assert payload["m"] == [3, 3, 3, 3, 3]
        assert payload["D"] == "243"
        assert payload["dimension"] is None

    def test_product_past_the_digit_limit_exits_3(self, runner):
        started = time.monotonic()
        result = invoke(runner, "-s", "1024", "space-info", "--entries", "1500")
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        assert "D_1500 has more than" in result.output

    @pytest.mark.parametrize("entries", ["9013", "100000", "10" * 40])
    def test_product_is_refused_before_the_sequence_is_built(self, runner, entries):
        # D_k = 3**k at s = 3: 3**9012 has 4300 digits, 3**9013 one more
        started = time.monotonic()
        result = invoke(runner, "-s", "3", "space-info", "--entries", entries)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        limit = sys.get_int_max_str_digits()
        assert result.output == (
            f"error: D_{entries} has more than {limit} digits: over the int-to-str limit\n"
        )

    def test_product_at_the_digit_limit_prints(self, runner):
        result = invoke(runner, "-s", "3", "space-info", "--entries", "9012")
        assert result.exit_code == 0
        assert json.loads(result.output)["D"] == str(3 ** 9012)

    def test_product_below_the_digit_limit_prints(self, runner):
        result = invoke(runner, "-s", "1024", "space-info", "--entries", "1400")
        assert result.exit_code == 0
        assert json.loads(result.output)["D"] == str(2 ** 14000)

    def test_dimension_mode(self, runner):
        result = invoke(runner, "-q", "13/10", "space-info")
        payload = json.loads(result.output)
        assert payload["n"] == 10
        assert payload["dimension"] == "13/10"


class TestWormholes:
    def test_order_two_table(self, runner):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "2")
        assert json.loads(result.output) == ["1/9", "2/9", "4/9", "5/9", "7/9", "8/9"]

    def test_range_restriction(self, runner):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "3", "--from", "1/10", "--to", "1/3")
        assert json.loads(result.output) == ["4/27", "5/27", "7/27", "8/27"]

    def test_order_nine_lists_every_level(self, runner):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "9")
        assert len(result.output.splitlines()) == 13_124  # 13 122 levels and the brackets

    def test_listing_over_budget_exits_3(self, runner):
        started = time.monotonic()
        result = invoke(runner, "-s", "3", "wormholes", "--order", "30")
        assert result.exit_code == 3
        assert "over the listing budget" in result.output
        assert time.monotonic() - started < 1

    @pytest.mark.parametrize("order", ["20000", str(10 ** 12)])
    def test_high_order_exits_3_before_the_sequence_is_built(self, runner, order):
        started = time.monotonic()
        result = invoke(runner, "-s", "7/2", "wormholes", "--order", order)
        assert time.monotonic() - started < 1
        assert result.exit_code == 3
        assert result.output == f"error: more than 200000 order-{order} levels: over the listing budget\n"

    def test_range_with_no_level_lists_none(self, runner):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "1", "--from", "1/10", "--to", "1/5")
        assert result.exit_code == 0 and json.loads(result.output) == []

    def test_single_height_at_high_order_is_decoded(self, runner):
        started = time.monotonic()
        result = invoke(runner, "-s", "7/2", "wormholes", "--order", "20000", "--from", "1/2", "--to", "1/2")
        assert time.monotonic() - started < 1
        assert result.exit_code == 0 and json.loads(result.output) == []

    @pytest.mark.parametrize("lo, hi, expected", [("1/2", "7", ["2/3"]), ("-1/2", "1/2", ["1/3"])])
    def test_bounds_outside_zero_one_are_clamped(self, runner, lo, hi, expected):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "1", "--from", lo, "--to", hi)
        assert result.exit_code == 0 and json.loads(result.output) == expected

    @pytest.mark.parametrize("order, height, expected", [("1", "1/3", ["1/3"]), ("2", "1/3", []),
                                                         ("2", "1/9", ["1/9"]), ("1", "1/9", []),
                                                         ("1", "0", []), ("1", "1", [])])
    def test_single_height(self, runner, order, height, expected):
        result = invoke(runner, "-s", "3", "wormholes", "--order", order, "--from", height, "--to", height)
        assert json.loads(result.output) == expected

    def test_deep_narrow_range_exits_3_within_1_s(self, runner):
        # D_9100 = 3**9100 has more digits than can print; building the
        # sequence to order 9100 must not take the time
        best = float("inf")
        for _ in range(3):
            began = time.process_time()
            result = invoke(runner, "-s", "3", "wormholes", "--order", "9100", "--to", "1e-4340")
            best = min(best, time.process_time() - began)
            assert result.exit_code == 3
        assert best < 1

    def test_narrow_high_order_range_lists(self, runner):
        result = invoke(runner, "-s", "3", "wormholes", "--order", "20", "--to", "1e-8")
        expected = [Fraction(numerator, 3 ** 20) for numerator in range(1, 35) if numerator % 3]
        assert [Fraction(v) for v in json.loads(result.output)] == expected


class TestDistance:
    def test_worked_example(self, runner):
        result = invoke(runner, "-s", "3", "distance", "(0)@1/5", "101(0)@1/10")
        payload = json.loads(result.output)
        assert payload["distance"] == "11/30"
        assert payload["interval"] == {"a": "1/10", "b": "1/3"}

    def test_zero_distance(self, runner):
        result = invoke(runner, "-s", "3", "distance", "0@1/2", "0@1/2")
        payload = json.loads(result.output)
        assert payload["distance"] == "0" and payload["interval"] is None

    def test_geodesic_between_two_literals_of_one_point(self, runner):
        # at s=3, 1/3 is the order-1 level: the two addresses are glued there
        result = invoke(runner, "-s", "3", "geodesic", "(0)@1/3", "1(0)@1/3")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"distance": "0", "interval": None, "path": None}

    def test_bad_point_exits_2_naming_token(self, runner):
        result = invoke(runner, "-s", "3", "distance", "10a(0)@1/2", "(0)@0")
        assert result.exit_code == 2
        assert "10a(0)" in result.output


ONE_INTERVAL_PAIRS = [
    (("-s", "3"), "(0)@1/5", "101(0)@1/10"),  # the worked pair
    (("-s", "3"), "(0)@0", "(1)@1"),  # an exact tail
    (("-q", "13/10"), "(0)@0", "(1)@1"),  # a certified tail
    (("-s", "7/2"), "1(0)@149/729", "001111111110(1)@2/729"),  # a witness anchors the top
    (("-s", "3"), "(0)@13/50", "(1)@13/50"),  # a coarse jump after the tail
    (("-s", "3"), "1(0)@1/3", "0(0)@2/9"),  # one order, from a level
    (("-s", "3"), "(0)@1/5", "(0)@1/2"),  # no order: one vertical run
]


class TestGeodesicAndPath:
    def test_geodesic_payload_and_svg(self, runner, tmp_path):
        svg = tmp_path / "figure.svg"
        result = invoke(
            runner, "-s", "3", "geodesic", "(0)@0", "(1)@1", "--depth", "4", "--svg", str(svg)
        )
        payload = json.loads(result.output)
        assert payload["distance"] == "1"
        assert payload["interval"] == {"a": "0", "b": "1"}
        assert payload["path"]["limit"] == {"omega_bar": "1/2", "truncated_at": 4}
        assert payload["path"]["class"] == "monotone-up"
        assert payload["path"]["segments"][0] == {"address": "(0)", "from": "0", "to": "1/3"}
        assert payload["path"]["segments"][-1] == {"address": "(1)", "from": "1/2", "to": "1"}
        text = svg.read_text()
        assert text.startswith("<svg") and "dasharray" in text

    def test_svg_into_a_missing_directory_exits_2(self, runner, tmp_path):
        target = tmp_path / "missing" / "figure.svg"
        result = invoke(runner, "-s", "3", "geodesic", "(0)@0", "(1)@1", "--svg", str(target))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: cannot write {str(target)!r}: No such file or directory\n"

    @pytest.mark.parametrize("depth", ["4", "8", "32"])
    def test_interval_tail_kinds(self, runner, depth):
        result = invoke(
            runner, "-s", "7/2", "geodesic", "10000000(1)@11/24", "0111(001)@46/97",
            "--depth", depth,
        )
        kinds = [j["kind"] for j in json.loads(result.output)["path"]["jumps"]]
        assert kinds.count("inversion") == 2

    @pytest.mark.parametrize("args, label, kinds", [
        # an interval tail: the run from the limit down to the end is implicit
        (("-s", "7/2", "path", "0111(001)@46/97", "10000000(1)@11/24", "--strategy", "nearest"),
         "oscillating", ["upward"] * 8),
        # walked from its upper end: an explicit segment reaches the exact
        # limit, and the descent out of it is hidden
        (("-s", "3", "geodesic", "00000000(1)@5/9", "0100(01)@37/81", "--depth", "1"),
         "monotone-down", ["downward"]),
    ])
    def test_a_tail_counts_its_run_out_of_the_limit(self, runner, args, label, kinds):
        path = json.loads(invoke(runner, *args).output)["path"]
        assert path["class"] == label
        assert [j["kind"] for j in path["jumps"]] == kinds

    @pytest.mark.parametrize("command, zeros, message", [
        ("geodesic", 199, "over the int-to-str limit"),
        ("geodesic", 1999, "over the budget of"),
        ("path", 1999, "over the budget of"),
    ], ids=["geodesic-200-201", "geodesic-2000-2001", "path-2000-2001"])
    def test_long_cycle_tail_exits_3_within_1_s(self, command, zeros, message):
        # the tail repeats with the lcm of the cycle lengths, 40 200 or
        # 4 002 000 orders: its limit has too many digits to print, or its
        # n**period passes MAX_TAIL_BITS; neither may extend the branching
        # sequence over a period first
        x, y = f"({'0' * zeros}1)@1/3", f"({'0' * (zeros + 1)}1)@1/2"
        best = float("inf")
        for _ in range(3):
            code, stderr, seconds = run_child("-s", "3", command, x, y, "--depth", "2")
            assert code == 3 and message in stderr, stderr
            best = min(best, seconds)
        assert best < 1

    @pytest.mark.parametrize("options", [("--depth", "8"), ("--depth", "32"), ("--svg", "{svg}")],
                             ids=["depth-8", "depth-32", "svg"])
    def test_one_minimal_interval_per_command(self, runner, monkeypatch, tmp_path, options):
        import laakso.geodesic

        found = laakso.geodesic.minimal_interval
        calls = []

        def counted(*args):
            calls.append(args)
            return found(*args)

        monkeypatch.setattr("laakso.geodesic.minimal_interval", counted)
        options = [option.format(svg=tmp_path / "path.svg") for option in options]
        depth = int(options[1]) if options[0] == "--depth" else 8
        for space_args, x, y in ONE_INTERVAL_PAIRS:
            for a, b in ((x, y), (y, x)):
                calls.clear()
                result = invoke(runner, *space_args, "geodesic", a, b, *options)
                assert result.exit_code == 0
                assert len(calls) == 1, (space_args, a, b)
                # the four-argument call finds its own interval, and builds the same path
                flag, value = space_args
                space = (Space.from_ratio if flag == "-s" else Space.from_dimension)(Fraction(value))
                px, py = space.parse_point(a), space.parse_point(b)
                calls.clear()
                path = geodesic_path(space, px, py, depth)
                assert len(calls) == 1
                assert path == geodesic_path(space, px, py, depth, found(space, px, py))

    def test_path_strategies_differ_on_worked_pair(self, runner):
        nearest = json.loads(
            invoke(runner, "-s", "3", "path", "(0)@1/5", "101(0)@1/10").output
        )
        increasing = json.loads(
            invoke(
                runner, "-s", "3", "path", "(0)@1/5", "101(0)@1/10", "--strategy", "increasing"
            ).output
        )
        assert nearest["length"] == "119/270"
        assert increasing["length"] == "11/30"
        assert [j["kind"] for j in nearest["path"]["jumps"]] == ["upward", "inversion"]

    def test_point_literals_round_trip(self, runner):
        payload = json.loads(
            invoke(runner, "-s", "3", "path", "1(0)@1/3", "(1)@8/9").output
        )
        start = payload["path"]["start"]
        rerun = json.loads(invoke(runner, "-s", "3", "distance", start, start).output)
        assert rerun["distance"] == "0"


class TestMatrix:
    def test_symmetric_zero_diagonal_and_deterministic(self, runner):
        first = invoke(runner, "-s", "3", "--seed", "11", "matrix", "--count", "6")
        second = invoke(runner, "-s", "3", "--seed", "11", "matrix", "--count", "6")
        assert first.output == second.output
        payload = json.loads(first.output)
        table = payload["matrix"]
        points = payload["points"]
        assert len(points) == len(set(points)) == 6
        for i in range(6):
            assert table[i][i] == "0"
            for j in range(6):
                assert table[i][j] == table[j][i]

    def test_each_unordered_pair_is_computed_once(self, runner, monkeypatch):
        import laakso.cli

        calls = []

        def counted(space, a, b):
            calls.append((a, b))
            return distance(space, a, b)

        monkeypatch.setattr(laakso.cli, "distance", counted)
        for count in (0, 1, 2, 9):
            calls.clear()
            payload = json.loads(invoke(runner, "-s", "3", "matrix", "--count", str(count)).output)
            assert len(calls) == len(set(calls)) == count * (count - 1) // 2
            assert len(payload["matrix"]) == count

    @pytest.mark.parametrize("option", [("-s", "3"), ("-q", "13/10")], ids="".join)
    def test_table_equals_the_full_table(self, runner, option):
        payload = json.loads(invoke(runner, *option, "matrix", "--count", "24").output)
        space = Space.from_ratio(3) if option[0] == "-s" else Space.from_dimension(Fraction(13, 10))
        points = [space.parse_point(text) for text in payload["points"]]
        assert payload["matrix"] == [[str(distance(space, a, b)) for b in points] for a in points]

    def test_no_points_build_no_grid(self, runner, monkeypatch):
        def no_entries(self):
            raise AssertionError("the sequence was extended")

        monkeypatch.setattr(MSequence, "_extend", no_entries)
        result = invoke(runner, "-s", "3", "matrix", "--count", "0", "--prefix-len", "20000")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"points": [], "matrix": []}

    @pytest.mark.parametrize("prefix_len", ["9013", "20000"])
    def test_grid_too_long_to_print_is_refused_before_it_is_built(self, runner, prefix_len):
        # the heights are j / D_L with D_L = 3**L at s = 3: 3**9012 has 4300 digits
        started = time.monotonic()
        result = invoke(runner, "-s", "3", "matrix", "--count", "1", "--prefix-len", prefix_len)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        limit = sys.get_int_max_str_digits()
        assert result.stderr == (
            f"error: a number to print has more than {limit} digits: over the int-to-str limit\n"
        )

    def test_matrix_literals_reparse(self, runner):
        payload = json.loads(invoke(runner, "-s", "3", "matrix", "--count", "4").output)
        for text in payload["points"]:
            check = json.loads(invoke(runner, "-s", "3", "distance", text, text).output)
            assert check["distance"] == "0"


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestJsonEmitter:
    """``_json`` prints what ``json.dumps(..., indent=2)`` prints, byte for byte."""

    COMMANDS = [
        ("-s", "3", "space-info"),
        ("-q", "13/10", "space-info", "--entries", "0"),
        ("-s", "3", "wormholes", "--order", "1", "--from", "1/10", "--to", "1/5"),  # []
        ("-s", "3", "wormholes", "--order", "2"),
        ("-s", "3", "matrix", "--count", "0"),
        ("-s", "3", "matrix", "--count", "3"),
        ("-s", "3", "oracle-check", "--depth", "1", "--samples", "3"),
        ("-s", "3", "distance", "(0)@1/5", "101(0)@1/10"),
        ("-s", "3", "distance", "(0)@1/5", "(0)@1/5"),
        ("-s", "3", "geodesic", "(0)@1/5", "(0)@1/5"),  # "path": null
        ("-s", "3", "geodesic", "(0)@1/5", "101(0)@1/10"),
        ("-q", "13/10", "geodesic", "(0)@0", "(1)@1"),  # an omega_bar enclosure
        ("-s", "7/2", "path", "0111(001)@46/97", "10000000(1)@11/24"),
        ("-s", "3", "path", "(0)@0", "(1)@1", "--strategy", "increasing"),
    ]

    def test_every_command_is_covered(self):
        covered = {args[2] for args in self.COMMANDS} | {"oracle-export"}  # edge lines, no JSON
        assert covered == set(main.commands)

    @pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
    def test_command_payloads(self, runner, monkeypatch, args):
        import laakso.cli

        payloads = []
        emit = laakso.cli._emit

        def recorded(payload):
            payloads.append(payload)
            emit(payload)

        monkeypatch.setattr(laakso.cli, "_emit", recorded)
        result = invoke(runner, *args)
        assert result.exit_code == 0
        [payload] = payloads
        assert result.output == json.dumps(payload, indent=2) + "\n"
        assert _json(payload) == json.dumps(payload, indent=2)

    def test_payload_shapes(self, runner):
        """The cases above reach null, empty and nested lists, ints and an enclosure."""
        outputs = {" ".join(args): json.loads(invoke(runner, *args).output) for args in self.COMMANDS}
        assert outputs["-s 3 space-info"]["dimension"] is None
        assert outputs["-s 3 wormholes --order 1 --from 1/10 --to 1/5"] == []
        assert outputs["-s 3 matrix --count 0"] == {"points": [], "matrix": []}
        assert len(outputs["-s 3 matrix --count 3"]["matrix"]) == 3
        assert outputs["-s 3 oracle-check --depth 1 --samples 3"]["depth"] == 1
        assert outputs["-s 3 geodesic (0)@1/5 (0)@1/5"]["path"] is None
        assert set(outputs["-q 13/10 geodesic (0)@0 (1)@1"]["path"]["limit"]["omega_bar"]) == {"lo", "hi"}

    @settings(max_examples=150, deadline=None)
    @given(JSON_TREES)
    def test_any_tree(self, tree):
        assert _json(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("leaf", [Fraction(1, 2), 0.5, Fraction(2)], ids=repr)
    def test_a_number_that_is_no_int_raises(self, leaf):
        for payload in (leaf, [leaf], {"height": leaf}, {"path": {"jumps": [leaf]}}):
            with pytest.raises(TypeError):
                _json(payload)


class TestImports:
    @pytest.mark.parametrize("args, loaded", [
        (("distance", "(0)@1/5", "101(0)@1/10"), []),
        (("geodesic", "(0)@1/5", "101(0)@1/10", "--svg", "{svg}"), ["laakso.render"]),
        (("oracle-check", "--depth", "1", "--samples", "2"), ["laakso.oracle"]),
    ], ids=["distance", "geodesic-svg", "oracle-check"])
    def test_a_command_imports_only_what_it_uses(self, tmp_path, args, loaded):
        args = [a.format(svg=tmp_path / "path.svg") for a in ("-s", "3", *args)]
        probe = ("import sys\nfrom laakso.cli import main\n"
                 f"main({args!r}, standalone_mode=False)\n"
                 "print(*sorted(m for m in sys.modules if m in ('laakso.oracle', 'laakso.render')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1].split() == loaded


class TestOracleCommands:
    def test_check_reports_zero(self, runner):
        result = invoke(runner, "-s", "3", "oracle-check", "--depth", "2", "--samples", "30")
        payload = json.loads(result.output)
        assert payload["max_discrepancy"] == "0"
        assert payload["samples"] == 30
        assert result.exit_code == 0

    def test_check_over_vertex_budget_exits_3(self, runner):
        result = invoke(runner, "-s", "3", "oracle-check", "--depth", "12")
        assert result.exit_code == 3
        assert "budget of 1000000" in result.output

    @pytest.mark.parametrize("depth", ["20", "3000", "20000"])
    @pytest.mark.parametrize("command", ["oracle-check", "oracle-export"])
    def test_deep_graph_is_refused_before_the_sequence_is_built(self, runner, command, depth):
        started = time.monotonic()
        result = invoke(runner, "-s", "3", command, "--depth", depth)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: the graph has more vertices than the budget of 1000000\n"

    def test_export_edgelist(self, runner):
        result = invoke(runner, "-s", "3", "oracle-export", "--depth", "1")
        lines = result.output.strip().splitlines()
        assert "0:1/3 1:1/3 0" in lines
        assert "0:0 0:1/3 1/3" in lines
        # 2 columns x 3 vertical edges + 2 zero-weight identifications
        assert len(lines) == 8

    def test_export_with_extras(self, runner):
        result = invoke(
            runner, "-s", "3", "oracle-export", "--depth", "1", "--extra-height", "1/5"
        )
        assert "0:0 0:1/5 1/5" in result.output
