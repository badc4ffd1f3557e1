import json
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from laakso import InvariantViolation
from laakso.cli import main
from laakso.numeric import MAX_SCALE_LOG2


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, args, catch_exceptions=False)


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

    def test_single_height_at_high_order_is_decoded(self, runner):
        started = time.monotonic()
        result = invoke(runner, "-s", "7/2", "wormholes", "--order", "20000", "--from", "1/2", "--to", "1/2")
        assert time.monotonic() - started < 1
        assert result.exit_code == 0 and json.loads(result.output) == []

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

    def test_bad_point_exits_2_naming_token(self, runner):
        result = invoke(runner, "-s", "3", "distance", "10a(0)@1/2", "(0)@0")
        assert result.exit_code == 2
        assert "10a(0)" in result.output


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

    def test_matrix_literals_reparse(self, runner):
        payload = json.loads(invoke(runner, "-s", "3", "matrix", "--count", "4").output)
        for text in payload["points"]:
            check = json.loads(invoke(runner, "-s", "3", "distance", text, text).output)
            assert check["distance"] == "0"


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
