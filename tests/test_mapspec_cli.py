"""Map-spec ingestion, the command-line surface, and the on-disk cache."""

import argparse
import hashlib
import json
import os
import time

import pytest

from patlab import (
    ParseError,
    __version__,
    UnknownMap,
    ValidationError,
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    load_map_spec,
    serialize,
    tent,
)
from patlab.cli import build_parser, run

SHORTHANDS = [
    "tent",
    "sawtooth:2",
    "sawtooth:3",
    "alt_sawtooth:9",
    "logistic:3.5",
    "logistic:4",
    "one_minus_x_squared",
]


CANONICAL = {
    "tent": '{"type":"tent"}',
    "sawtooth:2": '{"N":2,"type":"sawtooth"}',
    "sawtooth:3": '{"N":3,"type":"sawtooth"}',
    "alt_sawtooth:9": '{"N":9,"type":"alt_sawtooth"}',
    "logistic:3.5": '{"r":3.5,"type":"logistic"}',
    "logistic:4": '{"r":4.0,"type":"logistic"}',
    "one_minus_x_squared": '{"type":"one_minus_x_squared"}',
    "logistic:04": '{"r":4.0,"type":"logistic"}',
    "sawtooth:03": '{"N":3,"type":"sawtooth"}',
}


class TestLoadMapSpec:
    @pytest.mark.parametrize("text", SHORTHANDS)
    def test_round_trip(self, text):
        lm = load_map_spec(text)
        assert load_map_spec(serialize(lm)) == lm

    @pytest.mark.parametrize("text", sorted(CANONICAL))
    def test_canonical_spec(self, text):
        # the canonical spec keys the cache, so every spelling must keep it
        assert serialize(load_map_spec(text)) == CANONICAL[text]

    def test_exact_flags(self):
        assert load_map_spec("tent").exact
        assert load_map_spec("sawtooth:3").exact
        assert not load_map_spec("logistic:3.5").exact
        assert not load_map_spec("one_minus_x_squared").exact

    def test_logistic4_gets_exact_engine(self):
        lm = load_map_spec("logistic:4")
        assert lm.exact and lm.pwl == tent()
        assert "order-isomorphism" in lm.note
        # sampling still uses the genuine smooth formula: 4 * 0.25 * 0.75,
        # where tent gives 0.5
        assert lm.numeric()(0.25) == 0.75

    def test_inline_pwl_json(self):
        text = json.dumps(
            {
                "type": "pwl",
                "pieces": [
                    {"lo": "0", "hi": "1/2", "slope": "2", "intercept": "0"},
                    {"lo": "1/2", "hi": "1", "slope": "-2", "intercept": "2"},
                ],
            }
        )
        lm = load_map_spec(text)
        assert lm.pwl == tent()
        assert load_map_spec(serialize(lm)) == lm

    def test_file_path(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"type": "sawtooth", "N": 2}))
        assert load_map_spec(str(path)).label == "sawtooth:2"

    def test_gap_reported(self):
        bad = {
            "type": "pwl",
            "pieces": [
                {"lo": "0", "hi": "1/4", "slope": "2", "intercept": "0"},
                {"lo": "1/2", "hi": "1", "slope": "-2", "intercept": "2"},
            ],
        }
        with pytest.raises(ValidationError, match="gap"):
            load_map_spec(json.dumps(bad))

    def test_float_fields_rejected(self):
        bad = {
            "type": "pwl",
            "pieces": [{"lo": 0.1, "hi": "1", "slope": "1", "intercept": "0"}],
        }
        with pytest.raises(ParseError, match="rational string"):
            load_map_spec(json.dumps(bad))

    def test_missing_field(self):
        bad = {"type": "pwl", "pieces": [{"lo": "0", "hi": "1", "slope": "1"}]}
        # intercept defaults to 0; removing slope instead must fail
        assert load_map_spec(json.dumps(bad)).pwl is not None
        del bad["pieces"][0]["slope"]
        with pytest.raises(ParseError, match="slope"):
            load_map_spec(json.dumps(bad))

    def test_logistic_range(self):
        with pytest.raises(ValidationError):
            load_map_spec("logistic:0.5")
        with pytest.raises(ValidationError):  # float(r) would overflow
            load_map_spec({"type": "logistic", "r": 10**400})

    def test_unknown(self):
        with pytest.raises(UnknownMap):
            load_map_spec("spirograph")
        with pytest.raises(UnknownMap):
            load_map_spec('{"type": "spirograph"}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_map_spec("{not json")
        with pytest.raises(ParseError, match="recursion"):
            load_map_spec('{"type": ' + "[" * 100_000)

    def test_non_object_spec(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_map_spec(str(path))

    @pytest.mark.parametrize(
        "text, x, fx",
        [
            ("logistic:3.7", 0.5, 0.925),
            ("logistic:4", 0.25, 0.75),
            ("one_minus_x_squared", 0.5, 0.75),
            ("tent", 0.75, 0.5),
        ],
    )
    def test_float_engine_evaluates(self, text, x, fx):
        assert load_map_spec(text).numeric()(x) == pytest.approx(fx, abs=1e-15)


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_basic_envelope(self, capsys):
        code, out, _ = run_cli(capsys, ["basic", "--map", "tent", "--n", "4"])
        assert code == 0
        env = json.loads(out)
        assert env["map"] == "tent"
        assert env["n"] == 4
        assert env["exact"] is True
        assert env["engine_version"]
        assert env["elapsed_ms"] >= 0
        assert env["result"]["patterns"] == ["1423", "2134", "2143", "3142", "4231"]

    def test_shortest(self, capsys):
        code, out, _ = run_cli(capsys, ["shortest", "--map", "sawtooth:3", "--n-max", "8"])
        assert code == 0 and json.loads(out)["result"] == 5

    def test_avoiders_count_only(self, capsys):
        # the count that avoiders --count-only gave now comes from count,
        # and it agrees with the length of the avoiders listing
        code, out, _ = run_cli(capsys, ["count", "--patterns", "132,231", "--n", "5"])
        assert code == 0 and json.loads(out)["result"] == 16
        code, out, _ = run_cli(capsys, ["avoiders", "--patterns", "132,231", "--n", "5"])
        assert code == 0 and len(json.loads(out)["result"]["patterns"]) == 16

    def test_avoiders_listing(self, capsys):
        code, out, _ = run_cli(capsys, ["avoiders", "--patterns", "21", "--n", "4"])
        assert code == 0 and json.loads(out)["result"]["patterns"] == ["1234"]

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--patterns", "132,231", "--n", "10"])
        assert code == 0 and json.loads(out)["result"] == 512

    def test_count_has_no_n_cap(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--patterns", "132,231", "--n", "30"])
        assert code == 0 and json.loads(out)["result"] == 2**29

    def test_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bound", "--map", "alt_sawtooth:9", "--method", "simple"]
        )
        assert code == 0
        assert json.loads(out)["result"] == {
            "component_count": 4,
            "bound": 10,
            "method": "simple",
            "orientation": "below",
        }

    def test_length_check(self, capsys):
        code, out, _ = run_cli(capsys, ["length-check", "--lengths", "6"])
        result = json.loads(out)["result"]
        assert code == 0
        assert result["satisfied"] is False
        assert (result["total"], result["required"]) == (6, 8)

    def test_check_basis(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check-basis", "--patterns", "132,231", "--m-max", "4"]
        )
        assert code == 0 and json.loads(out)["result"] == [1, 2, 3, 4]

    def test_sample_is_labeled_approximate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sample", "--map", "logistic:3.5", "--n", "3",
                "--grid", "2000", "--random", "2000",
            ],
        )
        env = json.loads(out)
        assert code == 0
        assert env["exact"] is False
        assert "lower bound" in env["note"]

    def test_sample_scan_missing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sample", "--map", "logistic:3.5", "--n", "3",
                "--grid", "3000", "--random", "3000", "--scan-missing", "7",
            ],
        )
        env = json.loads(out)
        assert code == 0
        assert "first_missing_cap" in env["result"]

    @pytest.mark.parametrize("seed", ["0", "1000000000000000000000000000000"])
    def test_sample_seed_is_reproducible(self, capsys, seed):
        # any nonnegative seed is valid, also one past 64 bits
        argv = ["sample", "--map", "logistic:3.7", "--n", "5", "--seed", seed]
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            runs.append(json.loads(out)["result"]["patterns"])
        assert runs[0] == runs[1] and len(runs[0]) > 10

    def test_logistic4_note_in_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, ["basic", "--map", "logistic:4", "--n", "3"])
        env = json.loads(out)
        assert code == 0
        assert env["exact"] is True
        assert "order-isomorphism" in env["note"]
        assert env["result"]["patterns"] == ["321"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["basic", "--map", "tent", "--n", "3", "--format", "csv"]
        )
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "pattern" and lines[1] == "321"

    def test_csv_keeps_extra_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sample", "--map", "logistic:3.83", "--n", "4", "--grid", "3000",
                "--random", "3000", "--scan-missing", "8", "--format", "csv",
            ],
        )
        rows = out.strip().splitlines()
        assert code == 0 and rows[:2] == ["field,value", "n,4"]
        assert any(row.startswith("first_missing_cap,") for row in rows)
        assert all(row.startswith("pattern,") for row in rows[2:-1])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["bound", "--map", "tent", "--out", str(path)]
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["result"]["bound"] == 4

    def test_version_and_usage(self, capsys):
        assert run_cli(capsys, ["--version"])[0] == 0
        assert run_cli(capsys, [])[0] == 2


class TestCliSurface:
    # every subcommand with its option strings, less -h/--help: 54 in all
    OPTIONS = {
        "allowed": ["--map", "--n", "--cell-budget", "--format", "--out"],
        "forbidden": ["--map", "--n", "--cell-budget", "--format", "--out"],
        "basic": ["--map", "--n", "--cell-budget", "--format", "--out"],
        "shortest": ["--map", "--n-max", "--cell-budget", "--format", "--out"],
        "bound": ["--map", "--method", "--orientation", "--format", "--out"],
        "avoiders": ["--patterns", "--n", "--node-budget", "--format", "--out"],
        "count": ["--patterns", "--n", "--node-budget", "--format", "--out"],
        "sample": [
            "--map", "--n", "--grid", "--random", "--seed", "--tie-eps", "--scan-missing",
            "--format", "--out",
        ],
        "check-basis": ["--patterns", "--m-max", "--format", "--out"],
        "length-check": ["--lengths", "--format", "--out"],
        "verify": ["--only", "--format", "--out"],
    }
    OPS = {"allowed": exact_allowed, "forbidden": exact_forbidden, "basic": exact_basic_forbidden}

    def subparsers(self) -> dict:
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_subcommands_and_options(self):
        found = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in self.subparsers().items()
        }
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 54

    def test_every_subcommand_has_a_handler(self):
        # a subcommand added without one would fail at run time, not here
        for name, p in self.subparsers().items():
            assert callable(p.get_default("handler")), name
            assert p.get_default("op") is self.OPS.get(name), name


class TestCliExitCodes:
    def test_no_n_cap(self, capsys):
        code, out, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "11"])
        assert code == 0 and json.loads(out)["n"] == 11

    def test_unknown_map(self, capsys):
        assert run_cli(capsys, ["allowed", "--map", "bogus", "--n", "3"])[0] == 2

    def test_numeric_map_refused_by_exact_op(self, capsys):
        code, _, err = run_cli(capsys, ["basic", "--map", "logistic:3.5", "--n", "3"])
        assert code == 2 and "exact" in err

    def test_bad_pattern_text(self, capsys):
        assert run_cli(capsys, ["count", "--patterns", "1x2", "--n", "4"])[0] == 2

    def test_node_budget_limit(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["avoiders", "--patterns", "132", "--n", "8", "--node-budget", "10"],
        )
        assert code == 3 and "budget" in err

    def test_cell_budget_limit(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["allowed", "--map", "sawtooth:4", "--n", "9", "--cell-budget", "100"],
        )
        assert code == 3 and "items at depth" in err

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run_cli(
            capsys, ["basic", "--map", "tent", "--n", "4", "--out", str(target)]
        )
        assert code == 2 and out == "" and "missing-dir" in err

    def test_map_is_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["basic", "--map", str(tmp_path), "--n", "3"])
        assert code == 2 and err.startswith("patlab:")

    def test_map_file_not_utf8(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, ["allowed", "--map", str(target), "--n", "3"])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("patlab:") and "not UTF-8" in line

    @pytest.mark.parametrize("spec", ["sawtooth:abc", "tent:3", "logistic:5", "sawtooth:1"])
    def test_bad_shorthand(self, capsys, spec):
        code, out, err = run_cli(capsys, ["basic", "--map", spec, "--n", "3"])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("patlab:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            '{"type": "tent", "extra": 1}',
            '{"type": "pwl", "pieces": [{"lo": "0", "hi": "1", "slope": "1", "hi_closd": true}]}',
        ],
    )
    def test_unknown_spec_field(self, capsys, spec):
        code, out, err = run_cli(capsys, ["basic", "--map", spec, "--n", "3"])
        assert code == 2 and out == "" and "unknown field" in err

    @pytest.mark.parametrize(
        "text",
        [
            # deeper than the JSON decoder recurses
            pytest.param("[" * 200_000 + "]" * 200_000, id="nested"),
            # integers too long for json.loads to decode
            pytest.param('{"type": "sawtooth", "N": %s}' % ("1" * 4301), id="long-N"),
            pytest.param(
                '{"type": "pwl", "pieces": [{"lo": "0", "hi": "1", "slope": %s}]}' % ("9" * 5000),
                id="long-slope",
            ),
        ],
    )
    def test_undecodable_spec_file(self, capsys, tmp_path, text):
        path = tmp_path / "map.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["basic", "--map", str(path), "--n", "3"])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"patlab: {path}: bad map-spec JSON:")

    @pytest.mark.parametrize(
        "slope", ["1e-99999", "1e-99999999", "1" * 4301], ids=["exponent", "huge-exponent", "digits"]
    )
    def test_map_value_too_large(self, capsys, slope):
        # checked before Fraction parses it: "1e-99999999" would build 10**99999999
        spec = '{"type": "pwl", "pieces": [{"lo": "0", "hi": "1", "slope": "%s"}]}' % slope
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["basic", "--map", spec, "--n", "3"])
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err == (
            "patlab: field 'slope': more than 4300 digits in a numerator, denominator or exponent\n"
        )

    def test_map_value_at_the_digit_limit(self):
        spec = {"type": "pwl", "pieces": [{"lo": "0", "hi": "1", "slope": "1e-4299"}]}
        lm = load_map_spec(spec)
        assert load_map_spec(serialize(lm)) == lm
        spec["pieces"][0]["slope"] = 10**4300  # an int that no JSON text can carry
        with pytest.raises(ParseError, match="more than 4300 digits"):
            load_map_spec(spec)

    def test_huge_logistic_parameter(self, capsys):
        spec = '{"type": "logistic", "r": %s}' % ("1" * 400)
        code, out, err = run_cli(capsys, ["basic", "--map", spec, "--n", "3"])
        assert code == 2 and out == ""
        assert err == "patlab: logistic parameter must satisfy 1 < r <= 4\n"

    def test_length_check_over_the_limit(self, capsys, monkeypatch):
        # h = 1700 would give a factorial too long for Python to print
        code, out, err = run_cli(capsys, ["length-check", "--lengths", "3400"])
        assert code == 3 and out == ""
        assert err == "patlab: resource limit: shortest length 3400 exceeds the limit of 2000\n"
        code, out, _ = run_cli(capsys, ["length-check", "--lengths", "2000"])
        assert code == 0 and len(str(json.loads(out)["result"]["required"])) == 2568
        monkeypatch.setattr("patlab.bounds.MAX_SHORTEST_LENGTH", 10)
        assert run_cli(capsys, ["length-check", "--lengths", "10,50"])[0] == 0
        code, out, err = run_cli(capsys, ["length-check", "--lengths", "50,11"])
        assert code == 3 and out == ""
        assert err == "patlab: resource limit: shortest length 11 exceeds the limit of 10\n"

    def test_usage_error(self, capsys):
        # argparse reports unknown flags on stderr and exits 2
        assert run_cli(capsys, ["basic", "--map", "tent", "--frobnicate"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["allowed", "--map", "tent", "--n", "3", "--threads", "2"],
            ["avoiders", "--patterns", "132,231", "--n", "5", "--count-only"],
            ["count", "--patterns", "132,231", "--n", "5", "--unsafe"],
            ["allowed", "--map", "tent", "--n", "3", "--unsafe"],
            ["avoiders", "--patterns", "132,231", "--n", "5", "--unsafe"],
        ],
    )
    def test_removed_flags(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--patterns", "21", "--n", "3000", "--node-budget", "200000"],
            ["avoiders", "--patterns", "21", "--n", "3000", "--node-budget", "200000"],
        ],
    )
    def test_deep_n_exhausts_the_node_budget(self, capsys, argv):
        # the search must not recurse once per placed value
        started = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - started < 5.0
        assert code == 3 and out == ""
        assert "node budget of 200000" in err and "at depth 1 of 3000" in err

    def test_forbidden_candidates_exceed_budget(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["forbidden", "--map", "tent", "--n", "11"])
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert "39916800 candidates" in err and "cell budget of 4000000" in err

    @pytest.mark.parametrize("n", [1559, 10**7])
    def test_forbidden_candidates_of_a_huge_n(self, capsys, n):
        # 1559! has more than the 4,300 digits Python will print; the product stops at 11!
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["forbidden", "--map", "tent", "--n", str(n)])
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert f"at n = {n} has more than 11! = 39916800 candidates" in line

    def test_huge_n_refused_before_the_scale_is_built(self, capsys):
        # q**depth at this depth could not be built; the cylinder count refuses depth 22
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["allowed", "--map", "tent", "--n", "99999999999999999999"])
        assert time.perf_counter() - started < 2.0
        assert code == 3 and out == ""
        assert "at least 4194304 items at depth 22 of 99999999999999999998" in err

    @staticmethod
    def one_piece(slope, intercept):
        piece = {"lo": "0", "hi": "1", "slope": slope, "intercept": intercept, "hi_closed": True}
        return json.dumps({"type": "pwl", "pieces": [piece]})

    HUGE = "99999999999999999999"

    def test_huge_n_on_a_contracting_map_refused_by_its_scale(self, capsys):
        # no expanding piece, so the cylinder counts stop at 0; 2**depth is too long
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["allowed", "--map", self.one_piece("1/2", "0"), "--n", self.HUGE]
        )
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert f"scale 2**{int(self.HUGE) - 1}, which has more than 4300 digits" in line

    def test_long_n_on_a_contracting_map_answers(self, capsys):
        argv = ["allowed", "--map", self.one_piece("1/2", "0"), "--n", "3000"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["result"]["patterns"] == [",".join(map(str, range(3000, 0, -1)))]

    @pytest.mark.parametrize(
        "argv, result",
        [
            (["allowed", "--n", HUGE], {"n": int(HUGE), "patterns": []}),
            (["basic", "--n", HUGE], {"n": int(HUGE), "patterns": []}),
            (["shortest", "--n-max", HUGE], 3),
        ],
        ids=["allowed", "basic", "shortest"],
    )
    def test_huge_n_on_an_involution_answers(self, capsys, argv, result):
        # 1 - x has q = 1, so its scale stays 1; every item dies at depth 2
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, [*argv, "--map", self.one_piece("-1", "1")])
        assert time.perf_counter() - started < 1.0
        assert code == 0 and json.loads(out)["result"] == result

    @pytest.mark.parametrize(
        "argv",
        [
            ["allowed", "--map", "tent", "--n", "3", "--cell-budget", "0"],
            ["forbidden", "--map", "tent", "--n", "3", "--cell-budget", "-1"],
            ["shortest", "--map", "tent", "--cell-budget", "-1"],
            ["avoiders", "--patterns", "123", "--n", "3", "--node-budget", "0"],
            ["count", "--patterns", "123", "--n", "3", "--node-budget", "-5"],
        ],
    )
    def test_non_positive_budget(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        flag, value = argv[-2:]
        assert code == 2 and out == ""
        assert err == f"patlab: the {flag[2:].replace('-', ' ')} must be positive, got {value}\n"

    @pytest.mark.parametrize(
        "argv, message, seconds",
        [
            pytest.param(
                ["allowed", "--map", "sawtooth:4", "--n", "12"],
                "at least 4194304 items at depth 11 of 11",
                1.0,
                id="allowed",
            ),
            # the depth-1 walk of n = 2 runs; the depth-2 walk of n = 3 is refused
            pytest.param(
                ["shortest", "--map", "sawtooth:10000", "--n-max", "3"],
                "at least 100000000 items at depth 2 of 2",
                5.0,
                id="shortest",
            ),
            pytest.param(
                ["avoiders", "--patterns", "123", "--n", "11"],
                "listing exceeded the node budget of 50000000: 7477162 avoiders of length 11",
                1.0,
                id="avoiders",
            ),
        ],
    )
    def test_over_budget_work_is_refused_before_it_starts(self, capsys, argv, message, seconds):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - started < seconds
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("patlab: resource limit:") and message in line

    def test_shortest_checks_each_depth_it_walks(self, capsys):
        # 2**29 cylinders at depth 29 would exceed the budget, but n = 3 answers first
        code, out, _ = run_cli(capsys, ["shortest", "--map", "tent", "--n-max", "30"])
        assert code == 0 and json.loads(out)["result"] == 3

    def test_length_check_total_too_long_to_print(self, capsys):
        nines = "9" * 4300
        code, out, err = run_cli(capsys, ["length-check", "--lengths", f"2,{nines},{nines}"])
        assert code == 2 and out == ""
        assert err == "patlab: the lengths sum to a number of more than 4,300 digits\n"
        # 2 + (10**4299 - 1) has 4,300 digits
        code, out, _ = run_cli(capsys, ["length-check", "--lengths", f"2,{nines[1:]}"])
        assert code == 0 and len(str(json.loads(out)["result"]["total"])) == 4300

    def test_check_basis_order_limit(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["check-basis", "--patterns", "132,231", "--m-max", "1000"])
        assert code == 0 and json.loads(out)["result"] == list(range(1, 1001))
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["check-basis", "--patterns", "132,231", "--m-max", "2001"])
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert err == "patlab: resource limit: m_max 2001 exceeds the limit of 1000\n"
        monkeypatch.setattr("patlab.bounds.MAX_OBSTRUCTION_ORDER", 4)
        assert run_cli(capsys, ["check-basis", "--patterns", "132,231", "--m-max", "4"])[0] == 0
        code, _, err = run_cli(capsys, ["check-basis", "--patterns", "132,231", "--m-max", "5"])
        assert code == 3 and "m_max 5 exceeds the limit of 4" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be nonnegative"),
            (["--tie-eps", "inf"], "tie_epsilon must be positive and finite"),
            (["--tie-eps", "nan"], "tie_epsilon must be positive and finite"),
        ],
    )
    def test_bad_sample_config(self, capsys, flags, message):
        code, out, err = run_cli(capsys, ["sample", "--map", "logistic:3.9", "--n", "3", *flags])
        assert code == 2 and out == ""
        assert err == f"patlab: {message}\n"

    @pytest.mark.parametrize("kind", ["sawtooth", "alt_sawtooth"])
    def test_ramp_count_over_the_limit(self, capsys, monkeypatch, kind):
        monkeypatch.setattr("patlab.pwl._MAX_RAMPS", 5)
        code, out, _ = run_cli(capsys, ["shortest", "--map", f"{kind}:5", "--n-max", "3"])
        assert code == 0 and json.loads(out)["map"] == f"{kind}:5"
        code, out, err = run_cli(capsys, ["shortest", "--map", f"{kind}:6", "--n-max", "3"])
        assert code == 3 and out == ""
        assert err == f"patlab: resource limit: {kind} with 6 ramps exceeds the limit of 5 ramps\n"

    def test_huge_ramp_count_fails_at_once(self, capsys):
        started = time.perf_counter()
        code, _, _ = run_cli(capsys, ["shortest", "--map", "sawtooth:1000000000", "--n-max", "2"])
        assert code == 3 and time.perf_counter() - started < 1.0

    def test_sample_orbit_over_the_limit(self, capsys):
        # one start point and 10**7 values fit the value budget, but the
        # orbit is stepped one value per Python iteration
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["sample", "--map", "logistic:3.99", "--n", "10000000",
                                          "--grid", "1", "--random", "0"])
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert err == ("patlab: resource limit: orbits of 10000000 values exceed the limit of "
                       "100000 values per orbit\n")

    def test_sample_over_budget(self, capsys):
        code, out, err = run_cli(capsys, ["sample", "--map", "logistic:3.7", "--n", "1000000000000"])
        assert code == 3 and out == ""
        assert err.startswith("patlab: resource limit:") and err.count("\n") == 1
        assert "over the sample budget" in err

    def test_rising_cap_scan_over_budget(self, capsys):
        # x -> x + (1 - x) / 10**6: every orbit keeps rising, so each
        # length of the scan steps all 32,768 orbits of the first chunk
        creep = ('{"type":"pwl","pieces":[{"lo":"0","hi":"1","slope":"999999/1000000",'
                 '"intercept":"1/1000000"}]}')
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["sample", "--map", creep, "--n", "3",
                                          "--scan-missing", "100000000"])
        assert time.perf_counter() - started < 5.0
        assert code == 3 and out == ""
        assert err == ("patlab: resource limit: the cap scan stepped 10027008 orbit values by "
                       "length 309, over the sample budget of 10000000\n")


class TestCache:
    def test_byte_identical_hits(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(tmp_path))
        code1, out1, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "5"])
        entries = list(tmp_path.iterdir())
        assert code1 == 0 and len(entries) == 1
        stored = entries[0].read_text()

        code2, out2, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "5"])
        assert code2 == 0
        r1, r2 = json.loads(out1)["result"], json.loads(out2)["result"]
        canon = lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"))
        assert canon(r1) == canon(r2) == json.loads(stored)["body"]

    def test_key_varies_with_n_and_map(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(tmp_path))
        run_cli(capsys, ["allowed", "--map", "tent", "--n", "3"])
        run_cli(capsys, ["allowed", "--map", "tent", "--n", "4"])
        run_cli(capsys, ["allowed", "--map", "sawtooth:2", "--n", "3"])
        assert len(list(tmp_path.iterdir())) == 3

    def test_corrupt_entry_recomputed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(tmp_path))
        _, out1, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "4"])
        (entry,) = list(tmp_path.iterdir())
        good = entry.read_text()
        entry.write_text("{truncated")
        code, out2, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "4"])
        assert code == 0
        assert json.loads(out2)["result"] == json.loads(out1)["result"]
        assert entry.read_text() == good

    BASIC4 = ["basic", "--map", "tent", "--n", "4"]

    def assert_recomputed(self, capsys, tmp_path, monkeypatch, forge):
        """Replace the one cache entry by forge(record) and check the next run
        recomputes the answer and restores the entry."""
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(tmp_path))
        _, out1, _ = run_cli(capsys, self.BASIC4)
        (entry,) = list(tmp_path.iterdir())
        good = entry.read_text()
        forged = forge(json.loads(good))
        if isinstance(forged, bytes):
            entry.write_bytes(forged)
        else:
            entry.write_text(forged)
        code, out2, _ = run_cli(capsys, self.BASIC4)
        assert code == 0
        assert json.loads(out2)["result"] == json.loads(out1)["result"]
        assert entry.read_text() == good

    @pytest.mark.parametrize("forged", ['{"n":4,"patterns":["1234"]}', "[1,2]"])
    def test_valid_json_but_wrong_entry_recomputed(self, capsys, tmp_path, monkeypatch, forged):
        self.assert_recomputed(capsys, tmp_path, monkeypatch, lambda record: forged)

    def test_nested_entry_recomputed(self, capsys, tmp_path, monkeypatch):
        self.assert_recomputed(capsys, tmp_path, monkeypatch, lambda record: "[" * 200_000)

    def test_undecodable_entry_recomputed(self, capsys, tmp_path, monkeypatch):
        self.assert_recomputed(capsys, tmp_path, monkeypatch, lambda record: b"\xff\xfe not utf-8")

    def test_edited_body_recomputed(self, capsys, tmp_path, monkeypatch):
        def forge(record):
            first = json.loads(record["body"])["patterns"][0]
            return json.dumps(dict(record, body=record["body"].replace(first, "1234")))

        self.assert_recomputed(capsys, tmp_path, monkeypatch, forge)

    @pytest.mark.parametrize(
        "op, body",
        [
            ("allowed", '{"n":4,"patterns":["1234"]}'),  # a record of another operation
            ("basic", '{"n":3,"patterns":["123"]}'),  # a body of another length
            ("basic", "[1,2]"),  # a body that is no pattern set
            ("basic", '{"n":4,"patterns":["banana","9999"]}'),  # words that are no patterns
            ("basic", '{"n":4,"patterns":["2134","1423"]}'),  # valid patterns, not sorted
            pytest.param("basic", "[" * 200_000, id="basic-nested"),  # too deep to decode
            pytest.param(  # the right set, but not its canonical JSON
                "basic",
                json.dumps({"n": 4, "patterns": ["1423", "2134", "2143", "3142", "4231"]}, indent=2),
                id="basic-reindented",
            ),
        ],
    )
    def test_rehashed_record_recomputed(self, capsys, tmp_path, monkeypatch, op, body):
        def forge(record):
            assert record["inputs"]["op"] == "basic" and record["inputs"]["n"] == 4
            assert record["sha256"] == hashlib.sha256(record["body"].encode()).hexdigest()
            return json.dumps({
                "body": body,
                "inputs": dict(record["inputs"], op=op),
                "sha256": hashlib.sha256(body.encode()).hexdigest(),
            })

        self.assert_recomputed(capsys, tmp_path, monkeypatch, forge)

    def test_entry_name_pinned(self, capsys, tmp_path, monkeypatch):
        # the name is the SHA-256 of the canonical key inputs; changing how
        # they are built would orphan every existing entry
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(tmp_path))
        run_cli(capsys, self.BASIC4)
        inputs = '{"n":4,"op":"basic","spec":{"type":"tent"},"version":"%s"}' % __version__
        (entry,) = list(tmp_path.iterdir())
        assert entry.name == hashlib.sha256(inputs.encode()).hexdigest() + ".json"

    def test_cache_dir_is_a_file(self, capsys, tmp_path, monkeypatch):
        # an unusable cache directory costs the reuse, never the answer
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("PATLAB_CACHE_DIR", str(blocker))
        code, out, err = run_cli(capsys, self.BASIC4)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["patterns"] == ["1423", "2134", "2143", "3142", "4231"]
        assert list(tmp_path.iterdir()) == [blocker]

    def test_disabled_without_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PATLAB_CACHE_DIR", raising=False)
        code, _, _ = run_cli(capsys, ["allowed", "--map", "tent", "--n", "3"])
        assert code == 0 and not list(tmp_path.iterdir())

    def test_no_hashing_without_env(self, capsys, monkeypatch):
        # with no directory the result is neither keyed nor encoded for storage
        import patlab.cache

        def refuse(*args):
            raise AssertionError("cache work with the cache off")

        monkeypatch.delenv("PATLAB_CACHE_DIR", raising=False)
        for name in ("_sha256", "canonical_json", "load", "store"):
            monkeypatch.setattr(patlab.cache, name, refuse)
        code, out, _ = run_cli(capsys, self.BASIC4)
        assert code == 0
        assert json.loads(out)["result"]["patterns"] == ["1423", "2134", "2143", "3142", "4231"]
