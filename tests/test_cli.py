"""Command-line interface tests: exit codes, printed values, determinism."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewlab
from skewlab.cli import load_default_config, main

QUARTER = json.dumps({
    "f": {"kind": "power", "p": 0.25},
    "g": {"kind": "power", "p": 0.25},
    "h": {"kind": "power", "p": 0.5},
    "eps": 1e-6,
})


SUM_TRIPLE = json.dumps({
    "f": {"kind": "power", "p": 1.0},
    "g": {"kind": "scaled_sum", "terms": [[1.0, 2.0], [1.0, 1.0]]},
    "h": {"kind": "power", "p": 4.0},
})


def small_config_doc():
    return {
        "seed": 42,
        "dims": [2],
        "samples_per_dim": 20,
        "inequalities": [{"id": "HEISENBERG_21"}, {"id": "LUO_23"}],
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parsed_values(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            values[key.strip()] = val.strip()
    return values


class TestVerify:
    def test_clean_campaign_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config_doc())
        out_path = tmp_path / "report.json"
        assert main(["verify", path, "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["config_hash"]
        assert len(report["inequalities"]) == 2
        assert all(s["violations"] == 0 for s in report["inequalities"])

    def test_violation_exit_one(self, tmp_path):
        doc = small_config_doc()
        doc["inequalities"] = [{"id": "NAIVE_WY_SHOULD_FAIL", "assert_pass": True}]
        path = write_config(tmp_path, doc)
        assert main(["verify", path]) == 1

    def test_informational_naive_exit_zero(self, tmp_path):
        doc = small_config_doc()
        doc["inequalities"].append({"id": "NAIVE_WY_SHOULD_FAIL"})
        path = write_config(tmp_path, doc)
        assert main(["verify", path]) == 0

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": ')
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exit_two_no_partial_report(self, tmp_path):
        doc = small_config_doc()
        doc["bogus"] = 1
        path = write_config(tmp_path, doc)
        out_path = tmp_path / "report.json"
        assert main(["verify", path, "--out", str(out_path)]) == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads, fmt):
        out_path = tmp_path / f"report.{fmt}"
        argv = ["verify", write_config(tmp_path, small_config_doc()), "--out", str(out_path),
                "--format", fmt, "--threads", threads]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"threads must be at least 1, got {threads}" in captured.err
        assert not out_path.exists()

    def test_csv_report(self, tmp_path):
        path = write_config(tmp_path, small_config_doc())
        out_path = tmp_path / "report.csv"
        assert main(["verify", path, "--out", str(out_path), "--format", "csv"]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "id,n,lhs,rhs,margin,pass"
        assert len(lines) == 1 + 2 * 20

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_csv_write_exit_two_leaves_no_worker(self, tmp_path, capsys):
        # each entry's 200 lines pass the file's 8 KB buffer, so the first
        # entry's write fails while the workers still format the others
        doc = dict(small_config_doc(), samples_per_dim=200)
        doc["inequalities"].append({"id": "SCHRODINGER"})
        path = write_config(tmp_path, doc)
        argv = ["verify", path, "--out", "/dev/full", "--format", "csv", "--threads", "2"]
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_format_without_out_exit_two(self, tmp_path, capsys, fmt):
        path = write_config(tmp_path, small_config_doc())
        assert main(["verify", path, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format needs --out" in captured.err
        # without --format the campaign still runs and prints its PASS lines
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out.count("PASS ") == 2

    def test_triple_floor_above_sampled_spectrum_exit_two(self, tmp_path, capsys):
        # sampled eigenvalues are only guaranteed >= delta / n = 1e-6 / 3
        doc = {
            "seed": 42, "dims": [3], "samples_per_dim": 300, "delta": 1e-6,
            "inequalities": [{"id": "THM31_FGH", "triple": dict(json.loads(QUARTER), eps=1e-3)}],
        }
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "domain floor" in captured.err

    @pytest.mark.parametrize("entry", [
        {"id": "THM23_TILDE", "alpha": [0.1, 0.2]},
        {"id": "THM23_TILDE", "alpha": [0.1, 0.2], "beta": 0.5},
        {"id": "THM23_TILDE", "beta": 0.5},
    ])
    def test_half_fixed_tilde_pair_exit_two(self, tmp_path, capsys, entry):
        doc = small_config_doc()
        doc["inequalities"] = [entry]
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "scalar alpha and beta" in captured.err

    @pytest.mark.parametrize("entry", [
        {"id": "CHAIN_27", "alpha": 1.5},
        {"id": "CHAIN_25", "alpha": -0.5},
        {"id": "THM21_WYD", "alpha": 1.5},
    ])
    def test_alpha_outside_unit_interval_exit_two(self, tmp_path, capsys, entry):
        doc = dict(small_config_doc(), dims=[2, 3], samples_per_dim=50, inequalities=[entry])
        out_path = tmp_path / "report.json"
        assert main(["verify", write_config(tmp_path, doc), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "VIOLATED" not in captured.out and "PASS" not in captured.out
        assert "alpha must lie in [0, 1]" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("dims", [[2, 2], [2, 3, 2]])
    def test_repeated_dim_exit_two(self, tmp_path, capsys, dims):
        # a repeated dim draws the same seeded samples again, which reported
        # samples=10 for 5 distinct samples and counted each violation twice
        doc = dict(small_config_doc(), dims=dims, samples_per_dim=5)
        out_path = tmp_path / "report.json"
        assert main(["verify", write_config(tmp_path, doc), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dims must not repeat, got {dims}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("entry", [
        {"id": "THM21_WYD", "alpha": []},
        {"id": "CHAIN_25", "alpha": []},
        {"id": "CHAIN_27", "alpha": []},
    ])
    def test_empty_cycled_alpha_exit_two(self, tmp_path, capsys, entry):
        doc = dict(small_config_doc(), inequalities=[entry])
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "a cycled alpha needs at least one value" in captured.err

    @pytest.mark.parametrize("key, value", [("out", "report.json"), ("format", "csv")])
    def test_report_options_are_not_config_keys(self, tmp_path, capsys, key, value):
        # the report goes where --out and --format say, never where the config says
        doc = dict(small_config_doc(), **{key: str(tmp_path / value) if key == "out" else value})
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"unknown config keys: ['{key}']" in captured.err
        assert not (tmp_path / value).exists()

    @pytest.mark.parametrize("change, message", [
        ({"dims": "23"}, "'dims' must be a list of integers, got '23'"),
        ({"dims": [2.7]}, "dims entry must be an integer, got 2.7"),
        ({"samples_per_dim": 2.9}, "samples_per_dim must be an integer, got 2.9"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"delta": "0.001"}, "delta must be a number, got '0.001'"),
        ({"slack": math.nan}, "slack must be finite, got nan"),
        ({"slack": math.inf}, "slack must be finite, got inf"),
        ({"inequalities": [{"id": "THM21_WYD", "alpha": "0.3"}]},
         "bad THM21_WYD entry: alpha must be a number, got '0.3'"),
        ({"inequalities": [{"id": "THM21_WYD", "alpha": True}]},
         "bad THM21_WYD entry: alpha must be a number, got True"),
        ({"inequalities": [{"id": "CHAIN_25", "alpha": [0.2, "0.4"]}]},
         "bad CHAIN_25 entry: alpha must be a number, got '0.4'"),
        ({"inequalities": [{"id": "THM22_GWYD", "alpha": 0.3, "beta": "0.2"}]},
         "bad THM22_GWYD entry: beta must be a number, got '0.2'"),
        ({"slack": -1e-9}, "slack must be nonnegative"),
    ])
    def test_malformed_number_exit_two(self, tmp_path, capsys, change, message):
        doc = dict(small_config_doc(), **change)
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "VIOLATED" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("entry, message", [
        ({"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
          "g": {"kind": "power", "p": 0.25}, "eps": "1e-9"},
         "bad COR41_PAIR entry: eps must be a number, got '1e-9'"),
        ({"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
          "g": {"kind": "power", "p": True}},
         "bad COR41_PAIR entry: p must be a number, got True"),
        ({"id": "THM31_FGH", "triple": dict(json.loads(QUARTER), eps="1e-9")},
         "bad THM31_FGH entry: eps must be a number, got '1e-9'"),
        ({"id": "THM31_FGH", "triple": dict(json.loads(QUARTER),
                                            h={"kind": "power", "p": "0.5"})},
         "bad THM31_FGH entry: p must be a number, got '0.5'"),
        # Python's json reads NaN and Infinity; a NaN margin would read as a
        # disproof (VIOLATED, exit 1)
        ({"id": "THM22_GWYD", "alpha": 0.1, "beta": math.inf},
         "bad THM22_GWYD entry: beta must be finite, got inf"),
        ({"id": "THM21_WYD", "alpha": math.nan},
         "bad THM21_WYD entry: alpha must be finite, got nan"),
        ({"id": "CHAIN_25", "alpha": [0.2, -math.inf]},
         "bad CHAIN_25 entry: alpha must be finite, got -inf"),
        ({"id": "THM31_FGH", "triple": dict(json.loads(QUARTER),
                                            h={"kind": "power", "p": math.inf})},
         "bad THM31_FGH entry: p must be finite, got inf"),
    ])
    def test_non_number_in_function_entry_exit_two(self, tmp_path, capsys, entry, message):
        doc = dict(small_config_doc(), inequalities=[entry])
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "VIOLATED" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("entry", [
        {"id": "THM31_FGH", "triple": dict(json.loads(QUARTER),
                                            g={"kind": "power", "p": 0.25, "eps": 1e-6})},
        {"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5, "eps": 1e-3},
         "g": {"kind": "power", "p": 0.25}},
        {"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
         "g": {"kind": "power", "p": 0.25, "eps": 1e-6}, "eps": 1e-6},
    ])
    def test_function_level_eps_in_entry_exit_two(self, tmp_path, capsys, entry):
        doc = dict(small_config_doc(), inequalities=[entry])
        out_path = tmp_path / "report.json"
        assert main(["verify", write_config(tmp_path, doc), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"bad {entry['id']} entry: a function spec takes no 'eps': eps is set once"
                in captured.err)
        assert not out_path.exists()

    def test_missing_file_exit_two(self):
        assert main(["verify", "/nonexistent/config.json"]) == 2

    def test_default_config_is_loadable(self):
        doc = load_default_config()
        ids = [e["id"] for e in doc["inequalities"]]
        assert "THM31_FGH" in ids and "NAIVE_WY_SHOULD_FAIL" in ids
        assert doc["dims"] == [2, 3, 4, 8]
        assert doc["samples_per_dim"] == 1000


class TestBeta:
    def test_power_triple(self, capsys):
        assert main(["beta", "--triple", QUARTER]) == 0
        vals = parsed_values(capsys.readouterr().out)
        assert float(vals["beta"]) == pytest.approx(0.0625, abs=1e-15)
        assert float(vals["m_g"]) == 1.0
        assert float(vals["m_h"]) == 2.0
        assert vals["assumption"] == "I"

    def test_constant_h_shows_alternative(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 0.3},
            "g": {"kind": "power", "p": 0.6},
            "h": {"kind": "const", "c": 1.0},
        })
        assert main(["beta", "--triple", triple]) == 0
        vals = parsed_values(capsys.readouterr().out)
        # uniform formula: k/(1+k)^2 with k = 2; alternative: min{k,k}/(2k)^2
        assert float(vals["beta"]) == pytest.approx(2 / 9, rel=1e-12)
        assert float(vals["beta_pair_alternative"]) == pytest.approx(1 / 8, rel=1e-12)

    def test_negative_h_assumption_two(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 1.0},
            "g": {"kind": "power", "p": 1.0},
            "h": {"kind": "power", "p": -0.5},
        })
        assert main(["beta", "--triple", triple]) == 0
        vals = parsed_values(capsys.readouterr().out)
        assert float(vals["beta"]) == pytest.approx(4 / 9, rel=1e-12)
        assert vals["assumption"] == "II"

    def test_neither_triple_warns(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 1.0},
            "g": {"kind": "power", "p": 1.0},
            "h": {"kind": "power", "p": 1.5},
        })
        assert main(["beta", "--triple", triple]) == 0
        err = capsys.readouterr().err
        assert "neither" in err

    def test_bad_triple_exit_two(self, capsys):
        assert main(["beta", "--triple", '{"f": {"kind": "nope"}}']) == 2

    @pytest.mark.parametrize("change, message", [
        ({"f": {"kind": "power", "p": "0.25"}}, "p must be a number, got '0.25'"),
        ({"g": {"kind": "power", "p": True}}, "p must be a number, got True"),
        ({"eps": "1e-6"}, "eps must be a number, got '1e-6'"),
        ({"h": {"kind": "exp", "a": "2"}}, "a must be a number, got '2'"),
        ({"h": {"kind": "const", "c": False}}, "c must be a number, got False"),
        ({"g": {"kind": "scaled_sum", "terms": [[1.0, "2"]]}},
         "scaled_sum exponent must be a number, got '2'"),
        ({"g": {"kind": "scaled_sum", "terms": [[True, 2.0]]}},
         "scaled_sum coefficient must be a number, got True"),
        ({"g": {"kind": "scaled_sum", "terms": [1.0]}},
         "scaled_sum terms must be [coefficient, exponent] pairs, got [1.0]"),
        ({"f": {"kind": ["power"], "p": 1.0}}, "unknown function kind ['power']"),
        # float() would read this spec with g = x^1
        ({"f": {"kind": "power", "p": "0.25"}, "g": {"kind": "power", "p": True},
          "eps": "1e-6"}, "eps must be a number, got '1e-6'"),
        # json.dumps writes these as Infinity and NaN, which json.loads reads
        ({"h": {"kind": "power", "p": math.inf}}, "p must be finite, got inf"),
        ({"f": {"kind": "power", "p": math.nan}}, "p must be finite, got nan"),
        ({"g": {"kind": "exp", "a": -math.inf}}, "a must be finite, got -inf"),
        ({"h": {"kind": "const", "c": math.inf}}, "c must be finite, got inf"),
        ({"g": {"kind": "scaled_sum", "terms": [[1.0, math.nan]]}},
         "scaled_sum exponent must be finite, got nan"),
        ({"eps": math.inf}, "eps must be finite, got inf"),
    ])
    def test_non_number_in_spec_exit_two(self, capsys, change, message):
        doc = dict(json.loads(QUARTER), **change)
        for command in ("beta", "pairs", "scan-l"):
            assert main([command, "--triple", json.dumps(doc)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("name", ["f", "g", "h"])
    def test_function_level_eps_exit_two(self, capsys, name):
        # such an eps once went unread, and the triple ran on [1e-6, 1]
        doc = json.loads(QUARTER)
        doc[name] = dict(doc[name], eps=0.5)
        for command in ("beta", "pairs", "scan-l"):
            assert main([command, "--triple", json.dumps(doc)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "eps is set once, on the triple or the COR41_PAIR entry" in captured.err

    def test_overflowing_ratio_exit_two(self, capsys):
        # g.p / f.p = 1e200, whose square in the corner coefficient overflows
        triple = json.dumps({
            "f": {"kind": "power", "p": 1e-200},
            "g": {"kind": "power", "p": 1.0},
            "h": {"kind": "power", "p": 1.0},
        })
        assert main(["beta", "--triple", triple]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: beta corner k/(1+k+l)^2 overflows at k = 1e+200")
        assert "l = 1e+200" in captured.err

    @pytest.mark.parametrize("triple", [SUM_TRIPLE, QUARTER], ids=["sum", "quarter"])
    @pytest.mark.parametrize("grid", ["1", "0", "-5"])
    def test_short_grid_exit_two(self, triple, grid, capsys):
        # one point gave the ratio at eps alone (M_g = 1.0000009999990001 for
        # SUM_TRIPLE, against 1.5), and a closed-form triple ignored the grid
        assert main(["beta", "--triple", triple, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ratio grid needs at least 2 points\n"

    def test_triple_from_file(self, tmp_path, capsys):
        path = tmp_path / "triple.json"
        path.write_text(QUARTER)
        assert main(["beta", "--triple", f"@{path}"]) == 0
        vals = parsed_values(capsys.readouterr().out)
        assert float(vals["beta"]) == pytest.approx(0.0625)


class TestPairs:
    def test_classification_output(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 1.0},
            "g": {"kind": "power", "p": 1.0},
            "h": {"kind": "power", "p": -0.5},
        })
        assert main(["pairs", "--triple", triple]) == 0
        out = capsys.readouterr().out
        assert "(f,g): monotone" in out
        assert "(f,h): anti-monotone" in out
        assert "assumption = II" in out

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_short_grid_exit_two(self, grid, capsys):
        assert main(["pairs", "--triple", SUM_TRIPLE, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: classification grid needs at least 2 points\n"


class TestScanL:
    def test_power_triple_passes(self, capsys):
        assert main(["scan-l", "--triple", QUARTER, "--grid", "100"]) == 0
        out = capsys.readouterr().out
        assert "PASS: min L >= 16*beta" in out
        assert "argmin" in out

    def test_neither_triple_no_bound(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 1.0},
            "g": {"kind": "power", "p": 1.0},
            "h": {"kind": "power", "p": 1.5},
        })
        assert main(["scan-l", "--triple", triple, "--grid", "50"]) == 0
        assert "no bound asserted" in capsys.readouterr().out

    def test_coarse_grid(self, capsys):
        assert main(["scan-l", "--triple", QUARTER, "--grid", "2"]) == 0

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_short_grid_exit_two(self, grid, capsys):
        assert main(["scan-l", "--triple", QUARTER, "--grid", grid]) == 2
        assert capsys.readouterr().err == "error: scan grid needs at least 2 points\n"

    @pytest.mark.parametrize("grid", [200, 2000])
    def test_overflowing_quantity_exit_two(self, capsys, grid):
        # g^2 = e^{800 x} overflows past x = 0.887; the scan read min_L = nan
        # after numpy's warnings, and exited 0
        triple = json.dumps({
            "f": {"kind": "power", "p": 1},
            "g": {"kind": "exp", "a": 400},
            "h": {"kind": "power", "p": 3},
        })
        points = np.linspace(1e-6, 1.0, grid)
        first = float(points[points * 800.0 > math.log(sys.float_info.max)][0])
        assert main(["scan-l", "--triple", triple, "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: scan quantity g^2 is not finite at x = {first!r}, the first such "
            f"point of the {grid}-point grid\n"
        )

    def test_overflowing_pair_product_exit_two(self, capsys):
        # e^{600 x} - e^{600 y} squared overflows, though f g h itself does
        # not; the scan read min_L = 0 at (0.427, 0.593), where L = 0.4811,
        # after numpy's warnings, and exited 0
        triple = json.dumps({"f": {"kind": "exp", "a": 300}, "g": {"kind": "power", "p": 1},
                             "h": {"kind": "exp", "a": 300}})
        assert main(["scan-l", "--triple", triple]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scan numerator overflows at (x, y) = (1e-06, 0.5929652311557789), "
            "the first such pair of the 200-point grid\n"
        )


class TestLemma41:
    def test_pass_exit_zero(self, capsys):
        assert main(["lemma41", "--a", "0.5", "--b", "0.5", "--c", "1",
                     "--rmax", "10", "--steps", "1000"]) == 0
        out = capsys.readouterr().out
        assert "violations = 0" in out
        assert out.count("\n") > 1000  # margin table printed

    def test_second_regime_exit_zero(self):
        assert main(["lemma41", "--a", "1", "--b", "1", "--c", "-0.5",
                     "--steps", "200"]) == 0

    def test_regime_violation_exit_two(self, capsys):
        assert main(["lemma41", "--a", "1", "--b", "1", "--c", "0.5"]) == 2
        assert "regime" in capsys.readouterr().err

    def test_overflowing_lhs_exit_two(self, capsys):
        # e^{4r} overflows from r = 177.45 on, which made NaN margins and exit 0
        assert main(["lemma41", "--a", "0.5", "--b", "0.5", "--c", "1",
                     "--rmax", "1000", "--steps", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite at r = 333.33333333333326" in captured.err

    @pytest.mark.parametrize("args, name", [
        (["--a", "0.5", "--b", "0.5", "--c", "inf"], "c"),
        (["--a", "nan", "--b", "0.5", "--c", "1"], "a"),
        (["--a", "0.5", "--b", "0.5", "--c", "1", "--rmax", "inf"], "rmax"),
    ])
    def test_non_finite_argument_exit_two(self, capsys, args, name):
        assert main(["lemma41", *args, "--steps", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be finite" in captured.err

    def test_overflowing_parameters_exit_two(self, capsys):
        assert main(["lemma41", "--a", "1e200", "--b", "1e200", "--c", "1e201"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: lemma41 rhs 16ab/(a+b+c)^2 overflows at a = 1e+200, b = 1e+200, "
            "c = 1e+201\n"
        )

    def test_overflowing_denominator_exit_two(self, capsys):
        # the lhs read 0 where expm1((a+b+c) r)^2 overflows: 21 false violations
        assert main(["lemma41", "--a", "1e-12", "--b", "1", "--c", "1.5",
                     "--rmax", "145"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows at r = 142.09854927463732 " in captured.err

    @pytest.mark.parametrize("rmax", ["-145", "0"])
    def test_non_positive_rmax_exit_two(self, capsys, rmax):
        # a negative rmax made the default grid descend, which hid the overflow
        # above and reported its 21 false violations with exit 1
        assert main(["lemma41", "--a", "1e-12", "--b", "1", "--c", "1.5",
                     "--rmax", rmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: rmax must be positive, got {float(rmax)!r}" in captured.err


class TestCounterexample:
    def test_finds_violation(self, capsys):
        code = main(["counterexample", "--id", "NAIVE_WY_SHOULD_FAIL",
                     "--budget", "200", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violation at index" in out
        assert '"rho"' in out

    def test_exhausted_exit_one(self, capsys):
        code = main(["counterexample", "--id", "THM21_WYD",
                     "--budget", "50", "--seed", "5"])
        assert code == 1
        assert "exhausted" in capsys.readouterr().out

    def test_seed_determines_output(self, capsys):
        args = ["counterexample", "--id", "NAIVE_WY_SHOULD_FAIL",
                "--budget", "100", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("entry", [
        {"id": "THM31_FGH", "triple": json.loads(QUARTER)},
        {"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
         "g": {"kind": "power", "p": 0.25}},
    ])
    def test_triple_entries_run(self, tmp_path, capsys, entry):
        args = ["counterexample", "--budget", "20", "--seed", "3", "--dim", "3"]
        code = main(args + ["--entry", json.dumps(entry)])
        assert code in (0, 1)
        inline = capsys.readouterr()
        assert inline.err == ""
        path = write_config(tmp_path, entry, "entry.json")
        assert main(args + ["--entry", "@" + path]) == code
        assert capsys.readouterr().out == inline.out

    def test_entry_matches_id(self, capsys):
        args = ["counterexample", "--budget", "100", "--seed", "9"]
        assert main(args + ["--id", "NAIVE_WY_SHOULD_FAIL"]) == 0
        by_id = capsys.readouterr().out
        assert main(args + ["--entry", '{"id": "NAIVE_WY_SHOULD_FAIL"}']) == 0
        assert capsys.readouterr().out == by_id

    @pytest.mark.parametrize("argv, message", [
        ([], "one of the arguments --id --entry is required"),
        (["--id", "THM21_WYD", "--entry", '{"id": "THM21_WYD"}'], "not allowed with"),
        (["--id", "THM31_FGH"], "invalid choice"),
        (["--entry", "@no/such/entry.json"], "No such file"),
        (["--entry", '{"id": "THM31_FGH"}'], "misses field 'triple'"),
        (["--entry", '{"id": "THM21_WYD", "alpha": 0.3, "gamma": 1}'],
         "unknown keys for THM21_WYD: ['gamma']"),
        (["--entry", '{"alpha": 0.3}'], "must be an object with an 'id'"),
        (["--entry", '{"id": "THM21_WYD", "alpha": "0.5"}'], "alpha must be a number, got '0.5'"),
    ])
    def test_bad_entry_exit_two(self, capsys, argv, message):
        assert main(["counterexample", "--budget", "5", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "seed must be a 64-bit unsigned integer"),
        (["--seed", str(2**64)], "seed must be a 64-bit unsigned integer"),
        (["--dim", "2000000"], "dims above 4095 are not supported"),
        (["--dim", "5000"], "dims above 4095 are not supported"),
    ])
    def test_out_of_range_seed_or_dim_exit_two(self, capsys, argv, message):
        assert main(["counterexample", "--id", "NAIVE_WY_SHOULD_FAIL", "--budget", "5",
                     *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("module", ["skewlab", "skewlab.cli"])
def test_python_dash_m_runs_cli(module):
    src = str(Path(skewlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "beta", "--triple", QUARTER, "--grid", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(parsed_values(proc.stdout)["beta"]) == pytest.approx(0.0625)


def test_cli_import_leaves_process_pool_unloaded():
    # only `verify --threads N` with N > 1 needs the process pool
    src = str(Path(skewlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, skewlab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
