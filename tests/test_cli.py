"""Command-line interface tests: exit codes, printed values, determinism."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import skewlab
from skewlab import cli
from skewlab.cli import load_default_config, main
from skewlab.functions import LScanResult

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


def run_cli(*argv, module="skewlab"):
    """``python -m module *argv`` in a fresh interpreter, so that a numpy
    warning shows up in its stderr."""
    src = str(Path(skewlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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
        ({"samples_per_dim": 0}, "samples_per_dim must be >= 1"),
        ({"dims": []}, "dims must be a nonempty list of integers >= 2"),
        ({"inequalities": {"id": "LUO_23"}}, "'inequalities' must be a list"),
        ({"inequalities": [{"id": "LUO_23"}] * 257},
         "at most 256 inequality entries are supported"),
    ])
    def test_malformed_number_exit_two(self, tmp_path, capsys, change, message):
        doc = dict(small_config_doc(), **change)
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "VIOLATED" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("doc, message", [
        ([], "config must be a JSON object"),
        ({"seed": 1}, "config misses required keys: ['dims', 'samples_per_dim', 'inequalities']"),
        # a JSON null ran as if the key were absent: a drawn alpha, drawn
        # exponents, the id's default assert_pass
        (dict(small_config_doc(), inequalities=[{"id": "THM21_WYD", "alpha": None}]),
         "inequalities[0]: bad THM21_WYD entry: alpha must be a number, got None"),
        (dict(small_config_doc(),
              inequalities=[{"id": "THM23_TILDE", "alpha": None, "beta": None}]),
         "inequalities[0]: bad THM23_TILDE entry: alpha must be a number, got None"),
        (dict(small_config_doc(),
              inequalities=[{"id": "NAIVE_WY_SHOULD_FAIL", "assert_pass": None}]),
         "inequalities[0]: assert_pass must be a boolean"),
    ])
    def test_malformed_config_exit_two(self, tmp_path, capsys, doc, message):
        out_path = tmp_path / "report.json"
        assert main(["verify", write_config(tmp_path, doc), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_path.exists()

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
        ({"id": "THM31_FGH", "triple": []},
         "bad THM31_FGH entry: triple spec must be a JSON object"),
        ({"id": "THM31_FGH", "triple": {"f": {"kind": "power", "p": 1},
                                        "g": {"kind": "power", "p": 1}}},
         "bad THM31_FGH entry: triple spec misses field 'h'"),
        # eps -1 and 0 ran on a domain outside (0, 1]; 1 and 2 blamed f's growth
        *[({"id": "THM31_FGH", "triple": dict(json.loads(QUARTER), eps=eps)},
           f"bad THM31_FGH entry: eps must lie in (0, 1), got {float(eps)!r}")
          for eps in (-1, 0, 1, 2)],
        *[({"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
            "g": {"kind": "power", "p": 0.25}, "eps": eps},
           f"bad COR41_PAIR entry: eps must lie in (0, 1), got {float(eps)!r}")
          for eps in (-1, 0, 1, 2)],
        # THM22_GWYD takes no regime tag, beside a fixed pair or a drawn one
        ({"id": "THM22_GWYD", "alpha": 0.1, "beta": 0.2, "regime": "high"},
         "inequalities[0]: unknown keys for THM22_GWYD: ['regime']"),
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

    @pytest.mark.parametrize("entry", [
        {"id": "THM31_FGH", "triple": {"f": {"kind": "power", "p": 1},
                                       "g": {"kind": "power", "p": 1},
                                       "h": {"kind": "const", "c": 0}}},
        {"id": "COR41_PAIR", "f": {"kind": "power", "p": 1}, "g": {"kind": "const", "c": 0}},
    ])
    def test_zero_constant_fails_its_premise(self, tmp_path, capsys, entry):
        # the log of a zero constant is -inf, which meets neither condition;
        # it raised "log of the zero constant is undefined", naming no entry
        messages = {
            "THM31_FGH": "THM31_FGH requires the triple to satisfy one of the two "
                         "divided-difference conditions; this one satisfies neither",
            "COR41_PAIR": "COR41_PAIR requires (f, g) to be a monotone pair",
        }
        doc = dict(small_config_doc(), inequalities=[entry])
        out_path = tmp_path / "report.json"
        assert main(["verify", write_config(tmp_path, doc), "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: inequalities[0]: bad {entry['id']} entry: {messages[entry['id']]}\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("triple, message", [
        ({"f": {"kind": "power", "p": 1.0}, "g": {"kind": "const", "c": 1.0},
          "h": {"kind": "power", "p": -1.0}},
         "degenerate denominator: 1 + 0.0 + -1.0 vanishes"),
        ({"f": {"kind": "scaled_sum", "terms": [[1.0, 0.0], [1e-17, 1.0]]},
          "g": {"kind": "power", "p": 0.25}, "h": {"kind": "power", "p": 0.5}},
         "f is not strictly increasing on the grid"),
        ({"f": {"kind": "power", "p": 1e-309}, "g": {"kind": "power", "p": 0.25},
          "h": {"kind": "power", "p": 0.5}},
         "ratio undefined: non-finite log-derivative ratio"),
    ], ids=["degenerate-beta", "tied-f", "ratio-overflow"])
    def test_planning_error_names_its_entry(self, tmp_path, capsys, triple, message):
        # the message named no entry, so two THM31_FGH entries could not be told apart
        entries = [{"id": "THM31_FGH", "triple": json.loads(QUARTER)},
                   {"id": "THM31_FGH", "triple": triple}]
        doc = dict(small_config_doc(), inequalities=entries)
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: inequalities[1]: bad THM31_FGH entry: {message}\n"

    def test_entry_whose_triple_fails_to_build_names_its_position(self, tmp_path):
        # it read "bad THM31_FGH entry: ..." with no position, while a premise
        # failure of the same config named inequalities[1]
        entries = [{"id": "THM31_FGH", "triple": json.loads(QUARTER)},
                   {"id": "THM31_FGH", "triple": NON_FINITE_TRIPLES[0][0]}]
        doc = dict(small_config_doc(), inequalities=entries)
        proc = run_cli("verify", write_config(tmp_path, doc))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: inequalities[1]: bad THM31_FGH entry: "
                   "h = Power(p=-300.0) is not finite at x = 1e-06\n"
        )

    def test_domain_floor_error_names_its_entry(self, tmp_path, capsys):
        # it read "error: THM31_FGH: the functions' domain floor ...", so two
        # THM31_FGH entries could not be told apart
        late = {"id": "THM31_FGH", "triple": dict(json.loads(QUARTER), eps=1e-3)}
        entries = [{"id": "THM31_FGH", "triple": json.loads(QUARTER)}, late]
        doc = dict(small_config_doc(), dims=[2, 8], inequalities=entries)
        assert main(["verify", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: inequalities[1]: bad THM31_FGH entry: the functions' domain floor "
            "eps = 0.001 exceeds delta / n = 0.000125 at dim 8, so sampled states "
            "could fall below it\n"
        )
        # counterexample --entry builds a one-entry campaign at --dim 2
        assert main(["counterexample", "--entry", json.dumps(late)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: inequalities[0]: bad THM31_FGH entry: the functions' domain floor "
            "eps = 0.001 exceeds delta / n = 0.0005 at dim 2, so sampled states "
            "could fall below it\n"
        )

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

    def test_constant_h_prints_no_pair_only_beta(self, capsys):
        triple = json.dumps({
            "f": {"kind": "power", "p": 0.3},
            "g": {"kind": "power", "p": 0.6},
            "h": {"kind": "const", "c": 1.0},
        })
        assert main(["beta", "--triple", triple]) == 0
        vals = parsed_values(capsys.readouterr().out)
        # uniform formula: k/(1+k)^2 with k = 2, the only coefficient printed
        assert float(vals["beta"]) == pytest.approx(2 / 9, rel=1e-12)
        assert set(vals) == {"m_g", "M_g", "m_h", "M_h", "beta", "assumption"}

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
        ({"g": "x"}, "function spec must be an object with a 'kind': 'x'"),
        ({"g": {"kind": "scaled_sum", "terms": []}}, "scaled sum needs at least one term"),
        ({"g": {"kind": "scaled_sum", "terms": [[0.0, 1.0], [0.0, 2.0]]}},
         "scaled sum must have a positive coefficient"),
        ({"f": {"kind": "const", "c": 0.0}}, "f must be strictly positive on [eps, 1]"),
        ({"f": {"kind": "exp", "a": 1e-31}},
         "ratio undefined: log-derivative of f vanishes on the grid"),
        # -1 and 0 passed, with an argmin outside (0, 1]; 1 and 2 blamed f's growth
        ({"eps": -1}, "eps must lie in (0, 1), got -1.0"),
        ({"eps": 0}, "eps must lie in (0, 1), got 0.0"),
        ({"eps": 1}, "eps must lie in (0, 1), got 1.0"),
        ({"eps": 2}, "eps must lie in (0, 1), got 2.0"),
    ])
    def test_non_number_in_spec_exit_two(self, capsys, change, message):
        doc = dict(json.loads(QUARTER), **change)
        for command in ("beta", "pairs", "scan-l"):
            assert main([command, "--triple", json.dumps(doc)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("spec, commands, message", [
        # g.p / f.p overflows to inf; pairs printed m=inf M=inf and assumption
        # I, with exit 0, and scan-l printed three lines before its exit 2
        ({"f": {"kind": "power", "p": 1e-309}, "g": {"kind": "power", "p": 0.25},
          "h": {"kind": "power", "p": 0.5}},
         ("beta", "pairs", "scan-l"), "ratio undefined: non-finite log-derivative ratio"),
        ({"f": {"kind": "exp", "a": 1e-309}, "g": {"kind": "exp", "a": 0.25},
          "h": {"kind": "exp", "a": 0.5}},
         ("beta", "pairs", "scan-l"), "ratio undefined: non-finite log-derivative ratio"),
        # f's log values tie on the grid; pairs printed both classes first
        ({"f": {"kind": "scaled_sum", "terms": [[1.0, 0.0], [1e-17, 1.0]]},
          "g": {"kind": "power", "p": 0.25}, "h": {"kind": "power", "p": 0.5}},
         ("beta", "pairs", "scan-l"), "f is not strictly increasing on the grid"),
        # 1 + m_g + m_h = 0; scan-l printed min_L, argmin and the assumption
        # first. pairs computes no beta and exits 0 on this triple
        ({"f": {"kind": "power", "p": 1.0}, "g": {"kind": "const", "c": 1.0},
          "h": {"kind": "power", "p": -1.0}},
         ("beta", "scan-l"), "degenerate denominator: 1 + 0.0 + -1.0 vanishes"),
    ], ids=["power-ratio-overflow", "exp-ratio-overflow", "tied-f", "degenerate-beta"])
    def test_failing_triple_prints_nothing(self, capsys, spec, commands, message):
        for command in commands:
            assert main([command, "--triple", json.dumps(spec)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["beta", "pairs", "scan-l"])
    def test_zero_constant_h_meets_neither_condition(self, capsys, command):
        # it exited 2 with "log of the zero constant is undefined"; a numpy
        # warning would fail this test, as pytest turns warnings into errors
        triple = json.dumps({"f": {"kind": "power", "p": 1}, "g": {"kind": "power", "p": 1},
                             "h": {"kind": "const", "c": 0}})
        assert main([command, "--triple", triple]) == 0
        captured = capsys.readouterr()
        assert parsed_values(captured.out)["assumption"] == "neither"
        assert "error" not in captured.err

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

    def test_underflowing_function_exit_two_without_warnings(self):
        # g = 5e-324 x^2 underflows to 0 on the grid; numpy printed two
        # RuntimeWarnings from its log-derivative before the error
        triple = json.dumps({
            "f": {"kind": "power", "p": 1},
            "g": {"kind": "scaled_sum", "terms": [[5e-324, 2]]},
            "h": {"kind": "power", "p": 1},
        })
        proc = run_cli("beta", "--triple", triple)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Warning" not in proc.stderr
        assert proc.stderr == "error: ratio undefined: non-finite log-derivative ratio\n"

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

    @pytest.mark.parametrize("grid", ["200", "2000"])
    def test_zero_numerator_passes(self, capsys, grid):
        # g is constant, so every numerator is 0 and 16*beta = 0; where den^2
        # underflowed, 0 / 0 printed min_L = nan and FAIL, with exit 1
        triple = json.dumps({
            "f": {"kind": "power", "p": 1},
            "g": {"kind": "const", "c": 1},
            "h": {"kind": "power", "p": 300},
        })
        assert main(["scan-l", "--triple", triple, "--grid", grid]) == 0
        vals = parsed_values(capsys.readouterr().out)
        assert vals["min_L"] == "-0"
        assert vals["16*beta"] == "0"

    def test_min_below_bound_fails(self, capsys):
        # 16*beta = 1 for QUARTER; a minimum just below it must read FAIL
        low = LScanResult(min_value=0.5, arg_x=0.25, arg_y=0.75, grid_size=200)
        with patch.object(cli, "l_scan_min", return_value=low):
            assert main(["scan-l", "--triple", QUARTER]) == 1
        out = capsys.readouterr().out
        assert parsed_values(out)["min_L"] == "0.5"
        assert parsed_values(out)["16*beta"] == "1"
        assert out.endswith("FAIL: min L < 16*beta\n")

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
        # e^{4r} overflowed from r = 177.45 on, which made NaN margins and
        # exit 0; evaluated at -|r|, the first regime is checked at any rmax
        assert main(["lemma41", "--a", "0.5", "--b", "0.5", "--c", "1",
                     "--rmax", "1000", "--steps", "7"]) == 0
        assert "violations = 0" in capsys.readouterr().out
        # the second regime's lhs exceeds the float range once |c| |r| > 354.9
        assert main(["lemma41", "--a", "1", "--b", "1", "--c", "-1.5",
                     "--rmax", "1000", "--steps", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: lemma41 lhs is not finite at r = -1000.0 (a=1.0, b=1.0, c=-1.5): "
            "its exponentials overflow there, so choose a smaller rmax\n"
        )

    @pytest.mark.parametrize("a, b", [("0", "1"), ("1", "0")])
    def test_zero_product_exit_zero_past_the_overflow(self, capsys, a, b):
        # at a * b = 0 the lhs is identically 0; it read 0 * inf = NaN past
        # |c| |r| = 354.9 and exited 2
        assert main(["lemma41", "--a", a, "--b", b, "--c", "-0.5",
                     "--rmax", "800", "--steps", "7"]) == 0
        out = capsys.readouterr().out
        assert "-800,0,0\n" in out and out.endswith("violations = 0\n")

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
        # the lhs read 0 where expm1((a+b+c) r)^2 overflowed: 21 false
        # violations; at -|r| that square lies below 1 and the grid passes
        assert main(["lemma41", "--a", "1e-12", "--b", "1", "--c", "1.5",
                     "--rmax", "145"]) == 0
        out = capsys.readouterr().out
        assert "\n142.09854927463732,2.8419709850889064e-10," in out
        assert out.endswith("violations = 0\n")

    @pytest.mark.parametrize("rmax", ["-145", "0"])
    def test_non_positive_rmax_exit_two(self, capsys, rmax):
        # the default grid is [-rmax, rmax], which needs a positive rmax
        assert main(["lemma41", "--a", "1e-12", "--b", "1", "--c", "1.5",
                     "--rmax", rmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: rmax must be positive, got {float(rmax)!r}" in captured.err

    def test_empty_r_grid_exit_two(self, capsys):
        # every point of the default grid lies in the excluded |r| < 1e-4 band
        assert main(["lemma41", "--a", "1", "--b", "1", "--c", "2", "--rmax", "5e-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r grid is empty after excluding the |r| < 1e-4 band\n"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_exit_two(self, capsys, steps):
        # 0 blamed the |r| < 1e-4 band, and -3 showed numpy's own message
        assert main(["lemma41", "--a", "0.5", "--b", "0.5", "--c", "1",
                     "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: steps must be at least 1, got {steps}\n"

    def test_grid_width_that_overflows_exit_two(self):
        # np.linspace's width 2 * rmax overflowed from rmax = 9e307 on: 1,998
        # rows at r = inf, a min_margin "at r = inf", exit 0 and two warnings
        proc = run_cli("lemma41", "--a", "1", "--b", "1", "--c", "3", "--rmax", "1e308")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: rmax = 1e+308 is too large: the grid's width 2 * rmax overflows\n"
        )


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
        (["--entry", '"x"'], "inequality entry must be an object with an 'id': 'x'"),
        (["--entry", '{"id": "LUO_23", "assert_pass": 1}'], "assert_pass must be a boolean"),
        # THM22_GWYD draws each half of its domain with probability 1/2 and takes no tag
        (["--entry", '{"id": "THM22_GWYD", "regime": "both"}'],
         "unknown keys for THM22_GWYD: ['regime']"),
        (["--entry", '{"id": "THM22_GWYD", "alpha": -0.1, "beta": 0.2}'],
         "bad THM22_GWYD entry: THM22 exponents must be nonnegative: (-0.1, 0.2)"),
        # a JSON null is not an omitted value
        (["--entry", '{"id": "THM21_WYD", "alpha": null}'],
         "bad THM21_WYD entry: alpha must be a number, got None"),
        (["--entry", '{"id": "THM23_TILDE", "alpha": null, "beta": null}'],
         "bad THM23_TILDE entry: alpha must be a number, got None"),
        (["--entry", '{"id": "THM22_GWYD", "alpha": 0.1, "beta": null}'],
         "bad THM22_GWYD entry: beta must be a number, got None"),
        (["--entry", '{"id": "NAIVE_WY_SHOULD_FAIL", "assert_pass": null}'],
         "assert_pass must be a boolean"),
    ])
    def test_bad_entry_exit_two(self, capsys, argv, message):
        assert main(["counterexample", "--budget", "5", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_entry_that_meets_neither_condition_exit_two(self, capsys):
        entry = {"id": "THM31_FGH", "triple": {"f": {"kind": "power", "p": 1},
                                               "g": {"kind": "power", "p": 1},
                                               "h": {"kind": "power", "p": 1.5}}}
        assert main(["counterexample", "--budget", "5", "--entry", json.dumps(entry)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bad THM31_FGH entry: THM31_FGH requires the triple to satisfy one of "
            "the two divided-difference conditions; this one satisfies neither\n"
        )

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
    proc = run_cli("beta", "--triple", QUARTER, "--grid", "200", module=module)
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


# h = x^-300 overflows at eps = 1e-6, and f = e^{800 x} past x = 0.887
NON_FINITE_TRIPLES = [
    ({"f": {"kind": "power", "p": 1}, "g": {"kind": "power", "p": 2},
      "h": {"kind": "power", "p": -300}},
     "h = Power(p=-300.0) is not finite at x = 1e-06"),
    ({"f": {"kind": "exp", "a": 800}, "g": {"kind": "power", "p": 2},
      "h": {"kind": "power", "p": 1}},
     "f = Exp(a=800.0) is not finite at x = 0.8884541232876711"),
]


@pytest.mark.parametrize("command", ["beta", "pairs", "scan-l"])
@pytest.mark.parametrize("triple, message", NON_FINITE_TRIPLES)
def test_function_values_that_are_not_finite_exit_two(command, triple, message):
    # beta and pairs exited 0 with bounds and classes read off infinities
    # ("(f,h): neither" for the anti-monotone x^-300), after numpy's warnings
    proc = run_cli(command, "--triple", json.dumps(triple))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("entry, message", [
    ({"id": "THM31_FGH", "triple": NON_FINITE_TRIPLES[0][0]},
     "bad THM31_FGH entry: h = Power(p=-300.0) is not finite at x = 1e-06"),
    # a warning came before the premise error
    ({"id": "COR41_PAIR", "f": {"kind": "power", "p": 1}, "g": {"kind": "power", "p": -400}},
     "bad COR41_PAIR entry: g = Power(p=-400.0) is not finite at x = 1e-06"),
])
def test_verify_entry_whose_function_values_are_not_finite_exit_two(tmp_path, entry, message):
    doc = {"seed": 1, "dims": [2], "samples_per_dim": 3, "inequalities": [entry]}
    proc = run_cli("verify", write_config(tmp_path, doc))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: inequalities[0]: {message}\n"
    )


# f = e^{705 x}: its values are finite on [eps, 1], its derivative overflows near 1
EXP_705 = {"f": {"kind": "exp", "a": 705}, "g": {"kind": "power", "p": 1},
           "h": {"kind": "const", "c": 1}}
# 1e306 sqrt(x): its derivative 5e305 / sqrt(x) overflows at eps = 1e-6
HUGE_SQRT = {"kind": "scaled_sum", "terms": [[1e306, 0.5]]}
HUGE_SQRT_AS = {
    "f": {"f": HUGE_SQRT, "g": {"kind": "power", "p": 1}, "h": {"kind": "const", "c": 1}},
    "g": {"f": {"kind": "power", "p": 1}, "g": HUGE_SQRT, "h": {"kind": "const", "c": 1}},
}


@pytest.mark.parametrize("command", ["beta", "pairs"])
def test_derivative_that_overflows_prints_no_warning(command):
    # numpy's overflow warning came before the bounds, from f' in the triple's check
    proc = run_cli(command, "--triple", json.dumps(EXP_705))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert parsed_values(proc.stdout)["assumption"] == "II"


@pytest.mark.parametrize("command, role, message", [
    # beta and pairs warned, then exited 0 with m_g = 0 and beta = 0: f'/f
    # read +inf at eps, so the ratio read 0 there; it is 2 everywhere
    ("beta", "f", "ratio undefined: log-derivative of f is not finite at x = 1e-06"),
    ("pairs", "f", "ratio undefined: log-derivative of f is not finite at x = 1e-06"),
    ("scan-l", "f", "scan quantity f^2 is not finite at x = 1e-06, "
                    "the first such point of the 200-point grid"),
    # these exited 2 already, after the warning
    ("beta", "g", "ratio undefined: non-finite log-derivative ratio"),
    ("pairs", "g", "ratio undefined: non-finite log-derivative ratio"),
    ("scan-l", "g", "scan quantity g^2 is not finite at x = 1e-06, "
                    "the first such point of the 200-point grid"),
])
def test_log_derivative_that_overflows_exit_two(command, role, message):
    proc = run_cli(command, "--triple", json.dumps(HUGE_SQRT_AS[role]))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_verify_entry_whose_log_derivative_overflows_exit_two(tmp_path):
    # 100 of 100 samples read VIOLATED with min_margin=nan
    doc = {"seed": 1, "dims": [2, 3], "samples_per_dim": 50,
           "inequalities": [{"id": "THM31_FGH", "triple": HUGE_SQRT_AS["f"]}]}
    proc = run_cli("verify", write_config(tmp_path, doc))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: inequalities[0]: bad THM31_FGH entry: "
               "ratio undefined: log-derivative of f is not finite at x = 1e-06\n"
    )
