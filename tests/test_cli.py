import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import swordgen
from swordgen.cli import parse_and_dispatch
from swordgen.greedy import run_from_payload
from swordgen.oracle import multinomial, stirling_count
from swordgen.trees import all_kary_trees
from swordgen.words import make_shape


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_default_engine_for_212(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--shape", "2,1,3", "--avoid", "212"
        )
        assert code == 0
        words = out.splitlines()
        assert words[0] == "112333"
        assert words[-1] == "333211"
        assert len(words) == 12

    def test_greedy_engine_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--shape", "1,1,1", "--avoid", "231"
        )
        assert code == 0
        assert out.splitlines() == ["123", "132", "312", "321", "213"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--shape", "2,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == 1
        run = run_from_payload(payload)
        assert run.shape == make_shape((2, 2))
        assert len(run.words) == 6
        assert run.complete

    def test_json_and_text_agree(self, capsys):
        _, text_out, _ = run_cli(capsys, "generate", "--shape", "2,2", "--avoid", "212")
        _, json_out, _ = run_cli(
            capsys, "generate", "--shape", "2,2", "--avoid", "212", "--format", "json"
        )
        payload = json.loads(json_out)
        assert ["".join(map(str, w)) for w in payload["words"]] == text_out.splitlines()

    def test_loopless_moves_in_payload(self, capsys):
        _, out, _ = run_cli(
            capsys, "generate", "--shape", "2,1,3", "--engine", "loopless",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["engine"] == "loopless"
        assert len(payload["moves"]) == len(payload["words"]) - 1
        first = payload["moves"][0]
        assert first["rank"] == 6 and first["dir"] == "L" and first["width"] == 3

    def test_expect_complete_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--shape", "1,1,1", "--avoid", "312",
            "--expect-complete",
        )
        assert code == 1
        assert out.splitlines() == ["123", "132"]
        assert "incomplete" in err

    def test_loopless_rejects_other_patterns(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--shape", "1,1,1", "--avoid", "231",
            "--engine", "loopless",
        )
        assert code == 2
        assert "loopless" in err

    def test_cap_leaves_exhaustive_open(self, capsys):
        # the loopless run needs no enumeration; only the verdict waits on
        # the cap
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "2^6", "--avoid", "212", "--cap", "1000",
        )
        assert code == 0
        lines = out.splitlines()
        assert "exhaustive: None" in lines
        assert "ok: True" in lines

    def test_start_needs_greedy(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--shape", "2,1,3", "--engine", "loopless",
            "--start", "112333",
        )
        assert code == 2
        assert "--start" in err


class TestBadInput:
    def test_bad_shape(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--shape", "0,1")
        assert code == 2 and "error" in err

    def test_bad_pattern(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--shape", "2,2", "--avoid", "2x2"
        )
        assert code == 2 and "error" in err

    def test_bad_start(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--shape", "2,2", "--start", "1212",
            "--avoid", "212",
        )
        assert code == 2 and "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--shape", "3,3,3,3", "--cap", "100"
        )
        assert code == 3 and "error" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--shape", "2,2", "--nope")
        assert code == 2

    def test_negative_cap_is_malformed(self, capsys):
        # a negative cap is bad input (exit 2), not a cap exceeded (exit 3)
        code, out, err = run_cli(capsys, "count", "--shape", "2,2", "--cap", "-1")
        assert code == 2
        assert out == ""
        assert "--cap" in err and "-1" in err

    @pytest.mark.parametrize("command", ["trace", "path", "bench"])
    def test_cap_only_where_it_is_read(self, capsys, command):
        # these commands never consult the oracle's cap, so they refuse the flag
        code, out, err = run_cli(capsys, command, "--shape", "2,1", "--cap", "0")
        assert code == 2
        assert out == ""
        assert "--cap" in err

    def test_zero_repeat_count_is_malformed(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--shape", "1,2^0")
        assert code == 2
        assert out == ""
        assert "2^0" in err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_cap_variable_is_malformed(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SWORDGEN_CAP", value)
        code, out, err = run_cli(capsys, "count", "--shape", "2,2")
        assert code == 2
        assert out == ""
        assert "SWORDGEN_CAP" in err


class TestOutputBound:
    @pytest.mark.parametrize(
        "argv", [("path",), ("trace",), ("trees",), ("generate", "--avoid", "212")]
    )
    def test_oversized_output_is_refused(self, capsys, argv):
        # 30! words: refused before the loop starts, not after memory runs out
        code, out, err = run_cli(capsys, argv[0], "--shape", "1^30", *argv[1:])
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_huge_shape_is_refused_before_it_is_built(self, capsys):
        # 10^8 values: refused while parsing, without building the list
        begin = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", "--shape", "2^100000000")
        assert time.perf_counter() - begin < 1.0
        assert code == 3 and out == "" and "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--shape", "1^2000"),
            ("verify", "--shape", "1^2000"),
            ("path", "--shape", "1^2000"),
            ("zigzag", "--shape", "1^2000", "--avoid", "231"),
            ("count", "--shape", "1^1700"),
            ("count", "--shape", "1^40000"),
        ],
    )
    def test_huge_count_is_refused_without_being_built(self, capsys, argv):
        # each size has thousands of digits: the cap check stops multiplying
        # once it passes the cap, and the message names only the cap
        begin = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - begin < 1.0
        assert code == 3 and out in ("", "syntactic: True\n")  # zigzag's first verdict
        assert err.strip().endswith("than the cap of 10000000")

    def test_default_cap_bounds_the_output(self, capsys, monkeypatch):
        monkeypatch.setenv("SWORDGEN_CAP", "100")
        code, _, err = run_cli(capsys, "path", "--shape", "2^4")  # 105 vectors
        assert code == 3 and "cap of 100" in err
        monkeypatch.setenv("SWORDGEN_CAP", "105")
        code, out, _ = run_cli(capsys, "path", "--shape", "2^4")
        assert code == 0 and len(out.splitlines()) == 105


class TestVerify:
    def test_clean_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--shape", "2,1,3", "--avoid", "212")
        assert code == 0
        lines = out.splitlines()
        assert "words: 12" in lines
        assert "ok: True" in lines
        assert "transpositions_only: True" in lines

    def test_start_needs_greedy(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--shape", "2,1", "--avoid", "212", "--start", "999",
        )
        assert code == 2
        assert out == ""
        assert "--start" in err

    def test_incomplete_is_a_negative_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--shape", "1,1,1", "--avoid", "312",
            "--expect-complete",
        )
        assert code == 1
        assert "complete: False" in out.splitlines()
        assert "exhaustive: False" in out.splitlines()


class TestCount:
    def test_oracle_equals_formula(self, capsys):
        for avoid, want in [
            (None, multinomial(make_shape((2, 1, 3)))),
            ("212", stirling_count(make_shape((2, 1, 3)))),
        ]:
            argv = ["count", "--shape", "2,1,3"]
            if avoid:
                argv += ["--avoid", avoid]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and int(out) == want
            code, out, _ = run_cli(capsys, *argv, "--method", "formula")
            assert code == 0 and int(out) == want

    def test_kcatalan_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--shape", "2,2,2", "--avoid", "132,121",
            "--method", "formula",
        )
        assert code == 0 and int(out) == 12

    def test_formula_needs_known_patterns(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--shape", "2,2", "--avoid", "231",
            "--method", "formula",
        )
        assert code == 2 and "formula" in err


class TestTrace:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--shape", "2,1,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["perm", "v", "u", "i", "j", "left", "inv", "fs", "dirs"]
        assert lines[1].split() == ["112333", "3", "2", "6", "3", "134", "000", "123", "---"]
        assert lines[-1].split() == ["333211", "1", "-", "-", "-", "541", "023", "123", "-++"]
        assert len(lines) == 13

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--shape", "2,1,3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == 1
        assert len(payload["rows"]) == 12
        assert payload["rows"][0]["perm"] == [1, 1, 2, 3, 3, 3]
        assert payload["rows"][-1]["u"] is None


class TestZigzag:
    def test_both_modes(self, capsys):
        code, out, _ = run_cli(
            capsys, "zigzag", "--shape", "1,1,1", "--avoid", "231"
        )
        assert code == 0
        assert out.splitlines() == ["syntactic: True", "semantic: True"]

    def test_negative_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "zigzag", "--avoid", "212", "--mode", "syntactic")
        assert code == 1
        assert out.splitlines() == ["syntactic: False"]

    def test_semantic_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys, "zigzag", "--shape", "1,2,3", "--avoid", "212",
            "--mode", "semantic",
        )
        assert code == 1
        assert out.splitlines()[0] == "semantic: False"
        assert out.splitlines()[1].startswith("counterexample: word=")

    def test_semantic_needs_shape(self, capsys):
        code, _, err = run_cli(capsys, "zigzag", "--avoid", "231", "--mode", "semantic")
        assert code == 2 and "--shape" in err

    def test_both_needs_shape_before_any_verdict(self, capsys):
        code, out, err = run_cli(capsys, "zigzag", "--avoid", "231", "--mode", "both")
        assert code == 2
        assert out == ""
        assert "--shape" in err


class TestTreesAndPath:
    def test_stirling_trees_text(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--shape", "1,2")
        assert code == 0
        assert out.splitlines() == ["1(ε,2(ε,ε,ε))", "1(2(ε,ε,ε),ε)"]

    def test_kary_trees_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trees", "--shape", "2,2", "--kind", "kary", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 3
        assert len(payload["trees"]) == 3  # the 3-Catalan number for m = 2
        assert sorted(payload["trees"]) == sorted(
            str(t) for t in all_kary_trees(3, 2)
        )

    def test_kary_needs_uniform_shape(self, capsys):
        code, _, err = run_cli(capsys, "trees", "--shape", "2,1", "--kind", "kary")
        assert code == 2 and "equal multiplicities" in err

    def test_path_text(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--shape", "2,1,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0,0,0"
        assert lines[-1] == "0,2,3"
        assert len(lines) == 12

    def test_path_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "path", "--shape", "1,2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph path {")
        assert 'w0 -> w1 [label="v2+1"];' in out

    def test_generate_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--shape", "2,2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph run {")
        assert out.count(" -> ") == 5


class TestBench:
    def test_reports(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--shape", "2,1,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "shape=213 formula=12"
        fields = dict(
            part.split("=", 1) for part in lines[1].split() if "=" in part
        )
        assert int(fields["words"]) == 12
        assert float(fields["seconds"]) >= 0
        assert lines[1].endswith("ok")


class TestImport:
    def test_import_leaves_numpy_out(self):
        src = str(Path(swordgen.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import swordgen, sys; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
