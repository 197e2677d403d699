import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import swordgen
from swordgen import cli, greedy, oracle, stirling, trees
from swordgen.cli import parse_and_dispatch
from swordgen.greedy import generate_greedy, run_from_payload, run_to_payload
from swordgen.oracle import all_shapes, multinomial, stirling_count
from swordgen.trees import all_kary_trees
from swordgen.words import format_shape, format_word, make_shape

SRC = str(Path(swordgen.__file__).resolve().parents[1])


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


class Stop(Exception):
    """Ends a stream early, as a reader that has seen enough would."""


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class Replay:
    """A greedy walk that replays a finished run."""

    def __init__(self, run):
        self.run, self.patterns, self.size = run, run.patterns, len(run.words)

    def __call__(self, visit):
        for word, move in zip(self.run.words, (None,) + self.run.moves):
            visit(word, move)
        return self.size


class TestStream:
    def test_stream_equals_the_materialised_run(self, capsys):
        for n in range(1, 9):
            for shape in all_shapes(n):
                argv = ("generate", "--shape", format_shape(shape), "--avoid", "212")
                run = stirling.loopless_run(shape)
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                assert out == "".join(format_word(w) + "\n" for w in run.words)
                code, out, _ = run_cli(capsys, *argv, "--format", "json")
                assert code == 0
                assert out == json.dumps(run_to_payload(run, "loopless")) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_engine_flag_gives_the_same_bytes(self, capsys, fmt):
        for shape in all_shapes(6):
            argv = ("generate", "--shape", format_shape(shape), "--format", fmt)
            _, default, _ = run_cli(capsys, *argv, "--avoid", "212")
            _, loopless, _ = run_cli(capsys, *argv, "--engine", "loopless")
            assert default == loopless

    def test_comma_form_on_a_prefix(self, monkeypatch):
        # 10! words with m = 10: the first chunk is compared, then the
        # stream is stopped
        writes = []

        def write(text):
            writes.append(text)
            raise Stop

        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
        with pytest.raises(Stop):
            parse_and_dispatch(["generate", "--shape", "1^10", "--avoid", "212"])
        lines = writes[0].splitlines()
        assert len(lines) == cli.CHUNK
        expected = []

        def visit(perm):
            if len(expected) == len(lines):
                raise Stop
            expected.append(format_word(perm))

        with pytest.raises(Stop):
            stirling.generate_loopless(make_shape((1,) * 10), visit)
        assert lines == expected
        assert lines[0] == "1,2,3,4,5,6,7,8,9,10"

    @pytest.mark.parametrize(
        "argv, start",
        [
            pytest.param(("generate", "--avoid", "212", "--format", "text"), "112333\n", id="text"),
            pytest.param(("generate", "--avoid", "212", "--format", "json"), '{"format": 1,', id="json"),
            pytest.param(("generate", "--avoid", "212", "--format", "dot"), "digraph run {", id="dot"),
            pytest.param(("generate", "--avoid", "231", "--format", "dot"), "digraph run {", id="greedy-dot"),
            pytest.param(("trees", "--format", "text"), "1(ε,ε,2(", id="trees-text"),
            pytest.param(("trees", "--format", "json"), '{"format": 1,', id="trees-json"),
            pytest.param(("trees", "--format", "dot"), "digraph trees {", id="trees-dot"),
            pytest.param(("path", "--format", "text"), "0,0,0\n", id="path-text"),
            pytest.param(("path", "--format", "json"), '{"format": 1,', id="path-json"),
            pytest.param(("path", "--format", "dot"), "digraph path {", id="path-dot"),
        ],
    )
    def test_nothing_is_materialised(self, capsys, monkeypatch, argv, start):
        def refuse(*args, **kwargs):
            raise AssertionError("the command built the whole order")

        for module, name in (
            (stirling, "loopless_run"),
            (stirling, "stirling_sequence"),
            (trees, "hamilton_path"),
            (greedy, "generate_greedy"),
            (trees, "export_dot"),
        ):
            monkeypatch.setattr(module, name, refuse)
        code, out, _ = run_cli(capsys, *argv, "--shape", "2,1,3")
        assert code == 0
        assert out.startswith(start)

    def test_json_memory_stays_flat(self):
        # the materialised run and its 14.9 MB payload peaked at 117 MB
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                code = parse_and_dispatch(
                    ["generate", "--shape", "2^7", "--avoid", "212", "--format", "json"]
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4_000_000

    @pytest.mark.parametrize(
        "argv, words",
        [(("2^6", "--avoid", "212"), 10395), (("1^7",), 5040)],
        ids=["loopless", "greedy"],
    )
    def test_one_write_per_chunk(self, monkeypatch, argv, words):
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        assert parse_and_dispatch(["generate", "--shape", *argv]) == 0
        chunk = cli.CHUNK
        full, rest = divmod(words, chunk)
        assert [text.count("\n") for text in writes] == [chunk] * full + [rest]
        assert all(text.endswith("\n") for text in writes)

    def test_greedy_text_is_the_run(self, capsys):
        # no patterns gives "patterns": [], and a one-word shape "moves": []
        for n in range(1, 7):
            for shape in all_shapes(n):
                for avoid in ("", "231", "12121", "132,121", "132,231,121"):
                    run = generate_greedy(shape, avoid.split(",") if avoid else ())
                    argv = ("generate", "--shape", format_shape(shape), "--avoid", avoid)
                    _, out, _ = run_cli(capsys, *argv)
                    assert out == "".join(format_word(w) + "\n" for w in run.words)
                    _, out, _ = run_cli(capsys, *argv, "--format", "json")
                    assert out == json.dumps(run_to_payload(run, "greedy")) + "\n"

    def test_greedy_comma_form(self, capsys, monkeypatch):
        # m = 10 prints words in comma form.  The run (16,796 words, sized by
        # the k-Catalan formula) is made once and replayed to the command as
        # its walk
        run = generate_greedy(make_shape((1,) * 10), ("132", "121"))
        monkeypatch.setattr(swordgen.greedy, "greedy_walk", lambda *args, **kwargs: Replay(run))
        argv = ("generate", "--shape", "1^10", "--avoid", "132,121")
        _, out, _ = run_cli(capsys, *argv)
        assert out == "".join(format_word(w) + "\n" for w in run.words)
        assert out.startswith("1,2,3,4,5,6,7,8,9,10\n")
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert out == json.dumps(run_to_payload(run, "greedy")) + "\n"

    def test_greedy_stops_with_the_reader(self, monkeypatch):
        # 40,320 words; the first write that holds words fails, as to a
        # reader that has gone: in text the first write, in JSON and DOT the
        # second, after their head
        walked, writes = [], []

        def counted(engine):
            def steps(*args):
                *args, visit = args

                def seen(word, move):
                    walked.append(word)
                    visit(word, move)

                return engine(*args, seen)

            return steps

        def write(text):
            writes.append(text)
            if len(writes) > fine:
                raise BrokenPipeError

        # count the steps of whichever engine the walk runs
        for name in ("_scan", "_sweep"):
            monkeypatch.setattr(greedy, name, counted(getattr(greedy, name)))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
        for fmt, fine in (("text", 0), ("json", 1), ("dot", 1)):
            walked.clear()
            writes.clear()
            with pytest.raises(BrokenPipeError):
                parse_and_dispatch(["generate", "--shape", "1^8", "--avoid", "12121", "--format", fmt])
            # the start and the steps after it, of a walk that did run
            assert walked, fmt
            assert 1 + len(walked) <= cli.CHUNK + 1, fmt

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--shape", "1^7", "--cap", "5039"), 3),
            (("--shape", "1,1,1", "--avoid", "231", "--start", "231"), 2),
        ],
        ids=["cap", "start"],
    )
    def test_greedy_refusal_writes_nothing(self, capsys, argv, code, fmt):
        got, out, err = run_cli(capsys, "generate", *argv, "--format", fmt)
        assert (got, out) == (code, "")
        assert err.startswith("error: ")

    def test_verify_builds_no_run(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify built the whole run")

        monkeypatch.setattr(stirling, "loopless_run", refuse)
        monkeypatch.setattr(greedy, "generate_greedy", refuse)
        for argv in (
            ("--shape", "2,1,3", "--avoid", "212"),
            ("--shape", "2,1,3", "--avoid", "212", "--engine", "greedy"),
            ("--shape", "2,1,2", "--avoid", "231", "--start", "33211"),
            ("--shape", "1,1,1", "--avoid", "312"),
        ):
            code, out, _ = run_cli(capsys, "verify", *argv)
            assert code in (0, 1)
            assert "all_distinct: True" in out.splitlines()

    def test_closed_pipe_ends_quietly(self):
        # 2,027,025 words, but the reader leaves after the first line
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "swordgen.cli", "generate", "--shape", "2^8", "--avoid", "212"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        assert time.perf_counter() - begin < 2.0
        assert first == b"1122334455667788\n"
        assert code == 141
        assert b"Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("trees", "--shape", "2^7", "--format", "dot"),
            ("path", "--shape", "2^7", "--format", "dot"),
            ("generate", "--shape", "2^7", "--avoid", "212", "--format", "dot"),
        ],
        ids=["trees", "path", "generate"],
    )
    def test_closed_pipe_ends_quietly_in_dot(self, argv):
        # 135,135 items each; the reader leaves after the first line.  When
        # these were built whole, one write of the whole text met the closed
        # pipe and the command exited 0 after up to 6 s
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "swordgen.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        assert time.perf_counter() - begin < 2.0
        assert first.startswith(b"digraph ")
        assert code == 141
        assert b"Traceback" not in err


class TestBadInput:
    def test_bad_shape(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--shape", "0,1")
        assert code == 2 and "error" in err
        # a given shape is read even where the verdict does not need it
        code, out, err = run_cli(
            capsys, "zigzag", "--mode", "syntactic", "--shape", "abc", "--avoid", "231"
        )
        assert code == 2 and out == "" and "error" in err

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

    @pytest.mark.parametrize("command", ["trace", "path"])
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
        [("generate", "--shape", "99999999999999999999"), ("verify", "--shape", "1,99999999999999999999")],
    )
    def test_shape_with_too_many_letters_is_refused(self, capsys, argv):
        # 10^20 letters: refused while parsing, before the sorted word is built
        begin = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - begin < 1.0
        assert code == 3 and out == "" and "cap" in err
        assert "Traceback" not in err

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

    def test_void_pattern_is_decided_without_listing(self, capsys, monkeypatch):
        # 12121 needs three copies of a value, so the language is every word
        def refuse(*args, **kwargs):
            raise AssertionError("verify listed every word")

        monkeypatch.setattr(oracle, "all_swords", refuse)
        code, out, _ = run_cli(capsys, "verify", "--shape", "2,1,1,1,1,2", "--avoid", "12121")
        assert code == 0
        assert "words: 10080" in out.splitlines()
        assert "exhaustive: True" in out.splitlines()

    def test_zigzag_set_without_a_closed_form_lists_no_words(self, capsys, monkeypatch):
        # {231} is sized on the generating tree and swept, and verified there
        def refuse(*args, **kwargs):
            raise AssertionError("listed the language")

        monkeypatch.setattr(oracle, "language", refuse)
        code, out, _ = run_cli(capsys, "generate", "--shape", "1^7", "--avoid", "231")
        assert code == 0 and len(out.splitlines()) == 429
        code, out, _ = run_cli(capsys, "verify", "--shape", "1^7", "--avoid", "231")
        assert code == 0
        assert "exhaustive: True" in out.splitlines()

    def test_language_is_counted_once(self, capsys, monkeypatch):
        # {312} has no closed form: the walk sizes it on the generating
        # tree, and verify reuses that size
        calls = []
        count_avoiding = oracle.count_avoiding

        def counted(*args, **kwargs):
            calls.append(args)
            return count_avoiding(*args, **kwargs)

        monkeypatch.setattr(oracle, "count_avoiding", counted)
        code, out, _ = run_cli(capsys, "verify", "--shape", "1^6", "--avoid", "312")
        assert code == 1
        assert "counterexample[exhaustive]: {'visited': 32, 'language': 132}" in out.splitlines()
        assert len(calls) == 1

    def test_incomplete_is_a_negative_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--shape", "1,1,1", "--avoid", "312")
        assert code == 1
        assert "complete: False" in out.splitlines()
        assert "exhaustive: False" in out.splitlines()

    def test_expect_complete_is_a_generate_option(self, capsys):
        # the report's exhaustive verdict already fails an incomplete run
        code, _, err = run_cli(capsys, "verify", "--shape", "1,1,1", "--expect-complete")
        assert code == 2
        assert "--expect-complete" in err


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

    def test_formula_count_is_bounded_by_its_digits(self, capsys):
        for argv in [
            ("1^1700",),  # 1700! has 4,755 digits, more than an int prints
            ("1000000^3",),  # millions of digits, refused before they are computed
            ("10000000^2",),
            ("100000^100000", "--avoid", "132,121"),
        ]:
            begin = time.perf_counter()
            code, out, err = run_cli(capsys, "count", "--shape", *argv, "--method", "formula")
            assert time.perf_counter() - begin < 1.0, argv
            assert code == 3 and out == ""
            assert "error: the count has more than 4300 digits" in err
        code, out, _ = run_cli(capsys, "count", "--shape", "1^1000", "--method", "formula")
        assert code == 0 and len(out.strip()) == 2568

    def test_tree_count_keeps_the_cap(self, capsys):
        # the generating tree counts under the same cap as the word list
        code, out, err = run_cli(capsys, "count", "--shape", "1^11", "--avoid", "231")
        assert code == 3 and out == ""
        assert err.strip().endswith("has more words than the cap of 10000000")

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_memory_stays_flat(self, monkeypatch, fmt):
        # the rows go out a chunk at a time: with chunks of 64 rows, the 720
        # rows of 1^6 peaked at 0.96 MB (text) and 2.8 MB (JSON) when the
        # whole table was built first
        monkeypatch.setattr(cli, "CHUNK", 64)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                code = parse_and_dispatch(["trace", "--shape", "1^6", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 500_000


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

    def test_both_refuses_over_the_cap_before_any_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "zigzag", "--shape", "1^3", "--avoid", "231", "--cap", "0"
        )
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_both_needs_shape_before_any_verdict(self, capsys):
        code, out, err = run_cli(capsys, "zigzag", "--avoid", "231", "--mode", "both")
        assert code == 2
        assert out == ""
        assert "--shape" in err


class TestTreesAndPath:
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("command", ["trees", "path"])
    def test_memory_stays_flat(self, monkeypatch, command, fmt):
        # the items go out a chunk at a time: with chunks of 64 items, the
        # 10,395 words of 2^6 peaked at 5.3 MB (path JSON) to 64 MB (trees
        # DOT) when the whole order was built first
        monkeypatch.setattr(cli, "CHUNK", 64)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                code = parse_and_dispatch([command, "--shape", "2^6", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000

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

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_kary_trees_take_the_walk(self, capsys, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("trees built the whole greedy run")

        monkeypatch.setattr(greedy, "generate_greedy", refuse)
        code, out, _ = run_cli(capsys, "trees", "--shape", "2^3", "--kind", "kary", "--format", fmt)
        assert code == 0
        if fmt == "text":
            assert len(out.splitlines()) == 12  # the 3-Catalan number for m = 3

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

    def test_dot_equals_the_built_payload_up_to_7(self, capsys, monkeypatch):
        # `path` labels its edges from the loop's steps, never by diffing vectors
        def refuse(*args):
            raise AssertionError("path diffed two vectors")

        for n in range(1, 8):
            for shape in all_shapes(n):
                text = format_shape(shape)
                expected = trees.export_dot(trees.hamilton_path(shape))
                with monkeypatch.context() as patch:
                    patch.setattr(trees, "step_label", refuse)
                    assert run_cli(capsys, "path", "--shape", text, "--format", "dot") == (0, expected, "")
                expected = trees.export_dot(stirling.loopless_run(shape))
                argv = ("generate", "--shape", text, "--avoid", "212", "--format", "dot")
                assert run_cli(capsys, *argv) == (0, expected, ""), text

    def test_generate_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--shape", "2,2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph run {")
        assert out.count(" -> ") == 5


class TestImport:
    def test_import_leaves_numpy_out(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        code = "import swordgen, sys; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_dataclasses_out(self):
        # `dataclasses`, with the `inspect` and `ast` it imports, was the
        # largest part of every command's start
        env = dict(os.environ, PYTHONPATH=SRC)
        code = "import swordgen.cli, sys; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
