"""Tests for the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import swordgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- spans -------------------------------------------------------------------


def test_self_time_subtracts_child_spans_and_leaves():
    tracer = tracing.Tracer()
    # root 0..10 holds child 1..4 (which holds grandchild 2..3) and child 5..9
    tracer.spans.extend(
        [
            [0, 0.0, 10.0, -1, 0, False],
            [1, 1.0, 4.0, 0, 0, False],
            [2, 2.0, 3.0, 1, 0, False],
            [1, 5.0, 9.0, 0, 0, False],
        ]
    )
    # 0.5 s of leaf calls under the grandchild, 1.5 s under the root
    tracer.leaves[(5, 2)] = [10, 0.5, 10]
    tracer.leaves[(5, 0)] = [3, 1.5, 0]
    assert tracer.self_times() == pytest.approx([1.5, 2.0, 0.5, 4.0])


def test_layer_totals_charge_nested_stream_to_materialize():
    tracer = tracing.Tracer()
    stream = tracer.names.index("stirling.generate_loopless")
    seq = tracer.names.index("stirling.stirling_sequence")
    tracer.spans.extend(
        [
            [seq, 0.0, 3.0, -1, 100, False],
            [stream, 1.0, 3.0, 0, 100, False],
            [stream, 4.0, 5.0, -1, 50, False],
        ]
    )
    totals = tracing.layer_totals(tracer)
    assert totals["stirling.materialize"]["self_s"] == pytest.approx(3.0)
    assert totals["stirling.materialize"]["size"] == 100
    assert totals["stirling.stream"]["self_s"] == pytest.approx(1.0)
    assert totals["stirling.stream"]["size"] == 50


def test_hooks_cover_every_alias_and_restore_them():
    from swordgen import cli, greedy, patterns

    original = patterns.avoids_all
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unmeasured == []
        for alias in ("greedy.avoids_all", "oracle.avoids_all", "trees.avoids_all"):
            assert f"swordgen.{alias}" in tracer.aliases["patterns.avoids_all"]
        assert "swordgen.oracle.avoids_212" in tracer.aliases["patterns.avoids_212"]
        assert "swordgen.greedy.classify_move" in tracer.aliases["bumps.classify_move"]
        assert "swordgen.classify_move" in tracer.aliases["bumps.classify_move"]
        assert "swordgen.cli.run_to_payload" in tracer.aliases["greedy.run_to_payload"]
        assert greedy.avoids_all is not original
        run_ = swordgen.generate_greedy(swordgen.make_shape((1, 1, 1)), ("231",))
        assert len(run_.words) == 5
    finally:
        tracer.uninstall()
    assert greedy.avoids_all is original and patterns.avoids_all is original
    assert cli.run_to_payload is greedy.run_to_payload
    names = [tracer.names[rec[0]] for rec in tracer.spans]
    assert names == ["greedy.generate_greedy", "oracle.language", "oracle.all_swords"]
    assert [rec[3] for rec in tracer.spans] == [-1, 0, 1]
    values, missing = tracing.layer_metrics(tracer, tracing.layer_totals(tracer), 0)
    assert missing == []
    assert values["oracle.words_enumerated"] == 6
    assert values["oracle.words_kept"] == 5
    assert values["greedy.visits"] == 5
    # one test of the start word, six inside the oracle
    assert values["patterns.tests"] == 7


def test_missing_hook_target_is_unmeasured_not_zero():
    hooks = tracing.HOOKS + (("oracle.no_such_function", "oracle.gone", "span", None, None),)
    tracer = tracing.Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.unmeasured == ["oracle.no_such_function"]

    bare = tuple(h for h in tracing.HOOKS if h[1] != "oracle.enumerate")
    bare += (("oracle.gone_enumerator", "oracle.enumerate", "span", len, None),)
    tracer = tracing.Tracer(bare)
    tracer.install()
    tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer, tracing.layer_totals(tracer), 0)
    assert "oracle.words_enumerated" in missing and "oracle.words_enumerated" not in values
    assert "oracle.yield" in missing
    assert "patterns.tests" in values


# --- sink --------------------------------------------------------------------


def test_sink_counts_bytes_and_times_the_first_write():
    ticks = iter([5.0, 6.0, 7.0])
    sink = run.Sink(clock=lambda: next(ticks))
    assert sink.first is None
    print("12", file=sink)
    print("ε", file=sink, end="")
    sink.buffer.write(b"\xce\xb5")
    assert sink.first == 5.0
    assert sink.text() == "12\nεε"
    assert len(sink.text().encode()) == 7


# --- checks ------------------------------------------------------------------


def test_checker_rejects_two_swapped_words():
    shape = (2, 1, 2)
    words = swordgen.stirling_sequence(swordgen.make_shape(shape))
    patterns = frozenset({(2, 1, 2)})
    checks.check_sequence(words, shape, patterns, swordgen.classify_move)
    for i, j in ((0, 1), (3, 7)):
        swapped = list(words)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        with pytest.raises(checks.CheckError):
            checks.check_sequence(swapped, shape, patterns, swordgen.classify_move)


def test_checker_rejects_wrong_count_and_foreign_words():
    shape = (1, 1, 1)
    run_ = swordgen.generate_greedy(swordgen.make_shape(shape), ("231",))
    patterns = frozenset({(2, 3, 1)})
    with pytest.raises(checks.CheckError):
        checks.check_sequence(list(run_.words[:-1]), shape, patterns, swordgen.classify_move)
    with pytest.raises(checks.CheckError):
        checks.check_sequence(list(run_.words[:-1]) + [(2, 3, 1)], shape, patterns, swordgen.classify_move)


def test_reference_212_order_matches_the_loopless_engine():
    for n in range(1, 8):
        for shape in swordgen.all_shapes(n):
            s = shape.multiplicities
            assert checks.order_212(s) == swordgen.stirling_sequence(shape)
            assert checks.gray_212(s) == swordgen.hamilton_path(shape)


@pytest.mark.parametrize("patterns", ["212", "231", "132,121", "12121", "132,231,121", "1212", ""])
def test_independent_counts_match_the_oracle(patterns):
    pats = checks.parse_patterns(patterns)
    given = tuple(p for p in patterns.split(",") if p)
    for n in range(1, 7):
        for shape in swordgen.all_shapes(n):
            s = shape.multiplicities
            want = swordgen.count_avoiding(shape, given)
            assert checks.expected_count(s, pats) == want, s
            assert checks.brute_count(s, pats) == want, s


def test_pools_hold_equal_size_languages():
    for specs in workloads._SPECS.values():
        for _name, _kind, _role, _head, pool, template in specs:
            if pool is None or template[0] not in ("generate", "count", "verify"):
                continue
            sizes = []
            for pick in workloads.POOLS[pool]:
                argv = [a.format(pick) for a in template]
                opts = dict(zip(argv[1::2], argv[2::2]))
                shape = checks.parse_shape(opts["--shape"])
                sizes.append(checks.expected_count(shape, checks.parse_patterns(opts.get("--avoid"))))
            assert max(sizes) <= 1.006 * min(sizes), (pool, template)


def test_draw_is_fixed_by_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.draw(workload, 7)
        assert first == workloads.draw(workload, 7)
        assert sum(job.headline for job in first) == 1
    orders = {tuple(j.name for j in workloads.draw("oracle-sparse", s)) for s in range(5)}
    assert len(orders) > 1
