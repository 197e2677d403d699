import ast
import inspect
import textwrap

import pytest

from swordgen import stirling
from swordgen.bumps import LEFT, RIGHT, classify_move
from swordgen.greedy import verify_gray_code
from swordgen.oracle import all_shapes, language, stirling_count
from swordgen.stirling import (
    TraceRow,
    generate_loopless,
    loopless_run,
    step_stats,
    stirling_sequence,
    trace,
)
from swordgen.trees import hamilton_path, inversion_vector
from swordgen.words import make_shape

# every visit of the (2,1,3) run with its full variable state
TRACE_213 = [
    TraceRow((1, 1, 2, 3, 3, 3), 3, 2, 6, 3, (1, 3, 4), (0, 0, 0), (1, 2, 3), (-1, -1, -1)),
    TraceRow((1, 1, 3, 3, 3, 2), 3, 1, 5, 2, (1, 6, 3), (0, 0, 1), (1, 2, 3), (-1, -1, -1)),
    TraceRow((1, 3, 3, 3, 1, 2), 3, 1, 4, 1, (1, 6, 2), (0, 0, 2), (1, 2, 3), (-1, -1, -1)),
    TraceRow((3, 3, 3, 1, 1, 2), 2, 1, 6, 5, (4, 6, 1), (0, 0, 3), (1, 2, 3), (-1, -1, 1)),
    TraceRow((3, 3, 3, 1, 2, 1), 3, 1, 1, 4, (4, 5, 1), (0, 1, 3), (1, 2, 3), (-1, -1, 1)),
    TraceRow((1, 3, 3, 3, 2, 1), 3, 2, 2, 5, (1, 5, 2), (0, 1, 2), (1, 2, 3), (-1, -1, 1)),
    TraceRow((1, 2, 3, 3, 3, 1), 3, 1, 3, 6, (1, 2, 3), (0, 1, 1), (1, 2, 3), (-1, -1, 1)),
    TraceRow((1, 2, 1, 3, 3, 3), 2, 1, 2, 1, (1, 2, 4), (0, 1, 0), (1, 2, 3), (-1, -1, -1)),
    TraceRow((2, 1, 1, 3, 3, 3), 3, 1, 6, 3, (2, 1, 4), (0, 2, 0), (1, 1, 3), (-1, 1, -1)),
    TraceRow((2, 1, 3, 3, 3, 1), 3, 1, 5, 2, (2, 1, 3), (0, 2, 1), (1, 1, 3), (-1, 1, -1)),
    TraceRow((2, 3, 3, 3, 1, 1), 3, 2, 4, 1, (5, 1, 2), (0, 2, 2), (1, 1, 3), (-1, 1, -1)),
    TraceRow((3, 3, 3, 2, 1, 1), 1, None, None, None, (5, 4, 1), (0, 2, 3), (1, 2, 3), (-1, 1, 1)),
]


class TestTrace:
    def test_full_state_table(self):
        assert trace(make_shape((2, 1, 3))) == TRACE_213

    def test_single_value_shape(self):
        rows = trace(make_shape((3,)))
        assert rows == [TraceRow((1, 1, 1), 1, None, None, None, (1,), (0,), (1,), (-1,))]


# the visit order as each public entry point reports it; "python" is
# stirling_sequence, the plain list of tuples
VISIT_ORDERS = {
    "python": stirling_sequence,
    "run": lambda shape: list(loopless_run(shape).words),
    "trace": lambda shape: [row.perm for row in trace(shape)],
}


class TestSequences:
    @pytest.mark.parametrize("route", VISIT_ORDERS)
    def test_plain_changes(self, route):
        got = VISIT_ORDERS[route](make_shape((1, 1, 1)))
        assert got == [
            (1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3),
        ]

    @pytest.mark.parametrize("route", VISIT_ORDERS)
    def test_tiny_shapes(self, route):
        order = VISIT_ORDERS[route]
        assert order(make_shape((3,))) == [(1, 1, 1)]
        assert order(make_shape((1, 2))) == [
            (1, 2, 2), (2, 2, 1),
        ]

    def test_matches_trace_words(self):
        got = stirling_sequence(make_shape((2, 1, 3)))
        assert got == [row.perm for row in TRACE_213]

    def test_visits_stirling_language_exactly_once(self):
        for total in range(1, 8):
            for shape in all_shapes(total):
                seq = stirling_sequence(shape)
                assert len(seq) == stirling_count(shape)
                assert set(seq) == language(shape, {"212"}).word_set()
                assert len(set(seq)) == len(seq)

    def test_visitor_sees_live_list(self):
        shape = make_shape((1, 2))
        raw = []
        count = generate_loopless(shape, raw.append)
        assert count == 2
        assert raw[0] is raw[1]  # same list object every visit: copy to keep
        assert tuple(raw[0]) == (2, 2, 1)  # final state after the last move

    def test_visit_count(self):
        for total in range(1, 9):
            for shape in all_shapes(total):
                assert generate_loopless(shape) == stirling_count(shape)

    def test_visit_count_for_n_16(self):
        # the counter only walks the avoiding words, so n = 16 stays cheap
        shape = make_shape((3, 3, 3, 3, 2, 2))
        assert shape.n == 16
        assert generate_loopless(shape) == stirling_count(shape)


class TestTraceAgreement:
    def test_run_columns_match_reference(self):
        for total in range(1, 8):
            for shape in all_shapes(total):
                rows = trace(shape)
                run = loopless_run(shape)
                assert list(run.words) == [r.perm for r in rows]
                assert hamilton_path(shape) == [r.inv for r in rows]
                assert len(run.moves) == len(rows) - 1
                for word, mv, r in zip(run.words, run.moves, rows):
                    # the run of r.v moves in its recorded direction from anchor r.i
                    assert word[mv.anchor - 1] == r.v
                    assert mv.anchor == r.i
                    assert mv.width == shape.multiplicities[r.v - 1]
                    assert mv.dir == (RIGHT if r.dirs[r.v - 1] == 1 else LEFT)
                assert rows[-1].v == 1 and rows[-1].u is None


class TestRunObject:
    def test_moves_classify(self):
        for mult in [(1, 1, 1), (2, 1, 3), (2, 2), (1, 2, 2), (3, 1)]:
            run = loopless_run(make_shape(mult))
            assert len(run.moves) == len(run.words) - 1
            for a, b, mv in zip(run.words, run.words[1:], run.moves):
                assert classify_move(a, b) == mv

    def test_verifies_clean(self):
        report = verify_gray_code(loopless_run(make_shape((2, 1, 3))))
        assert report.ok
        assert report.exhaustive and report.transpositions_only

    def test_every_step_is_a_transposition(self):
        for total in range(1, 7):
            for shape in all_shapes(total):
                run = loopless_run(shape)
                for a, b in zip(run.words, run.words[1:]):
                    assert sum(x != y for x, y in zip(a, b)) == 2


class TestInversionBookkeeping:
    def test_inv_column_tracks_inversion_vector(self):
        # the engine's inv array must agree at every visit with the value
        # recomputed from scratch off the current word
        for total in range(1, 7):
            for shape in all_shapes(total):
                for row in trace(shape):
                    assert row.inv == inversion_vector(row.perm), (
                        shape.multiplicities,
                        row,
                    )


class TestStepStats:
    def test_counts_and_constant_bound(self):
        maxima = set()
        for mult in [(1, 1, 1), (2, 1, 3), (2, 2, 2), (1, 2, 3), (4, 4), (1,) * 7]:
            shape = make_shape(mult)
            count, max_steps = step_stats(shape)
            assert count == stirling_count(shape)
            maxima.add(max_steps)
        assert len(maxima) == 1  # the per-visit work does not grow with n or m

    def test_twin_matches_the_loop(self):
        # step_stats must count the real loop: with its step bookkeeping
        # and the loop's visitor call removed, the two loop bodies are equal
        def loop_body(func):
            tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
            (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.While)]
            return ast.dump(strip(loop))

        def counts_steps(stmt):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                return any(
                    isinstance(t, ast.Name) and t.id in ("steps", "max_steps") for t in targets
                )
            if isinstance(stmt, ast.If):
                names = {n.id for n in ast.walk(stmt.test) if isinstance(n, ast.Name)}
                return "steps" in names or "on_visit" in names
            return False

        def strip(node):
            for name in ("body", "orelse"):
                if hasattr(node, name):
                    setattr(node, name, [strip(s) for s in getattr(node, name) if not counts_steps(s)])
            return node

        twin = loop_body(stirling.step_stats)
        assert twin == loop_body(stirling._loopless)
        assert "steps" not in twin and "on_visit" not in twin
