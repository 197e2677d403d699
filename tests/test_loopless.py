import hashlib
import inspect
import linecache
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swordgen import stirling
from swordgen.bumps import LEFT, RIGHT, classify_move
from swordgen.greedy import verify_gray_code
from swordgen.oracle import all_shapes, language, stirling_count
from swordgen.stirling import (
    TraceRow,
    _initial_state,
    generate_loopless,
    loopless_run,
    step_stats,
    stirling_sequence,
    trace,
)
from swordgen.trees import hamilton_path, inversion_vector
from swordgen.words import make_shape


def reference_loopless(shape, on_visit=None) -> int:
    """The loop with one pass of the `while` per visit and the final visit
    made after the loop: the reference that `stirling._loopless`, which
    sweeps m in an inner loop, must equal at every visit."""
    m, s, t, perm, left, inv, fs, dirs = _initial_state(shape)
    count = 0
    while True:
        v = fs[m]
        fs[m] = m
        if v <= 1:
            break
        d = dirs[v]
        if d == 1:
            i = left[v]
            j = left[v] + s[v]
        else:
            i = left[v] + s[v] - 1
            j = left[v] - 1
        u = perm[j - 1]
        if on_visit is not None:
            on_visit(perm, v, u, i, j, left, inv, fs, dirs)
        count += 1
        perm[i - 1] = u
        perm[j - 1] = v
        left[v] += d
        if left[u] == j:
            left[u] -= d * s[v]
        inv[v] -= d
        if inv[v] == 0 or inv[v] == t[v]:
            dirs[v] = -d
            fs[v] = fs[v - 1]
            fs[v - 1] = v - 1
    if on_visit is not None:
        on_visit(perm, v, None, None, None, left, inv, fs, dirs)
    return count + 1


def loop_states(shape):
    """The return value of `stirling._loopless` and every visit's full
    state, as `reference_loopless` hands it out: v, u, i and j are read off
    the live lists, as the loop reads the move out of the word next, and
    fs[m] is shown as m, the value the loop gives it on reading v."""
    state = m, s, t, perm, left, inv, fs, dirs = _initial_state(shape)
    states = []

    def grab(perm):
        v = fs[m]
        if v == 1:
            u = i = j = None
        else:
            if dirs[v] == 1:
                i = left[v]
                j = i + s[v]
            else:
                j = left[v] - 1
                i = j + s[v]
            u = perm[j - 1]
        states.append((tuple(perm), v, u, i, j, tuple(left), tuple(inv), (*fs[:m], m), tuple(dirs)))

    return stirling._loopless(state, grab), states


def reference_states(shape):
    """The return value of `reference_loopless` and every visit's full state."""
    states = []

    def grab(perm, v, u, i, j, left, inv, fs, dirs):
        states.append((tuple(perm), v, u, i, j, tuple(left), tuple(inv), tuple(fs), tuple(dirs)))

    return reference_loopless(shape, grab), states


def run_loop(shape, on_visit):
    return stirling._loopless(_initial_state(shape), on_visit)


def run_reference(shape, on_visit):
    return reference_loopless(shape, lambda perm, *_: on_visit(perm))


def stream_digest(run, shape):
    """The return value of `run` and the sha256 of its word stream."""
    digest = hashlib.sha256()
    count = run(shape, lambda perm: digest.update(bytes(perm)))
    return count, digest.hexdigest()


@st.composite
def shapes_up_to_11(draw):
    mult = draw(st.lists(st.integers(1, 11), min_size=1, max_size=11).filter(lambda s: sum(s) <= 11))
    shape = make_shape(tuple(mult))
    assume(stirling_count(shape) <= 20_000)  # some have millions of words
    return shape


class TestReferenceLoop:
    def test_every_visit_matches_on_every_shape_up_to_8(self):
        for total in range(1, 9):
            for shape in all_shapes(total):
                assert loop_states(shape) == reference_states(shape), shape.multiplicities
                assert stirling._loopless(_initial_state(shape)) == reference_loopless(shape)

    @settings(max_examples=40, deadline=None)
    @given(shapes_up_to_11())
    def test_word_streams_match(self, shape):
        assert stream_digest(run_loop, shape) == stream_digest(run_reference, shape)

    def test_word_stream_of_2_8(self):
        # the digest `stream_digest(run_reference, 2^8)` gives
        assert stream_digest(run_loop, make_shape((2,) * 8)) == (
            2_027_025,
            "06bcb07591f25051547cdf38d2c539a0868fd9a7e73926fb4fd4ff7f91bed716",
        )


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
                assert set(seq) == set(language(shape, {"212"}))
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


class TestMovesReadOffTheState:
    @settings(max_examples=40, deadline=None)
    @given(shapes_up_to_11())
    def test_views_read_the_right_cells(self, shape):
        # the loop hands out only the word: the views read each move and
        # vector off its live lists, and must read the right cells
        words, moves = [], []

        def grab(perm, move):
            words.append(tuple(perm))
            moves.append(move)

        count = stirling.loopless_steps(shape, lambda move: move, grab)
        assert count == len(words) == stirling_count(shape)
        assert moves[0] is None
        for a, b, mv in zip(words, words[1:], moves[1:]):
            assert classify_move(a, b) == mv, (a, b)
        vectors = []
        assert stirling.inversion_vectors(shape, vectors.append) == count
        assert vectors == [inversion_vector(word) for word in words]


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

    def test_one_constant_on_every_shape_up_to_8(self):
        # with m = 2 no smaller value steps between two sweeps of m, so the
        # longest stretch between two visits runs other lines than with m > 2
        maxima = {
            step_stats(shape)[1]
            for total in range(2, 9)
            for shape in all_shapes(total)
            if shape.m >= 2
        }
        assert len(maxima) == 1, maxima

    def test_counts_the_real_loop(self, monkeypatch):
        # a loop whose passes scan all m values: step_stats must see the
        # passes grow, which it can only do by tracing the loop it runs
        name = "<loop with an O(m) scan>"
        source = inspect.getsource(stirling._loopless).replace(
            "        fs[m] = m\n", "        fs[m] = m\n        for _ in range(m):\n            pass\n"
        )
        assert "range(m)" in source
        monkeypatch.setitem(linecache.cache, name, (len(source), None, source.splitlines(True), name))
        namespace = dict(vars(stirling))
        exec(compile(source, name, "exec"), namespace)
        monkeypatch.setattr(stirling, "_loopless", namespace["_loopless"])
        maxima = [step_stats(make_shape((1,) * m))[1] for m in (3, 5, 7)]
        assert len(set(maxima)) > 1, maxima

    def test_restores_the_callers_tracer(self):
        def tracer(frame, event, arg):
            return None

        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            step_stats(make_shape((2, 1)))
            assert sys.gettrace() is tracer
        finally:
            sys.settrace(outer)
