"""The peakless walk against the greedy sweep, its reference."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen import greedy, oracle, peakless
from swordgen.bumps import bump_window
from swordgen.oracle import PEAKLESS_PATTERNS, all_shapes, formula_count
from swordgen.words import make_shape, nondecreasing_word


def walk_steps(shape):
    """The walk's (word, move) steps after its first word, and its count."""
    steps = []
    count = peakless.peakless_steps(
        shape, lambda move: move, lambda perm, move: steps.append((tuple(perm), move))
    )
    assert count == len(steps) and steps[0] == (nondecreasing_word(shape), None)
    return steps[1:]


def sweep_steps(shape):
    live = oracle.live_patterns(shape, PEAKLESS_PATTERNS)
    steps = []
    greedy._sweep(shape, nondecreasing_word(shape), live, lambda *step: steps.append(step))
    return steps


def test_equals_the_sweep_on_every_shape_up_to_ten():
    for n in range(1, 11):
        for shape in all_shapes(n):
            assert walk_steps(shape) == sweep_steps(shape), shape


def test_the_word_view_is_the_step_view():
    for shape in all_shapes(7):
        words = []
        assert peakless.generate_peakless(shape, lambda perm: words.append(tuple(perm))) == len(words)
        assert words[1:] == [word for word, _ in walk_steps(shape)]
        assert peakless.generate_peakless(shape) == formula_count(shape, PEAKLESS_PATTERNS)


def test_each_move_is_made_once():
    # digit 4 steps from 3 to 2 in both of its orders
    made = []
    make = lambda move: made.append(move) or move
    peakless.peakless_steps(make_shape((2, 1, 3, 3)), make, lambda perm, move: None)
    assert len(made) == len(set(made))


@st.composite
def shapes(draw):
    """A shape of at most 14 letters."""
    mult = draw(st.lists(st.integers(1, 5), min_size=1, max_size=14))
    while sum(mult) > 14:
        mult.pop()
    return make_shape(mult)


@settings(deadline=None, max_examples=60)
@given(shapes())
def test_counts_distinct_words_by_recorded_bumps(shape):
    seen, prev = set(), None

    def visit(perm, move):
        nonlocal prev
        word = tuple(perm)
        seen.add(word)
        if prev is not None:
            assert bump_window(prev, word, move, shape.prefix), (prev, word, move)
        prev = word

    count = peakless.peakless_steps(shape, lambda move: move, visit)
    assert count == len(seen) == formula_count(shape, PEAKLESS_PATTERNS)


def test_lines_per_visit_stay_constant():
    # the walk's digits cycle with no loop over the values: the most lines
    # from one visit to the next do not grow with n, for 1s or for 3s
    maxima = {peakless.step_stats(make_shape((1,) * n))[1] for n in range(2, 13)}
    maxima |= {peakless.step_stats(make_shape((3,) * m))[1] for m in range(2, 7)}
    assert len(maxima) == 1 and maxima.pop() > 0, maxima


def test_faster_than_the_sweep():
    # 1^14: 8,192 words; the walk took about 1 us a word and the sweep
    # 20 us.  The walk's time is the best of three, as it is short enough
    # for one pause of the process to count
    shape = make_shape((1,) * 14)
    walk = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        peakless.generate_peakless(shape)
        walk = min(walk, time.perf_counter() - begin)
    begin = time.perf_counter()
    sweep_steps(shape)
    sweep = time.perf_counter() - begin
    assert walk * 5 < sweep, (walk, sweep)
