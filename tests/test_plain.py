"""The pattern-free walk against the greedy sweep, its reference, and
against plain changes."""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swordgen import greedy, plain
from swordgen.bumps import bump_window
from swordgen.greedy import generate_greedy
from swordgen.oracle import all_shapes, multinomial
from swordgen.words import make_shape, nondecreasing_word


def walk_steps(shape):
    """The walk's (word, move) steps after its first word."""
    steps = []
    count = plain.plain_steps(shape, lambda perm, move: steps.append((tuple(perm), move)))
    assert count == len(steps) and steps[0] == (nondecreasing_word(shape), None)
    return steps[1:]


def sweep_steps(shape):
    steps = []
    greedy._sweep(shape, nondecreasing_word(shape), frozenset(), lambda *step: steps.append(step))
    return steps


def plain_changes(n):
    """The permutations of 1..n by Knuth's Algorithm P (TAOCP 4A,
    §7.2.1.2), step by step; a is 1-based."""
    a = [None, *range(1, n + 1)]
    c, o = [0] * (n + 1), [1] * (n + 1)  # P1
    out = []
    while True:
        out.append(tuple(a[1:]))  # P2
        j, s = n, 0  # P3
        while True:
            q = c[j] + o[j]  # P4
            if q < 0:
                o[j], j = -o[j], j - 1  # P7
            elif q == j:
                if j == 1:  # P6
                    return out
                s += 1
                o[j], j = -o[j], j - 1  # P7
            else:
                x, y = j - c[j] + s, j - q + s  # P5
                a[x], a[y] = a[y], a[x]
                c[j] = q
                break


def test_equals_the_sweep_on_every_shape_up_to_eight():
    for n in range(1, 9):
        for shape in all_shapes(n):
            assert walk_steps(shape) == sweep_steps(shape), shape
    # 1,300: each of its 299 moves below the last copy comes once, past
    # the 256 that the move cache keeps
    assert walk_steps(make_shape((1, 300))) == sweep_steps(make_shape((1, 300)))


def test_is_plain_changes_on_distinct_letters():
    for n in range(1, 9):
        words = [nondecreasing_word(make_shape((1,) * n))]
        words += [word for word, _ in walk_steps(make_shape((1,) * n))]
        assert words == plain_changes(n), n


@st.composite
def shapes(draw):
    """A shape of at most 12 letters and at most 50,000 words."""
    mult = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    while sum(mult) > 12:
        mult.pop()
    shape = make_shape(mult)
    assume(multinomial(shape) <= 50_000)
    return shape


@settings(deadline=None, max_examples=40)
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

    count = plain.plain_steps(shape, visit)
    assert count == len(seen) == multinomial(shape)


@pytest.mark.parametrize("patterns", [(), ("12121",)], ids=["none", "dead-12121"])
def test_the_greedy_engine_walks_it(monkeypatch, patterns):
    # no live pattern, from the nondecreasing word: neither the sweep nor
    # the scan runs, and the run is the walk's
    def refuse(*args):
        raise AssertionError("the tree sweep or the scan ran")

    monkeypatch.setattr(greedy, "_sweep", refuse)
    monkeypatch.setattr(greedy, "_scan", refuse)
    shape = make_shape((2, 1, 3))
    run = generate_greedy(shape, patterns)
    assert run.complete
    assert list(zip(run.words[1:], run.moves)) == walk_steps(shape)


def test_lines_per_visit_stay_constant():
    # the walk has no loop over the levels but level n's sweep: the most
    # lines from one visit to the next do not grow with n, for 1s, 2s or
    # 3s.  Up to 1^9 and 2^5: 1^10 and 2^6 read the same, but take 20 s
    maxima = {plain.step_stats(make_shape((1,) * n))[1] for n in range(2, 10)}
    maxima |= {plain.step_stats(make_shape((2,) * m))[1] for m in range(2, 6)}
    maxima |= {plain.step_stats(make_shape((3,) * m))[1] for m in range(2, 5)}
    assert len(maxima) == 1 and maxima.pop() > 0, maxima


def test_faster_than_the_sweep():
    # 1^8: 40,320 words; the walk took about 0.25 us a word and the sweep,
    # collecting its steps, about 1 us.  The walk's time is the best of
    # three, as it is short enough for one pause of the process to count
    shape = make_shape((1,) * 8)
    walk = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        plain.plain_steps(shape, lambda perm, move: None)
        walk = min(walk, time.perf_counter() - begin)
    begin = time.perf_counter()
    sweep_steps(shape)
    sweep = time.perf_counter() - begin
    assert walk * 2 < sweep, (walk, sweep)
