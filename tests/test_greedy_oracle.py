"""The greedy rule written out literally, as an oracle for the engine.

The oracle shares no code with either engine, the block scan (`_scan`,
which searches each block's minimal bump inline) or the sweep on the
generating tree (`_sweep`): it relates the current word to every
language word with `classify_move`, keeps the least distance per
(anchor, dir) block, drops the blocks whose minimal result was visited,
and takes the highest leading rank, then R before L, then the narrower
block.  The scan is also run on tuples and on packed words, which must
give the same steps.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swordgen.bumps import RIGHT, classify_move
from swordgen.greedy import _scan, _sweep, generate_greedy
from swordgen.oracle import STIRLING_PATTERNS, all_shapes, clash_test, language, live_patterns
from swordgen.patterns import avoids_all, normalize_patterns
from swordgen.words import nondecreasing_word
from swordgen.zigzag import syntactic_zigzag

PATTERN_SETS = [
    (), ("231",), ("12121",), ("132", "121"), ("132", "231", "121"),
    ("212",), ("312",), ("121",), ("2121",), ("11",), ("2112",), ("4321",),
]
SHAPES = [shape for n in range(1, 6) for shape in all_shapes(n)]


def leading_rank(move):
    # a rightward block is anchored at its left end, so its last digit leads
    return move.rank + move.width - 1 if move.dir == RIGHT else move.rank


def literal_greedy(shape, patterns, start):
    """(words, moves) of the greedy run from `start`, by the literal rule."""
    lang = language(shape, patterns)
    words, moves, visited = [start], [], {start}
    w = start
    while True:
        minimal = {}  # (anchor, dir) -> (move, result) at the least distance
        for x in lang:
            move = classify_move(w, x)
            if move is None:
                continue
            block = (move.anchor, move.dir)
            if block not in minimal or move.distance < minimal[block][0].distance:
                minimal[block] = (move, x)
        open_blocks = [(move, x) for move, x in minimal.values() if x not in visited]
        if not open_blocks:
            return words, moves
        move, w = min(
            open_blocks,
            key=lambda c: (-leading_rank(c[0]), c[0].dir != RIGHT, c[0].width),
        )
        visited.add(w)
        words.append(w)
        moves.append(move)


@pytest.mark.parametrize("patterns", PATTERN_SETS, ids="+".join)
def test_engine_follows_the_literal_rule(patterns):
    pats = normalize_patterns(patterns)
    runs = 0
    for shape in SHAPES:
        start = nondecreasing_word(shape)
        if not avoids_all(start, pats):
            continue  # 11 on a shape with a repeated value: no start word
        run = generate_greedy(shape, pats)
        words, moves = literal_greedy(shape, pats, start)
        assert (list(run.words), list(run.moves)) == (words, moves)
        if syntactic_zigzag(patterns):
            # the sweep too, whichever engine the walk chose
            sweep = []
            _sweep(shape, start, live_patterns(shape, pats), lambda *step: sweep.append(step))
            assert sweep == list(zip(words[1:], moves))
        runs += 1
    assert runs >= 5  # at least the shapes 1^n, whose start avoids every set


@st.composite
def language_starts(draw):
    shape = draw(st.sampled_from(SHAPES))
    pats = normalize_patterns(draw(st.sampled_from(PATTERN_SETS)))
    words = language(shape, pats)
    assume(words)
    return shape, pats, draw(st.sampled_from(words))


@settings(deadline=None)
@given(language_starts())
def test_engine_follows_the_literal_rule_from_any_start(case):
    shape, pats, start = case
    run = generate_greedy(shape, pats, start=start)
    assert (list(run.words), list(run.moves)) == literal_greedy(shape, pats, start)


def scans_both_ways(shape, pats):
    """A function of a start word that gives the scan's (word, move) steps
    from it on tuples, its member test the language's set, and on packed
    words, its test the engine's `clash_test`, each word as a list."""
    lang, clash = frozenset(language(shape, pats)), clash_test(shape, live_patterns(shape, pats))

    def both(start):
        runs = [], []
        _scan(shape, start, lang.__contains__, lambda w, move: runs[0].append((list(w), move)))
        _scan(shape, bytes(start), lambda w: not clash(w), lambda w, move: runs[1].append((list(w), move)))
        return runs

    return both


@pytest.mark.parametrize("patterns", PATTERN_SETS, ids="+".join)
def test_the_scan_walks_tuples_and_packed_words_alike(patterns):
    # every start of every language with n <= 6
    pats = normalize_patterns(patterns)
    earlier = [normalize_patterns(p) for p in PATTERN_SETS[: PATTERN_SETS.index(patterns)]]
    for shape in [shape for n in range(1, 7) for shape in all_shapes(n)]:
        live = live_patterns(shape, pats)
        if any(live == live_patterns(shape, p) for p in earlier):
            continue  # an earlier set's language, walked in that set's case
        both = scans_both_ways(shape, pats)
        for start in language(shape, pats):
            on_tuples, on_bytes = both(start)
            assert on_tuples == on_bytes, (shape, start)


@st.composite
def starts_212(draw):
    shape = draw(st.sampled_from([shape for n in range(1, 9) for shape in all_shapes(n)]))
    return shape, draw(st.sampled_from(language(shape, STIRLING_PATTERNS)))


@settings(deadline=None, max_examples=40)
@given(starts_212())
def test_the_212_scan_walks_tuples_and_packed_words_alike(case):
    shape, start = case
    on_tuples, on_bytes = scans_both_ways(shape, STIRLING_PATTERNS)(start)
    assert on_tuples == on_bytes
