"""The greedy rule written out literally, as an oracle for the engine.

The oracle shares no code with either engine, the block scan
(`_bump_blocks`, `_first_bump`) or the sweep on the generating tree
(`_sweep`): it relates the current word to every language word with
`classify_move`, keeps the least distance per (anchor, dir) block, drops
the blocks whose minimal result was visited, and takes the highest
leading rank, then R before L, then the narrower block.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swordgen.bumps import RIGHT, classify_move
from swordgen.greedy import _sweep, generate_greedy
from swordgen.oracle import all_shapes, language, live_patterns
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
