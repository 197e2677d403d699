"""The one-pass verifier against a reference that walks a run once per check.

`reference_verify` is the materialising verifier that `verify_gray_code`
replaced, kept here as written but for the cap, which it applies as
`oracle.language_size` does, and for membership, which it tests with the
literal `contains_pattern`: a dict of every word, and a separate walk
for membership, distinctness, moves (`classify_move` on every pair) and
transpositions.  Both must give equal reports on every run, generated or
tampered with.
"""

import json
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen import oracle
from swordgen.bumps import LEFT, RIGHT, BumpError, classify_move
from swordgen.greedy import (
    GrayCodeReport,
    GrayCodeRun,
    generate_greedy,
    run_from_payload,
    run_to_payload,
    verify_feed,
    verify_gray_code,
)
from swordgen.oracle import SizeLimitError, all_shapes, all_swords
from swordgen.patterns import contains_pattern, normalize_patterns
from swordgen.stirling import loopless_run, loopless_steps
from swordgen.words import Word, WordError, make_shape, validate_word

# the pattern sets of acceptance criterion 5
GRAY_MATRIX = [
    normalize_patterns(pats)
    for pats in [set(), {"231"}, {"12121"}, {"132", "121"}, {"132", "231", "121"}]
]


def reference_verify(run: GrayCodeRun, cap: int | None = None) -> GrayCodeReport:
    """Check a run: membership (against the live patterns), distinctness,
    exhaustiveness (by count: the closed form, None when it exceeds the
    cap, else the generating tree's, None when the shape has more words
    than the cap), and that every transition classifies as exactly the
    recorded bump."""
    counterexamples: dict = {}

    all_member = True
    for k, w in enumerate(run.words):
        try:
            validate_word(run.shape, w)
        except WordError:
            all_member = False
        else:
            all_member = not any(contains_pattern(w, p) for p in run.patterns)
        if not all_member:
            counterexamples["all_member"] = (k, w)
            break

    all_distinct = True
    seen: dict[Word, int] = {}
    for k, w in enumerate(run.words):
        if w in seen:
            all_distinct = False
            counterexamples["all_distinct"] = (seen[w], k, w)
            break
        seen[w] = k

    exhaustive: Optional[bool] = None
    # a closed form is compared with the cap; without one, the tree refuses
    # a shape with more words than the cap
    size = oracle.formula_count(run.shape, run.patterns)
    if size is None:
        try:
            size = oracle.count_avoiding(run.shape, run.patterns, cap)
        except SizeLimitError:
            pass
    elif size > oracle.resolve_cap(cap):
        size = None
    if size is not None:
        # members cover the language once as many distinct ones as its size
        # were visited
        visited = len(set(run.words))
        exhaustive = all_member and visited == size
        if not exhaustive:
            counterexamples["exhaustive"] = {"visited": visited, "language": size}

    moves_valid = len(run.moves) == len(run.words) - 1
    if not moves_valid:
        counterexamples["moves_valid"] = ("length", len(run.moves), len(run.words))
    else:
        for k in range(len(run.words) - 1):
            try:
                got = classify_move(run.words[k], run.words[k + 1])
            except BumpError:  # a word outside the shape: no bump reaches it
                got = None
            if got != run.moves[k]:
                moves_valid = False
                counterexamples["moves_valid"] = (k, run.moves[k], got)
                break

    transpositions_only = True
    for k in range(len(run.words) - 1):
        diff = sum(1 for a, b in zip(run.words[k], run.words[k + 1]) if a != b)
        if diff != 2:
            transpositions_only = False
            counterexamples["transpositions_only"] = (k, diff)
            break

    return GrayCodeReport(
        all_member=all_member,
        all_distinct=all_distinct,
        exhaustive=exhaustive,
        moves_valid=moves_valid,
        transpositions_only=transpositions_only,
        counterexamples=counterexamples,
    )


def assert_same(run, cap=None):
    report = verify_gray_code(run, cap)
    assert report == reference_verify(run, cap)
    return report


def edited(run, words=None, moves=None, patterns=None):
    return GrayCodeRun(
        run.shape,
        run.patterns if patterns is None else patterns,
        run.words if words is None else tuple(words),
        run.moves if moves is None else tuple(moves),
        run.complete,
        run.halted_reason,
    )


def test_generated_runs_up_to_seven_letters():
    # every criterion 5 set on the greedy engine, and 212 on both engines
    for n in range(1, 8):
        for shape in all_shapes(n):
            runs = [generate_greedy(shape, pats) for pats in GRAY_MATRIX]
            runs += [generate_greedy(shape, {"212"}), loopless_run(shape)]
            for run in runs:
                assert assert_same(run).all_distinct


class TestTampered:
    RUN = generate_greedy(make_shape((2, 1, 2)), {"231"})

    def test_duplicate(self):
        words = self.RUN.words
        report = assert_same(edited(self.RUN, words=words[:-1] + (words[3],)))
        assert report.counterexamples["all_distinct"] == (3, len(words) - 1, words[3])

    def test_swapped_pair(self):
        words = list(self.RUN.words)
        words[2], words[3] = words[3], words[2]
        assert not assert_same(edited(self.RUN, words=words)).moves_valid

    def test_alien_word(self):
        words = list(self.RUN.words)
        words[4] = (2, 3, 1, 3, 1)  # holds 231
        assert not assert_same(edited(self.RUN, words=words)).all_member
        # under patterns the run was not made for
        assert not assert_same(edited(self.RUN, patterns=normalize_patterns({"212"}))).ok

    def test_truncated_moves(self):
        report = assert_same(edited(self.RUN, moves=self.RUN.moves[:-1]))
        assert report.counterexamples["moves_valid"][0] == "length"
        assert_same(edited(self.RUN, words=self.RUN.words[:-1]))

    def test_word_of_the_wrong_length(self):
        words = list(self.RUN.words)
        words[1] = words[1] + (1,)
        assert not assert_same(edited(self.RUN, words=words)).all_member
        words[1] = ()
        assert_same(edited(self.RUN, words=words))

    def test_digits_past_a_byte(self):
        # such words are kept as tuples instead of bytes
        words = list(self.RUN.words)
        words[2] = words[5] = (300, 1, 2, 3, 3)
        assert not assert_same(edited(self.RUN, words=words)).all_distinct

    def test_edited_payload(self):
        payload = run_to_payload(self.RUN, "greedy")
        payload["words"][2] = [1, 1, 2, 3, 3]
        payload["words"][6] = list(payload["words"][0])
        payload["moves"][1]["distance"] += 1
        assert_same(run_from_payload(json.loads(json.dumps(payload))))

    def test_cap_leaves_exhaustive_open(self):
        cut = edited(self.RUN, words=self.RUN.words[:-1], moves=self.RUN.moves[:-1])
        for run in (self.RUN, cut):
            assert assert_same(run, cap=10).exhaustive is None


SHAPES = [shape for n in range(1, 6) for shape in all_shapes(n)]
SETS = GRAY_MATRIX + [normalize_patterns({"212"})]


@st.composite
def tampered_runs(draw):
    run = generate_greedy(draw(st.sampled_from(SHAPES)), draw(st.sampled_from(SETS)))
    words, moves = list(run.words), list(run.moves)
    n, m = run.shape.n, run.shape.m
    digit = st.integers(0, m + 1) | st.sampled_from([-1, 256, 300])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["word", "swap", "copy", "drop", "move", "cut", "patterns"]))
        if kind == "word" and words:
            at = draw(st.integers(0, len(words) - 1))
            length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
            words[at] = tuple(draw(st.lists(digit, min_size=length, max_size=length)))
        elif kind == "swap" and len(words) > 1:
            i, j = draw(st.lists(st.integers(0, len(words) - 1), min_size=2, max_size=2))
            words[i], words[j] = words[j], words[i]
        elif kind == "copy" and words:
            words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(words)))
        elif kind == "drop" and words:
            del words[draw(st.integers(0, len(words) - 1))]
        elif kind == "move" and moves:
            at = draw(st.integers(0, len(moves) - 1))
            moves[at] = draw(st.sampled_from(moves + [None]))
        elif kind == "cut" and moves:
            del moves[draw(st.integers(0, len(moves) - 1))]
        elif kind == "patterns":
            run = edited(run, patterns=draw(st.sampled_from(SETS)))
    return edited(run, words=words, moves=moves)


@settings(deadline=None, max_examples=300)
@given(tampered_runs(), st.sampled_from([None, 0, 5, 1000]))
def test_randomly_tampered_runs(run, cap):
    assert_same(run, cap)


@pytest.mark.parametrize("cap", [None, 3])
def test_empty_run(cap):
    run = GrayCodeRun(make_shape((1, 1)), frozenset(), (), (), False, "no-new-bump")
    assert not assert_same(run, cap).moves_valid


def corruptions(run):
    """The run with one fault each: a repeated word, a swapped pair, each
    move field changed, an alien word, a word outside the shape, the last
    word cut, and one move too few and one too many."""
    words, moves = run.words, run.moves
    mid = len(words) // 2
    if len(words) > 2:
        yield edited(run, words=words[:-1] + (words[mid],))
    if len(words) > 1:
        yield edited(run, words=words[: mid - 1] + (words[mid], words[mid - 1]) + words[mid + 1 :])
        yield edited(run, words=words[:-1], moves=moves[:-1])
        yield edited(run, moves=moves[:-1])
    for at in {0, len(moves) // 2, len(moves) - 1} if moves else ():
        move = moves[at]
        for edit in (
            move._replace(rank=move.rank + 1),
            move._replace(dir=LEFT if move.dir == RIGHT else RIGHT),
            move._replace(width=move.width + 1),
            move._replace(distance=move.distance - 1),
            move._replace(anchor=move.anchor - 1),
        ):
            yield edited(run, moves=moves[:at] + (edit,) + moves[at + 1 :])
    alien = next((w for w in all_swords(run.shape) if any(contains_pattern(w, p) for p in run.patterns)), None)
    if alien is not None:
        yield edited(run, words=words[:mid] + (alien,) + words[mid + 1 :])
    yield edited(run, words=words[:mid] + (words[mid][:-1] + (run.shape.m + 1,),) + words[mid + 1 :])
    yield edited(run, moves=moves + moves[:1])


def test_corrupted_runs_up_to_six_letters():
    # {212} on both engines, the k-Catalan and 12121 sets, and no patterns
    sets = [normalize_patterns(pats) for pats in [{"212"}, {"132", "121"}, {"12121"}, set()]]
    checked = 0
    for n in range(1, 7):
        for shape in all_shapes(n):
            runs = [loopless_run(shape)] + [generate_greedy(shape, pats) for pats in sets]
            for run in runs:
                for bad in (run, *corruptions(run)):
                    assert_same(bad)
                    checked += 1
            # the loopless feed hands over one list that it rewrites
            size = oracle.language_size(shape, runs[0].patterns)
            feed = lambda visit: loopless_steps(shape, lambda move: move, visit)
            assert verify_feed(shape, runs[0].patterns, feed, size) == (len(runs[0].words), assert_same(runs[0]))
    assert checked > 3_000
