import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen.bumps import (
    LEFT,
    RIGHT,
    BumpError,
    BumpMove,
    apply_bump,
    apply_jump,
    classify_move,
    max_pass,
    maximum_jump,
    minimal_bump,
)
from swordgen.words import make_shape, nondecreasing_word, rank_of, shape_of_word


def all_words(mult):
    return sorted(set(itertools.permutations(nondecreasing_word(make_shape(mult)))))


def brute_max_pass(word, rank, direction):
    # walk outward from the directional run and count strictly smaller digits
    shape = shape_of_word(word)
    pos = next(i for i in range(1, len(word) + 1) if rank_of(shape, word, i) == rank)
    v = word[pos - 1]
    if direction == RIGHT:
        i = pos
        while i < len(word) and word[i] == v:
            i += 1
        count = 0
        while i + count < len(word) and word[i + count] < v:
            count += 1
        return count
    i = pos - 1
    while i > 0 and word[i - 1] == v:
        i -= 1
    count = 0
    while i - count - 1 >= 0 and word[i - count - 1] < v:
        count += 1
    return count


@st.composite
def s_words(draw):
    # any digit list relabelled onto 1..k is a word of some shape
    raw = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    label = {v: k for k, v in enumerate(sorted(set(raw)), start=1)}
    return tuple(label[v] for v in raw)


def bump_results(word):
    out = {}
    n = len(word)
    for rank in range(1, n + 1):
        for direction in (RIGHT, LEFT):
            for d in range(1, max_pass(word, rank, direction) + 1):
                result, move = apply_bump(word, rank, direction, d)
                out.setdefault(result, []).append(move)
    return out


class TestApplyBump:
    def test_known_moves(self):
        # a width-3 left bump passing one digit: the final 3 drags its run
        assert apply_bump((1, 1, 2, 3, 3, 3), 6, LEFT, 1)[0] == (1, 1, 3, 3, 3, 2)
        # a swap: width 1, distance 1
        assert apply_bump((1, 2, 3), 3, LEFT, 1)[0] == (1, 3, 2)
        # width 1, distance 2 jump
        assert apply_bump((1, 1, 2), 3, LEFT, 2)[0] == (2, 1, 1)

    def test_move_record(self):
        result, move = apply_bump((2, 2, 1, 1), 3, RIGHT, 2)
        assert result == (1, 1, 2, 2)
        assert move == BumpMove(rank=3, dir=RIGHT, width=2, distance=2, anchor=1)

    def test_blocked_and_out_of_range(self):
        with pytest.raises(BumpError):
            apply_bump((1, 2, 3), 3, RIGHT, 1)  # runs off the word
        with pytest.raises(BumpError):
            apply_bump((2, 3, 1), 2, LEFT, 1)  # runs off the left end
        with pytest.raises(BumpError):
            apply_bump((1, 2, 3), 2, LEFT, 0)
        with pytest.raises(BumpError):
            apply_bump((1, 2, 3), 2, "X", 1)

    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2), (1, 1, 2)])
    def test_inverse_property(self, mult):
        # bump right then bump the displaced run back left (and conversely)
        for word in all_words(mult):
            for rank in range(1, len(word) + 1):
                for d in range(1, max_pass(word, rank, RIGHT) + 1):
                    result, move = apply_bump(word, rank, RIGHT, d)
                    back, _ = apply_bump(result, rank + move.width - 1, LEFT, d)
                    assert back == word
                for d in range(1, max_pass(word, rank, LEFT) + 1):
                    result, move = apply_bump(word, rank, LEFT, d)
                    back, _ = apply_bump(result, rank - move.width + 1, RIGHT, d)
                    assert back == word

    def test_inverse_property_sampled(self):
        rng = random.Random(20240817)
        base = list(nondecreasing_word(make_shape((2, 3, 1, 2))))
        for _ in range(200):
            rng.shuffle(base)
            word = tuple(base)
            rank = rng.randrange(1, 9)
            direction = rng.choice((RIGHT, LEFT))
            limit = max_pass(word, rank, direction)
            if limit == 0:
                continue
            d = rng.randrange(1, limit + 1)
            result, move = apply_bump(word, rank, direction, d)
            if direction == RIGHT:
                back, _ = apply_bump(result, rank + move.width - 1, LEFT, d)
            else:
                back, _ = apply_bump(result, rank - move.width + 1, RIGHT, d)
            assert back == word


class TestRankAndDirection:
    @pytest.mark.parametrize("rank", [0, 7, -1])
    def test_rank_outside_the_word(self, rank):
        # ranks run 1..n; 0 and -1 must not wrap round to the largest ranks
        word = (1, 1, 2, 3, 3, 3)
        for direction in (RIGHT, LEFT):
            with pytest.raises(BumpError, match="rank"):
                apply_bump(word, rank, direction, 1)
            with pytest.raises(BumpError, match="rank"):
                max_pass(word, rank, direction)
            with pytest.raises(BumpError, match="rank"):
                minimal_bump(word, rank, direction, lambda w: True)

    def test_unknown_direction(self):
        word = (1, 1, 2, 3, 3, 3)
        with pytest.raises(BumpError, match="direction"):
            apply_bump(word, 3, "X", 1)
        with pytest.raises(BumpError, match="direction"):
            max_pass(word, 3, "X")
        with pytest.raises(BumpError, match="direction"):
            minimal_bump(word, 3, "X", lambda w: True)


class TestMaxPass:
    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2), (3, 1)])
    def test_against_brute_force(self, mult):
        for word in all_words(mult):
            for rank in range(1, len(word) + 1):
                for direction in (RIGHT, LEFT):
                    assert max_pass(word, rank, direction) == brute_max_pass(
                        word, rank, direction
                    )

    def test_known_value(self):
        assert max_pass((3, 3, 3, 1, 1, 2), 3, LEFT) == 2  # the 2 passes both 1s
        assert max_pass((3, 3, 3, 1, 1, 2), 4, RIGHT) == 3  # the 3s pass 1, 1, 2
        assert max_pass((3, 3, 3, 1, 1, 2), 3, RIGHT) == 0  # the 2 is at the edge


class TestMinimalBump:
    def test_minimizes_over_membership_only(self):
        lang = {(2, 1, 1), (1, 1, 2)}
        # from 112, rank 3 L: distance 1 gives 121 (not a member), distance 2
        # gives 211 (member) - minimal_bump must find distance 2
        got = minimal_bump((1, 1, 2), 3, LEFT, lang.__contains__)
        assert got is not None
        d, result, move = got
        assert (d, result) == (2, (2, 1, 1))
        assert move.width == 1 and move.anchor == 3

    def test_none_when_no_member(self):
        assert minimal_bump((1, 1, 2), 3, LEFT, lambda w: False) is None

    @pytest.mark.parametrize("mult", [(2, 2), (2, 1, 2)])
    def test_against_brute_force(self, mult):
        words = all_words(mult)
        member = set(words).__contains__  # full language: distance 1 always wins
        for word in words:
            for rank in range(1, len(word) + 1):
                for direction in (RIGHT, LEFT):
                    got = minimal_bump(word, rank, direction, member)
                    limit = max_pass(word, rank, direction)
                    if limit == 0:
                        assert got is None
                    else:
                        assert got is not None and got[0] == 1


class TestJumps:
    def test_single_digit_even_inside_a_run(self):
        # the rightmost 3 travels alone, leaving its run behind
        assert apply_jump((1, 3, 3, 1, 1), 3, RIGHT, 2) == (1, 3, 1, 1, 3)
        with pytest.raises(BumpError):
            apply_jump((1, 3, 3, 1, 1), 2, RIGHT, 1)  # equal neighbour blocks

    def test_maximum_jump(self):
        assert maximum_jump((1, 2, 3), 3, LEFT) == (3, 1, 2)
        assert maximum_jump((1, 2, 3), 3, RIGHT) is None
        assert maximum_jump((2, 1, 1, 2), 1, RIGHT) == (1, 1, 2, 2)

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_index_outside_the_word(self, i):
        # indices run 1..n; 0 and -1 must not wrap round to the last digit
        word = (1, 2, 3)
        for direction in (RIGHT, LEFT):
            with pytest.raises(BumpError, match="index"):
                apply_jump(word, i, direction, 1)
            with pytest.raises(BumpError, match="index"):
                maximum_jump(word, i, direction)

    def test_unknown_direction(self):
        word = (1, 2, 3)
        with pytest.raises(BumpError, match="direction"):
            apply_jump(word, 2, "X", 1)
        with pytest.raises(BumpError, match="direction"):
            maximum_jump(word, 2, "X")

    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2)])
    def test_maximum_jump_is_apply_jump_at_limit(self, mult):
        for word in all_words(mult):
            for i in range(1, len(word) + 1):
                for direction in (RIGHT, LEFT):
                    got = maximum_jump(word, i, direction)
                    d = 0
                    v = word[i - 1]
                    while True:
                        p = i + d if direction == RIGHT else i - d - 2
                        if direction == RIGHT and (p >= len(word) or word[p] >= v):
                            break
                        if direction == LEFT and (p < 0 or word[p] >= v):
                            break
                        d += 1
                    if d == 0:
                        assert got is None
                    else:
                        assert got == apply_jump(word, i, direction, d)


class TestClassify:
    def test_recovers_known_move(self):
        move = classify_move((1, 1, 2, 3, 3, 3), (1, 1, 3, 3, 3, 2))
        assert move == BumpMove(rank=6, dir=LEFT, width=3, distance=1, anchor=6)

    def test_wide_left_bump_between_extremes(self):
        # 1122 -> 2211 is a single bump: the 22 run passes both 1s
        move = classify_move((1, 1, 2, 2), (2, 2, 1, 1))
        assert move == BumpMove(rank=4, dir=LEFT, width=2, distance=2, anchor=4)

    def test_identity_and_shape_mismatch(self):
        assert classify_move((1, 2), (1, 2)) is None
        with pytest.raises(BumpError):
            classify_move((1, 2), (2, 2))

    @settings(deadline=None)
    @given(s_words())
    def test_recovers_every_feasible_bump(self, word):
        for rank in range(1, len(word) + 1):
            for direction in (RIGHT, LEFT):
                for d in range(1, max_pass(word, rank, direction) + 1):
                    result, move = apply_bump(word, rank, direction, d)
                    assert classify_move(word, result) == move

    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2), (1, 1, 2)])
    def test_complete_against_brute_force(self, mult):
        # classify succeeds exactly on bump-adjacent pairs and returns a
        # move that reproduces the target
        words = all_words(mult)
        for word in words:
            reachable = bump_results(word)
            for other in words:
                got = classify_move(word, other)
                if other == word:
                    assert got is None
                elif other in reachable:
                    assert got in reachable[other]
                    redo, _ = apply_bump(word, got.rank, got.dir, got.distance)
                    assert redo == other
                else:
                    assert got is None, (word, other, got)


class TestMoveJson:
    def test_round_trip(self):
        move = BumpMove(rank=4, dir=LEFT, width=2, distance=2, anchor=4)
        assert BumpMove.from_json(move.to_json()) == move
        assert move.to_json() == {
            "rank": 4,
            "dir": "L",
            "width": 2,
            "distance": 2,
            "anchor": 4,
        }
