import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen.patterns import (
    check_pattern,
    PatternError,
    avoids_212,
    avoids_all,
    contains_pattern,
    normalize_patterns,
    parse_pattern,
)
from swordgen.words import make_shape, nondecreasing_word


def brute_contains(word, pattern):
    # order-isomorphic subsequence: equalities and strict inequalities both
    # have to transfer
    k = len(pattern)
    for idx in itertools.combinations(range(len(word)), k):
        sub = [word[i] for i in idx]
        if all(
            (pattern[a] < pattern[b]) == (sub[a] < sub[b])
            and (pattern[a] == pattern[b]) == (sub[a] == sub[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def all_words(mult):
    return sorted(set(itertools.permutations(nondecreasing_word(make_shape(mult)))))


class TestParsing:
    def test_parse(self):
        assert parse_pattern("212") == (2, 1, 2)
        assert parse_pattern("12121") == (1, 2, 1, 2, 1)
        assert check_pattern((1, 3, 2)) == (1, 3, 2)

    def test_rejects_unnormalized(self):
        # letters must cover 1..k with no gaps
        for bad in ("2 2", "313", "002", "", "13"):
            with pytest.raises(PatternError):
                parse_pattern(bad)
        with pytest.raises(PatternError):
            check_pattern((2, 3, 2))

    def test_normalize_patterns(self):
        pats = normalize_patterns(["212", (1, 2)])
        assert pats == frozenset({(2, 1, 2), (1, 2)})
        assert normalize_patterns(pats) == pats
        assert normalize_patterns([]) == frozenset()


class TestContainment:
    @pytest.mark.parametrize(
        "mult", [(1, 1, 1), (2, 2), (2, 1, 1), (1, 2, 2), (1, 1, 1, 1), (3, 2)]
    )
    @pytest.mark.parametrize(
        "pattern",
        ["12", "21", "11", "212", "121", "231", "132", "112", "211", "1212", "12121"],
    )
    def test_against_brute_force(self, mult, pattern):
        pat = parse_pattern(pattern)
        for word in all_words(mult):
            assert contains_pattern(word, pat) == brute_contains(word, pat), (
                word,
                pat,
            )

    def test_avoids_212_fast_path(self):
        for mult in [(1, 1, 1), (2, 2), (2, 1, 3), (1, 2, 2, 1)]:
            for word in all_words(mult):
                assert avoids_212(word) == (not brute_contains(word, (2, 1, 2)))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(-3, 4), max_size=8))
    def test_avoids_212_on_any_ints(self, word):
        # digits below 1, and below the stack's 0 sentinel, included
        word = tuple(word)
        assert avoids_212(word) == (not contains_pattern(word, (2, 1, 2)))

    def test_avoids_all(self):
        assert avoids_all((1, 2, 3), frozenset())
        assert avoids_all((1, 2, 3), {(2, 1, 2)})
        assert not avoids_all((1, 2, 3), {(1, 2, 3), (2, 1, 2)})

    def test_single_letter_pattern(self):
        # 11 is contained exactly when some value repeats
        assert contains_pattern((1, 2, 1), (1, 1))
        assert not contains_pattern((1, 2, 3), (1, 1))

    def test_pattern_longer_than_word(self):
        assert not contains_pattern((1, 2), (1, 2, 3))
