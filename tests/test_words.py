import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swordgen.oracle import SizeLimitError
from swordgen.words import (
    Shape,
    ShapeError,
    WordError,
    format_shape,
    format_word,
    make_shape,
    nondecreasing_word,
    parse_shape,
    parse_word,
    rank_of,
    shape_of_word,
    validate_word,
)


def brute_rank(word, i):
    # rank = value order, ties left to right
    v = word[i - 1]
    smaller = sum(1 for d in word if d < v)
    ties = sum(1 for d in word[: i - 1] if d == v)
    return smaller + ties + 1


def all_words(mult):
    return sorted(set(itertools.permutations(nondecreasing_word(make_shape(mult)))))


class TestShape:
    def test_prefix_sums(self):
        shape = make_shape((2, 1, 3))
        assert shape.prefix == (0, 2, 3)
        assert shape.n == 6
        assert shape.m == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            make_shape((2, 0, 1))
        with pytest.raises(ShapeError):
            make_shape(())
        with pytest.raises(ShapeError):
            Shape((1, 0))

    def test_equality_ignores_derived_fields(self):
        assert make_shape((1, 2)) == Shape((1, 2))
        assert hash(make_shape((1, 2))) == hash(Shape([1, 2]))


class TestRanks:
    def test_known_word(self):
        shape = make_shape((1, 2, 3))
        word = (1, 2, 3, 3, 3, 2)
        assert [rank_of(shape, word, i) for i in range(1, 7)] == [1, 2, 4, 5, 6, 3]

    def test_against_brute_force(self):
        for mult in [(1, 1, 1), (2, 2), (2, 1, 3), (3, 1), (1, 1, 2, 1)]:
            shape = make_shape(mult)
            for word in all_words(mult):
                for i in range(1, shape.n + 1):
                    assert rank_of(shape, word, i) == brute_rank(word, i)

    def test_ranks_are_a_permutation(self):
        shape = make_shape((2, 2, 2))
        for word in all_words((2, 2, 2)):
            got = [rank_of(shape, word, i) for i in range(1, 7)]
            assert sorted(got) == list(range(1, 7))


class TestParsing:
    def test_word_round_trip(self):
        assert parse_word("112333") == (1, 1, 2, 3, 3, 3)
        assert parse_word("1,1,2,3,3,3") == (1, 1, 2, 3, 3, 3)
        assert format_word((1, 1, 2, 3, 3, 3)) == "112333"
        big = tuple(range(1, 12))
        assert parse_word(format_word(big)) == big

    @given(st.lists(st.integers(-3, 300), min_size=1, max_size=12))
    def test_format_word_joins_the_digits(self, word):
        # digits 0..9 take the bytes path; the others join their str forms
        join = "".join if max(word) <= 9 else ",".join
        assert format_word(tuple(word)) == join(map(str, word))

    def test_shape_round_trip(self):
        assert parse_shape("2,1,3").multiplicities == (2, 1, 3)
        assert parse_shape("2^3").multiplicities == (2, 2, 2)
        assert parse_shape("1,2^2,3").multiplicities == (1, 2, 2, 3)
        assert format_shape(make_shape((2, 1, 3))) == "2,1,3"

    def test_parse_errors(self):
        for bad in ("", "1,x", "0,1", "1,,2"):
            with pytest.raises((WordError, ShapeError)):
                parse_shape(bad)
        with pytest.raises(WordError):
            parse_word("1a2")

    def test_repeat_count_below_one_is_refused(self):
        for bad in ("1,2^-3", "2^0,1", "1,2^0"):
            with pytest.raises(ShapeError):
                parse_shape(bad)

    def test_shape_over_the_cap_is_refused(self, monkeypatch):
        # the number of values is checked before the list is built
        monkeypatch.setenv("SWORDGEN_CAP", "1000")
        with pytest.raises(SizeLimitError):
            parse_shape("1^5000")
        with pytest.raises(SizeLimitError):
            parse_shape("2,1^1000")
        assert parse_shape("1^1000").m == 1000

    def test_shape_of_word(self):
        assert shape_of_word((2, 1, 2)).multiplicities == (1, 2)
        with pytest.raises(WordError):
            shape_of_word((1, 3))  # value 2 missing

    def test_validate_word(self):
        shape = make_shape((2, 1))
        validate_word(shape, (1, 2, 1))
        with pytest.raises(WordError):
            validate_word(shape, (1, 2, 2))
        with pytest.raises(WordError):
            validate_word(shape, (1, 2))
