import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swordgen import oracle
from swordgen.oracle import (
    KCATALAN_PATTERNS,
    PEAKLESS_PATTERNS,
    STIRLING_PATTERNS,
    SizeLimitError,
    all_shapes,
    all_swords,
    count_avoiding,
    count_kary_trees,
    formula_count,
    k_catalan,
    language,
    live_patterns,
    multinomial,
    resolve_cap,
    stirling_count,
    tree_level,
)
from swordgen.patterns import avoids_all, contains_pattern, occurrence_points
from swordgen.words import make_shape, nondecreasing_word


def reference_words(mult):
    return sorted(set(itertools.permutations(nondecreasing_word(make_shape(mult)))))


SMALL_SHAPES = [(1,), (3,), (1, 1, 1), (2, 2), (2, 1, 3), (1, 2, 2), (1, 1, 1, 1), (4, 2)]


class TestEnumeration:
    @pytest.mark.parametrize("mult", SMALL_SHAPES)
    def test_all_swords_matches_itertools(self, mult):
        assert list(all_swords(make_shape(mult))) == reference_words(mult)

    def test_language_filters(self):
        shape = make_shape((2, 2))
        lang = language(shape, {"212"})
        assert lang == ((1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1))
        assert (1, 2, 2, 1) in lang
        assert (2, 1, 1, 2) not in lang
        assert len(lang) == 3

    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2)])
    @pytest.mark.parametrize(
        "pats", [frozenset(), STIRLING_PATTERNS, KCATALAN_PATTERNS, PEAKLESS_PATTERNS]
    )
    def test_language_against_reference_filter(self, mult, pats):
        got = language(make_shape(mult), pats)
        want = tuple(w for w in reference_words(mult) if avoids_all(w, pats))
        assert got == want

    def test_peakless_example(self):
        lang = language(make_shape((2, 2)), PEAKLESS_PATTERNS)
        assert lang == ((1, 1, 2, 2), (2, 1, 1, 2), (2, 2, 1, 1))


class TestCounting:
    def test_multinomial(self):
        assert multinomial(make_shape((2, 1, 3))) == 60
        assert multinomial(make_shape((1, 1, 1, 1))) == 24
        large = [(3000,), (1,) * 500, (2, 700, 5), (9, 1, 300, 4, 300)]
        for mult in SMALL_SHAPES + large:
            n = sum(mult)
            want = math.factorial(n)
            for s in mult:
                want //= math.factorial(s)
            assert multinomial(make_shape(mult)) == want

    def test_stirling_count_formula_vs_enumeration(self):
        for mult in SMALL_SHAPES:
            shape = make_shape(mult)
            assert stirling_count(shape) == len(language(shape, STIRLING_PATTERNS))

    def test_k_catalan_values(self):
        # Catalan numbers at k=2; the classical ternary tree counts at k=3
        assert [k_catalan(2, m) for m in range(1, 6)] == [1, 2, 5, 14, 42]
        assert k_catalan(3, 3) == 12
        for k in (2, 3, 4):
            for m in range(1, 6):
                assert k_catalan(k, m) == count_kary_trees(k, m)

    def test_count_avoiding_routes_agree(self):
        for mult in [(1, 1, 1), (2, 2), (2, 1, 2), (2, 2, 2)]:
            shape = make_shape(mult)
            for pats in (frozenset(), STIRLING_PATTERNS, KCATALAN_PATTERNS):
                assert count_avoiding(shape, pats) == len(language(shape, pats))

    def test_count_212_matches_formula(self):
        for total in range(1, 9):
            for shape in all_shapes(total):
                assert count_avoiding(shape, STIRLING_PATTERNS) == stirling_count(shape)

    def test_count_212_kernel_matches_formula(self):
        # the {212} count, reached with the pattern given as a string, as a
        # tuple and as the normalised constant
        for mult in [(2, 1, 3), (1, 1, 1, 1), (3, 3), (2, 2, 2)]:
            shape = make_shape(mult)
            for pats in ({"212"}, [(2, 1, 2)], STIRLING_PATTERNS):
                assert count_avoiding(shape, pats) == stirling_count(shape)

    @pytest.mark.parametrize(
        "pats",
        [
            frozenset(),
            STIRLING_PATTERNS,
            KCATALAN_PATTERNS,
            frozenset({(2, 3, 1)}),
            PEAKLESS_PATTERNS,
        ],
        ids=["none", "212", "132,121", "231", "132,231,121"],
    )
    def test_formula_count_matches_the_oracle(self, pats):
        # a closed form, where there is one, equals brute force on n <= 7
        formulas = 0
        for total in range(1, 8):
            for shape in all_shapes(total):
                got = formula_count(shape, pats)
                if pats == {(2, 3, 1)}:
                    # no closed form where 231 can occur, the multinomial elsewhere
                    assert (got is None) == bool(live_patterns(shape, pats)), shape.multiplicities
                if got is not None:
                    formulas += 1
                    assert got == count_avoiding(shape, pats), shape.multiplicities
        assert formulas > 0

    def test_formula_count_cases(self):
        assert formula_count(make_shape((2, 2, 2)), KCATALAN_PATTERNS) == 12
        assert formula_count(make_shape((1,) * 5), KCATALAN_PATTERNS) == 42
        # k-Catalan needs equal multiplicities
        assert formula_count(make_shape((2, 1)), KCATALAN_PATTERNS) is None
        # no cap applies: 30! words are counted, not listed
        assert formula_count(make_shape((1,) * 30), frozenset()) == math.factorial(30)

    @pytest.mark.parametrize(
        "pats", [{"212"}, {"231"}, {"132", "121"}], ids=["212", "231", "132,121"]
    )
    def test_count_from_strings_skips_the_language(self, monkeypatch, pats):
        shape = make_shape((2, 2, 2, 2, 1))
        want = len(language(shape, pats))

        def refuse(*args, **kwargs):
            raise AssertionError("count_avoiding built the language")

        monkeypatch.setattr(oracle, "language", refuse)
        assert count_avoiding(shape, pats) == want


# the pattern sets of the greedy oracle's tests, and one with a pattern that
# dies on shapes with single copies
TREE_PATTERN_SETS = [
    (), ("231",), ("12121",), ("132", "121"), ("132", "231", "121"),
    ("212",), ("312",), ("121",), ("2121",), ("11",), ("312", "212"),
]
# every normalised pattern of length <= 4, and three that need many copies
NORMALISED_PATTERNS = [
    p
    for k in range(1, 5)
    for p in itertools.product(range(1, k + 1), repeat=k)
    if set(p) == set(range(1, max(p) + 1))
] + [(1, 2, 1, 2, 1), (1, 1, 1, 1, 1), (2, 1, 2, 1)]


def holds_somewhere(shape, pattern):
    """Brute force: some word of the shape contains the pattern."""
    return any(contains_pattern(w, pattern) for w in all_swords(shape))


def member_points_of(parent, top, pats):
    return list(oracle.member_points(parent, top, frozenset(pats)))


def reference_points(parent, top, pats):
    """The points right of every copy of `top`, from the last, that no
    pattern's `occurrence_points` names."""
    first = len(parent) - parent[::-1].index(top) if top in parent else 0
    occupied = set().union(*(occurrence_points(parent, top, p) for p in pats))
    return [p for p in range(len(parent), first - 1, -1) if p not in occupied]


class TestGeneratingTree:
    @pytest.mark.parametrize("pats", TREE_PATTERN_SETS, ids=lambda p: ",".join(p) or "none")
    def test_tree_count_matches_brute_force(self, pats):
        # the tree's top level is the language, each word once
        for total in range(1, 8):
            for shape in all_shapes(total):
                want, level = language(shape, pats), tree_level(shape, pats)
                assert count_avoiding(shape, pats) == len(want), shape
                assert sorted(level) == list(want), shape

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 7),
        st.sets(st.sampled_from(NORMALISED_PATTERNS), min_size=1, max_size=3),
        st.data(),
    )
    def test_occurrence_points_on_children_of_an_avoider(self, mult, pats, data):
        # inserting the largest value right of its copies: a child contains
        # a pattern exactly at the points the through-copy test names, and
        # `member_points` names exactly the children that avoid them all
        parent = tuple(data.draw(st.permutations(nondecreasing_word(make_shape(tuple(mult))))))
        assume(avoids_all(parent, pats))
        top = max(parent) + data.draw(st.integers(0, 1))
        free = []
        for child in oracle.insertions(parent, top):
            p = len(child) - child[::-1].index(top) - 1
            for pattern in pats:
                points = occurrence_points(parent, top, pattern)
                assert (p in points) == contains_pattern(child, pattern), (child, pattern)
            if avoids_all(child, pats):
                free.append(p)
        assert list(oracle.member_points(parent, top, frozenset(pats))) == free, (parent, pats)

    def test_member_points_equal_the_reference_on_every_avoider(self):
        # every pattern of at most three letters, on every parent with n <= 6
        # that avoids it, with its largest value or one above it inserted
        for total in range(1, 7):
            for shape in all_shapes(total):
                words = all_swords(shape)
                for pattern in (p for p in NORMALISED_PATTERNS if len(p) <= 3):
                    for parent in words:
                        if contains_pattern(parent, pattern):
                            continue
                        for top in (shape.m, shape.m + 1):
                            assert member_points_of(parent, top, {pattern}) == reference_points(
                                parent, top, [pattern]
                            ), (parent, top, pattern)

    def test_longer_patterns_take_the_reference(self):
        # four letters and more, alone and beside the one-pass rules
        for pats in ({(1, 2, 1, 2)}, {(2, 1, 2, 1), (1, 3, 2)}, {(1, 2, 1, 2, 1), (3, 1, 2)}):
            for total in range(1, 6):
                for shape in all_shapes(total):
                    for parent in language(shape, pats):
                        for top in (shape.m, shape.m + 1):
                            assert member_points_of(parent, top, pats) == reference_points(
                                parent, top, pats
                            ), (parent, top, pats)

    def test_live_patterns_match_brute_force(self):
        for total in range(1, 7):
            for shape in all_shapes(total):
                for p in NORMALISED_PATTERNS:
                    assert bool(live_patterns(shape, {p})) == holds_somewhere(shape, p), (shape, p)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(lambda s: sum(s) <= 7),
        st.sets(st.sampled_from(NORMALISED_PATTERNS), max_size=3),
    )
    def test_tree_and_pruning_on_random_shapes(self, mult, pats):
        shape = make_shape(tuple(mult))
        assert count_avoiding(shape, pats) == len(language(shape, pats))
        assert live_patterns(shape, pats) == {p for p in pats if holds_somewhere(shape, p)}

    def test_tree_count_lists_no_words(self, monkeypatch):
        shape, perms = make_shape((2,) * 5), make_shape((1,) * 8)
        want = len(language(shape, {"312"}))

        def refuse(*args, **kwargs):
            raise AssertionError("count_avoiding listed every word")

        monkeypatch.setattr(oracle, "all_swords", refuse)
        assert count_avoiding(shape, {"312"}) == want
        # 212 needs two copies of a value: on 1^8 only 312 is tested
        assert count_avoiding(perms, {"312", "212"}) == count_avoiding(perms, {"312"}) == 1430

    def test_insertions_right_of_the_last_copy(self):
        assert oracle.insertions((), 1) == [(1,)]
        assert oracle.insertions((2, 1), 3) == [(2, 1, 3), (2, 3, 1), (3, 2, 1)]
        assert oracle.insertions((2, 1, 2, 1), 2) == [(2, 1, 2, 1, 2), (2, 1, 2, 2, 1)]
        # a smaller letter than some of the word's goes in right of its copies too
        assert oracle.insertions((1, 3, 1), 1) == [(1, 3, 1, 1)]


class TestCap:
    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            all_swords(make_shape((2, 2)), cap=5)
        with pytest.raises(SizeLimitError):
            language(make_shape((1, 1, 1, 1)), cap=10)
        with pytest.raises(SizeLimitError):
            count_avoiding(make_shape((1,) * 8), frozenset(), cap=100)

    @pytest.mark.parametrize(
        "pats",
        [set(), {"212"}, {"132", "231", "121"}, {"132", "121"}],
        ids=["none", "212", "peakless", "kcatalan"],
    )
    def test_language_size_boundary(self, pats, monkeypatch):
        # a closed form is capped by the language's own words: the size is
        # given at a cap of exactly that many, and refused one below it
        def refuse(*args, **kwargs):
            raise AssertionError("a closed form was counted on the tree")

        monkeypatch.setattr(oracle, "count_avoiding", refuse)
        for n in range(1, 8):
            for shape in all_shapes(n):
                if pats == {"132", "121"} and len(set(shape.multiplicities)) != 1:
                    continue
                size = len(language(shape, pats))
                assert oracle.language_size(shape, pats, size) == size
                with pytest.raises(SizeLimitError):
                    oracle.language_size(shape, pats, size - 1)

    def test_cap_resolution(self, monkeypatch):
        assert resolve_cap(123) == 123
        monkeypatch.setenv("SWORDGEN_CAP", "456")
        assert resolve_cap(None) == 456
        monkeypatch.delenv("SWORDGEN_CAP")
        assert resolve_cap(None) == 10_000_000
        monkeypatch.setenv("SWORDGEN_CAP", "")
        assert resolve_cap(None) == 10_000_000


class TestShapes:
    def test_all_shapes(self):
        got = [s.multiplicities for s in all_shapes(3)]
        assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert len(all_shapes(6)) == 32  # compositions of 6
