import itertools
import math

import pytest

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
    multinomial,
    resolve_cap,
    stirling_count,
)
from swordgen.patterns import avoids_all
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
        assert lang.words == ((1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1))
        assert (1, 2, 2, 1) in lang
        assert (2, 1, 1, 2) not in lang
        assert len(lang) == 3

    @pytest.mark.parametrize("mult", [(1, 1, 1), (2, 2), (2, 1, 2)])
    @pytest.mark.parametrize(
        "pats", [frozenset(), STIRLING_PATTERNS, KCATALAN_PATTERNS, PEAKLESS_PATTERNS]
    )
    def test_language_against_reference_filter(self, mult, pats):
        got = language(make_shape(mult), pats).words
        want = tuple(w for w in reference_words(mult) if avoids_all(w, pats))
        assert got == want

    def test_peakless_example(self):
        lang = language(make_shape((2, 2)), PEAKLESS_PATTERNS)
        assert lang.words == ((1, 1, 2, 2), (2, 1, 1, 2), (2, 2, 1, 1))


class TestCounting:
    def test_multinomial(self):
        assert multinomial(make_shape((2, 1, 3))) == 60
        assert multinomial(make_shape((1, 1, 1, 1))) == 24
        for mult in SMALL_SHAPES:
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
        # the brute-force {212} counter, reached with the pattern given as a
        # string, as a tuple and as the normalised constant
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
                if got is not None:
                    formulas += 1
                    assert got == count_avoiding(shape, pats), shape.multiplicities
        has_formula = pats in (frozenset(), STIRLING_PATTERNS, KCATALAN_PATTERNS)
        assert (formulas > 0) == has_formula

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


class TestCap:
    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            all_swords(make_shape((2, 2)), cap=5)
        with pytest.raises(SizeLimitError):
            language(make_shape((1, 1, 1, 1)), cap=10)
        with pytest.raises(SizeLimitError):
            count_avoiding(make_shape((1,) * 8), frozenset(), cap=100)

    def test_cap_resolution(self, monkeypatch):
        assert resolve_cap(123) == 123
        monkeypatch.setenv("SWORDGEN_CAP", "456")
        assert resolve_cap(None) == 456
        monkeypatch.delenv("SWORDGEN_CAP")
        assert resolve_cap(None) == 10_000_000


class TestShapes:
    def test_all_shapes(self):
        got = [s.multiplicities for s in all_shapes(3)]
        assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert len(all_shapes(6)) == 32  # compositions of 6
