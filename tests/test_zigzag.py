import itertools

import pytest

from swordgen.bumps import LEFT, maximum_jump
from swordgen.oracle import PEAKLESS_PATTERNS, all_shapes, language
from swordgen.patterns import contains_pattern
from swordgen.words import make_shape
from swordgen.zigzag import closed_under_maximum_jumps, semantic_zigzag, syntactic_zigzag

ZIGZAG_SETS = [
    frozenset(),
    frozenset({"231"}),
    frozenset({"12121"}),
    frozenset({"132", "121"}),
    frozenset({"132", "231", "121"}),
]


class TestSyntactic:
    @pytest.mark.parametrize("patterns", ZIGZAG_SETS)
    def test_positive_verdicts(self, patterns):
        assert syntactic_zigzag(patterns)

    @pytest.mark.parametrize(
        "patterns",
        [
            {"212"},      # top letter first and last
            {"123"},      # top letter last
            {"312"},      # top letter first
            {"1221"},     # adjacent top letters
            {"212", "231"},  # one offender spoils the set
        ],
    )
    def test_negative_verdicts(self, patterns):
        assert not syntactic_zigzag(patterns)

    def test_agrees_with_direct_position_scan(self):
        # second route: re-derive the verdict from raw letter positions
        pool = ["121", "212", "231", "132", "123", "321", "1221", "12121", "2312"]
        for pats in itertools.combinations(pool, 2):
            expect = True
            for p in pats:
                top = max(p)
                hits = [i for i, c in enumerate(p) if c == top]
                internal = 0 not in hits and len(p) - 1 not in hits
                isolated = all(b - a > 1 for a, b in zip(hits, hits[1:]))
                expect = expect and internal and isolated
            assert syntactic_zigzag(set(pats)) == expect, pats


class TestClosure:
    def test_full_language_is_closed(self):
        for mult in [(2, 2), (1, 1, 1), (3, 1)]:
            words = language(make_shape(mult), set())
            assert closed_under_maximum_jumps(words) == (True, None)

    def test_vacuous_sets(self):
        assert closed_under_maximum_jumps([]) == (True, None)
        assert closed_under_maximum_jumps([(1, 1)]) == (True, None)

    def test_escape_produces_valid_witness(self):
        # drop a maximum-jump image from the full language: 231 sends its 3
        # to the back, so removing 213 must break closure somewhere
        pool = set(language(make_shape((1, 1, 1)), set())) - {(2, 1, 3)}
        ok, witness = closed_under_maximum_jumps(pool)
        assert not ok
        word, i, direction, result = witness
        assert word in pool
        assert maximum_jump(word, i, direction) == result
        assert result not in pool

    def test_projection_levels_are_checked(self):
        # the top value jumps freely between these two words, but their
        # common projection {12} is not closed, so the set is not zig-zag
        ok, witness = closed_under_maximum_jumps([(1, 2, 3), (3, 1, 2)])
        assert not ok
        assert witness == ((1, 2), 2, LEFT, (2, 1))

    def test_holes_off_the_jump_graph_stay_closed(self):
        # 121 is reachable only by non-maximum jumps, so its removal from
        # the full language leaves every closure obligation satisfied
        pool = set(language(make_shape((2, 1)), set())) - {(1, 2, 1)}
        assert closed_under_maximum_jumps(pool) == (True, None)

    def test_only_real_jumps_create_obligations(self):
        # {12} is not closed: the 2 can jump left
        ok, witness = closed_under_maximum_jumps([(1, 2)])
        assert not ok
        assert witness == ((1, 2), 2, LEFT, (2, 1))


class TestSemantic:
    def test_permutations_avoiding_231(self):
        assert semantic_zigzag(make_shape((1, 1, 1)), {"231"}) == (True, None)

    def test_full_language(self):
        assert semantic_zigzag(make_shape((2, 2))) == (True, None)

    def test_stirling_words_are_not_zigzag(self):
        shape, pats = make_shape((1, 2, 3)), {"212"}
        ok, witness = semantic_zigzag(shape, pats)
        assert not ok
        word, i, direction, result = witness
        assert word == (1, 2, 3, 3, 3, 2)
        members = set(language(shape, pats))
        assert word in members
        assert maximum_jump(word, i, direction) == result
        assert result not in members
        assert contains_pattern(result, (2, 1, 2))

    def test_non_top_jumps_carry_no_obligation(self):
        # a lower digit of 121312 can escape the 12121-avoiders, but only
        # the rightmost largest digit binds, so the language stays zig-zag
        shape, pats = make_shape((3, 2, 1)), {"12121"}
        members = set(language(shape, pats))
        word = (1, 2, 1, 3, 1, 2)
        assert word in members
        escape = maximum_jump(word, 6, LEFT)
        assert escape == (1, 2, 1, 3, 2, 1)
        assert escape not in members
        assert semantic_zigzag(shape, pats) == (True, None)

    @pytest.mark.parametrize("patterns", ZIGZAG_SETS)
    def test_syntactic_implies_semantic_small(self, patterns):
        for total in range(1, 7):
            for shape in all_shapes(total):
                ok, witness = semantic_zigzag(shape, patterns)
                assert ok, (shape.multiplicities, patterns, witness)

    def test_closed_under_intersection_and_union(self):
        shape = make_shape((1, 1, 1, 1))
        first = set(language(shape, {"231"}))
        second = set(language(shape, {"132", "121"}))
        for pool in (first & second, first | second):
            assert closed_under_maximum_jumps(pool) == (True, None)


class TestPeakless:
    def test_known_languages(self):
        assert [
            "".join(map(str, w))
            for w in language(make_shape((2, 2)), PEAKLESS_PATTERNS)
        ] == ["1122", "2112", "2211"]
        assert language(make_shape((1, 1)), PEAKLESS_PATTERNS) == ((1, 2), (2, 1))

    @pytest.mark.parametrize("patterns", ZIGZAG_SETS)
    def test_contained_in_verified_zigzag_languages(self, patterns):
        for total in range(1, 6):
            for shape in all_shapes(total):
                ok, _ = semantic_zigzag(shape, patterns)
                if not ok:
                    continue
                lang = set(language(shape, patterns))
                peak = set(language(shape, PEAKLESS_PATTERNS))
                assert peak <= lang, (shape.multiplicities, patterns)

    def test_matches_direct_triple_filter(self):
        # second route: refilter the raw word list with explicit checks
        for mult in [(2, 2), (1, 1, 1), (2, 1, 2), (1, 2, 3)]:
            shape = make_shape(mult)
            want = [
                w
                for w in language(shape, set())
                if not any(
                    contains_pattern(w, pat)
                    for pat in ((1, 3, 2), (2, 3, 1), (1, 2, 1))
                )
            ]
            assert list(language(shape, PEAKLESS_PATTERNS)) == want
