import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen import bumps, greedy, oracle, words
from swordgen.bumps import LEFT, apply_bump, classify_move
from swordgen.greedy import (
    EXHAUSTED,
    NO_NEW_BUMP,
    GrayCodeRun,
    InvalidStartError,
    generate_greedy,
    project_to_parent,
    run_from_payload,
    run_to_payload,
    verify_gray_code,
)
from swordgen.oracle import (
    SizeLimitError,
    all_shapes,
    all_swords,
    children,
    language,
    multinomial,
    parent_language,
    parent_shape,
    parent_word,
)
from swordgen.patterns import avoids_all, normalize_patterns
from swordgen.stirling import loopless_run
from swordgen.words import WordError, make_shape, nondecreasing_word, shape_of_word
from swordgen.zigzag import zigzag_pattern

def words_of(run):
    return ["".join(map(str, w)) for w in run.words]


SMALL_SHAPES = [shape for n in range(1, 8) for shape in all_shapes(n)]
PATTERN_SETS = [
    (), ("231",), ("12121",), ("132", "121"), ("132", "231", "121"), ("212",), ("312",),
]


class TestKnownSequences:
    def test_full_language_of_two_twos(self):
        run = generate_greedy(make_shape((2, 2)))
        assert words_of(run) == ["1122", "1221", "1212", "2112", "2121", "2211"]
        assert run.complete and run.halted_reason == EXHAUSTED

    def test_avoid_231_on_permutations(self):
        run = generate_greedy(make_shape((1, 1, 1)), {"231"})
        assert words_of(run) == ["123", "132", "312", "321", "213"]
        assert run.complete

    def test_plain_changes(self):
        run = generate_greedy(make_shape((1, 1, 1)))
        assert words_of(run) == ["123", "132", "312", "321", "231", "213"]

    def test_stirling_order(self):
        run = generate_greedy(make_shape((2, 1, 3)), {"212"})
        assert words_of(run) == [
            "112333", "113332", "133312", "333112", "333121", "133321",
            "123331", "121333", "211333", "213331", "233311", "333211",
        ]
        assert run.complete

    def test_incomplete_language_halts(self):
        run = generate_greedy(make_shape((1, 1, 1)), {"312"})
        assert words_of(run) == ["123", "132"]
        assert not run.complete and run.halted_reason == NO_NEW_BUMP


class TestEngineOptions:
    def test_212_runs_cover_the_oracle_language(self):
        # the {212} engine tests candidates directly and sizes the language
        # by the product formula; the brute-force oracle must agree
        for total in range(1, 8):
            for shape in all_shapes(total):
                run = generate_greedy(shape, {"212"})
                assert run.complete, shape.multiplicities
                assert set(run.words) == set(language(shape, {"212"}))

    def test_closed_form_languages_are_not_listed(self, monkeypatch):
        # with a closed form for the size, candidates are tested directly;
        # a zig-zag set without one ({231}) is sized on the tree and swept
        def refuse(*args, **kwargs):
            raise AssertionError("greedy listed the language")

        monkeypatch.setattr(oracle, "language", refuse)
        shape = make_shape((2, 2, 2, 2))
        for pats in (set(), {"132", "121"}, {"132", "231", "121"}, {"231"}):
            run = generate_greedy(shape, pats)
            assert run.complete and len(run.words) == oracle.count_avoiding(shape, pats)

    def test_peakless_run_lists_no_words(self, monkeypatch):
        # the peakless count is a closed form: of 8! words, 2^7 are members
        def refuse(*args, **kwargs):
            raise AssertionError("greedy listed the language")

        for name in ("language", "all_swords"):
            monkeypatch.setattr(oracle, name, refuse)
        run = generate_greedy(make_shape((1,) * 8), {"132", "231", "121"})
        assert run.complete and len(run.words) == 128

    def test_void_patterns_are_neither_listed_nor_tested(self, monkeypatch):
        # 12121 needs three copies of a value: on 1^8 the run is the one with
        # no patterns, sized by the multinomial, and still reports 12121
        free = generate_greedy(make_shape((1,) * 8))

        def refuse(*args, **kwargs):
            raise AssertionError("greedy listed the language")

        calls = []

        def counted(word, patterns):
            calls.append(word)
            return avoids_all(word, patterns)

        monkeypatch.setattr(oracle, "language", refuse)
        for module in (greedy, oracle):
            monkeypatch.setattr(module, "avoids_all", counted)
        run = generate_greedy(make_shape((1,) * 8), {"12121"})
        assert run.words == free.words and run.moves == free.moves
        assert run.complete and len(run.words) == 40320
        assert run.patterns == {(1, 2, 1, 2, 1)}
        # the start word is checked once; no candidate is tested
        assert calls == [run.words[0]]

    def test_212_run_respects_the_cap(self):
        with pytest.raises(SizeLimitError):
            generate_greedy(make_shape((2, 2, 2)), {"212"}, cap=50)

    def test_custom_start(self):
        run = generate_greedy(make_shape((2, 2)), start=(2, 2, 1, 1))
        assert run.words[0] == (2, 2, 1, 1)
        assert run.complete

    def test_a_long_run_is_walked_once(self):
        # the block scan walked every copy's run back to its start, which
        # took 0.58 s for one word of 4,000 copies; the walk of this shape
        # sweeps, so the scan is driven directly
        shape, word = make_shape((20000,)), (1,) * 20000
        begin = time.perf_counter()
        assert collected(greedy._scan, shape, word, lambda w: True) == []
        assert time.perf_counter() - begin < 1.0
        run = generate_greedy(shape)
        assert run.words == (word,) and run.complete

    def test_invalid_start(self):
        with pytest.raises(InvalidStartError):
            generate_greedy(make_shape((1, 1, 1)), {"123"})
        with pytest.raises(InvalidStartError):
            generate_greedy(make_shape((2, 2)), start=(2, 1, 1, 2), patterns={"212"})
        with pytest.raises(WordError):
            generate_greedy(make_shape((2, 2)), start=(1, 1, 1, 2))


def collected(engine, *args):
    """The (word, move) steps that an engine hands its visitor, checked
    against the count it returns."""
    steps = []
    assert engine(*args, lambda *step: steps.append(step)) == len(steps)
    return steps


def scan_steps(shape, pats):
    """The block scan's steps from the nondecreasing word, its member test
    the language built on the generating tree."""
    lang = frozenset(oracle.tree_level(shape, pats))
    return collected(greedy._scan, shape, nondecreasing_word(shape), lang.__contains__)


def sweep_steps(shape, pats):
    live = oracle.live_patterns(shape, pats)
    return collected(greedy._sweep, shape, nondecreasing_word(shape), live)


@st.composite
def zigzag_sets(draw):
    """One to three syntactically zig-zag patterns of three to five letters."""
    pats = set()
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(
            st.lists(st.integers(1, 4), min_size=3, max_size=5)
            .map(lambda xs: tuple(sorted(set(xs)).index(x) + 1 for x in xs))
            .filter(zigzag_pattern)
        )
        pats.add(raw)
    return frozenset(pats)


class TestSweep:
    """The sweep on the generating tree against the block scan, which keeps
    the visited words (and which `test_greedy_oracle.py` checks against the
    literal rule)."""

    # the pattern sets of criterion 5
    GRAY_MATRIX = [(), ("231",), ("12121",), ("132", "121"), ("132", "231", "121")]

    @pytest.mark.parametrize("patterns", GRAY_MATRIX, ids=lambda p: "+".join(p) or "none")
    def test_equals_the_scan_on_every_shape_up_to_eight(self, patterns):
        pats = normalize_patterns(patterns)
        for total in range(1, 9):
            for shape in all_shapes(total):
                assert sweep_steps(shape, pats) == scan_steps(shape, pats), shape

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(SMALL_SHAPES), zigzag_sets())
    def test_equals_the_scan_on_any_zigzag_set(self, shape, pats):
        steps = sweep_steps(shape, pats)
        assert steps == scan_steps(shape, pats)
        assert 1 + len(steps) == len(oracle.tree_level(shape, pats))

    def test_equals_the_scan_on_one_and_n(self):
        # every n would take a minute, nearly all of it in the scan
        for n in [*range(1, 61), *range(70, 301, 10)]:
            shape = make_shape((1, n))
            assert sweep_steps(shape, frozenset()) == scan_steps(shape, frozenset()), n

    def test_long_runs_need_no_recursion(self):
        # the sweep keeps one stack entry a level and no visited set
        run = generate_greedy(make_shape((1, 2000)))
        assert run.complete and len(set(run.words)) == 2001
        assert verify_gray_code(run).ok

    @pytest.mark.parametrize(
        "mult, pats",
        [
            ((1, 1, 1, 1), {"132", "231", "121"}),
            ((2, 1, 2), set()),
            ((2, 2, 2), {"132", "121"}),
            ((1, 1, 1, 1), {"231"}),  # no closed form: sized on the tree
        ],
    )
    def test_the_nondecreasing_start_is_the_default(self, monkeypatch, mult, pats):
        def refuse(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(greedy, "_scan", refuse)
        shape = make_shape(mult)
        start = nondecreasing_word(shape)
        assert generate_greedy(shape, pats, start=start) == generate_greedy(shape, pats)

    @pytest.mark.parametrize(
        "mult, pats, start",
        [
            ((2, 2), set(), (2, 2, 1, 1)),
            ((1, 1, 1, 1), {"231"}, (4, 3, 2, 1)),
            ((2, 1, 3), {"212"}, None),
            ((1, 1, 1), {"312"}, None),
        ],
        ids=["start", "231-start", "212", "312"],
    )
    def test_other_starts_and_sets_take_the_scan(self, monkeypatch, mult, pats, start):
        scan, calls = greedy._scan, []

        def counted(*args):
            calls.append(args)
            return scan(*args)

        def refuse(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(greedy, "_scan", counted)
        monkeypatch.setattr(greedy, "_sweep", refuse)
        run = generate_greedy(make_shape(mult), pats, start=start)
        assert len(calls) == 1 and len(run.words) > 1


class TestVerify:
    def test_dead_patterns_are_sized_in_closed_form(self, monkeypatch):
        # 12121 cannot occur on 2^6: the run and its check are sized by the
        # 212 product, and neither builds the 10,395-word tree
        def refuse(*args, **kwargs):
            raise AssertionError("the language was counted on the tree")

        monkeypatch.setattr(oracle, "count_avoiding", refuse)
        run = generate_greedy(make_shape((2,) * 6), {"212", "12121"})
        report = verify_gray_code(run)
        assert report.ok and report.exhaustive is True
        assert len(run.words) == 10395

    def test_good_run(self):
        run = generate_greedy(make_shape((2, 1, 3)), {"212"})
        report = verify_gray_code(run)
        assert report.ok
        assert report.all_member and report.all_distinct and report.exhaustive
        assert report.moves_valid and report.transpositions_only

    def test_incomplete_run_not_exhaustive(self):
        run = generate_greedy(make_shape((1, 1, 1)), {"312"})
        report = verify_gray_code(run)
        assert report.exhaustive is False
        assert not report.ok
        assert "exhaustive" in report.counterexamples

    def test_212_verify_lists_no_words(self, monkeypatch):
        # the product formula decides exhaustiveness; the language is never
        # enumerated
        def refuse(*args, **kwargs):
            raise AssertionError("verify enumerated the language")

        monkeypatch.setattr(oracle, "all_swords", refuse)
        monkeypatch.setattr(oracle, "language", refuse)
        for mult in [(2, 1, 3), (2, 2, 2), (1, 1, 1, 1), (3, 1, 2)]:
            run = loopless_run(make_shape(mult))
            assert verify_gray_code(run).exhaustive is True
        cut = GrayCodeRun(
            run.shape, run.patterns, run.words[:-1], run.moves[:-1],
            False, NO_NEW_BUMP,
        )
        report = verify_gray_code(cut)
        assert report.exhaustive is False
        assert not report.ok
        assert report.counterexamples["exhaustive"] == {
            "visited": len(run.words) - 1,
            "language": len(run.words),
        }

    def test_bumps_build_no_shape_per_word(self, monkeypatch):
        # ranks are read off the word itself, never through a rebuilt Shape
        def refuse(word):
            raise AssertionError("a Shape was rebuilt from a word")

        monkeypatch.setattr(words, "shape_of_word", refuse)
        monkeypatch.setattr(bumps, "shape_of_word", refuse, raising=False)
        shape = make_shape((2, 1, 3))
        for run in (generate_greedy(shape, {"231"}), loopless_run(shape)):
            assert verify_gray_code(run).ok
        assert apply_bump((1, 1, 2, 3, 3, 3), 6, LEFT, 1)[0] == (1, 1, 3, 3, 3, 2)

    @pytest.mark.parametrize("patterns", [{"212"}, {"231"}], ids=["212", "231"])
    def test_cap_below_the_multinomial_leaves_exhaustive_open(self, patterns):
        shape = make_shape((2, 1, 2))
        run = generate_greedy(shape, patterns)
        assert verify_gray_code(run).exhaustive is True
        cut = GrayCodeRun(
            run.shape, run.patterns, run.words[:-1], run.moves[:-1],
            False, NO_NEW_BUMP,
        )
        for checked in (run, cut):
            report = verify_gray_code(checked, cap=multinomial(shape) - 1)
            assert report.exhaustive is None
            assert report.ok
            assert "exhaustive" not in report.counterexamples

    def test_tampering_is_detected(self):
        run = generate_greedy(make_shape((2, 2)))
        dup = GrayCodeRun(
            run.shape, run.patterns, run.words[:-1] + (run.words[0],), run.moves,
            run.complete, run.halted_reason,
        )
        report = verify_gray_code(dup)
        assert not report.all_distinct and not report.ok

        swapped = GrayCodeRun(
            run.shape, run.patterns,
            run.words[:2] + (run.words[3], run.words[2]) + run.words[4:],
            run.moves, run.complete, run.halted_reason,
        )
        assert not verify_gray_code(swapped).moves_valid

        alien = GrayCodeRun(
            run.shape, normalize_patterns({"212"}), run.words, run.moves,
            run.complete, run.halted_reason,
        )
        assert verify_gray_code(alien).all_member is False

        # a word outside the shape fails membership and the move into it,
        # without raising
        short = generate_greedy(make_shape((1, 1, 1)))
        payload = run_to_payload(short, "greedy")
        payload["words"][2] = [1, 1, 2]
        report = verify_gray_code(run_from_payload(payload))
        assert report.all_member is False and report.moves_valid is False
        assert report.counterexamples["all_member"] == (2, (1, 1, 2))
        assert report.counterexamples["moves_valid"] == (1, short.moves[1], None)

    def test_wide_moves_flagged_but_not_fatal(self):
        # 123 -> 312 is a legal distance-2 bump but changes 3 positions:
        # transpositions_only goes false without sinking the verdict.  The
        # language of 1,1,1 avoiding these four is exactly {123, 312}.
        pats = normalize_patterns({"132", "213", "231", "321"})
        run = GrayCodeRun(
            make_shape((1, 1, 1)), pats, ((1, 2, 3), (3, 1, 2)),
            (classify_move((1, 2, 3), (3, 1, 2)),), False, NO_NEW_BUMP,
        )
        report = verify_gray_code(run)
        assert report.ok
        assert report.moves_valid
        assert not report.transpositions_only


class TestMoveReplay:
    @settings(deadline=None)
    @given(st.sampled_from(SMALL_SHAPES), st.sampled_from(PATTERN_SETS))
    def test_greedy_moves_are_minimal_bumps(self, shape, patterns):
        # every recorded move replays through apply_bump, and each smaller
        # distance of the same block leaves the language
        run = generate_greedy(shape, patterns)
        member = set(language(shape, patterns)).__contains__
        for k, mv in enumerate(run.moves):
            w = run.words[k]
            assert apply_bump(w, mv.rank, mv.dir, mv.distance) == (run.words[k + 1], mv)
            for d in range(1, mv.distance):
                assert not member(apply_bump(w, mv.rank, mv.dir, d)[0])

    @settings(deadline=None)
    @given(st.sampled_from(SMALL_SHAPES))
    def test_loopless_moves_replay(self, shape):
        run = loopless_run(shape)
        for k, mv in enumerate(run.moves):
            assert apply_bump(run.words[k], mv.rank, mv.dir, mv.distance) == (
                run.words[k + 1],
                mv,
            )


class TestParentMachinery:
    def test_parent_shape(self):
        assert parent_shape(make_shape((2, 1, 3))).multiplicities == (2, 1, 2)
        assert parent_shape(make_shape((2, 1, 1))).multiplicities == (2, 1)
        assert parent_shape(make_shape((3,))).multiplicities == (2,)

    def test_parent_word(self):
        assert parent_word((1, 2, 3, 3, 1, 3)) == (1, 2, 3, 3, 1)
        assert parent_word((2, 1, 2)) == (2, 1)
        assert parent_word((1,)) == ()

    def test_children_enumeration(self):
        # the inserted 3 is the unique maximum, so every slot yields a child
        shape = make_shape((2, 1, 1))
        got = children((1, 1, 2), shape)
        assert got == [(1, 1, 2, 3), (1, 1, 3, 2), (1, 3, 1, 2), (3, 1, 1, 2)]
        for c in got:
            assert parent_word(c) == (1, 1, 2)

    def test_children_with_duplicate_maximum(self):
        # inserting another copy of the maximum: only slots right of the
        # existing copies survive the round trip
        assert children((2, 1), make_shape((1, 2))) == [(2, 1, 2), (2, 2, 1)]
        assert children((1, 2, 2), make_shape((1, 3))) == [(1, 2, 2, 2)]

    def test_children_respect_patterns(self):
        # 212 itself is a child of 21 by insertion but fails the filter
        got = children((2, 1), make_shape((1, 2)), {"212"})
        assert got == [(2, 2, 1)]
        full = children((1, 1, 2), make_shape((2, 1, 1)), {"212"})
        assert full == [(1, 1, 2, 3), (1, 1, 3, 2), (1, 3, 1, 2), (3, 1, 1, 2)]
        for c in full:
            assert avoids_all(c, normalize_patterns({"212"}))

    @pytest.mark.parametrize(
        "pats",
        [set(), {"231"}, {"12121"}, {"132", "121"}, {"132", "231", "121"}, {"212"}],
        ids=["none", "231", "12121", "132,121", "132,231,121", "212"],
    )
    def test_children_match_brute_force(self, pats):
        # every word of every parent shape with n <= 6: its children are the
        # language words that project onto it, and it has none exactly when
        # children raises
        for total in range(1, 8):
            for shape in all_shapes(total):
                want: dict = {}
                for w in language(shape, pats):
                    want.setdefault(parent_word(w), []).append(w)
                for w2 in all_swords(parent_shape(shape)):
                    if w2 in want:
                        assert children(w2, shape, pats) == want[w2], (shape, w2)
                    else:
                        with pytest.raises(WordError):
                            children(w2, shape, pats)

    def test_children_of_outsider_raises(self):
        with pytest.raises(WordError):
            children((2, 1), make_shape((1, 1, 1)), {"21"})

    def test_parent_language_projection(self, monkeypatch):
        shape = make_shape((2, 2))
        child = language(shape, {"212"})

        # the parent language comes from the generating tree, not the list
        def refuse(*args, **kwargs):
            raise AssertionError("parent_language listed the language")

        for name in ("language", "all_swords"):
            monkeypatch.setattr(oracle, name, refuse)
        plang = parent_language(shape, {"212"})
        assert {shape_of_word(w).multiplicities for w in plang} == {(2, 1)}
        assert set(plang) == {parent_word(w) for w in child}
        assert list(plang) == sorted(set(plang))

    def test_project_collapses_duplicates(self):
        run = generate_greedy(make_shape((2, 1, 3)), {"212"})
        projected = project_to_parent(run)
        parent_run = generate_greedy(parent_shape(run.shape), {"212"})
        assert projected == list(parent_run.words)


class TestPayload:
    def test_round_trip(self):
        run = generate_greedy(make_shape((2, 2)), {"212"})
        payload = run_to_payload(run, "greedy")
        assert payload["format"] == 1
        back = run_from_payload(payload)
        assert back.words == run.words
        assert back.moves == run.moves
        assert back.complete == run.complete
        assert back.patterns == run.patterns

    @pytest.mark.parametrize("field", ["shape", "words", "moves", "complete", "patterns"])
    def test_missing_field_is_named(self, field):
        payload = run_to_payload(generate_greedy(make_shape((2, 1)), {"212"}), "greedy")
        del payload[field]
        with pytest.raises(ValueError, match=repr(field)):
            run_from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("shape", ["1", "1", "1"], id="shape"),
            pytest.param("words", [[1, 2, 3], ["1", "3", "2"]], id="words"),
            pytest.param("words", [1], id="word-not-a-list"),
            pytest.param("moves", [[1]], id="move-not-an-object"),
        ],
    )
    def test_string_digits_are_named(self, field, value):
        # digits given as strings, and words or moves of the wrong type, are
        # refused like a missing field, not left to fail as a TypeError in
        # the checks
        payload = run_to_payload(generate_greedy(make_shape((1, 1, 1)), {"231"}), "greedy")
        payload[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            run_from_payload(payload)

    @pytest.mark.parametrize("payload", [[], "run", 1, None])
    def test_payload_that_is_not_an_object_is_refused(self, payload):
        with pytest.raises(ValueError, match="not an object"):
            run_from_payload(payload)

    @pytest.mark.parametrize(
        "value", ["false", "true", 1, 0, None], ids=["false-string", "true-string", "one", "zero", "null"]
    )
    def test_complete_must_be_a_bool(self, value):
        # bool("false") is True: a flag of another type is refused, not read
        payload = run_to_payload(generate_greedy(make_shape((2, 1)), {"212"}), "greedy")
        payload["complete"] = value
        with pytest.raises(ValueError, match="'complete'"):
            run_from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rank", "x"),
            ("rank", True),
            ("dir", 9),
            ("dir", "r"),
            ("width", None),
            ("distance", 1.0),
            ("anchor", [1]),
        ],
    )
    def test_move_field_types_are_named(self, field, value):
        payload = run_to_payload(generate_greedy(make_shape((2, 1)), {"212"}), "greedy")
        payload["moves"][-1][field] = value
        with pytest.raises(ValueError, match=repr(field)):
            run_from_payload(payload)

    def test_missing_move_field_is_named(self):
        payload = run_to_payload(generate_greedy(make_shape((2, 1)), {"212"}), "greedy")
        del payload["moves"][0]["rank"]
        with pytest.raises(ValueError, match="'rank'"):
            run_from_payload(payload)
