"""End-to-end checks, one per shipped claim, each printing a PASS/FAIL line.

Every test prints its verdict line before asserting so the summary stays
visible even when a claim fails.  Expensive runs are cached at module
scope and shared between the exhaustiveness and projection checks.
"""

import itertools
import time
from operator import ne, sub

from swordgen.bumps import BumpError, LEFT, RIGHT, apply_jump, classify_move
from swordgen.cli import parse_and_dispatch
from swordgen.greedy import generate_greedy, project_to_parent
from swordgen.oracle import (
    PEAKLESS_PATTERNS,
    all_shapes,
    count_kary_trees,
    k_catalan,
    language,
    multinomial,
    parent_shape,
    stirling_count,
)
from swordgen.patterns import contains_pattern, normalize_patterns
from swordgen.stirling import generate_loopless, step_stats, stirling_sequence
from swordgen.trees import (
    all_kary_trees,
    hamilton_path,
    inversion_vector,
    kcatalan_word_to_tree,
    ktree_to_word,
    stirling_word_to_tree,
    tree_to_stirling_word,
    word_from_inversion_vector,
)
from swordgen.words import make_shape
from swordgen.zigzag import semantic_zigzag, syntactic_zigzag

TRACE_TABLE = [
    ["112333", "3", "2", "6", "3", "134", "000", "123", "---"],
    ["113332", "3", "1", "5", "2", "163", "001", "123", "---"],
    ["133312", "3", "1", "4", "1", "162", "002", "123", "---"],
    ["333112", "2", "1", "6", "5", "461", "003", "123", "--+"],
    ["333121", "3", "1", "1", "4", "451", "013", "123", "--+"],
    ["133321", "3", "2", "2", "5", "152", "012", "123", "--+"],
    ["123331", "3", "1", "3", "6", "123", "011", "123", "--+"],
    ["121333", "2", "1", "2", "1", "124", "010", "123", "---"],
    ["211333", "3", "1", "6", "3", "214", "020", "113", "-+-"],
    ["213331", "3", "1", "5", "2", "213", "021", "113", "-+-"],
    ["233311", "3", "2", "4", "1", "512", "022", "113", "-+-"],
    ["333211", "1", "-", "-", "-", "541", "023", "123", "-++"],
]

PLAIN_CHANGES = [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3)]

GRAY_MATRIX = [
    normalize_patterns(pats)
    for pats in [set(), {"231"}, {"12121"}, {"132", "121"}, {"132", "231", "121"}]
]

_RUN_CACHE = {}


def cached_run(mult, pats):
    key = (mult, pats)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = generate_greedy(make_shape(mult), pats)
    return _RUN_CACHE[key]


def applicable(m, pats):
    """A pattern set constrains a shape once some pattern can occur."""
    return not pats or m >= min(len(set(p)) for p in pats)


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)


def test_criterion_1_trace_fidelity(capsys):
    begin = time.perf_counter()
    code = parse_and_dispatch(["trace", "--shape", "2,1,3"])
    elapsed = time.perf_counter() - begin
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:]]
    ok = code == 0 and rows == TRACE_TABLE and elapsed < 1.0
    announce(
        capsys, 1,
        ok, f"trace of shape (2,1,3) matches all 12 rows in {elapsed:.3f}s",
    )
    assert code == 0
    assert rows == TRACE_TABLE
    assert elapsed < 1.0


def test_criterion_2_plain_changes(capsys):
    got = stirling_sequence(make_shape((1, 1, 1)))
    ok = got == PLAIN_CHANGES
    announce(capsys, 2, ok, "loopless run on (1,1,1) is the plain-changes order")
    assert got == PLAIN_CHANGES


def test_criterion_3_reference_sequences(capsys):
    full = cached_run((2, 2), GRAY_MATRIX[0])
    got_full = ["".join(map(str, w)) for w in full.words]
    want_full = ["1122", "1221", "1212", "2112", "2121", "2211"]

    av231 = cached_run((1, 1, 1), GRAY_MATRIX[1])
    got_231 = ["".join(map(str, w)) for w in av231.words]
    want_231 = ["123", "132", "312", "321", "213"]

    stirling = generate_greedy(make_shape((2, 1, 3)), {"212"})
    got_212 = ["".join(map(str, w)) for w in stirling.words]
    want_212 = [row[0] for row in TRACE_TABLE]

    ok = got_full == want_full and got_231 == want_231 and got_212 == want_212
    announce(
        capsys, 3,
        ok, "greedy engine reproduces the three reference orders exactly",
    )
    assert got_full == want_full
    assert got_231 == want_231
    assert got_212 == want_212


def test_criterion_4_engine_equivalence(capsys):
    begin = time.perf_counter()
    checked = 0
    bad = []
    for total in range(1, 10):
        for shape in all_shapes(total):
            run = generate_greedy(shape, {"212"})
            same = list(run.words) == stirling_sequence(shape)
            checked += 1
            if not same:
                bad.append(shape.multiplicities)
    elapsed = time.perf_counter() - begin
    ok = not bad and elapsed < 60.0
    announce(
        capsys, 4,
        ok,
        f"greedy and loopless orders agree on all {checked} shapes with "
        f"n <= 9 in {elapsed:.1f}s",
    )
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_5_gray_property(capsys):
    runs = 0
    bad = []
    for total in range(1, 9):
        for shape in all_shapes(total):
            for pats in GRAY_MATRIX:
                if not applicable(shape.m, pats):
                    continue
                run = cached_run(shape.multiplicities, pats)
                lang = language(shape, pats)
                runs += 1
                if not run.complete:
                    bad.append((shape.multiplicities, pats, "incomplete"))
                    continue
                if len(run.words) != len(lang) or set(run.words) != set(lang):
                    bad.append((shape.multiplicities, pats, "coverage"))
                    continue
                for a, b in zip(run.words, run.words[1:]):
                    if classify_move(a, b) is None:
                        bad.append((shape.multiplicities, pats, (a, b)))
                        break

    # the unrestricted and the 212-avoiding orders move by transpositions
    swaps_checked = 0
    for total in range(1, 9):
        for shape in all_shapes(total):
            for words in (cached_run(shape.multiplicities, GRAY_MATRIX[0]).words, stirling_sequence(shape)):
                diffs = [sum(map(ne, a, b)) for a, b in zip(words, words[1:])]
                swaps_checked += len(diffs)
                if any(d != 2 for d in diffs):
                    bad.append((shape.multiplicities, "transposition"))

    ok = not bad
    announce(
        capsys, 5,
        ok,
        f"{runs} runs complete, cover their language once each, and "
        f"move by single bumps ({swaps_checked} transposition steps checked)",
    )
    assert not bad, bad[:5]


def test_criterion_6_counting_identities(capsys):
    bad = []
    shapes_checked = 0
    for total in range(1, 10):
        for shape in all_shapes(total):
            shapes_checked += 1
            if generate_loopless(shape) != stirling_count(shape):
                bad.append(shape.multiplicities)
    if stirling_count(make_shape((2, 1, 3))) != 12:
        bad.append("(2,1,3) formula")

    tree_counts = []
    for k in (2, 3, 4):
        for m in range(1, 6):
            formula = k_catalan(k, m)
            if count_kary_trees(k, m) != formula:
                bad.append(("tree DP", k, m))
            shape = make_shape((k - 1,) * m)
            if multinomial(shape) <= 500_000:
                got = len(language(shape, {"132", "121"}))
                if got != formula:
                    bad.append(("enumeration", k, m, got, formula))
                tree_counts.append((k, m, got))
            else:
                # too many words to sift: map the trees into the language
                # instead, which still pins the count from below
                words = {ktree_to_word(t, k) for t in all_kary_trees(k, m)}
                sound = all(
                    not contains_pattern(w, (1, 3, 2))
                    and not contains_pattern(w, (1, 2, 1))
                    for w in words
                )
                if len(words) != formula or not sound:
                    bad.append(("tree image", k, m))

    ok = not bad
    announce(
        capsys, 6,
        ok,
        f"|Av(212)| formula holds on {shapes_checked} shapes; k-ary counts "
        f"match for k in 2..4, m in 1..5",
    )
    assert not bad, bad[:5]


def test_criterion_7_hamilton_path(capsys):
    bad = []
    shapes_checked = 0
    for total in range(1, 10):
        for shape in all_shapes(total):
            shapes_checked += 1
            count = stirling_count(shape)
            path = hamilton_path(shape)
            if len(path) != count or len(set(map(tuple, path))) != count:
                bad.append((shape.multiplicities, "coverage"))
                continue
            if any(sum(map(abs, map(sub, a, b))) != 1 for a, b in zip(path, path[1:])):
                bad.append((shape.multiplicities, "step"))
    ok = not bad
    announce(
        capsys, 7,
        ok,
        f"inversion vectors walk the whole box in unit steps on all "
        f"{shapes_checked} shapes with n <= 9",
    )
    assert not bad, bad[:5]


def test_criterion_8_parent_projection(capsys):
    checked = 0
    bad = []
    for total in range(1, 9):
        for shape in all_shapes(total):
            if shape.m < 2:
                continue
            for pats in GRAY_MATRIX:
                if not applicable(shape.m, pats):
                    continue
                run = cached_run(shape.multiplicities, pats)
                parent = cached_run(parent_shape(shape).multiplicities, pats)
                checked += 1
                if project_to_parent(run) != list(parent.words):
                    bad.append((shape.multiplicities, pats))
    ok = not bad
    announce(
        capsys, 8,
        ok,
        f"projecting each of the {checked} runs onto its parent language "
        f"reproduces the parent run",
    )
    assert not bad, bad[:5]


def test_criterion_9_jump_invalidity(capsys):
    word = (1, 2, 3, 3, 3, 2)
    members = set(language(make_shape((1, 2, 3)), {"212"}))
    assert word in members
    legal = 0
    escapes = 0
    for i in range(1, len(word) + 1):
        for direction in (RIGHT, LEFT):
            for distance in range(1, len(word)):
                try:
                    result = apply_jump(word, i, direction, distance)
                except BumpError:
                    break
                legal += 1
                if contains_pattern(result, (2, 1, 2)):
                    escapes += 1
    ok = legal > 0 and legal == escapes
    announce(
        capsys, 9,
        ok,
        f"all {legal} single-digit moves out of 123332 land outside the "
        f"212-avoiding language",
    )
    assert legal > 0
    assert legal == escapes


def test_criterion_10_zigzag_checks(capsys):
    bad = []
    if not syntactic_zigzag({"231"}) or not syntactic_zigzag({"12121"}):
        bad.append("syntactic positives")
    if syntactic_zigzag({"212"}):
        bad.append("syntactic negative")

    verified = 0
    for pats in GRAY_MATRIX:
        if not syntactic_zigzag(pats):
            bad.append(("matrix set not syntactic", pats))
            continue
        for total in range(1, 8):
            for shape in all_shapes(total):
                closed, witness = semantic_zigzag(shape, pats)
                if not closed:
                    bad.append((shape.multiplicities, pats, witness))
                    continue
                verified += 1
                peak = set(language(shape, PEAKLESS_PATTERNS))
                lang = set(language(shape, pats))
                if not peak <= lang:
                    bad.append((shape.multiplicities, pats, "containment"))
    ok = not bad
    announce(
        capsys, 10,
        ok,
        f"syntactic verdicts fixed; {verified} languages with n <= 7 are "
        f"jump-closed and contain the peakless words",
    )
    assert not bad, bad[:5]


def test_criterion_11_bijections(capsys):
    bad = []
    words_checked = 0
    for total in range(1, 10):
        for shape in all_shapes(total):
            failures = []

            def check(perm, shape=shape, failures=failures):
                w = tuple(perm)
                if tree_to_stirling_word(stirling_word_to_tree(w)) != w:
                    failures.append((w, "tree"))
                if word_from_inversion_vector(shape, inversion_vector(w)) != w:
                    failures.append((w, "vector"))

            count = generate_loopless(shape, check)
            words_checked += count
            if count != stirling_count(shape):
                failures.append((shape.multiplicities, "count"))
            bad.extend(failures[:1])

    kary_checked = 0
    for k in (2, 3, 4):
        for m in range(1, 6):
            shape = make_shape((k - 1,) * m)
            formula = k_catalan(k, m)
            if multinomial(shape) <= 500_000:
                words = language(shape, {"132", "121"})
                if len(words) != formula:
                    bad.append(("kary count", k, m))
                for w in words:
                    kary_checked += 1
                    if ktree_to_word(kcatalan_word_to_tree(w, k), k) != w:
                        bad.append(("kary word trip", k, m, w))
                        break
            else:
                trees = all_kary_trees(k, m)
                if len(trees) != formula:
                    bad.append(("kary tree count", k, m))
                for t in trees:
                    kary_checked += 1
                    if kcatalan_word_to_tree(ktree_to_word(t, k), k) != t:
                        bad.append(("kary tree trip", k, m))
                        break
    ok = not bad
    announce(
        capsys, 11,
        ok,
        f"tree and vector round trips hold on {words_checked} words with "
        f"n <= 9 plus {kary_checked} k-ary words/trees",
    )
    assert not bad, bad[:5]


def test_criterion_12_loopless_performance(capsys):
    shape = make_shape((2,) * 8)
    begin = time.perf_counter()
    count = generate_loopless(shape)
    elapsed = time.perf_counter() - begin

    maxima = set()
    for mult in [(1, 1, 1), (2, 1, 3), (1,) * 8, (2,) * 6, (4, 3, 2, 1), (2,) * 8]:
        _, max_steps = step_stats(make_shape(mult))
        maxima.add(max_steps)

    ok = count == 2_027_025 and elapsed < 2.0 and len(maxima) == 1
    announce(
        capsys, 12,
        ok,
        f"counted {count} words of shape 2^8 in {elapsed:.3f}s with a "
        f"constant per-visit step bound of {maxima}",
    )
    assert count == 2_027_025
    assert elapsed < 2.0
    assert len(maxima) == 1
