import itertools
import re

import pytest

from swordgen.oracle import all_shapes, all_swords, k_catalan, language, stirling_count
from swordgen.patterns import contains_pattern
from swordgen.stirling import loopless_run, stirling_sequence, trace
from swordgen.trees import (
    KTree,
    STree,
    TreeError,
    all_kary_trees,
    export_dot,
    hamilton_path,
    inversion_vector,
    kcatalan_word_to_tree,
    ktree_to_word,
    stirling_word_to_tree,
    tree_to_stirling_word,
    word_from_inversion_vector,
)
from swordgen.words import WordError, make_shape

# the inversion-vector path: "python" is hamilton_path, which collects the
# loop's live `inv` at each visit; "trace" reads the same column from the
# per-visit trace rows
PATHS = {
    "python": hamilton_path,
    "trace": lambda shape: [row.inv for row in trace(shape)],
}


def stirling_words(total):
    for shape in all_shapes(total):
        yield from language(shape, {"212"})


class TestSTree:
    def test_known_form(self):
        assert str(stirling_word_to_tree((1, 2, 2))) == "1(ε,2(ε,ε,ε))"
        assert str(stirling_word_to_tree((2, 2, 1))) == "1(2(ε,ε,ε),ε)"
        assert (
            str(stirling_word_to_tree((1, 1, 2, 3, 3, 3)))
            == "1(ε,ε,2(ε,3(ε,ε,ε,ε)))"
        )

    def test_round_trip_identity(self):
        for total in range(1, 8):
            seen = set()
            for w in stirling_words(total):
                tree = stirling_word_to_tree(w)
                assert tree_to_stirling_word(tree) == w
                seen.add(str(tree))
            # distinct words give distinct trees
            assert len(seen) == sum(
                stirling_count(shape) for shape in all_shapes(total)
            )

    def test_rejects_212(self):
        with pytest.raises(WordError):
            stirling_word_to_tree((2, 1, 2))
        with pytest.raises(WordError):
            stirling_word_to_tree(())

    def test_rejects_non_words(self):
        # a missing value or a digit below 1 is no word, and no tree
        # reads back into it
        for bad in [(1, 3), (0, 1), (2, 2), (-1, 1)]:
            with pytest.raises(WordError):
                stirling_word_to_tree(bad)
            with pytest.raises(WordError):
                inversion_vector(bad)

    def test_raise_exactly_on_212(self):
        for total in range(1, 8):
            for shape in all_shapes(total):
                for w in all_swords(shape):
                    has_212 = contains_pattern(w, (2, 1, 2))
                    for decode in (stirling_word_to_tree, inversion_vector):
                        try:
                            decode(w)
                        except WordError:
                            assert has_212, (decode.__name__, w)
                        else:
                            assert not has_212, (decode.__name__, w)

    def test_rejects_bad_labels(self):
        upside_down = STree(2, (STree(1, (None, None)), None))
        with pytest.raises(TreeError):
            tree_to_stirling_word(upside_down)
        gap = STree(1, (None, STree(3, (None, None))))
        with pytest.raises(TreeError):
            tree_to_stirling_word(gap)

    def test_rejects_nodes_without_two_slots(self):
        # a value has at least one copy, so its node has at least two slots;
        # fewer would read back a word that loses values
        for tree in (STree(1, (STree(2, (None,)), None)), STree(1, ())):
            with pytest.raises(TreeError, match="slots"):
                tree_to_stirling_word(tree)


class TestInversionVector:
    def test_known_values(self):
        assert inversion_vector((3, 3, 3, 2, 1, 1)) == (0, 2, 3)
        assert inversion_vector((1, 1, 2, 3, 3, 3)) == (0, 0, 0)
        assert inversion_vector((1, 2, 2)) == (0, 0)

    def test_any_copy_gives_the_same_count(self):
        # in a 212-avoiding word no smaller digit parts two equal copies,
        # so the smaller-to-the-right count is copy-independent
        for w in stirling_words(6):
            for v in set(w):
                counts = {
                    sum(1 for d in w[pos + 1 :] if d < v)
                    for pos, d in enumerate(w)
                    if d == v
                }
                assert len(counts) == 1
                assert counts.pop() == inversion_vector(w)[v - 1]

    def test_rejects_212(self):
        with pytest.raises(WordError):
            inversion_vector((2, 1, 2))

    def test_round_trip_identity(self):
        for total in range(1, 8):
            for shape in all_shapes(total):
                for w in language(shape, {"212"}):
                    assert word_from_inversion_vector(shape, inversion_vector(w)) == w

    def test_every_box_vector_is_hit(self):
        for mult in [(2, 1, 3), (1, 1, 1, 1), (3, 2)]:
            shape = make_shape(mult)
            box = itertools.product(*(range(t + 1) for t in shape.prefix))
            for iv in box:
                w = word_from_inversion_vector(shape, iv)
                assert inversion_vector(w) == iv

    def test_rejects_bad_vectors(self):
        shape = make_shape((2, 1, 3))
        with pytest.raises(TreeError):
            word_from_inversion_vector(shape, (0, 0))
        with pytest.raises(TreeError):
            word_from_inversion_vector(shape, (0, 0, 4))
        with pytest.raises(TreeError):
            word_from_inversion_vector(shape, (-1, 0, 0))
        with pytest.raises(TreeError):
            word_from_inversion_vector(shape, (1, 0, 0))  # t_1 = 0


class TestHamiltonPath:
    def test_known_path(self):
        assert hamilton_path(make_shape((2, 1, 3))) == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 3), (0, 1, 2),
            (0, 1, 1), (0, 1, 0), (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3),
        ]

    def test_matches_the_vectors_of_the_words(self):
        for total in range(1, 8):
            for shape in all_shapes(total):
                want = [inversion_vector(w) for w in stirling_sequence(shape)]
                assert hamilton_path(shape) == want

    @pytest.mark.parametrize("route", PATHS)
    def test_walks_the_whole_box(self, route):
        for total in range(1, 7):
            for shape in all_shapes(total):
                path = PATHS[route](shape)
                assert len(path) == stirling_count(shape)
                assert len(set(path)) == len(path)
                box = set(itertools.product(*(range(t + 1) for t in shape.prefix)))
                assert set(path) == box
                for a, b in zip(path, path[1:]):
                    diffs = [abs(x - y) for x, y in zip(a, b)]
                    assert sum(diffs) == 1


class TestKTree:
    def test_known_form(self):
        assert str(kcatalan_word_to_tree((2, 1, 1, 2), 3)) == "*(ε,*(ε,ε,ε),ε)"
        assert str(kcatalan_word_to_tree((1, 2), 2)) == "*(*(ε,ε),ε)"

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_word_round_trip(self, k):
        for m in range(1, 5):
            shape = make_shape((k - 1,) * m)
            words = language(shape, {"132", "121"})
            trees = set()
            for w in words:
                tree = kcatalan_word_to_tree(w, k)
                assert ktree_to_word(tree, k) == w
                trees.add(str(tree))
            assert len(trees) == len(words) == k_catalan(k, m)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tree_round_trip_and_count(self, k):
        for m in range(1, 5):
            trees = all_kary_trees(k, m)
            assert len(trees) == k_catalan(k, m)
            for tree in trees:
                w = ktree_to_word(tree, k)
                assert kcatalan_word_to_tree(w, k) == tree

    def test_rejects_bad_words(self):
        with pytest.raises(WordError):
            kcatalan_word_to_tree((1, 2, 2), 3)  # shape is not (2, 2)
        with pytest.raises(WordError):
            kcatalan_word_to_tree((1, 2, 1, 2), 3)  # contains 121
        with pytest.raises(TreeError):
            kcatalan_word_to_tree((1, 2), 1)

    def test_rejects_bad_arity(self):
        lopsided = KTree((KTree((None, None, None)), None))
        with pytest.raises(TreeError):
            ktree_to_word(lopsided, 3)


def node_and_edge_counts(dot):
    nodes = len(re.findall(r"^\s+\w+ \[", dot, flags=re.M))
    edges = len(re.findall(r" -> ", dot))
    return nodes, edges


class TestDotExport:
    def test_run_chain(self):
        run = loopless_run(make_shape((2, 1, 3)))
        dot = export_dot(run)
        assert dot.startswith("digraph run {")
        nodes, edges = node_and_edge_counts(dot)
        assert nodes == 12 + 1  # 12 words plus the node-style line
        assert edges == 11
        assert '"112333"' in dot
        assert re.search(r'w0 -> w1 \[label="r\d+[RL] w\d+ d\d+"\]', dot)

    def test_vector_path_chain(self):
        path = hamilton_path(make_shape((2, 1, 3)))
        dot = export_dot(path)
        nodes, edges = node_and_edge_counts(dot)
        assert nodes == 12 + 1
        assert edges == 11
        assert 'w0 -> w1 [label="v3+1"];' in dot

    def test_single_tree_cluster(self):
        dot = export_dot(stirling_word_to_tree((1, 2, 2)))
        assert dot.count("subgraph cluster") == 1
        nodes, edges = node_and_edge_counts(dot)
        # labeled nodes 1 and 2 plus four empty slots, minus the style line
        assert nodes - 1 == 6
        assert edges == 5

    def test_tree_family(self):
        trees = all_kary_trees(2, 3)
        dot = export_dot(trees)
        assert dot.count("subgraph cluster") == len(trees) == 5
