"""
Tree objects and inversion vectors in bijection with Gray-coded words.

Words avoiding 212 correspond to increasing trees: the minimum value v of
a word occurs s_v times and cuts it into s_v + 1 segments, each wholly
containing every other value, so v becomes a node with one ordered child
slot per segment.  One left-to-right stack pass builds the whole tree,
or writes its text with no node built.
Words over the shape (k-1)^m avoiding {132, 121} correspond to k-ary
trees: the complement (m+1) - w avoids {312, 212}, and its increasing
tree is the k-ary tree labeled in preorder.  The labels are forced, so
only the unlabeled tree is kept.

Words avoiding 212 also map to inversion vectors (per value, the number
of smaller digits right of its copies), turning the generated order into
a walk on a box of integer vectors that moves one coordinate by one per
step.  DOT export renders runs, vector paths and tree families.
"""

from __future__ import annotations

from itertools import count, product
from typing import NamedTuple, Optional, Sequence, Union

from . import oracle
from .greedy import GrayCodeRun
from .patterns import avoids_212, avoids_all
from .stirling import inversion_vectors
from .words import Shape, Word, WordError, check_word, format_word, shape_of_word

InvVector = tuple[int, ...]


class TreeError(ValueError):
    """Raised for malformed trees and out-of-range inversion vectors."""


class STree(NamedTuple):
    """Node labeled v with s_v + 1 ordered child slots (None = empty)."""

    label: int
    children: tuple[Optional["STree"], ...]

    def __str__(self) -> str:
        slots = ",".join("ε" if c is None else str(c) for c in self.children)
        return f"{self.label}({slots})"


class KTree(NamedTuple):
    """Unlabeled internal node with exactly k ordered subtrees (None = leaf)."""

    children: tuple[Optional["KTree"], ...]

    def __str__(self) -> str:
        slots = ",".join("ε" if c is None else str(c) for c in self.children)
        return f"*({slots})"


# --- increasing trees -------------------------------------------------------


def _increasing_tree(word: Word, node, empty):
    """The increasing tree of a word over 1..m, in the one stack pass of
    `avoids_212`: open nodes sit on a stack whose labels increase upwards
    from a 0 sentinel, and a digit closes every open node above it.  The
    subtree closed last fills the slot that the digit ends, or the first
    slot of the node that the digit opens.  A trailing 0 closes them all.
    A closed node is `node(label, children)`, its children a tuple of
    subtrees and `empty` slots.  Raises WordError on a 212.
    """
    labels = [0]
    slots: list[list] = [[]]
    seen = set()
    tree = empty
    for d in (*word, 0):
        while labels[-1] > d:
            children = slots.pop()
            children.append(tree)
            tree = node(labels.pop(), tuple(children))
        if labels[-1] == d:
            slots[-1].append(tree)
        elif d in seen:
            # d was closed by a smaller digit since its last copy
            raise WordError(f"{format_word(word)} contains 212")
        else:
            seen.add(d)
            labels.append(d)
            slots.append([tree])
        tree = empty
    return slots[0][0]


def _labeled_text(label: int, children: tuple[str, ...]) -> str:
    return f"{label}({','.join(children)})"


def stirling_word_to_tree(word: Word) -> STree:
    """The increasing tree of a 212-avoiding word: the minimum value is
    the root, and its copies cut the word into the root's child slots.

    >>> str(stirling_word_to_tree((1, 2, 2)))
    '1(ε,2(ε,ε,ε))'
    """
    check_word(word)
    return _increasing_tree(word, STree, None)


def stirling_tree_text(word: Word) -> str:
    """`str(stirling_word_to_tree(word))`, written by the same stack pass
    with no node built.

    >>> stirling_tree_text((1, 2, 2))
    '1(ε,2(ε,ε,ε))'
    """
    check_word(word)
    return _increasing_tree(word, _labeled_text, "ε")


def tree_to_stirling_word(tree: STree) -> Word:
    """Read an increasing tree back into its word.

    Validates the invariants: labels are exactly 1..m, each once, strictly
    increasing away from the root, and every node has at least 2 slots.
    """
    labels: list[int] = []
    out: list[int] = []

    def read(node: STree) -> None:
        if len(node.children) < 2:
            raise TreeError(f"node {node.label} has fewer than 2 child slots")
        labels.append(node.label)
        for k, child in enumerate(node.children):
            if k:
                out.append(node.label)
            if child is not None:
                if child.label <= node.label:
                    raise TreeError(
                        f"child label {child.label} not above parent {node.label}"
                    )
                read(child)

    read(tree)
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise TreeError(f"labels {sorted(labels)} are not 1..{len(labels)}")
    return tuple(out)


# --- inversion vectors ------------------------------------------------------


def inversion_vector(word: Word) -> InvVector:
    """Per value, how many smaller digits sit right of its last copy.

    In a 212-avoiding word no smaller digit separates two copies of a
    value, so the count is the same from any copy.

    >>> inversion_vector((3, 3, 3, 2, 1, 1))
    (0, 2, 3)
    """
    check_word(word)
    if not avoids_212(word):
        raise WordError(f"{format_word(word)} contains 212")
    # read right to left, a value is first met at its last copy
    m = max(word)
    counts = [0] * (m + 1)
    out: list[Optional[int]] = [None] * m
    for d in reversed(word):
        if out[d - 1] is None:
            out[d - 1] = sum(counts[:d])
        counts[d] += 1
    return tuple(out)


def word_from_inversion_vector(shape: Shape, iv: Sequence[int]) -> Word:
    """Rebuild the word: insert each block v^{s_v} into the word over
    1..v-1 so that exactly iv_v of its t_v digits end up to the right.

    >>> word_from_inversion_vector(Shape((2, 1, 3)), (0, 2, 3))
    (3, 3, 3, 2, 1, 1)
    """
    if len(iv) != shape.m:
        raise TreeError(f"expected {shape.m} coordinates, got {len(iv)}")
    for v, (x, t_v) in enumerate(zip(iv, shape.prefix), start=1):
        if not 0 <= x <= t_v:
            raise TreeError(f"coordinate {v} is {x}, outside 0..{t_v}")
    out: list[int] = []
    for v, s_v in enumerate(shape.multiplicities, start=1):
        pos = shape.prefix[v - 1] - iv[v - 1]
        out[pos:pos] = [v] * s_v
    return tuple(out)


def hamilton_path(shape: Shape) -> list[InvVector]:
    """Inversion vectors along the generated order: every vector in the
    box Π[0..t_v] exactly once, consecutive ones differing by one step in
    one coordinate (`stirling.inversion_vectors`, collected)."""
    oracle.language_size(shape, oracle.STIRLING_PATTERNS)
    out: list[InvVector] = []
    inversion_vectors(shape, out.append)
    return out


# --- k-ary trees ------------------------------------------------------------


def _kcatalan_complement(word: Word, k: int) -> Word:
    """The complement (m+1) - w of a word that avoids {132, 121} with k-1
    copies of every value; raises TreeError or WordError otherwise."""
    if k < 2:
        raise TreeError(f"arity must be at least 2, got {k}")
    shape = shape_of_word(word)
    if any(s != k - 1 for s in shape.multiplicities):
        raise WordError(
            f"{format_word(word)} does not have {k - 1} copies of every value"
        )
    if not avoids_all(word, oracle.KCATALAN_PATTERNS):
        raise WordError(f"{format_word(word)} contains 132 or 121")
    return tuple(shape.m + 1 - d for d in word)


def _unlabeled_text(_: int, children: tuple[str, ...]) -> str:
    return f"*({','.join(children)})"


def kcatalan_word_to_tree(word: Word, k: int) -> KTree:
    """The increasing tree of the complement (m+1) - w, without labels:
    the k-1 copies of the maximum value delimit the k subtrees.

    >>> str(kcatalan_word_to_tree((2, 1, 1, 2), 3))
    '*(ε,*(ε,ε,ε),ε)'
    """
    # the builder, not stirling_word_to_tree: perfbench traces both public
    # decoders, and a k-ary tree must count as one tree built
    return _increasing_tree(_kcatalan_complement(word, k), lambda _, kids: KTree(kids), None)


def kcatalan_tree_text(word: Word, k: int) -> str:
    """`str(kcatalan_word_to_tree(word, k))`, written by the same stack
    pass with no node built.

    >>> kcatalan_tree_text((2, 1, 1, 2), 3)
    '*(ε,*(ε,ε,ε),ε)'
    """
    return _increasing_tree(_kcatalan_complement(word, k), _unlabeled_text, "ε")


def ktree_to_word(tree: KTree, k: int) -> Word:
    """Label the internal nodes 1, 2, ... in preorder, read the increasing
    tree's word and complement it."""
    m = 0

    def label(node: KTree) -> STree:
        nonlocal m
        if len(node.children) != k:
            raise TreeError(f"node has {len(node.children)} slots, expected {k}")
        m += 1
        return STree(m, tuple(None if c is None else label(c) for c in node.children))

    word = tree_to_stirling_word(label(tree))
    return tuple(m + 1 - d for d in word)


def all_kary_trees(k: int, m: int) -> list[KTree]:
    """Every k-ary tree with m internal nodes (None for m = 0)."""

    def gen(size: int) -> list[Optional[KTree]]:
        if size == 0:
            return [None]
        out: list[Optional[KTree]] = []
        # the k subtree sizes, in lexicographic order, sum to size - 1
        for split in product(range(size), repeat=k):
            if sum(split) == size - 1:
                pools = [gen(part) for part in split]
                out.extend(KTree(children=children) for children in product(*pools))
        return out

    if k < 2 or m < 1:
        raise TreeError(f"need arity k >= 2 and m >= 1 internal nodes, got k={k}, m={m}")
    return [t for t in gen(m) if t is not None]


# --- DOT export -------------------------------------------------------------
# A DOT graph is `dot_head`, a piece per item numbered from 0, and DOT_TAIL:
# a chain ("run" or "path") has a node per word or vector and then an edge
# per step, labeled by text; "trees" has a cluster per tree.  `export_dot`
# joins the pieces of a finished payload; the CLI writes them as it goes.

Payload = Union[GrayCodeRun, STree, KTree, Sequence]
DOT_TAIL = "}\n"


def dot_head(name: str) -> str:
    if name == "trees":
        return 'digraph trees {\n  node [fontname="monospace"];\n'
    return f'digraph {name} {{\n  rankdir=LR;\n  node [shape=box, fontname="monospace"];\n'


def dot_word(idx: int, word: Word) -> str:
    label = format_word(word) if word and min(word) >= 1 else str(word)
    return f'  w{idx} [label="{label}"];\n'


def dot_vector(idx: int, vector) -> str:
    return f'  w{idx} [label="{tuple(vector)}"];\n'


def dot_edge(idx: int, label: str) -> str:
    attr = f' [label="{label}"]' if label else ""
    return f"  w{idx} -> w{idx + 1}{attr};\n"


def move_label(mv) -> str:
    return f"r{mv.rank}{mv.dir} w{mv.width} d{mv.distance}"


def coordinate_label(v: int, delta: int) -> str:
    """The label of a step that changes coordinate v by delta = ±1."""
    return f"v{v}{'+' if delta > 0 else '-'}1"


def step_label(a, b) -> str:
    """The label of a step from vector a to b: "v{i}+1" or "v{i}-1", else empty."""
    diff = [(idx, y - x) for idx, (x, y) in enumerate(zip(a, b), start=1) if x != y]
    if len(diff) == 1 and abs(diff[0][1]) == 1:
        return coordinate_label(*diff[0])
    return ""


def dot_tree(tid: int, tree: Union[STree, KTree]) -> str:
    lines = [f"  subgraph cluster{tid} {{"]
    counter = [0]

    def emit(node) -> str:
        nid = f"t{tid}n{counter[0]}"
        counter[0] += 1
        label = str(node.label) if isinstance(node, STree) else "*"
        lines.append(f'    {nid} [label="{label}"];')
        for child in node.children:
            if child is None:
                leaf = f"t{tid}n{counter[0]}"
                counter[0] += 1
                lines.append(f"    {leaf} [shape=point];")
                lines.append(f"    {nid} -> {leaf};")
            else:
                lines.append(f"    {nid} -> {emit(child)};")
        return nid

    emit(tree)
    lines.append("  }\n")
    return "\n".join(lines)


def _dot(name: str, *pieces) -> str:
    # the head, each (piece, items) numbered from 0, and the tail
    body = "".join("".join(map(piece, count(), items)) for piece, items in pieces)
    return dot_head(name) + body + DOT_TAIL


def export_dot(payload: Payload) -> str:
    """Deterministic DOT text: runs and vector paths become labeled
    chains, trees become one cluster each."""
    if isinstance(payload, GrayCodeRun):
        return _dot("run", (dot_word, payload.words), (dot_edge, map(move_label, payload.moves)))
    if isinstance(payload, (STree, KTree)):
        payload = [payload]
    items = list(payload)
    if items and isinstance(items[0], (STree, KTree)):
        return _dot("trees", (dot_tree, items))
    return _dot("path", (dot_vector, items), (dot_edge, map(step_label, items, items[1:])))
