"""
Tree objects and inversion vectors in bijection with Gray-coded words.

Words avoiding 212 correspond to increasing trees: the minimum value v of
a word occurs s_v times and cuts it into s_v + 1 segments, each wholly
containing every other value, so v becomes a node with one ordered child
slot per segment.  One left-to-right stack pass builds the whole tree.
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

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Union

from . import oracle
from .greedy import GrayCodeRun
from .patterns import avoids_212, avoids_all
from .stirling import _check_output, _loopless
from .words import Shape, Word, WordError, check_word, format_word, shape_of_word

InvVector = tuple[int, ...]


class TreeError(ValueError):
    """Raised for malformed trees and out-of-range inversion vectors."""


@dataclass(frozen=True)
class STree:
    """Node labeled v with s_v + 1 ordered child slots (None = empty)."""

    label: int
    children: tuple[Optional["STree"], ...]

    def __str__(self) -> str:
        slots = ",".join("ε" if c is None else str(c) for c in self.children)
        return f"{self.label}({slots})"


@dataclass(frozen=True)
class KTree:
    """Unlabeled internal node with exactly k ordered subtrees (None = leaf)."""

    children: tuple[Optional["KTree"], ...]

    def __str__(self) -> str:
        slots = ",".join("ε" if c is None else str(c) for c in self.children)
        return f"*({slots})"


# --- increasing trees -------------------------------------------------------


def _increasing_tree(word: Word) -> STree:
    """The increasing tree of a word over 1..m, in the one stack pass of
    `avoids_212`: open nodes sit on a stack whose labels increase upwards
    from a 0 sentinel, and a digit closes every open node above it.  The
    subtree closed last fills the slot that the digit ends, or the first
    slot of the node that the digit opens.  A trailing 0 closes them all.
    Raises WordError on a 212.
    """
    labels = [0]
    slots: list[list[Optional[STree]]] = [[]]
    seen = set()
    tree = None
    for d in (*word, 0):
        while labels[-1] > d:
            children = slots.pop()
            children.append(tree)
            tree = STree(labels.pop(), tuple(children))
        if labels[-1] == d:
            slots[-1].append(tree)
        elif d in seen:
            # d was closed by a smaller digit since its last copy
            raise WordError(f"{format_word(word)} contains 212")
        else:
            seen.add(d)
            labels.append(d)
            slots.append([tree])
        tree = None
    return slots[0][0]


def stirling_word_to_tree(word: Word) -> STree:
    """The increasing tree of a 212-avoiding word: the minimum value is
    the root, and its copies cut the word into the root's child slots.

    >>> str(stirling_word_to_tree((1, 2, 2)))
    '1(ε,2(ε,ε,ε))'
    """
    check_word(word)
    return _increasing_tree(word)


def tree_to_stirling_word(tree: STree) -> Word:
    """Read an increasing tree back into its word.

    Validates the invariants: labels are exactly 1..m, each once, strictly
    increasing away from the root.
    """
    labels: list[int] = []
    out: list[int] = []

    def read(node: STree) -> None:
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
    one coordinate.  Read from the loop's live `inv`, which is the
    inversion vector of the word at each visit."""
    _check_output(shape)
    out: list[InvVector] = []
    _loopless(shape, lambda perm, v, u, i, j, left, inv, fs, dirs: out.append(tuple(inv[1:])))
    return out


# --- k-ary trees ------------------------------------------------------------


def kcatalan_word_to_tree(word: Word, k: int) -> KTree:
    """The increasing tree of the complement (m+1) - w, without labels:
    the k-1 copies of the maximum value delimit the k subtrees.

    >>> str(kcatalan_word_to_tree((2, 1, 1, 2), 3))
    '*(ε,*(ε,ε,ε),ε)'
    """
    if k < 2:
        raise TreeError(f"arity must be at least 2, got {k}")
    shape = shape_of_word(word)
    if any(s != k - 1 for s in shape.multiplicities):
        raise WordError(
            f"{format_word(word)} does not have {k - 1} copies of every value"
        )
    if not avoids_all(word, oracle.KCATALAN_PATTERNS):
        raise WordError(f"{format_word(word)} contains 132 or 121")

    def unlabel(node: STree) -> KTree:
        return KTree(tuple(None if c is None else unlabel(c) for c in node.children))

    # the builder, not stirling_word_to_tree: perfbench traces both public
    # decoders, and a k-ary tree must count as one tree built
    return unlabel(_increasing_tree(tuple(shape.m + 1 - d for d in word)))


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

    if m < 1:
        raise TreeError(f"need at least one internal node, got {m}")
    return [t for t in gen(m) if t is not None]


# --- DOT export -------------------------------------------------------------

Payload = Union[GrayCodeRun, STree, KTree, Sequence]


def _dot_label(item) -> str:
    if isinstance(item, tuple):
        return format_word(item) if item and min(item) >= 1 else str(item)
    return str(item)


def _chain_dot(labels: list[str], edges: list[str], name: str) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for idx, label in enumerate(labels):
        lines.append(f'  w{idx} [label="{label}"];')
    for idx, edge in enumerate(edges):
        attr = f' [label="{edge}"]' if edge else ""
        lines.append(f"  w{idx} -> w{idx + 1}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_cluster(tree: Union[STree, KTree], tid: int, lines: list[str]) -> None:
    lines.append(f"  subgraph cluster{tid} {{")
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
    lines.append("  }")


def export_dot(payload: Payload) -> str:
    """Deterministic DOT text: runs and vector paths become labeled
    chains, trees become one cluster each."""
    if isinstance(payload, GrayCodeRun):
        labels = [_dot_label(w) for w in payload.words]
        edges = [
            f"r{mv.rank}{mv.dir} w{mv.width} d{mv.distance}" for mv in payload.moves
        ]
        return _chain_dot(labels, edges, "run")
    if isinstance(payload, (STree, KTree)):
        payload = [payload]
    items = list(payload)
    if items and isinstance(items[0], (STree, KTree)):
        lines = ["digraph trees {", '  node [fontname="monospace"];']
        for tid, tree in enumerate(items):
            _tree_cluster(tree, tid, lines)
        lines.append("}")
        return "\n".join(lines) + "\n"
    labels = [str(tuple(item)) for item in items]
    edges = []
    for a, b in zip(items, items[1:]):
        diff = [(idx, y - x) for idx, (x, y) in enumerate(zip(a, b), start=1) if x != y]
        if len(diff) == 1 and abs(diff[0][1]) == 1:
            idx, delta = diff[0]
            edges.append(f"v{idx}{'+' if delta > 0 else '-'}1")
        else:
            edges.append("")
    return _chain_dot(labels, edges, "path")
