"""
Tree objects and inversion vectors in bijection with Gray-coded words.

Words avoiding 212 correspond to increasing trees: the minimum value v of
a word occurs s_v times and cuts it into s_v + 1 segments, each wholly
containing every other value, so v becomes a node with one ordered child
slot per segment.  Words over the shape (k-1)^m avoiding {132, 121}
correspond to k-ary trees by the mirror construction at the maximum
value, whose k-1 copies cut the word into k segments carrying strictly
descending value intervals; the labels are forced by subtree sizes, so
only the unlabeled tree is kept.

Words avoiding 212 also map to inversion vectors (per value, the number
of smaller digits right of its copies), turning the generated order into
a walk on a box of integer vectors that moves one coordinate by one per
step.  DOT export renders runs, vector paths and tree families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import oracle
from .greedy import GrayCodeRun
from .patterns import avoids_212, avoids_all
from .stirling import _loopless
from .words import Shape, Word, WordError, format_word, shape_of_word

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

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children if c is not None)


# --- increasing trees -------------------------------------------------------


def _split_at_value(word: Word, v: int) -> list[Word]:
    segments: list[Word] = []
    seg: list[int] = []
    for d in word:
        if d == v:
            segments.append(tuple(seg))
            seg = []
        else:
            seg.append(d)
    segments.append(tuple(seg))
    return segments


def stirling_word_to_tree(word: Word) -> STree:
    """Decompose a 212-avoiding word at its minimum value, recursively.

    >>> str(stirling_word_to_tree((1, 2, 2)))
    '1(ε,2(ε,ε,ε))'
    """
    if not word:
        raise WordError("empty word has no tree")
    if not avoids_212(word):
        raise WordError(f"{format_word(word)} contains 212")

    def build(w: Word) -> STree:
        v = min(w)
        return STree(
            label=v,
            children=tuple(build(seg) if seg else None for seg in _split_at_value(w, v)),
        )

    return build(word)


def tree_to_stirling_word(tree: STree) -> Word:
    """Read an increasing tree back into its word.

    Validates the invariants: labels are exactly 1..m, each once, strictly
    increasing away from the root.
    """
    labels: list[int] = []

    def read(node: STree) -> tuple[int, ...]:
        labels.append(node.label)
        out: list[int] = []
        for k, child in enumerate(node.children):
            if k:
                out.append(node.label)
            if child is not None:
                if child.label <= node.label:
                    raise TreeError(
                        f"child label {child.label} not above parent {node.label}"
                    )
                out.extend(read(child))
        return tuple(out)

    word = read(tree)
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise TreeError(f"labels {sorted(labels)} are not 1..{len(labels)}")
    return word


# --- inversion vectors ------------------------------------------------------


def inversion_vector(word: Word) -> InvVector:
    """Per value, how many smaller digits sit right of its last copy.

    In a 212-avoiding word no smaller digit separates two copies of a
    value, so the count is the same from any copy.

    >>> inversion_vector((3, 3, 3, 2, 1, 1))
    (0, 2, 3)
    """
    if not avoids_212(word):
        raise WordError(f"{format_word(word)} contains 212")
    shape = shape_of_word(word)
    out = []
    for v in range(1, shape.m + 1):
        last = len(word) - 1 - word[::-1].index(v)
        out.append(sum(1 for d in word[last + 1 :] if d < v))
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
    out: list[InvVector] = []
    _loopless(shape, lambda perm, v, u, i, j, left, inv, fs, dirs: out.append(tuple(inv[1:])))
    return out


# --- k-ary trees ------------------------------------------------------------


def kcatalan_word_to_tree(word: Word, k: int) -> KTree:
    """Decompose at the maximum value, whose k-1 copies delimit the k
    subtrees; segment values must be wholly contained and strictly
    descending between segments.

    >>> str(kcatalan_word_to_tree((2, 1, 1, 2), 3))
    '*(ε,*(ε,ε,ε),ε)'
    """
    if k < 2:
        raise TreeError(f"arity must be at least 2, got {k}")
    if not word:
        raise WordError("empty word has no tree")
    shape = shape_of_word(word)
    if any(s != k - 1 for s in shape.multiplicities):
        raise WordError(
            f"{format_word(word)} does not have {k - 1} copies of every value"
        )
    if not avoids_all(word, oracle.KCATALAN_PATTERNS):
        raise WordError(f"{format_word(word)} contains 132 or 121")

    def build(w: Word) -> Optional[KTree]:
        if not w:
            return None
        top = max(w)
        segments = _split_at_value(w, top)
        if len(segments) != k:
            raise WordError(f"value {top} does not occur {k - 1} times")
        return KTree(children=tuple(build(seg) for seg in segments))

    return build(word)


def ktree_to_word(tree: KTree, k: int) -> Word:
    """Label the internal nodes with descending intervals, earliest
    subtree highest, and read the word back."""

    def read(node: KTree, hi: int) -> tuple[int, ...]:
        if len(node.children) != k:
            raise TreeError(f"node has {len(node.children)} slots, expected {k}")
        parts: list[tuple[int, ...]] = []
        nxt = hi - 1
        for child in node.children:
            if child is None:
                parts.append(())
            else:
                parts.append(read(child, nxt))
                nxt -= child.size
        out: list[int] = []
        for idx, part in enumerate(parts):
            if idx:
                out.append(hi)
            out.extend(part)
        return tuple(out)

    return read(tree, tree.size)


def all_kary_trees(k: int, m: int) -> list[KTree]:
    """Every k-ary tree with m internal nodes (None for m = 0)."""

    def gen(size: int) -> list[Optional[KTree]]:
        if size == 0:
            return [None]
        out: list[Optional[KTree]] = []
        for split in _compositions(size - 1, k):
            pools = [gen(part) for part in split]
            stack: list[tuple[Optional[KTree], ...]] = [()]
            for pool in pools:
                stack = [prefix + (c,) for prefix in stack for c in pool]
            out.extend(KTree(children=children) for children in stack)
        return out

    if m < 1:
        raise TreeError(f"need at least one internal node, got {m}")
    return [t for t in gen(m) if t is not None]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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
