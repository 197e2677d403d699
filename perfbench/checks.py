"""
Output checks for the benchmark, independent of the code under test.

Counts come from closed forms where one is known (multinomial, the
product formula for 212, k-Catalan numbers, 2^(n-1) for peakless
permutations) and otherwise from a brute-force counter written here: it
grows each language from its parent language by inserting the rightmost
copy of the largest letter, and tests containment with a backtracking
matcher of its own.  Only `classify_move` is taken from the program, to
check that every transition of a captured sequence is exactly one bump.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

Shape = tuple[int, ...]
Word = tuple[int, ...]


def parse_shape(text: str) -> Shape:
    """"2,1,3" or "2^3" -> a multiplicity tuple."""
    out: list[int] = []
    for part in text.split(","):
        if "^" in part:
            base, _, count = part.partition("^")
            out.extend([int(base)] * int(count))
        else:
            out.append(int(part))
    return tuple(out)


def parse_patterns(text: str | None) -> frozenset[Word]:
    if not text:
        return frozenset()
    return frozenset(tuple(int(ch) for ch in p) for p in text.split(",") if p)


def parse_word(text: str) -> Word:
    return tuple(map(int, text.split(",") if "," in text else text))


def prefix_sums(shape: Shape) -> list[int]:
    out, acc = [], 0
    for s in shape:
        out.append(acc)
        acc += s
    return out


def letters(shape: Shape) -> list[int]:
    """The sorted letters of every word of the shape."""
    return [v for v, s in enumerate(shape, start=1) for _ in range(s)]


# --- counts ------------------------------------------------------------------


def multinomial(shape: Shape) -> int:
    out = math.factorial(sum(shape))
    for s in shape:
        out //= math.factorial(s)
    return out


def product_212(shape: Shape) -> int:
    """|Av_s(212)| = prod (t_v + 1)."""
    out = 1
    for t in prefix_sums(shape):
        out *= t + 1
    return out


def k_catalan(k: int, m: int) -> int:
    return math.comb(k * m, m) // ((k - 1) * m + 1)


def _reverse(p: Word) -> Word:
    return p[::-1]


def _complement(p: Word) -> Word:
    top = max(p)
    return tuple(top + 1 - x for x in p)


def _symmetry_class(patterns: frozenset[Word]) -> set[frozenset[Word]]:
    # reverse keeps the shape and complement reverses it, so on shapes
    # with equal multiplicities every image has the same language size
    images = {patterns}
    for f in (_reverse, _complement):
        images |= {frozenset(f(p) for p in img) for img in list(images)}
    return images


def _vacuous(pattern: Word, shape: Shape) -> bool:
    # a pattern needing c copies of a letter cannot occur when no value
    # has c copies
    need = max(pattern.count(x) for x in set(pattern))
    return need > max(shape)


CATALAN_FAMILY = _symmetry_class(frozenset({(2, 3, 1)}))
KCATALAN_FAMILY = _symmetry_class(frozenset({(1, 3, 2), (1, 2, 1)}))
PEAKLESS = frozenset({(1, 3, 2), (2, 3, 1), (1, 2, 1)})


def expected_count(shape: Shape, patterns: frozenset[Word]) -> int:
    """Language size from a closed form, else by brute force."""
    live = frozenset(p for p in patterns if not _vacuous(p, shape))
    if not live:
        return multinomial(shape)
    if live == {(2, 1, 2)}:
        return product_212(shape)
    if len(set(shape)) == 1:
        k, m = shape[0] + 1, len(shape)
        if patterns in KCATALAN_FAMILY or (k == 2 and live in CATALAN_FAMILY):
            return k_catalan(k, m)
        if k == 2 and patterns == PEAKLESS:
            return 2 ** (m - 1)
    return brute_count(shape, patterns)


def contains(word: Word, pattern: Word, must: int = -1) -> bool:
    """Backtracking containment test: some subsequence of `word` is
    order-isomorphic to `pattern`.  With `must` >= 0 only occurrences
    that use position `must` count."""
    n, k = len(word), len(pattern)
    assign: dict[int, int] = {}

    def ok(letter: int, value: int) -> bool:
        if letter in assign:
            return assign[letter] == value
        for other, v in assign.items():
            if (other < letter) != (v < value) or v == value:
                return False
        return True

    def go(j: int, start: int) -> bool:
        if j == k:
            return must < start
        for i in range(start, n - (k - j) + 1):
            if start <= must < i:
                break  # position `must` would be skipped
            letter, value = pattern[j], word[i]
            if not ok(letter, value):
                continue
            fresh = letter not in assign
            assign[letter] = value
            if go(j + 1, i + 1):
                return True
            if fresh:
                del assign[letter]
        return False

    return go(0, 0)


def avoids(word: Word, patterns) -> bool:
    return not any(contains(word, p) for p in patterns)


def avoids_212(word: Word) -> bool:
    """No value has a smaller digit between two of its copies."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, d in enumerate(word):
        first.setdefault(d, i)
        last[d] = i
    return all(min(word[first[v] : last[v] + 1]) == v for v in first)


@lru_cache(maxsize=None)
def brute_count(shape: Shape, patterns: frozenset[Word]) -> int:
    """Grow the language letter by letter: each word of shape s comes from
    exactly one word of the parent shape (its rightmost largest letter
    deleted), and avoidance is hereditary, so only occurrences through
    the inserted letter need testing."""
    words: list[Word] = [()]
    for m, s_m in enumerate(shape, start=1):
        for copy in range(s_m):
            grown = []
            for w in words:
                lo = (len(w) - w[::-1].index(m)) if copy else 0
                for p in range(lo, len(w) + 1):
                    cand = w[:p] + (m,) + w[p:]
                    if not any(contains(cand, pat, p) for pat in patterns):
                        grown.append(cand)
            words = grown
    return len(words)


# --- sequences ---------------------------------------------------------------


class CheckError(Exception):
    """An output failed a check."""


def gray_212(shape: Shape) -> list[tuple[int, ...]]:
    """Inversion vectors of the 212 order: the reflected mixed-radix Gray
    code over the box prod [0..t_v], last coordinate fastest (Knuth,
    TAOCP 4A 7.2.1.1).  Coordinate v reads k div w_v mod r_v, reflected
    when k div (w_v r_v) is odd, with r_v = t_v + 1 and w_v the product of
    the radices after v."""
    radices = [t + 1 for t in prefix_sums(shape)]
    weights = [math.prod(radices[v + 1 :]) for v in range(len(radices))]
    out = []
    for k in range(math.prod(radices)):
        vec = []
        for r, w in zip(radices, weights):
            digit = (k // w) % r
            vec.append(r - 1 - digit if (k // (w * r)) % 2 else digit)
        out.append(tuple(vec))
    return out


def word_212(shape: Shape, iv: tuple[int, ...]) -> Word:
    """The 212-avoiding word with inversion vector iv: block v^{s_v} goes
    where exactly iv_v of the t_v smaller digits follow it."""
    word: list[int] = []
    for v, (s_v, t_v, x) in enumerate(zip(shape, prefix_sums(shape), iv), start=1):
        word[t_v - x : t_v - x] = [v] * s_v
    return tuple(word)


def order_212(shape: Shape) -> list[Word]:
    return [word_212(shape, iv) for iv in gray_212(shape)]


def check_sequence(words: list[Word], shape: Shape, patterns, classify) -> list:
    """A complete bump Gray code of the language: right size, distinct,
    every word in the language, every transition one bump.  Returns the
    classified moves."""
    want = expected_count(shape, frozenset(patterns))
    if len(words) != want:
        raise CheckError(f"{len(words)} words, expected {want}")
    if patterns == {(2, 1, 2)}:
        if words != order_212(shape):
            raise CheckError("the words are not the 212 Gray order")
    else:
        if len(set(words)) != len(words):
            raise CheckError("repeated word")
        want_letters = letters(shape)
        for w in words:
            if sorted(w) != want_letters:
                raise CheckError(f"{w} does not have shape {shape}")
            if not avoids(w, patterns):
                raise CheckError(f"{w} contains a forbidden pattern")
    moves = []
    for a, b in zip(words, words[1:]):
        mv = classify(a, b)
        if mv is None:
            raise CheckError(f"{a} -> {b} is not one bump")
        moves.append(mv)
    return moves


def words_from_text(text: str) -> list[Word]:
    return [parse_word(line) for line in text.splitlines()]


_DOT_NODE = re.compile(r'^\s*w(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r"^\s*w(\d+) -> w(\d+)")


def words_from_dot(text: str) -> list[Word]:
    words, edges = [], 0
    for line in text.splitlines():
        node = _DOT_NODE.match(line)
        if node:
            if int(node.group(1)) != len(words):
                raise CheckError("DOT nodes out of order")
            words.append(parse_word(node.group(2)))
        elif _DOT_EDGE.match(line):
            edges += 1
    if edges != len(words) - 1:
        raise CheckError(f"{edges} DOT edges for {len(words)} nodes")
    return words


def check_path(text: str, shape: Shape) -> int:
    """Inversion vectors: the reflected Gray code, every point of the box
    once, one unit step apart."""
    vecs = [tuple(map(int, line.split(","))) for line in text.splitlines()]
    if vecs != gray_212(shape):
        raise CheckError("path is not the reflected Gray code of the box")
    return len(vecs)


def check_trees(text: str, count: int, labels: str) -> int:
    """One distinct tree per line; each carries the expected node labels."""
    lines = text.splitlines()
    if len(lines) != count or len(set(lines)) != count:
        raise CheckError(f"{len(lines)} trees ({len(set(lines))} distinct), expected {count}")
    for line in lines:
        if sorted(re.findall(r"[0-9*]", line)) != sorted(labels):
            raise CheckError(f"tree {line} does not carry the labels {labels}")
    return count
