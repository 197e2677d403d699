"""
Ground-truth enumeration and closed-form counts.

The oracle lists languages exhaustively (lexicographic next-permutation
stepping, no recursion) and supplies the exact counts the generators are
checked against: closed forms, and the language built on the generating
tree (a word's parent deletes the rightmost copy of its largest value),
which `language` checks in turn.  It also drops the patterns no word of a
shape can contain.  Enumeration and counting are guarded by a hard cap,
overridable via the SWORDGEN_CAP environment variable or per call.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from typing import Callable

from .patterns import avoids_212, avoids_all, normalize_patterns, occurrence_points
from .words import Shape, Word, WordError, make_shape, nondecreasing_word, validate_word

DEFAULT_CAP = 10_000_000

STIRLING_PATTERNS = frozenset({(2, 1, 2)})
KCATALAN_PATTERNS = frozenset({(1, 3, 2), (1, 2, 1)})
# the peakless words lie in every zig-zag language over their shape
PEAKLESS_PATTERNS = frozenset({(1, 3, 2), (2, 3, 1), (1, 2, 1)})


class SizeLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


def resolve_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("SWORDGEN_CAP")
    if env and not env.strip().isdecimal():
        raise ValueError(f"SWORDGEN_CAP must be an integer >= 0, got {env!r}")
    return int(env) if env else DEFAULT_CAP


def multinomial(shape: Shape) -> int:
    """|S_s| = n! / (s_1! ... s_m!), exact.

    >>> multinomial(make_shape((2, 1, 3)))
    60
    """
    # one division: n!/s_max! as a falling product, over the other s_v!
    *rest, top = sorted(shape.multiplicities) or [0]
    return math.perm(shape.n, shape.n - top) // math.prod(map(math.factorial, rest))


def stirling_count(shape: Shape) -> int:
    """Count of 212-avoiding words: the product of (t_v + 1).

    >>> stirling_count(make_shape((2, 1, 3)))
    12
    """
    out = 1
    for t in shape.prefix:
        out *= t + 1
    return out


def k_catalan(k: int, m: int) -> int:
    """binom(km, m) / ((k-1)m + 1), the number of k-ary trees with m
    internal nodes.

    >>> k_catalan(3, 3)
    12
    """
    if k < 2 or m < 1:
        raise ValueError(f"need k >= 2 and m >= 1, got k={k}, m={m}")
    return math.comb(k * m, m) // ((k - 1) * m + 1)


def formula_count(shape: Shape, patterns: frozenset[Word]) -> int | None:
    """|L| in closed form for a normalised pattern set, None without one:
    the multinomial for no patterns, the product formula for {212}, the
    product of (s_v + 1) over v >= 2 for the peakless {132, 231, 121}, and
    k_catalan(s + 1, m) for {132, 121} when every multiplicity is s.  A
    count with more digits than an int prints raises SizeLimitError before
    it is computed.

    >>> formula_count(make_shape((2, 2, 2)), KCATALAN_PATTERNS)
    12
    """
    if not patterns or patterns == STIRLING_PATTERNS:
        factors, divisor = _size_factors(shape, bool(patterns)), 1
    elif patterns == PEAKLESS_PATTERNS:
        # the word falls weakly, then rises: the 1s at the bottom, and each
        # larger value's copies split between the two sides
        factors, divisor = [(1, s) for s in shape.multiplicities[1:]], 1
    elif patterns == KCATALAN_PATTERNS and len(set(shape.multiplicities)) == 1:
        # k_catalan(s + 1, m) = C((s + 1)m, m) / (sm + 1), exactly
        top = shape.multiplicities[0] * shape.m
        factors, divisor = [(shape.m, top)], top + 1
    else:
        return None
    # int-to-str refuses counts longer than this (0: unlimited, or before 3.11)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    size = _product(factors, 10**digits * divisor - 1 if digits else math.inf)
    if size is None:
        raise SizeLimitError(f"the count has more than {digits} digits, the most an int prints")
    return size // divisor


@lru_cache(maxsize=None)
def count_kary_trees(k: int, m: int) -> int:
    """Independent count of k-ary trees by the subtree-composition
    recurrence; cross-checks `k_catalan` without binomials."""
    if m == 0:
        return 1

    # distribute m-1 internal nodes over k ordered subtrees
    def spread(slots: int, remaining: int) -> int:
        if slots == 1:
            return count_kary_trees(k, remaining)
        acc = 0
        for take in range(remaining + 1):
            acc += count_kary_trees(k, take) * spread(slots - 1, remaining - take)
        return acc

    return spread(k, m - 1)


def _size_factors(shape: Shape, only_212: bool):
    # (k, top) pairs whose C(top + k, k) multiply to the number of words:
    # C(t_v + s_v, s_v), or t_v + 1 = C(t_v + 1, 1) for {212}
    for t, s in zip(shape.prefix, shape.multiplicities):
        yield (1, t) if only_212 else (min(s, t), max(s, t))


def _product(factors, limit) -> int | None:
    """The product of C(top + k, k) over the (k, top) pairs, or None when it
    exceeds `limit`, found at once for a huge product: it is multiplied up
    one small factor at a time, every partial product an integer no smaller
    than the one before, and only until it passes the limit."""
    size = 1
    for k, top in factors:
        for i in range(1, k + 1):
            if size > limit:
                return None
            size = size * (top + i) // i
    return None if size > limit else size


def _check_cap(shape: Shape, cap: int | None, only_212: bool = False) -> None:
    """Raise SizeLimitError when the shape has more words (212-avoiding
    words with `only_212`) than the cap, found without counting them all."""
    limit = resolve_cap(cap)
    if _product(_size_factors(shape, only_212), limit) is None:
        raise SizeLimitError(
            f"shape with n={shape.n}, m={shape.m} has more "
            f"{'212-avoiding words' if only_212 else 'words'} than the cap of {limit}"
        )


def _next_multiset_perm(a: list[int]) -> bool:
    # lexicographic successor in place; False once a is the last word
    n = len(a)
    i = n - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[len(a) - 1 : i : -1]
    return True


def all_swords(shape: Shape, cap: int | None = None) -> list[Word]:
    """All words of the shape in lexicographic order."""
    _check_cap(shape, cap)
    a = list(nondecreasing_word(shape))
    out = [tuple(a)]
    while _next_multiset_perm(a):
        out.append(tuple(a))
    return out


def member_test(patterns: frozenset[Word]) -> Callable[[Word], bool]:
    """The avoidance test for a normalised pattern set: the linear
    `avoids_212` for {212}, one accepting every word for no patterns,
    `avoids_all` otherwise.  The one place that picks a test by pattern set.

    >>> member_test(STIRLING_PATTERNS).__name__
    'avoids_212'
    """
    if patterns == STIRLING_PATTERNS:
        return avoids_212
    if not patterns:
        return lambda word: True
    return lambda word: avoids_all(word, patterns)


def language(
    shape: Shape,
    patterns=frozenset(),
    cap: int | None = None,
) -> tuple[Word, ...]:
    """The pattern-avoiding words of the shape, lexicographically sorted.

    >>> language(make_shape((2, 2)), {"212"})
    ((1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1))
    """
    member = member_test(normalize_patterns(patterns))
    return tuple(filter(member, all_swords(shape, cap)))


def tree_level(
    shape: Shape,
    patterns=frozenset(),
    cap: int | None = None,
) -> list[Word]:
    """The language on the generating tree, in tree order.  Deleting the
    rightmost copy of the largest value keeps a word's avoidance, so each
    member arises once from a member with one copy fewer, by `insertions`:
    the language is built one copy at a time from the empty word, keeping
    the members of each level.  The parent avoids every pattern and the
    inserted copy is the largest value, so a candidate is tested only for
    occurrences through that copy, and not at all without live patterns.
    Refused, like `all_swords`, when the shape has more words than the cap.

    >>> sorted(tree_level(make_shape((2, 2)), {"212"}))
    [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    """
    _check_cap(shape, cap)
    live = live_patterns(shape, patterns)
    level: list[Word] = [()]
    for v, copies in enumerate(shape.multiplicities, 1):
        for _ in range(copies):
            level = [child for parent in level for child in insertions(parent, v, live)]
    return level


def member_points(parent: Word, v: int, live: frozenset[Word]) -> range | list[int]:
    """The points p, from the last to the first, at which inserting `v`
    right of its copies in `parent`, a member with no letter above `v`,
    gives a word that avoids the `live` patterns: only occurrences through
    the inserted copy are new, so only those are looked for.

    >>> member_points((2, 1), 3, frozenset({(2, 3, 1)}))
    [2, 0]
    """
    points = _insertion_points(parent, v)
    if not live:
        return points
    occupied = set().union(*(occurrence_points(parent, v, pat) for pat in live))
    return [p for p in points if p not in occupied]


def count_avoiding(
    shape: Shape,
    patterns=frozenset(),
    cap: int | None = None,
) -> int:
    """Language size: the multinomial without live patterns, else the size
    of the generating tree's top level (`tree_level`), refused alike over
    the cap.

    >>> count_avoiding(make_shape((2, 2, 2)), {"312", "212"})
    12
    """
    if live_patterns(shape, patterns):
        return len(tree_level(shape, patterns, cap))
    _check_cap(shape, cap)
    return multinomial(shape)


def insertions(word: Word, v: int, live: frozenset[Word] = frozenset()) -> list[Word]:
    """The words made by inserting `v` into `word` right of its last copy
    of v (anywhere without one), from the last point of insertion to the
    first: lexicographically ascending when v is the largest letter.  With
    `live`, those that avoid it, from a member `word` (`member_points`).

    >>> insertions((1, 2, 1), 2)
    [(1, 2, 1, 2), (1, 2, 2, 1)]
    """
    return [word[:p] + (v,) + word[p:] for p in member_points(word, v, live)]


def _insertion_points(word: Word, v: int) -> range:
    first = len(word) - word[::-1].index(v) if v in word else 0
    return range(len(word), first - 1, -1)


def parent_shape(shape: Shape) -> Shape:
    """Drop one copy of the largest value (removing it entirely at 1)."""
    mult = shape.multiplicities
    if not mult:
        raise ValueError("the empty shape has no parent")
    if mult[-1] > 1:
        return Shape(mult[:-1] + (mult[-1] - 1,))
    return Shape(mult[:-1])


def parent_word(word: Word) -> Word:
    """Remove the rightmost copy of the largest value."""
    if not word:
        raise WordError("the empty word has no parent")
    m = max(word)
    idx = len(word) - 1 - word[::-1].index(m)
    return word[:idx] + word[idx + 1 :]


def parent_language(
    shape: Shape, patterns=frozenset(), cap: int | None = None
) -> tuple[Word, ...]:
    """Image of the language under parent_word, deduplicated and sorted."""
    return tuple(sorted({parent_word(w) for w in tree_level(shape, patterns, cap)}))


def children(word2: Word, shape: Shape, patterns=frozenset()) -> list[Word]:
    """All language words whose parent is `word2`, in lexicographic order.

    `shape` is the child shape; `word2` must belong to its parent language
    (equivalently: have at least one child).
    """
    validate_word(parent_shape(shape), word2)
    live = live_patterns(shape, patterns)
    # parent_word removes exactly a copy of m inserted right of the others;
    # a member parent needs only its children's occurrences through that copy
    out = insertions(word2, shape.m, live) if avoids_all(word2, live) else []
    if not out:
        raise WordError(f"{word2} is not in the parent language")
    return out


def live_patterns(shape: Shape, patterns) -> frozenset[Word]:
    """The patterns that some word of the shape contains.  A pattern needs
    increasing values whose copies cover its letters' multiplicities, in
    order; matching each letter to the first value left that has enough
    copies finds such values whenever they exist.

    >>> sorted(live_patterns(make_shape((1,) * 8), {"12121", "231"}))
    [(2, 3, 1)]
    """

    def fits(pattern: Word) -> bool:
        sizes = iter(shape.multiplicities)  # shared: the values increase
        return all(
            any(s >= pattern.count(x) for s in sizes) for x in range(1, max(pattern) + 1)
        )

    return frozenset(filter(fits, normalize_patterns(patterns)))


def all_shapes(total: int) -> list[Shape]:
    """Every shape with n = total (compositions, lexicographic order)."""
    if total < 1:
        raise ValueError("total must be >= 1")
    out: list[Shape] = []

    def extend(prefix: list[int], left: int) -> None:
        if left == 0:
            out.append(make_shape(tuple(prefix)))
            return
        for part in range(1, left + 1):
            prefix.append(part)
            extend(prefix, left - part)
            prefix.pop()

    extend([], total)
    return out
