"""
Ground-truth enumeration and closed-form counts.

The oracle lists languages exhaustively (lexicographic next-permutation
stepping, no recursion) and supplies the exact counts the generators are
checked against.  Enumeration is guarded by a hard cap, overridable via the
SWORDGEN_CAP environment variable or per call.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Callable

from .patterns import avoids_212, avoids_all, normalize_patterns
from .words import Shape, Word, make_shape, nondecreasing_word

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
    the multinomial for no patterns, the product formula for {212}, and
    k_catalan(s + 1, m) for {132, 121} when every multiplicity is s.  No
    cap check: a formula allocates nothing.

    >>> formula_count(make_shape((2, 2, 2)), KCATALAN_PATTERNS)
    12
    """
    if not patterns:
        return multinomial(shape)
    if patterns == STIRLING_PATTERNS:
        return stirling_count(shape)
    if patterns == KCATALAN_PATTERNS and len(set(shape.multiplicities)) == 1:
        return k_catalan(shape.multiplicities[0] + 1, shape.m)
    return None


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


def _size_steps(shape: Shape, only_212: bool):
    # 1, then the size built up one small factor at a time: the product of
    # C(t_v + s_v, s_v), or of t_v + 1 for {212}.  Every partial product is
    # an integer and none is smaller than the one before.
    size = 1
    yield size
    for t, s in zip(shape.prefix, shape.multiplicities):
        k, top = (1, t) if only_212 else (min(s, t), max(s, t))
        for i in range(1, k + 1):
            size = size * (top + i) // i
            yield size


def _check_cap(shape: Shape, cap: int | None, only_212: bool = False) -> None:
    """Raise SizeLimitError when the shape has more words (212-avoiding
    words with `only_212`) than the cap.  The size is multiplied up only
    until it passes the cap, so a huge shape is refused at once."""
    limit = resolve_cap(cap)
    if any(size > limit for size in _size_steps(shape, only_212)):
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
    `avoids_212` for {212}, `avoids_all` otherwise.  The one place that
    picks a test by pattern set.

    >>> member_test(STIRLING_PATTERNS).__name__
    'avoids_212'
    """
    if patterns == STIRLING_PATTERNS:
        return avoids_212
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


def count_avoiding(
    shape: Shape,
    patterns=frozenset(),
    cap: int | None = None,
) -> int:
    """Language size by enumeration (the oracle side of count checks)."""
    pats = normalize_patterns(patterns)
    if not pats:
        _check_cap(shape, cap)
        return multinomial(shape)
    return sum(map(member_test(pats), all_swords(shape, cap)))


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
