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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .patterns import LanguageSpec, avoids_212, avoids_all, normalize_patterns
from .words import Shape, Word, make_shape, nondecreasing_word

DEFAULT_CAP = 10_000_000

STIRLING_PATTERNS = frozenset({(2, 1, 2)})
KCATALAN_PATTERNS = frozenset({(1, 3, 2), (1, 2, 1)})
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
    out = math.factorial(shape.n)
    for s in shape.multiplicities:
        out //= math.factorial(s)
    return out


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


def _check_cap(shape: Shape, size: int, cap: int | None) -> int:
    """Raise SizeLimitError when `size` words of the shape exceed the cap."""
    limit = resolve_cap(cap)
    if size > limit:
        raise SizeLimitError(
            f"shape {shape.multiplicities} has {size} words, over the cap of {limit}"
        )
    return size


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
    _check_cap(shape, multinomial(shape), cap)
    a = list(nondecreasing_word(shape))
    out = [tuple(a)]
    while _next_multiset_perm(a):
        out.append(tuple(a))
    return out


@dataclass(frozen=True)
class Language:
    """A language spec together with its sorted word list."""

    spec: LanguageSpec
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_word_set", frozenset(self.words))

    def __contains__(self, word: Word) -> bool:
        return word in self._word_set

    def __len__(self) -> int:
        return len(self.words)

    def word_set(self) -> frozenset:
        return self._word_set


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
) -> Language:
    """The pattern-avoiding words of the shape, lexicographically sorted."""
    spec = LanguageSpec(shape, patterns)
    words = tuple(filter(member_test(spec.patterns), all_swords(shape, cap)))
    return Language(spec, words)


def count_avoiding(
    shape: Shape,
    patterns=frozenset(),
    cap: int | None = None,
) -> int:
    """Language size by enumeration (the oracle side of count checks)."""
    pats = normalize_patterns(patterns)
    if not pats:
        return _check_cap(shape, multinomial(shape), cap)
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
