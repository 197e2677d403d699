"""
Zig-zag language checks.

A language is zig-zag when it is closed under maximum jumps of the
rightmost copy of the largest value, and its projection (deleting that
copy from every word) is again zig-zag.  Closure is the hypothesis under
which the minimal-bump engine is guaranteed to visit everything, so two
checks are provided: a cheap syntactic test on the pattern set and an
exhaustive semantic test on the language, built on the generating tree.

Only the rightmost largest digit carries jump obligations at each level;
lower values are covered by the recursion.  Requiring every digit to
jump freely would be strictly stronger and rejects languages that engine
does generate, such as the 12121-avoiders over three values.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import oracle
from .bumps import LEFT, RIGHT, maximum_jump
from .patterns import normalize_patterns
from .words import Shape, Word

Witness = tuple[Word, int, str, Word]


def syntactic_zigzag(patterns) -> bool:
    """True iff every pattern keeps its largest letter internal (never
    first or last) and isolated (no two occurrences adjacent).

    >>> syntactic_zigzag({"231"})
    True
    >>> syntactic_zigzag({"212"})
    False
    >>> syntactic_zigzag({"12121"})
    True
    """
    return all(map(zigzag_pattern, normalize_patterns(patterns)))


def zigzag_pattern(pattern: Word) -> bool:
    """True iff the normalised `pattern` keeps its largest letter internal
    and isolated: the rule `syntactic_zigzag` applies to every pattern.

    >>> zigzag_pattern((1, 3, 2)), zigzag_pattern((1, 2, 2, 1))
    (True, False)
    """
    top = max(pattern)
    spots = [i for i, c in enumerate(pattern) if c == top]
    return (
        spots[0] != 0
        and spots[-1] != len(pattern) - 1
        and all(b - a > 1 for a, b in zip(spots, spots[1:]))
    )


def closed_under_maximum_jumps(
    words: Iterable[Word],
) -> tuple[bool, Optional[Witness]]:
    """Check an explicit word collection for zig-zag closure.

    All words must share one shape.  At each level the rightmost copy of
    the largest value must be able to take its maximum jump in both
    directions without leaving the set; the set of projections (that copy
    deleted everywhere) is then checked the same way.  Only moves that
    pass at least one digit create an obligation; a digit with nothing
    smaller beside it has no maximum jump, and equal digits block.

    On failure the witness is (word, index, direction, escaping result).
    The word belongs to the level where closure broke, so for failures
    below the top it is a projection rather than a member of the input.
    """
    word_set = set(words)
    while word_set:
        top = max(max(w) for w in word_set)
        if top <= 1:
            break
        for w in sorted(word_set):
            i = len(w) - w[::-1].index(top)
            for direction in (RIGHT, LEFT):
                result = maximum_jump(w, i, direction)
                if result is not None and result not in word_set:
                    return False, (w, i, direction, result)
        word_set = {oracle.parent_word(w) for w in word_set}
    return True, None


def semantic_zigzag(
    shape: Shape, patterns=frozenset(), cap: int | None = None
) -> tuple[bool, Optional[Witness]]:
    """Build the language on the generating tree and test zig-zag closure
    exhaustively."""
    return closed_under_maximum_jumps(oracle.tree_level(shape, patterns, cap))
