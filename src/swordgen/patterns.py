"""
Classical pattern containment for words over {1..m}.

A pattern is itself a word; `word` contains `pattern` iff some subsequence
of `word` is order-isomorphic to it, where equalities must be matched
exactly (equal pattern letters need equal word digits, strict inequalities
need strict ones).
"""

from __future__ import annotations

from itertools import combinations

from .words import Word, parse_word


class PatternError(ValueError):
    """Raised for a malformed pattern."""


def parse_pattern(text: str) -> Word:
    """Parse and normalize a pattern; its letters must be exactly 1..k.

    >>> parse_pattern("212")
    (2, 1, 2)
    """
    try:
        pat = parse_word(text)
    except ValueError as exc:
        raise PatternError(f"cannot parse pattern {text!r}") from exc
    return check_pattern(pat)


def check_pattern(pattern: Word) -> Word:
    """Validate an already-parsed pattern tuple (letters exactly 1..k)."""
    if not pattern:
        raise PatternError("empty pattern")
    letters = set(pattern)
    if letters != set(range(1, max(letters) + 1)):
        raise PatternError(f"pattern letters must be exactly 1..k, got {sorted(letters)}")
    return tuple(pattern)


def normalize_patterns(patterns) -> frozenset[Word]:
    """Validate a collection of patterns (tuples or digit strings)."""
    out = set()
    for p in patterns:
        out.add(parse_pattern(p) if isinstance(p, str) else check_pattern(p))
    return frozenset(out)


def contains_pattern(word: Word, pattern: Word) -> bool:
    """True iff some subsequence of `word` matches `pattern` exactly up to
    an order-preserving relabeling of its letters (which must be 1..k).

    >>> contains_pattern((2, 3, 1), (2, 3, 1))
    True
    >>> contains_pattern((1, 1, 3, 3, 2, 3), (2, 1, 2))
    True
    >>> contains_pattern((2, 2, 1, 2, 1, 1), (1, 2, 1, 2, 1))
    False
    >>> contains_pattern((1, 2, 1, 3), (1, 1, 1))
    False
    """
    # Try each strictly increasing assignment of word values to the letters
    # 1..k.  For one assignment the subsequence test is a greedy scan: every
    # `in` resumes the shared iterator just past the previous match.
    slots = [p - 1 for p in pattern]
    for values in combinations(sorted(set(word)), max(pattern)):
        rest = iter(word)
        for i in slots:
            if values[i] not in rest:
                break
        else:
            return True
    return False


def occurrence_points(word: Word, top: int, pattern: Word) -> set[int]:
    """The points p at which word[:p] + (top,) + word[p:] contains `pattern`
    with the last copy of its largest letter on the inserted `top`.  For a
    `word` that avoids the pattern, with no letter above `top` and no copy
    of it right of p, these are exactly the points where the child contains
    the pattern: an occurrence must use the new copy, as that letter's last.

    >>> sorted(occurrence_points((2, 1), 3, (2, 3, 1)))
    [1]
    >>> sorted(occurrence_points((1, 2, 1, 1), 2, (1, 2, 1, 2, 1)))
    [3]
    """
    # per assignment of smaller values to the other letters, the part before
    # that copy fits in word[:p] from the end of its leftmost match on, and
    # the part after it fits in word[p:] up to the start of its rightmost one
    k = max(pattern)
    cut = len(pattern) - 1 - pattern[::-1].index(k)
    head = [x - 1 for x in pattern[:cut]]
    tail = [x - 1 for x in reversed(pattern[cut + 1 :])]
    backward = word[::-1]
    out: set[int] = set()
    for values in combinations(sorted(set(word) - {top}), k - 1):
        values += (top,)
        try:
            first = 0
            for i in head:
                first = word.index(values[i], first) + 1
            last = 0
            for i in tail:
                last = backward.index(values[i], last) + 1
        except ValueError:  # a part has no match
            continue
        out.update(range(first, len(word) - last + 1))
    return out


def avoids_all(word: Word, patterns) -> bool:
    """True iff `word` contains none of `patterns`."""
    return not any(contains_pattern(word, p) for p in patterns)


def avoids_212(word: Word) -> bool:
    """Fast test for the Stirling condition: no digit smaller than v sits
    strictly between two copies of v.

    >>> avoids_212((1, 2, 2, 1, 3, 3))
    True
    >>> avoids_212((1, 1, 3, 3, 2, 3))
    False
    """
    # One left-to-right pass over a stack of open values, strictly
    # increasing upwards from a 0 sentinel.  A digit closes every larger
    # open value; seeing a closed value again means a smaller digit sat
    # between two of its copies.  A digit below 0 takes the general search.
    stack = [0]
    seen = set()
    try:
        for d in word:
            while stack[-1] > d:
                stack.pop()
            if stack[-1] != d:
                if d in seen:
                    return False
                seen.add(d)
                stack.append(d)
    except IndexError:
        return not contains_pattern(word, (2, 1, 2))
    return True
