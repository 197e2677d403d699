"""
Classical pattern containment for words over {1..m}.

A pattern is itself a word; `word` contains `pattern` iff some subsequence
of `word` is order-isomorphic to it, where equalities must be matched
exactly (equal pattern letters need equal word digits, strict inequalities
need strict ones).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, combinations, compress, count
from operator import gt, lt

from .words import Word, format_word, parse_word


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


def format_patterns(patterns: frozenset[Word]) -> str:
    """A normalised pattern set as `--avoid` takes it, e.g. "1212,212"."""
    return ",".join(map(format_word, sorted(patterns)))


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
    The reference for `free_points`, which calls it only for patterns of
    four letters or more.

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


# A pattern of at most three letters, split at the last copy of its largest
# letter as in `occurrence_points`, holds at most two other letters, and its
# occurrences through the inserted copy take one pass over the word.  A part
# is keyed by its letters, "t" standing for the largest; w holds no letter
# above t.
def _first(w, hits, i=0):
    # one past the first index from i on with a hit, len(w) + 1 without one
    return next(compress(count(i + 1), hits), len(w) + 1)


def _below(w, t):
    # w with each copy of t read as 0
    return [c if c != t else 0 for c in w] if t in w else w


def _mins(w, t):
    # the least letter of each prefix of w, t for the empty one
    return list(accumulate(w, min, initial=t))


def _maxs(w, t):
    # the greatest letter below t of each prefix of w, 0 for none
    return list(accumulate(_below(w, t), max, initial=0))


def _lead(part: str):
    """w, t -> one past the end of the leftmost match of `part` in w, or
    len(w) + 1: two smaller letters, equal, rising or falling, or letters
    each t or one smaller letter, matched in turn."""
    if part == "11":
        return lambda w, t: _first(w, (c != t and w.index(c) < j for j, c in enumerate(w)))
    if part == "12":
        return lambda w, t: _first(w, map(lt, _mins(w, t), _below(w, t)))
    if part == "21":
        return lambda w, t: _first(w, map(gt, _maxs(w, t), w))

    def lead(w, t):
        i = 0
        for x in part:
            i = _first(w, ((c == t) == (x == "t") for c in w[i:]), i)
        return i

    return lead


# One letter on each side: point p is free when a[p] >= b[p], for a and b
# the aggregates of the letters on either side of it: for 132 the least
# letter left of p and the greatest right of it, for 231 the least right of
# p and the greatest below t left of it, for 121 the first index of a letter
# right of p and p itself.
_SPLITS = {
    "12": lambda w, t: (_mins(w, t), _maxs(w[::-1], t)[::-1]),
    "21": lambda w, t: (_mins(w[::-1], t)[::-1], _maxs(w, t)),
    "11": lambda w, t: (
        list(accumulate(map(w.index, reversed(w)), min, initial=len(w)))[::-1],
        range(len(w) + 1),
    ),
}


def _point_rule(pattern: Word):
    """(kind, rule): the points free of `pattern` lie below rule(w, t) for
    "hi", above it for "lo", and pass the test of the pair of lists it gives
    for "split"."""
    k = max(pattern)
    cut = len(pattern) - 1 - pattern[::-1].index(k)
    head, tail = (
        "".join("t" if x == k else str(x) for x in part) for part in (pattern[:cut], pattern[:cut:-1])
    )
    if head == "t" and tail:  # 221, right of every copy of t: wherever a letter follows
        return "lo", lambda w, t: len(w) - 1 if t in w else -1
    if head and tail:
        return "split", _SPLITS[head + tail]
    if tail:  # its rightmost match is the leftmost one in the word reversed
        lead = _lead(tail)
        return "lo", lambda w, t: len(w) - lead(w[::-1], t)
    return "hi", _lead(head)


@lru_cache  # the 128 pattern sets used last
def free_points(patterns: frozenset[Word]):
    """The function (word, top, points) -> those of `points` at which
    inserting `top` into `word` makes no occurrence of `patterns` through
    the new copy, in the same order.  `points`, a descending range, must
    lie right of every copy of `top`, and `word` hold no letter above it.
    A pattern of at most three letters takes one pass over the word: a
    part of two letters bounds the points from one side, and one letter on
    each side is a prefix aggregate against a suffix one; longer patterns
    take `occurrence_points`.

    >>> free_points(frozenset({(1, 3, 2), (2, 1, 2)}))((1, 2), 3, range(2, -1, -1))
    [2, 0]
    """
    rules = {"hi": [], "lo": [], "split": []}
    longer = [p for p in patterns if len(p) > 3]
    for pattern in patterns - set(longer):
        kind, rule = _point_rule(pattern)
        rules[kind].append(rule)
    highs, lows, splits = rules.values()

    def free(word: Word, top: int, points: range):
        hi, lo = points[0], points[-1]
        for rule in highs:
            hi = min(hi, rule(word, top) - 1)
        for rule in lows:
            lo = max(lo, rule(word, top) + 1)
        points = range(hi, lo - 1, -1)
        for rule in splits:
            a, b = rule(word, top)
            points = [p for p in points if a[p] >= b[p]]
        if longer:
            occupied = set().union(*(occurrence_points(word, top, pat) for pat in longer))
            points = [p for p in points if p not in occupied]
        return points

    return free


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


def search_212(values):
    """The search of a packed word (bytes) for 212 through `values`, which
    lie in 2..255 (`re` caches the compiled pattern).  A match is a copy of
    some v in `values`, then digits other than v among which one is
    smaller, then the next copy of v.  Over every value of a word with two
    copies or more, it finds a match exactly when `avoids_212` is False.
    Each repeat's class is disjoint from the part after it (digits above v
    before one below, digits other than v before a v), so a repeat never
    gives back a digit the next part could take: a start is decided in one
    scan, with no possessive repeat.

    >>> search_212((2, 3))(bytes((1, 1, 3, 3, 2, 3))) is None
    False
    """
    alternatives = [
        b"\\x%02x[^\\x00-\\x%02x]*[\\x00-\\x%02x][^\\x%02x]*\\x%02x" % (v, v, v - 1, v, v)
        for v in values
    ]
    return re.compile(b"|".join(alternatives) or b"(?!)").search
