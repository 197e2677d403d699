"""
Greedy bump generation of pattern-avoiding word languages.

At each step the engine considers, for every movable block, its minimal
bump (least distance keeping the result in the language), and among those
that reach an unvisited word applies the one whose block carries the
largest rank, i.e. the rank of the block's leading digit; rightward beats
leftward on ties, and the narrower block wins what remains.  Blocks are
tried in that order and the first whose minimal bump reaches an unvisited
word is applied.  It halts when no such bump exists.
Started from the nondecreasing word of a zig-zag language this yields a
bump Gray code; on other languages the run may stop early, which is
reported rather than raised.

Also here: Gray-code verification, and the parent/children machinery that
relates a language to the one obtained by deleting the rightmost copy of
the largest value from every word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import oracle
from .bumps import LEFT, RIGHT, BumpMove, classify_move
from .bumps import _first_bump, _move  # the minimal-bump search
from .oracle import SizeLimitError
from .patterns import avoids_all, normalize_patterns
from .words import (
    Shape,
    Word,
    WordError,
    nondecreasing_word,
    validate_word,
)

EXHAUSTED = "exhausted"
NO_NEW_BUMP = "no-new-bump"


class InvalidStartError(ValueError):
    """Raised when the requested start word is outside the language."""


@dataclass(frozen=True)
class GrayCodeRun:
    """A visit sequence with the moves between consecutive words.

    `complete` is True only when the visit count equals the language size.
    """

    shape: Shape
    patterns: frozenset[Word]
    words: tuple[Word, ...]
    moves: tuple[BumpMove, ...]
    complete: bool
    halted_reason: str


@dataclass(frozen=True)
class GrayCodeReport:
    """Outcome of checking a run; None flags were not decidable."""

    all_member: bool
    all_distinct: bool
    exhaustive: Optional[bool]
    moves_valid: bool
    transpositions_only: bool
    counterexamples: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        # transpositions_only is informational: plenty of valid bump Gray
        # codes use wider distances
        return (
            self.all_member
            and self.all_distinct
            and self.exhaustive is not False
            and self.moves_valid
        )


def _scan(
    shape: Shape, start: Word, member: Callable[[Word], bool]
) -> tuple[list[Word], list[BumpMove]]:
    words = [start]
    moves: list[BumpMove] = []
    visited = {start}
    w = start
    while True:
        step = _next_bump(shape, w, member, visited)
        if step is None:
            return words, moves
        w, move = step
        visited.add(w)
        words.append(w)
        moves.append(move)


def _next_bump(
    shape: Shape, w: Word, member: Callable[[Word], bool], visited: set
) -> Optional[tuple[Word, BumpMove]]:
    """The greedy choice from `w`: the first block, in priority order, whose
    minimal bump reaches an unvisited word; None when there is none.  Every
    visited word is a member, so a visited minimal result ends the block."""
    for rank, direction, lo, hi in _bump_blocks(shape, w):
        found = _first_bump(w, lo, hi, direction, member)
        if found is not None and found[1] not in visited:
            d, cand = found
            return cand, _move(rank, direction, lo, hi, d)
    return None


def _bump_blocks(shape: Shape, w: Word):
    """Every movable block of `w` as (rank, direction, lo, hi), in the
    greedy priority order: the block's leading rank descending, rightward
    before leftward, then the narrower block.

    A rightward block runs from its anchor to the end of the anchor's run,
    so its leading rank is the rank of that run's last copy; a leftward
    block ends at its anchor, whose rank leads.  Ranks descend with the
    value and, within a value, from right to left.
    """
    n = len(w)
    for v in range(shape.m, 0, -1):
        copies = shape.multiplicities[v - 1]
        spots = []
        p = 0
        for _ in range(copies):
            p = w.index(v, p) + 1
            spots.append(p)
        lead = shape.prefix[v - 1] + copies
        for hi in reversed(spots):
            if hi == n or w[hi] != v:
                lo = hi
                while True:
                    yield lead - (hi - lo), RIGHT, lo, hi
                    if lo == 1 or w[lo - 2] != v:
                        break
                    lo -= 1
            lo = hi
            while lo > 1 and w[lo - 2] == v:
                lo -= 1
            yield lead, LEFT, lo, hi
            lead -= 1


def generate_greedy(
    shape: Shape,
    patterns=frozenset(),
    *,
    start: Word | None = None,
    cap: int | None = None,
) -> GrayCodeRun:
    """Run the greedy engine from `start` (default: nondecreasing word)
    over the language of words avoiding `patterns`."""
    word = start if start is not None else nondecreasing_word(shape)
    validate_word(shape, word)
    pats = normalize_patterns(patterns)
    if not avoids_all(word, pats):
        raise InvalidStartError("start word is outside the language")

    oracle._check_cap(shape, cap)
    size = oracle.formula_count(shape, pats)
    if size is not None:
        # a closed form sizes the language: test each candidate directly
        member = oracle.member_test(pats)
    else:
        lang = frozenset(oracle.language(shape, pats, cap))
        member, size = lang.__contains__, len(lang)
    words, moves = _scan(shape, word, member)
    complete = len(words) == size
    return GrayCodeRun(
        shape,
        pats,
        tuple(words),
        tuple(moves),
        complete,
        EXHAUSTED if complete else NO_NEW_BUMP,
    )


def verify_gray_code(run: GrayCodeRun, cap: int | None = None) -> GrayCodeReport:
    """Check a run: membership, distinctness, exhaustiveness (by count: the
    closed form, else the oracle's; None over the cap), and that every
    transition classifies as exactly the recorded bump."""
    counterexamples: dict = {}

    all_member = True
    member = oracle.member_test(run.patterns)
    for k, w in enumerate(run.words):
        try:
            validate_word(run.shape, w)
        except WordError:
            all_member = False
        else:
            all_member = member(w)
        if not all_member:
            counterexamples["all_member"] = (k, w)
            break

    all_distinct = True
    seen: dict[Word, int] = {}
    for k, w in enumerate(run.words):
        if w in seen:
            all_distinct = False
            counterexamples["all_distinct"] = (seen[w], k, w)
            break
        seen[w] = k

    exhaustive: Optional[bool]
    try:
        oracle._check_cap(run.shape, cap)
    except SizeLimitError:
        exhaustive = None
    else:
        size = oracle.formula_count(run.shape, run.patterns)
        if size is None:
            size = oracle.count_avoiding(run.shape, run.patterns, cap)
        # members cover the language once as many distinct ones as its size
        # were visited
        visited = len(set(run.words))
        exhaustive = all_member and visited == size
        if not exhaustive:
            counterexamples["exhaustive"] = {"visited": visited, "language": size}

    moves_valid = len(run.moves) == len(run.words) - 1
    if not moves_valid:
        counterexamples["moves_valid"] = ("length", len(run.moves), len(run.words))
    else:
        for k in range(len(run.words) - 1):
            got = classify_move(run.words[k], run.words[k + 1])
            if got != run.moves[k]:
                moves_valid = False
                counterexamples["moves_valid"] = (k, run.moves[k], got)
                break

    transpositions_only = True
    for k in range(len(run.words) - 1):
        diff = sum(1 for a, b in zip(run.words[k], run.words[k + 1]) if a != b)
        if diff != 2:
            transpositions_only = False
            counterexamples["transpositions_only"] = (k, diff)
            break

    return GrayCodeReport(
        all_member=all_member,
        all_distinct=all_distinct,
        exhaustive=exhaustive,
        moves_valid=moves_valid,
        transpositions_only=transpositions_only,
        counterexamples=counterexamples,
    )


# --- parent/children machinery ---------------------------------------------


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
    return tuple(sorted({parent_word(w) for w in oracle.language(shape, patterns, cap)}))


def children(
    word2: Word, shape: Shape, patterns=frozenset()
) -> list[Word]:
    """All language words whose parent is `word2`, in lexicographic order.

    `shape` is the child shape; `word2` must belong to its parent language
    (equivalently: have at least one child).
    """
    pats = normalize_patterns(patterns)
    validate_word(parent_shape(shape), word2)
    m = shape.m
    member = oracle.member_test(pats)
    # parent_word removes exactly a copy of m inserted right of the others;
    # a later insertion point gives a lexicographically smaller word
    first = len(word2) - word2[::-1].index(m) if m in word2 else 0
    cands = (word2[:p] + (m,) + word2[p:] for p in range(len(word2), first - 1, -1))
    out = list(filter(member, cands))
    if not out:
        raise WordError(f"{word2} is not in the parent language")
    return out


def project_to_parent(run: GrayCodeRun) -> list[Word]:
    """Map parent_word over the visits and collapse consecutive repeats."""
    out: list[Word] = []
    for w in run.words:
        pw = parent_word(w)
        if not out or out[-1] != pw:
            out.append(pw)
    return out


# --- JSON payloads ----------------------------------------------------------


def run_to_payload(run: GrayCodeRun, engine: str) -> dict:
    """The stable JSON form of a run (schema field "format": 1)."""
    return {
        "format": 1,
        "shape": list(run.shape.multiplicities),
        "patterns": sorted(list(p) for p in run.patterns),
        "engine": engine,
        "words": [list(w) for w in run.words],
        "moves": [mv.to_json() for mv in run.moves],
        "complete": run.complete,
    }


def run_from_payload(payload: dict) -> GrayCodeRun:
    """Rebuild a run from the form `run_to_payload` writes; a missing field
    raises ValueError naming it."""
    try:
        shape = Shape(tuple(payload["shape"]))
        words = tuple(tuple(w) for w in payload["words"])
        moves = tuple(BumpMove.from_json(mv) for mv in payload["moves"])
        complete = bool(payload["complete"])
        patterns = frozenset(tuple(p) for p in payload["patterns"])
    except KeyError as exc:
        raise ValueError(f"run payload has no {exc.args[0]!r} field") from None
    return GrayCodeRun(
        shape,
        patterns,
        words,
        moves,
        complete,
        EXHAUSTED if complete else NO_NEW_BUMP,
    )
