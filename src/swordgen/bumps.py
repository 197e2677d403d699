"""
The bump move algebra.

A bump moves a run of equal digits past an adjacent block of strictly
smaller digits, the two blocks exchanging places with internal order
preserved.  A right-bump anchors the run's left end (the run extends
rightward from the anchor); a left-bump anchors the run's right end.  The
anchor digit is addressed by its rank.  Width-1 bumps are jumps,
distance-1 bumps are transpositions, and width-1 distance-1 bumps are
plain swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .words import Word

RIGHT = "R"
LEFT = "L"


class BumpError(ValueError):
    """Raised when a requested bump does not apply."""


@dataclass(frozen=True)
class BumpMove:
    """One Gray-code transition: which rank moved, where, and how far."""

    rank: int
    dir: str
    width: int
    distance: int
    anchor: int

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "dir": self.dir,
            "width": self.width,
            "distance": self.distance,
            "anchor": self.anchor,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BumpMove":
        return cls(
            rank=payload["rank"],
            dir=payload["dir"],
            width=payload["width"],
            distance=payload["distance"],
            anchor=payload["anchor"],
        )


def _check_place(word: Word, where: str, at: int, direction: str) -> None:
    """Raise BumpError unless `at` (a rank or an index) is in 1..n and the
    direction is R or L."""
    if direction != RIGHT and direction != LEFT:
        raise BumpError(f"direction must be {RIGHT!r} or {LEFT!r}, got {direction!r}")
    if not 1 <= at <= len(word):
        raise BumpError(f"{where} must be in 1..{len(word)}, got {at}")


def _run_at(word: Word, rank: int, direction: str) -> tuple[int, int]:
    """1-based bounds of the block that the rank-`rank` digit anchors: its
    run from the anchor rightward for R, leftward for L."""
    _check_place(word, "rank", rank, direction)
    n = len(word)
    ordered = sorted(word)
    v = ordered[rank - 1]
    # the anchor is the copy of v numbered rank - #{x < v} from the left
    i = -1
    for _ in range(rank - ordered.index(v)):
        i = word.index(v, i + 1)
    lo = hi = i + 1
    if direction == RIGHT:
        while hi < n and word[hi] == v:
            hi += 1
    else:
        while lo > 1 and word[lo - 2] == v:
            lo -= 1
    return lo, hi


def _move(rank: int, direction: str, lo: int, hi: int, distance: int) -> BumpMove:
    anchor = lo if direction == RIGHT else hi
    return BumpMove(rank, direction, hi - lo + 1, distance, anchor)


def _shift(word: Word, lo: int, hi: int, direction: str, distance: int) -> Word:
    # exchange the block at 1-based lo..hi with the adjacent block of
    # passed digits
    lo -= 1
    run = word[lo:hi]
    if direction == RIGHT:
        return word[:lo] + word[hi : hi + distance] + run + word[hi + distance :]
    return word[: lo - distance] + run + word[lo - distance : lo] + word[hi:]


def apply_bump(word: Word, rank: int, direction: str, distance: int) -> tuple[Word, BumpMove]:
    """Apply one bump, returning the new word and the move record.

    >>> apply_bump((1, 1, 2, 1, 1, 3, 3, 3, 1, 1), 9, "L", 4)[0]
    (1, 3, 3, 1, 2, 1, 1, 3, 1, 1)
    """
    if distance < 1:
        raise BumpError(f"distance must be >= 1, got {distance}")
    lo, hi = _run_at(word, rank, direction)
    v = word[hi - 1]
    reach = _block_pass(word, lo, hi, v, direction)
    if reach < distance:
        # the first position the run cannot pass
        p = hi + reach + 1 if direction == RIGHT else lo - reach - 1
        if not 1 <= p <= len(word):
            raise BumpError(
                f"bump of rank {rank} dir {direction} distance {distance} runs off the word"
            )
        raise BumpError(
            f"digit {word[p - 1]} at position {p} is not smaller than {v}; bump blocked"
        )
    return _shift(word, lo, hi, direction, distance), _move(rank, direction, lo, hi, distance)


def max_pass(word: Word, rank: int, direction: str) -> int:
    """Largest feasible bump distance for this rank and direction (0 if
    the run sits at the boundary or against a digit that is not smaller).

    >>> max_pass((3, 3, 3, 1, 1, 2), 3, "L")
    2
    """
    lo, hi = _run_at(word, rank, direction)
    return _block_pass(word, lo, hi, word[hi - 1], direction)


def _block_pass(word: Word, lo: int, hi: int, v: int, direction: str) -> int:
    n = len(word)
    d = 0
    while True:
        p = hi + d + 1 if direction == RIGHT else lo - d - 1
        if not 1 <= p <= n or word[p - 1] >= v:
            return d
        d += 1


def _first_bump(
    word: Word, lo: int, hi: int, direction: str, test: Callable[[Word], bool]
) -> Optional[tuple[int, Word]]:
    """Least distance d >= 1 at which the block lo..hi, moved past d
    smaller digits, gives a word passing `test`, and that word; None once
    the block is blocked."""
    n = len(word)
    v = word[hi - 1]
    # 0-based index of the next digit to pass, which must be smaller
    step = 1 if direction == RIGHT else -1
    edge = hi if direction == RIGHT else lo - 2
    d = 0
    while 0 <= edge < n and word[edge] < v:
        d += 1
        edge += step
        result = _shift(word, lo, hi, direction, d)
        if test(result):
            return d, result
    return None


def minimal_bump(
    word: Word, rank: int, direction: str, member: Callable[[Word], bool]
) -> Optional[tuple[int, Word, BumpMove]]:
    """Smallest-distance bump whose result satisfies `member`, or None.

    The minimization is over language membership alone; callers wanting
    only unvisited results filter afterwards.
    """
    lo, hi = _run_at(word, rank, direction)
    found = _first_bump(word, lo, hi, direction, member)
    if found is None:
        return None
    d, result = found
    return d, result, _move(rank, direction, lo, hi, d)


def apply_jump(word: Word, i: int, direction: str, distance: int) -> Word:
    """Move the single digit at index i past `distance` smaller digits.

    Unlike a bump, the digit travels alone even when it sits in a run; an
    equal neighbour blocks it.
    """
    if distance < 1:
        raise BumpError(f"distance must be >= 1, got {distance}")
    _check_place(word, "index", i, direction)
    v = word[i - 1]
    if _block_pass(word, i, i, v, direction) < distance:
        raise BumpError(f"jump of {distance} from index {i} dir {direction} is blocked")
    return _shift(word, i, i, direction, distance)


def maximum_jump(word: Word, i: int, direction: str) -> Optional[Word]:
    """Jump the digit at index i past all the smaller digits it can reach;
    None when it cannot move at all.

    >>> maximum_jump((1, 2, 3), 3, "L")
    (3, 1, 2)
    """
    _check_place(word, "index", i, direction)
    v = word[i - 1]
    d = _block_pass(word, i, i, v, direction)
    if d == 0:
        return None
    return _shift(word, i, i, direction, d)


def classify_move(word: Word, word2: Word) -> Optional[BumpMove]:
    """Recover the unique bump transforming `word` into `word2`, or None
    when the pair does not differ by exactly one bump.

    >>> classify_move((1, 1, 2, 3, 3, 3), (1, 1, 3, 3, 3, 2))
    BumpMove(rank=6, dir='L', width=3, distance=1, anchor=6)
    """
    ordered = sorted(word)
    if len(word) != len(word2) or ordered != sorted(word2):
        raise BumpError("words do not share a shape")
    if word == word2:
        return None
    lo = 0
    while word[lo] == word2[lo]:
        lo += 1
    hi = len(word) - 1
    while word[hi] == word2[hi]:
        hi -= 1
    # the moving run holds the window's larger end and leaves for the other
    if word[lo] > word[hi]:
        direction, anchor, step = RIGHT, lo, 1
    elif word[lo] < word[hi]:
        direction, anchor, step = LEFT, hi, -1
    else:
        return None
    v = word[anchor]
    end = anchor
    while word[end + step] == v:
        end += step
    if direction == RIGHT:
        run, passed = word[lo : end + 1], word[end + 1 : hi + 1]
        moved = passed + run
    else:
        run, passed = word[end : hi + 1], word[lo:end]
        moved = run + passed
    if word2[lo : hi + 1] != moved or not all(x < v for x in passed):
        return None
    anchor += 1
    # ranks order by value, then copies of a value from left to right
    rank = ordered.index(v) + word[:anchor].count(v)
    return BumpMove(rank, direction, len(run), len(passed), anchor)
