"""
Loopless generation of the words avoiding 212, in an order where every
transition bumps the full run of some value past exactly one smaller digit.

The engine keeps, per value v: the index of its leftmost copy (`left`),
the number of smaller digits to the right of its run (`inv`), a focus
pointer (`fs`), and a travel direction (`dirs`).  Each step touches a
constant number of array cells, so the delay between visits is O(1)
regardless of word length.  Every visited word keeps the copies of each
value adjacent-or-separated only by smaller digits, which is exactly
avoidance of 212.

`_loopless` is the one implementation of the loop, driven only here: its
views feed the words (`generate_loopless`), the words with their moves
(`loopless_steps`), the inversion vectors (`inversion_vectors`) or the
per-visit variable trace (`trace_rows`) to a consumer as the loop runs.
`step_stats` traces that same loop and counts the lines run from one
visit to the next; like any line count, it does not see work hidden
inside one line, such as a call or a slice.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Optional

from . import oracle
from .bumps import LEFT, RIGHT, BumpMove
from .greedy import GrayCodeRun, collect_run
from .words import Shape, Word, make_shape, nondecreasing_word


def _initial_state(shape: Shape):
    """(m, s, t, perm, left, inv, fs, dirs) at the first visit: `perm` is
    the 0-based word list, the rest are 1-based (slot 0 unused)."""
    m = shape.m
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    perm = list(nondecreasing_word(shape))
    left = [0] * (m + 1)
    for v in range(1, m + 1):
        left[v] = t[v] + 1
    inv = [0] * (m + 1)
    fs = list(range(m + 1))
    dirs = [-1] * (m + 1)
    return m, s, t, perm, left, inv, fs, dirs


def _no_visit(perm, v, u, i, j, left, inv, fs, dirs) -> None:
    """The visitor of a loop that only counts."""


def _loopless(shape: Shape, on_visit=_no_visit) -> int:
    """Drive the loop and return the visit count.

    `on_visit(perm, v, u, i, j, left, inv, fs, dirs)` sees the live state
    exactly as it stands when the visit fires: the move described by
    (v, u, i, j) is applied to `perm` right after the callback returns.
    The final visit passes v = 1 and u = i = j = None.

    The largest value m is the fastest digit of the Gray code: once a pass
    moves m off one end of its sweep, m alone moves for the next t[m] - 1
    steps, one place each in the same direction.  An inner loop runs those
    steps with v, d and the width fixed, and the sweep's end flips m once.
    """
    m, s, t, perm, left, inv, fs, dirs = _initial_state(shape)
    count = 0
    # `while True` ends in an unconditional backward jump, the only jump on
    # which CPython 3.11 warms a function up for specialisation; a
    # `while v > 1` loop would leave one long call about 2x slower
    while True:
        v = fs[m]
        fs[m] = m
        d = dirs[v]
        if d == 1:
            i = left[v]
            j = i + s[v]
        else:
            j = left[v] - 1
            i = j + s[v]
        # the final visit, v = 1, runs the same lines as any other: it
        # reads harmless cells above and reports no move
        if v > 1:
            u = perm[j - 1]
        else:
            u = i = j = None
        count += 1
        on_visit(perm, v, u, i, j, left, inv, fs, dirs)
        if u is None:
            return count
        perm[i - 1], perm[j - 1] = u, v
        left[v] += d
        if left[u] == j:
            left[u] = i  # u's leftmost copy moves over the run of v, to i
        inv[v] -= d
        # m moves on alone for the rest of its sweep, when it has one
        # (t[m] > 1): its run slides by one place per step, so i and j
        # advance by d.  A step of the sweep runs as many lines from its
        # visit to the flip test as a pass runs from its own, which keeps
        # the lines between two visits the same with or without a
        # smaller value's step between two sweeps (`step_stats`)
        if v == m and t[m] > 1:
            count += t[m] - 1
            for j in range(j + d, j + d * t[m], d):
                i += d
                u = perm[j - 1]
                on_visit(perm, m, u, i, j, left, inv, fs, dirs)
                perm[i - 1] = u
                perm[j - 1] = m
                left[m] += d
                if left[u] == j:
                    left[u] = i
                inv[m] -= d
        if inv[v] == 0 or inv[v] == t[v]:
            dirs[v], fs[v], fs[v - 1] = -d, fs[v - 1], v - 1


def generate_loopless(
    shape: Shape, visit: Optional[Callable[[list[int]], None]] = None
) -> int:
    """Feed every word to `visit` and return how many there were; without
    a visitor the loop only counts.

    The consumer receives the live word list; it must copy if it keeps a
    reference, which keeps the generator itself allocation-free per step.
    """
    if visit is None:
        return _loopless(shape)
    # named parameters: a `*_` catch-all would pack a tuple on every visit
    return _loopless(shape, lambda perm, v, u, i, j, left, inv, fs, dirs: visit(perm))


def inversion_vectors(shape: Shape, visit: Callable[[tuple[int, ...]], None]) -> int:
    """Feed the inversion vector of each word of the order to `visit`, and
    return how many there were.  Read from the loop's live `inv`, which is
    the inversion vector of the word at each visit."""
    return _loopless(shape, lambda perm, v, u, i, j, left, inv, fs, dirs: visit(tuple(inv[1:])))


def _check_output(shape: Shape) -> None:
    """Raise SizeLimitError before materialising more words than the
    default cap.  The default and not a caller's cap: `verify --cap`
    bounds only the oracle, and still checks the whole loopless run."""
    oracle._check_cap(shape, None, only_212=True)


def stirling_sequence(shape: Shape) -> list[Word]:
    """The full visit order as tuples.

    >>> stirling_sequence(make_shape((1, 2)))
    [(1, 2, 2), (2, 2, 1)]
    """
    _check_output(shape)
    out: list[Word] = []
    generate_loopless(shape, lambda perm: out.append(tuple(perm)))
    return out


def loopless_run(shape: Shape) -> GrayCodeRun:
    """Collect the sequence as a GrayCodeRun: the words and moves that
    `loopless_steps` feeds."""
    _check_output(shape)
    feed = lambda visit: loopless_steps(shape, lambda move: move, visit)
    return collect_run(shape, oracle.STIRLING_PATTERNS, feed, oracle.stirling_count(shape))


def loopless_steps(
    shape: Shape,
    make: Callable[[BumpMove], object],
    visit: Callable[[list[int], object], None],
) -> int:
    """Feed every word with the move into it, as `visit(perm, made)`, in
    O(1) per step, and return how many there were: `made` is `make(move)`,
    None for the first word, and `perm` is the live word list, as
    `generate_loopless` gives it.  A move is read from the live state
    (v, d, i), and there are at most 2mn of them, so `make` runs once per
    distinct move."""
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    made: dict[tuple[int, int, int], object] = {}
    into = None

    def grab(perm, v, u, i, j, left, inv, fs, dirs):
        nonlocal into
        visit(perm, into)
        if u is not None:
            d = dirs[v]
            into = made.get((v, d, i))
            if into is None:
                # the run of v moves one step: anchored left when heading
                # right, and conversely; in both cases i is the anchor
                rank, side = (t[v] + 1, RIGHT) if d == 1 else (t[v] + s[v], LEFT)
                into = made[v, d, i] = make(BumpMove(rank, side, s[v], 1, i))

    return _loopless(shape, grab)


class TraceRow(NamedTuple):
    """One visit's variables; the last row has no move, so u/i/j are None."""

    perm: Word
    v: int
    u: Optional[int]
    i: Optional[int]
    j: Optional[int]
    left: tuple[int, ...]
    inv: tuple[int, ...]
    fs: tuple[int, ...]
    dirs: tuple[int, ...]


def trace_rows(shape: Shape, visit: Callable[[tuple], None]) -> int:
    """Feed each visit's variables to `visit` as a plain tuple in
    `TraceRow`'s field order, and return the visit count."""

    def grab(perm, v, u, i, j, left, inv, fs, dirs):
        # the arrays without their unused slot 0
        visit((tuple(perm), v, u, i, j,
               tuple(left[1:]), tuple(inv[1:]), tuple(fs[1:]), tuple(dirs[1:])))

    return _loopless(shape, grab)


def trace(shape: Shape) -> list[TraceRow]:
    """Per-visit snapshots of (perm, v, u, i, j, left, inv, fs, dirs)."""
    _check_output(shape)
    rows: list[TraceRow] = []
    trace_rows(shape, lambda row: rows.append(TraceRow._make(row)))
    return rows


def step_stats(shape: Shape) -> tuple[int, int]:
    """(visit count, most lines run from one visit to the next): a maximum
    that stays constant across shapes is the loopless claim in checkable
    form.  Traces the lines of `_loopless` itself, handing each word to
    the no-op visitor `_no_visit`, whose call marks a visit, the final one
    too, and whose lines are not counted.  The lines before the first
    visit and after the last are not recorded."""
    loop = _loopless  # looked up per call, so a test can substitute it
    steps, max_steps = float("-inf"), 0  # lines since the latest visit

    def count_line(frame, event, arg):
        nonlocal steps
        steps += 1
        return count_line

    def on_call(frame, event, arg):
        nonlocal steps, max_steps
        if frame.f_code is _no_visit.__code__:
            max_steps, steps = max(max_steps, steps), 0
            return None
        return count_line if frame.f_code is loop.__code__ else None

    caller = sys.gettrace()
    sys.settrace(on_call)
    try:
        count = loop(shape, _no_visit)
    finally:
        sys.settrace(caller)
    return count, max_steps
