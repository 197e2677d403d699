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

`_loopless` is the one implementation of the loop, driven only here.  It
calls a one-argument visitor with the live word list, at each visit
before it reads the move out of the word, so the move can be read off
the state's lists (`fs`, `dirs`, `left`) in O(1).  Its views feed the
words (`generate_loopless`, which hands its visitor to the loop as it
is), the words with their moves (`loopless_steps`), the inversion
vectors (`inversion_vectors`) or the per-visit variable trace
(`trace_rows`) to a consumer as the loop runs; the last three hold the
state that they hand the loop and read it at each visit.
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


def _no_visit(perm) -> None:
    """The visitor of a loop that only counts."""


def _loopless(state, on_visit=_no_visit) -> int:
    """Drive the loop from `state`, as `_initial_state` makes it, and
    return the visit count.

    `on_visit(perm)` gets the live word list at every visit, the final one
    too, before the loop reads the move out of that word, so a view that
    holds the state's lists reads the move off them in O(1): v = fs[m],
    with v = 1 at the final visit; i = left[v] and j = i + s[v] when
    dirs[v] = 1, else j = left[v] - 1 and i = j + s[v]; u = perm[j - 1].
    The run of v then moves from i to j, over one copy of u.  At every
    visit `inv` is the inversion vector of the word and fs[1:m] the focus
    pointers; fs[m] holds the next v, not m, until the move is read.

    The largest value m is the fastest digit of the Gray code: once a pass
    moves m off one end of its sweep, m alone moves for the next t[m] - 1
    steps, one place each in the same direction.  An inner loop runs those
    steps with v, d and the width fixed, and the sweep's end flips m once.
    """
    m, s, t, perm, left, inv, fs, dirs = state
    count = 0
    # `while True` ends in an unconditional backward jump, the only jump on
    # which CPython 3.11 warms a function up for specialisation; a
    # `while v > 1` loop would leave one long call about 2x slower
    while True:
        count += 1
        on_visit(perm)
        v = fs[m]
        fs[m] = m
        d = dirs[v]
        if d == 1:
            i = left[v]
            j = i + s[v]
        else:
            j = left[v] - 1
            i = j + s[v]
        if v == 1:
            return count
        u = perm[j - 1]
        perm[i - 1], perm[j - 1] = u, v
        left[v] += d
        # u's leftmost copy moves over the run of v, to i.  One line for
        # `step_stats`: with m = 2 a pass that starts m's sweep never takes
        # the branch, so as two lines it would count one line more between
        # two visits with m > 2 than with m = 2
        if left[u] == j: left[u] = i
        inv[v] -= d
        # m moves on alone for the rest of its sweep, when it has one
        # (t[m] > 1): its run slides by one place per step, so i and j
        # advance by d, and fs[m] = m with left[m] = i keeps each move
        # readable off the state.  The visit comes two lines into a step,
        # so that a pass of m runs as many lines from its visit to the
        # first visit of its sweep as a pass of a smaller value runs from
        # visit to visit
        if v == m and t[m] > 1:
            count += t[m] - 1
            for j in range(j + d, j + d * t[m], d):
                i += d
                u = perm[j - 1]
                on_visit(perm)
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

    `visit` is the loop's own visitor, called with no wrapper: it receives
    the live word list, and must copy if it keeps a reference, which keeps
    the generator itself allocation-free per step.
    """
    return _loopless(_initial_state(shape), _no_visit if visit is None else visit)


def inversion_vectors(shape: Shape, visit: Callable[[tuple[int, ...]], None]) -> int:
    """Feed the inversion vector of each word of the order to `visit`, and
    return how many there were.  Read from the loop's live `inv`, which is
    the inversion vector of the word at each visit."""
    state = _initial_state(shape)
    inv = state[5]
    return _loopless(state, lambda perm: visit(tuple(inv[1:])))


def stirling_sequence(shape: Shape) -> list[Word]:
    """The full visit order as tuples (over the default cap, refused).

    >>> stirling_sequence(make_shape((1, 2)))
    [(1, 2, 2), (2, 2, 1)]
    """
    oracle.language_size(shape, oracle.STIRLING_PATTERNS)
    out: list[Word] = []
    generate_loopless(shape, lambda perm: out.append(tuple(perm)))
    return out


def loopless_run(shape: Shape) -> GrayCodeRun:
    """Collect the sequence as a GrayCodeRun: the words and moves that
    `loopless_steps` feeds."""
    size = oracle.language_size(shape, oracle.STIRLING_PATTERNS)
    feed = lambda visit: loopless_steps(shape, lambda move: move, visit)
    return collect_run(shape, oracle.STIRLING_PATTERNS, feed, size)


def loopless_steps(
    shape: Shape,
    make: Callable[[BumpMove], object],
    visit: Callable[[list[int], object], None],
) -> int:
    """Feed every word with the move into it, as `visit(perm, made)`, in
    O(1) per step, and return how many there were: `made` is `make(move)`,
    None for the first word, and `perm` is the live word list, as
    `generate_loopless` gives it.  The move out of each word is read off
    the live state as the loop reads it next: value v = fs[m], direction
    d = dirs[v], and the run's leftmost index left[v].  There are at most
    2mn such moves, so `make` runs once per distinct move."""
    state = m, s, t, perm, left, inv, fs, dirs = _initial_state(shape)
    # made[d][v][left[v]], filled as the moves are first seen; d = -1
    # indexes the last list, and slot 1 of v (v = 1 never moves) stays None
    made: list = [None] + [[[None] * (shape.n + 1) for _ in s] for _ in (1, -1)]
    into = None

    def grab(perm):
        nonlocal into
        visit(perm, into)
        v = fs[m]
        d = dirs[v]
        into = made[d][v][left[v]]
        if into is None and v > 1:
            # the run of v moves one step: anchored left when heading
            # right, and conversely; in both cases i is the anchor
            if d == 1:
                rank, side, i = t[v] + 1, RIGHT, left[v]
            else:
                rank, side, i = t[v] + s[v], LEFT, left[v] - 1 + s[v]
            into = made[d][v][left[v]] = make(BumpMove(rank, side, s[v], 1, i))

    return _loopless(state, grab)


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
    `TraceRow`'s field order, and return the visit count: the move out of
    the word as the loop reads it next, and the arrays with fs[m] as m,
    the value the loop gives it on reading v."""
    state = m, s, t, perm, left, inv, fs, dirs = _initial_state(shape)

    def grab(perm):
        v = fs[m]
        if v > 1:
            if dirs[v] == 1:
                i = left[v]
                j = i + s[v]
            else:
                j = left[v] - 1
                i = j + s[v]
            u = perm[j - 1]
        else:
            u = i = j = None
        # the arrays without their unused slot 0
        visit((tuple(perm), v, u, i, j,
               tuple(left[1:]), tuple(inv[1:]), (*fs[1:m], m), tuple(dirs[1:])))

    return _loopless(state, grab)


def trace(shape: Shape) -> list[TraceRow]:
    """Per-visit snapshots of (perm, v, u, i, j, left, inv, fs, dirs)."""
    oracle.language_size(shape, oracle.STIRLING_PATTERNS)
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
        count = loop(_initial_state(shape), _no_visit)
    finally:
        sys.settrace(caller)
    return count, max_steps
