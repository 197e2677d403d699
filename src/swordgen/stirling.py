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

`_loopless` is the one implementation of the loop: it counts, feeds
the words (`generate_loopless`), or the words with their moves
(`loopless_steps`), to a consumer as it runs, and feeds the per-visit
variable trace (`trace_rows`).
`step_stats` traces that same loop and counts the lines run from one
visit to the next; like any line count, it does not see work hidden
inside one line, such as a call or a slice.
"""

from __future__ import annotations

import ast
import inspect
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import oracle
from .bumps import LEFT, RIGHT, BumpMove
from .greedy import EXHAUSTED, GrayCodeRun
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


def _loopless(shape: Shape, on_visit=None) -> int:
    """Drive the loop and return the visit count.

    When given, `on_visit(perm, v, u, i, j, left, inv, fs, dirs)` sees the
    live state exactly as it stands when the visit fires: the move
    described by (v, u, i, j) is applied to `perm` right after the
    callback returns.  The final visit passes v = 1 and u = i = j = None.

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
        if on_visit is not None:
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
                if on_visit is not None:
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


def _move_from_state(s, t, v: int, d: int, i: int) -> BumpMove:
    # the run of v moves one step: anchored left when heading right, and
    # conversely; in both cases i is the anchor position
    if d == 1:
        return BumpMove(rank=t[v] + 1, dir=RIGHT, width=s[v], distance=1, anchor=i)
    return BumpMove(rank=t[v] + s[v], dir=LEFT, width=s[v], distance=1, anchor=i)


def loopless_run(shape: Shape) -> GrayCodeRun:
    """Collect the sequence as a GrayCodeRun, deriving each move in O(1)
    from the live state instead of re-classifying word pairs."""
    _check_output(shape)
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    words: list[Word] = []
    moves: list[BumpMove] = []

    def grab(perm, v, u, i, j, left, inv, fs, dirs):
        words.append(tuple(perm))
        if u is not None:
            moves.append(_move_from_state(s, t, v, dirs[v], i))

    _loopless(shape, grab)
    return GrayCodeRun(
        shape,
        oracle.STIRLING_PATTERNS,
        tuple(words),
        tuple(moves),
        True,
        EXHAUSTED,
    )


def loopless_steps(
    shape: Shape,
    make: Callable[[BumpMove], object],
    visit: Callable[[list[int], object], None],
) -> None:
    """Feed every word with the move into it, as `visit(perm, made)`, in
    O(1) per step: `made` is `make(move)`, None for the first word, and
    `perm` is the live word list, as `generate_loopless` gives it.  A move
    depends only on (v, d, i), and there are at most 2mn of them, so `make`
    runs once per distinct move."""
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    made: dict[tuple[int, int, int], object] = {}
    into = None

    def grab(perm, v, u, i, j, left, inv, fs, dirs):
        nonlocal into
        visit(perm, into)
        if u is not None:
            key = (v, dirs[v], i)
            into = made.get(key)
            if into is None:
                into = made[key] = make(_move_from_state(s, t, *key))

    _loopless(shape, grab)


@dataclass(frozen=True)
class TraceRow:
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
    """Feed each visit's (perm, v, u, i, j, left, inv, fs, dirs) to `visit`
    as one tuple, the fields of a `TraceRow`, and return the visit count."""
    _check_output(shape)

    def grab(perm, v, u, i, j, *arrays):
        # the arrays left, inv, fs and dirs, without their unused slot 0
        visit((tuple(perm), v, u, i, j, *(tuple(a[1:]) for a in arrays)))

    return _loopless(shape, grab)


def trace(shape: Shape) -> list[TraceRow]:
    """Per-visit snapshots of (perm, v, u, i, j, left, inv, fs, dirs)."""
    rows: list[TraceRow] = []
    trace_rows(shape, lambda row: rows.append(TraceRow(*row)))
    return rows


def step_stats(shape: Shape) -> tuple[int, int]:
    """(visit count, most lines run from one visit to the next): a maximum
    that stays constant across shapes is the loopless claim in checkable
    form.  Traces `_loopless` itself, handing each word to a no-op visitor
    whose lines are not counted; every line that calls `on_visit` marks a
    visit, the final one too.  The lines before the first visit and after
    the last are not recorded."""
    loop = _loopless  # looked up per call, so a test can substitute it
    lines, first = inspect.getsourcelines(loop)
    marks = {
        first + n.lineno - 1
        for n in ast.walk(ast.parse("".join(lines)))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "on_visit"
    }
    steps = max_steps = 0

    def count_lines(frame, event, arg):
        nonlocal steps, max_steps
        if frame.f_lineno in marks:
            max_steps = max(max_steps, steps)
            steps = 0
        steps += 1
        return count_lines

    def wait_for_visit(frame, event, arg):
        return count_lines(frame, event, arg) if frame.f_lineno in marks else wait_for_visit

    caller = sys.gettrace()
    sys.settrace(lambda frame, event, arg: wait_for_visit if frame.f_code is loop.__code__ else None)
    try:
        count = loop(shape, lambda *_: None)
    finally:
        sys.settrace(caller)
    return count, max_steps
