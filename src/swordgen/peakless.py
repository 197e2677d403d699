"""
Loopless generation of the peakless words, those avoiding 132, 231 and
121: the words that fall weakly to their 1s and rise weakly after them.

Such a word is fixed by d_v, the number of copies of each value v >= 2
left of the 1s (the rest lie right of them), so the language is the
product of (s_v + 1).  The greedy order of this language is a product
walk over the digits d_v with d_m the fastest, a reflected mixed-radix
Gray code in which each digit runs alternately through the orders
A = (0, s, s - 1, ..., 1) and B = (1, s, ..., 2, 0), whose ends meet: one
cycle 0, s, ..., 1, s, ..., 2 of 2s positions per digit, paused at its
positions 0 and s.  `_walk` drives it as Knuth's Algorithm H (TAOCP 4A,
§7.2.1.1), with focus pointers over v = m .. 2 and value 1 the sentinel.

The t_v letters below v lie between v's left block and its right one, so
when d_v grows by c the first c copies of the right block move left
across them, and when it shrinks by c the last c copies of the left block
move right: one bump, made on the live word list by one slice assignment.
The left block of v ends at a = the sum of d_u over u >= v (0-based),
one C-level sum.

`_walk` is the one implementation of the walk.  Like `stirling._loopless`
it calls a one-argument visitor with the live word list at each visit,
before it reads the step out of the word, and its views feed the words
(`generate_peakless`) or the words with their moves (`peakless_steps`);
`step_stats` counts the lines it runs from one visit to the next.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import stirling
from .bumps import LEFT, RIGHT, BumpMove
from .stirling import _no_visit
from .words import Shape, nondecreasing_word


def _initial_state(shape: Shape):
    """(m, s, t, perm, d, pos, cycle, fs) at the first visit, the
    nondecreasing word, where every d_v is 0: `perm` is the 0-based word
    list, the rest are indexed by value (slots 0 and 1 unused but for the
    sentinel fs[1] = 1).  `pos[v]` is digit v's position on its cycle,
    `cycle[v]` the values along it."""
    m = shape.m
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    perm = list(nondecreasing_word(shape))
    cycle = [[0, *range(k, 0, -1), *range(k, 1, -1)] for k in s]
    return m, s, t, perm, [0] * (m + 1), [0] * (m + 1), cycle, list(range(m + 1))


def _walk(state, on_visit=_no_visit) -> int:
    """Drive the walk from `state`, as `_initial_state` makes it, and
    return the visit count.

    `on_visit(perm)` gets the live word list at every visit, the final one
    too, before the walk reads the step out of that word, so a view that
    holds the state's lists reads the step off them: v = fs[m], with v = 1
    at the final visit; digit v moves to position p = (pos[v] + 1) mod 2s_v
    of its cycle, from d[v] to cycle[v][p], and its left block ends at
    a = sum(d[v:]).
    """
    m, s, t, perm, d, pos, cycle, fs = state
    count = 0
    # `while True`, as in `stirling._loopless`: CPython 3.11 warms a
    # function up for specialisation only on an unconditional backward jump
    while True:
        count += 1
        on_visit(perm)
        v = fs[m]
        fs[m] = m
        if v == 1:
            return count
        p = pos[v] = (pos[v] + 1) % (2 * s[v])
        old, new = d[v], cycle[v][p]
        a = sum(d[v:])
        if new > old:  # the right block's first copies move left
            j = a + t[v]
            perm[a : j + new - old] = perm[j : j + new - old] + perm[a:j]
        else:  # the left block's last copies move right
            j = a + new - old
            perm[j : a + t[v]] = perm[a : a + t[v]] + perm[j:a]
        d[v] = new
        if p % s[v] == 0:  # an end of A or of B: the digit's sweep is over
            fs[v], fs[v - 1] = fs[v - 1], v - 1


def generate_peakless(
    shape: Shape, visit: Optional[Callable[[list[int]], None]] = None
) -> int:
    """Feed every peakless word to `visit` and return how many there were;
    without a visitor the walk only counts.  `visit` is the walk's own
    visitor, called with the live word list, as `stirling.generate_loopless`
    calls its own."""
    return _walk(_initial_state(shape), _no_visit if visit is None else visit)


def peakless_steps(
    shape: Shape,
    make: Callable[[BumpMove], object],
    visit: Callable[[list[int], object], None],
) -> int:
    """Feed every peakless word with the move into it, as `visit(perm,
    made)`, and return how many there were: `made` is `make(move)`, None
    for the first word, and `perm` the live word list.  The move out of
    each word is read off the state as the walk reads it next, and `make`
    runs once per distinct move, keyed by (v, old, new, a)."""
    state = m, s, t, perm, d, pos, cycle, fs = _initial_state(shape)
    made: dict = {}
    into = None

    def grab(perm):
        nonlocal into
        visit(perm, into)
        v = fs[m]
        if v > 1:
            old, new = d[v], cycle[v][(pos[v] + 1) % (2 * s[v])]
            a = sum(d[v:])
            into = made.get((v, old, new, a))
            if into is None:
                if new > old:  # anchored at the block's last copy
                    move = BumpMove(t[v] + new, LEFT, new - old, t[v], a + t[v] + new - old)
                else:  # anchored at the block's first copy
                    move = BumpMove(t[v] + new + 1, RIGHT, old - new, t[v], a + new - old + 1)
                into = made[v, old, new, a] = make(move)

    return _walk(state, grab)


def step_stats(shape: Shape) -> tuple[int, int]:
    """(visit count, most lines `_walk` runs from one visit to the next),
    as `stirling.step_stats` counts them for its loop."""
    return stirling.line_stats(_walk, _initial_state(shape))
