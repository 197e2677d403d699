"""
Loopless generation of every word of a shape, with no pattern: the
greedy order of the pattern-free language, plain changes (Knuth's
Algorithm P, TAOCP 4A §7.2.1.2) generalised to repeated letters.

Level k of the walk is the k-th letter of the nondecreasing word, copy j
of value v (k = t_v + j).  Let r_j be the number of letters below v right
of copy j; r_1 lies in [0, t_v] and r_j in [0, r_{j-1}], and the order is
the reflected product over the levels with level n the fastest, as in
`greedy._sweep`.  A level steps when every level above it lies at an end
of its range: either glued to the copy before it (r_j = r_{j-1}) or at
r_j = 0.  The step moves the copy, with the copies glued after it, across
one smaller letter, and its direction is forced at the ends of the range.

Per value the state is the gaps: g[i] smaller letters between copies i - 1
and i, g[1] before the first copy and g[s_v + 1] after the last.  A step
of copies j..e - 1 moves one letter between g[j] and g[e], and two list
stores move the block on the word.  As every copy above j lies at an end,
at most one gap above j is nonzero, the last nonzero one, top[v]: r_j is
g[top[v]], or 0 when top[v] <= j, and copy j sits at t_v + j - 1 - r_j
among the letters up to v, behind the top[u] - 1 copies at the front of
each larger value u.  A copy above top[v] has a range of one point: it
cannot move, and stays out of the focus pointers, which run as in
Knuth's Algorithm L (TAOCP 4A §7.2.1.1) over the levels that can move.
Level n sweeps its whole range in an inner loop, one place a step.

Walsh (*Generating Gray codes in O(1) worst-case time per word*, DMTCS
2003) grounds loopless generation of such reflected orders.  `_walk` is
the one implementation of the walk: it calls a visitor with the live word
list and the move into it at each visit.  `plain_steps` feeds the greedy
engine; `step_stats` counts the lines it runs from one visit to the next.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import stirling
from .bumps import LEFT, RIGHT, BumpMove
from .words import Shape, nondecreasing_word


class _Moves(dict):
    """The moves of the walk's steps, keyed by the level that steps, its
    direction, its copy's place and the block's width, each made once
    while at most 256 are kept.  A dense language's recur and are few (35
    on 1^8, 61 on 2^5), a sparse one's may each come once (2,999 on
    1,3000): the cache holds the first, and does not grow with the second."""

    def __missing__(self, key):
        if len(self) == 256:
            self.clear()
        k, d, a, w = key
        move = BumpMove(k, RIGHT, w, 1, a + 1) if d == 1 else BumpMove(k + w - 1, LEFT, w, 1, a + w)
        self[key] = move
        return move


def _initial_state(shape: Shape):
    """The state at the first visit, the nondecreasing word, where every
    copy lies at the end of its range (indexed by value or by level from
    1, slot 0 unused): each value's gaps and top, where g[1] = t_v holds
    every smaller letter; `fs`, the focus pointers; `dirs`, each level's
    direction inside a sweep; `base[k]`, copy k's place at r_j = 0 less
    the larger values' copies, one for each; the moves, and those of level
    n to the right and to the left by place, made on its first sweep each
    way.  Value 1 cannot move: its top is 0."""
    m, n = shape.m, shape.n
    s = (0,) + shape.multiplicities
    t = (0,) + shape.prefix
    perm = list(nondecreasing_word(shape))
    val = [0, *perm]
    gaps = [[0, tv, *[0] * sv] for tv, sv in zip(t, s)]
    tops = [0, 0] + [1] * (m - 1)
    base = [k - 1 - (m - v) for k, v in enumerate(val)]
    # the highest level of each value that can move, by its top
    heads = [[*range(tv, tv + sv + 1), tv + sv] for tv, sv in zip(t, s)]
    lanes = [None, [None] * n, [None] * n]
    fs, dirs = list(range(n + 1)), [0] * (n + 1)
    return m, n, s, t, val, gaps, tops, base, heads, fs, dirs, perm, _Moves(), lanes


def _walk(state, visit) -> int:
    """Drive the walk from `state`, as `_initial_state` makes it, calling
    `visit(perm, move)` with the live word list and the move into it (None
    for the first word) at each visit; return the visit count.

    A step of level n runs its whole sweep: the state takes the sweep's
    end at once, and after the visit of the first move an inner loop moves
    the copy on, one place and one visit a step.  So every step runs the
    same lines from its visit to the next step's visit, whether or not a
    sweep lies between them.
    """
    m, n, s, t, val, gaps, tops, base, heads, fs, dirs, perm, made, lanes = state
    count, move, hm = 0, None, heads[m]
    p = v = 0
    d = run = 1  # no sweep under way
    lane = lanes[1]
    # `while True`, as in `stirling._loopless`: CPython 3.11 warms a
    # function up for specialisation only on an unconditional backward jump
    while True:
        count += run  # this visit and those of the rest of a sweep
        visit(perm, move)
        for i in range(p, p + d * (run - 1), d):  # the rest of level n's sweep
            perm[i] = perm[i + d]
            perm[i + d] = v
            visit(perm, lane[i])
        top = hm[tops[m]]  # the highest level that can move
        k = fs[top]
        fs[top] = top
        if k == 0:
            return count
        v = val[k]
        j = k - t[v]
        g = gaps[v]
        h = tops[v]
        r = g[h] if h > j else 0
        # glued to the copy before it, it moves right; at r = 0, left
        d = 1 if g[j] == 0 else -1 if r == 0 else dirs[k]
        dirs[k] = d
        e = h if h > j else s[v] + 1  # the block is copies j..e - 1
        a = base[k] - r + (sum(tops[v + 1 :]) if v < m else 0)  # the place of copy j
        lane = lanes[d]
        if k == n and lane[a] is None:  # its first sweep this way: from each of its places
            way = RIGHT if d == 1 else LEFT
            lane[n - 1 - t[m] :] = [BumpMove(n, way, 1, 1, i + 1) for i in range(n - 1 - t[m], n)]
        move = lane[a] if k == n else made[k, d, a, e - j]
        run = (r or g[j]) if k == n else 1
        # the smaller letter next to the block takes the place at its other end
        p, q = (a + e - j, a) if d == 1 else (a - 1, a + e - j - 1)
        perm[q] = perm[p]
        perm[p] = v
        g[j] += d * run
        g[e] -= d * run
        tops[v] = e if g[e] else j
        if not (g[j] and g[e]):  # its sweep is over: k waits, as in Algorithm L
            low = k - 1 if j > 1 else heads[v - 1][tops[v - 1]]
            fs[k] = fs[low]
            fs[low] = low


def plain_steps(shape: Shape, visit: Callable[[list[int], Optional[BumpMove]], None]) -> int:
    """Feed every word of the shape with the move into it, as `visit(perm,
    move)`, in the greedy order from the nondecreasing word, and return how
    many there were: `perm` is the live word list, and `move` None for the
    first word."""
    return _walk(_initial_state(shape), visit)


def step_stats(shape: Shape) -> tuple[int, int]:
    """(visit count, most lines `_walk` runs from one visit to the next),
    as `stirling.step_stats` counts them for its loop."""
    return stirling.line_stats(_walk, _initial_state(shape))
