"""
Greedy bump generation of pattern-avoiding word languages.

At each step the engine considers, for every movable block, its minimal
bump (least distance keeping the result in the language), and among those
that reach an unvisited word applies the one whose block carries the
largest rank, i.e. the rank of the block's leading digit; rightward beats
leftward on ties, and the narrower block wins what remains.  Blocks are
tried in that order and the first whose minimal bump reaches an unvisited
word is applied.  It halts when no such bump exists.
Started from the nondecreasing word of a zig-zag language this gives a
bump Gray code; on other languages the run may stop early, which is
reported rather than raised.
The engine is a walk (`greedy_walk`), a feed like the loopless loop's
views: called with a visitor, it hands the visitor each word with the move
into it as the word is chosen, and returns the word count, so a reader
takes the words while it runs; `generate_greedy` collects the walk into a
`GrayCodeRun`.  The walk has two engines: the block scan (`_scan`), which
keeps the visited words and tests each candidate against the live
patterns, and, from the nondecreasing word of a syntactically zig-zag
language, the sweep on the generating tree (`_sweep`), which makes the
same choices with no visited set and no membership test per candidate.
The language is sized by its closed form, else on the generating tree;
no list of its words is made.

Also here: one-pass Gray-code verification, a run's projection onto the
parent language, and the JSON form of a run.
"""

from __future__ import annotations

import collections
import itertools
import operator
from typing import Callable, NamedTuple, Optional

from . import oracle
from .bumps import LEFT, RIGHT, BumpError, BumpMove, classify_move
from .bumps import _first_bump, _move  # the minimal-bump search
from .oracle import SizeLimitError, parent_word
from .patterns import avoids_all, normalize_patterns
from .words import (
    Shape,
    Word,
    WordError,
    nondecreasing_word,
    validate_word,
)
from .zigzag import zigzag_pattern

EXHAUSTED = "exhausted"
NO_NEW_BUMP = "no-new-bump"


class InvalidStartError(ValueError):
    """Raised when the requested start word is outside the language."""


class GrayCodeRun(NamedTuple):
    """A visit sequence with the moves between consecutive words.

    `complete` is True only when the visit count equals the language size.
    """

    shape: Shape
    patterns: frozenset[Word]
    words: tuple[Word, ...]
    moves: tuple[BumpMove, ...]
    complete: bool
    halted_reason: str


class GrayCodeReport(NamedTuple):
    """Outcome of checking a run; None flags were not decidable."""

    all_member: bool
    all_distinct: bool
    exhaustive: Optional[bool]
    moves_valid: bool
    transpositions_only: bool
    counterexamples: dict

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


def _scan(shape: Shape, start: Word, member: Callable[[Word], bool], visit) -> int:
    """Call `visit(word, move)` for each word after `start`, with the move
    into it, as it is chosen; return how many there were."""
    visited = {start}
    w = start
    while (step := _next_bump(shape, w, member, visited)) is not None:
        w, move = step
        visited.add(w)
        visit(w, move)
    return len(visited) - 1


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
    value and, within a value, from right to left, so a run's last copy
    comes first and the walk over its rightward blocks finds the run's
    start for the copies after it: each run is walked once.
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
                start = lo
            yield lead, LEFT, start, hi
            lead -= 1


def _sweep(shape: Shape, start: Word, live: frozenset[Word], visit) -> int:
    """Call `visit(word, move)` for each word after `start`, the
    nondecreasing word of a language whose live patterns are all
    syntactically zig-zag, as `_scan` would, but with no visited set;
    return how many there were.

    Level k of the generating tree inserts the k-th letter of `start` into
    the word of the levels below, right of the copies of its value, so the
    copy of level k has rank k.  The run projects onto the run one level
    down, and while the parent stays, the top level's copy sweeps over all
    of its member points, from one end of its range to the other.  Both
    ends are members: a pattern's largest letter is neither first nor last,
    and an occurrence through a copy placed right after an equal one would
    also run through that one.

    So a level steps when every level above it has finished its sweep and
    lies at an end of its range.  They stay at their ends: moving a copy
    from one end to the other would change a second place, so only keeping
    the end makes the step one bump.  The copies of the stepping value
    glued right after the stepping copy (all of them, when it lies at the
    end) move with it, as the widest block that does; the others stay at
    the end.  Each larger value thus lies in two runs, one at the front of
    the word and one at its end, and the step is one block moved across
    the gap to the stepping level's next member point.  Then every level
    above with more than one point starts a sweep from where it lies.

    `front[k]` tells whether level k lies at the first point of its range
    (also for a range of one point), and `pt[k]` is its point: the index of
    its copy in its level's word.  The stack holds the levels that have not
    finished their sweeps, each as [level, points in sweep order (None
    until it first steps), index of the current point].
    """
    n, top = shape.n, shape.m
    val = (0,) + start
    firsts = [t + 1 for t in shape.prefix]  # each value's first level
    last = [0] * (n + 1)  # the last level of each level's value
    for t, s in zip(shape.prefix, shape.multiplicities):
        last[t + 1 : t + s + 1] = [t + s] * s
    # in `start` every copy lies at the end of its range, the only point of
    # the range but for each value's first copy above the 1s
    front = [True] * (n + 1)
    pt = list(range(-1, n))
    stack = []
    for k in firsts[1:]:
        front[k] = False
        stack.append([k, None, 0])
    w, moves, count = start, {}, 0
    while stack:
        entry = stack[-1]
        k, pts, i = entry
        v = val[k]
        f = 0  # the front runs of the larger values
        while w[f] > v:
            f += 1
        r = last[k] - k
        p = pt[k]
        g = 0  # the later copies of v glued on, all of them at the end
        while g < r and front[k + 1 + g]:
            g += 1
        if pts is None:
            # the parent is the word of the levels below: drop the larger
            # values' runs and k's block, and the later copies of v at the end
            if front[k]:
                parent = w[f : f + p] + w[f + p + 1 + g : f + k + g]
                pts = oracle.member_points(parent, v, live)[::-1]
            else:
                parent = w[f : f + k - 1]
                pts = oracle.member_points(parent, v, live)
            if k == n:
                # the top level sweeps its copy with nothing above it; its
                # moves recur from sweep to sweep, so each is made once
                way = RIGHT if front[k] else LEFT
                key = (v,)
                for q in pts[1:]:
                    w = parent[:q] + key + parent[q:]
                    move = moves.get((p, q))
                    if move is None:
                        move = moves[p, q] = BumpMove(n, way, 1, abs(q - p), p + 1)
                    visit(w, move)
                    p = q
                count += len(pts) - 1
                pt[n], front[n] = p, way == LEFT
                stack.pop()
                continue
            entry[1] = pts
        q = pts[i + 1]
        a, b = f + p, f + p + g + 1  # the block is w[a:b]
        if q > p:
            e = b + q - p
            w = w[:a] + w[b:e] + w[a:b] + w[e:]
            move = BumpMove(k, RIGHT, g + 1, q - p, a + 1)
        else:
            e = a - (p - q)
            w = w[:e] + w[a:b] + w[e:a] + w[b:]
            move = BumpMove(k + g, LEFT, g + 1, p - q, b)
        pt[k] = q
        if i + 2 == len(pts):
            front[k] = q < p
            stack.pop()
        else:
            entry[2] = i + 1
        # the levels above, each at an end, start their sweeps from there
        if q == k - 1:
            if g < r:  # the copy left at the end now has one point
                front[k + g + 1] = True
        else:
            for c in range(1, g + 1):
                pt[k + c] = q + c
                stack.append([k + c, None, 0])
            if g < r:
                stack.append([k + g + 1, None, 0])
        for l in firsts[v:top]:
            # the front run of a larger value, and its first copy at the end
            stack.append([l, None, 0])
            while front[l] and l < last[l]:
                l += 1
                stack.append([l, None, 0])
        visit(w, move)
        count += 1
    return count


class GreedyWalk(NamedTuple):
    """A greedy run before it is walked, as a feed: calling it with a
    `visit` walks afresh, calls `visit(word, move)` for each visited word
    with the move into it (None for `start`) as the word is chosen, and
    returns the word count.  It walks by `_sweep` over the `live` patterns
    when `sweep` is set and by `_scan` with `member` otherwise.  `size` is
    the language's, so a walk of `size` words is complete."""

    shape: Shape
    patterns: frozenset[Word]
    start: Word
    member: Callable[[Word], bool]
    size: int
    live: frozenset[Word]
    sweep: bool

    def __call__(self, visit: Callable[[Word, Optional[BumpMove]], None]) -> int:
        visit(self.start, None)
        if self.sweep:
            return 1 + _sweep(self.shape, self.start, self.live, visit)
        return 1 + _scan(self.shape, self.start, self.member, visit)


def greedy_walk(
    shape: Shape,
    patterns=frozenset(),
    *,
    start: Word | None = None,
    cap: int | None = None,
) -> GreedyWalk:
    """Set up the greedy engine from `start` (default: nondecreasing word)
    over the language of words avoiding `patterns`.  Every refusal (a bad
    start, the cap) is raised here, before any word is walked."""
    word = start if start is not None else nondecreasing_word(shape)
    validate_word(shape, word)
    pats = normalize_patterns(patterns)
    # a pattern no word of the shape holds never matches: test only the rest
    live = oracle.live_patterns(shape, pats)
    if not avoids_all(word, live):
        raise InvalidStartError("start word is outside the language")

    oracle._check_cap(shape, cap)
    # the given set's closed form, else the live set's: {132, 121} has one
    # on 1^m, where its live {132} has none, and 12121 on 1^m only the latter
    size = oracle.formula_count(shape, pats)
    if size is None:
        size = oracle.formula_count(shape, live)
    if size is None:
        size = oracle.count_avoiding(shape, live, cap)
    # from the nondecreasing word a zig-zag language is swept on the tree
    sweep = word == nondecreasing_word(shape) and all(map(zigzag_pattern, live))
    return GreedyWalk(shape, pats, word, oracle.member_test(live), size, live, sweep)


def generate_greedy(
    shape: Shape,
    patterns=frozenset(),
    *,
    start: Word | None = None,
    cap: int | None = None,
) -> GrayCodeRun:
    """The greedy run from `start` (default: nondecreasing word) over the
    language of words avoiding `patterns`: `greedy_walk`, walked whole."""
    walk = greedy_walk(shape, patterns, start=start, cap=cap)
    return collect_run(shape, walk.patterns, walk, walk.size)


def collect_run(shape: Shape, patterns: frozenset[Word], feed, size: int) -> GrayCodeRun:
    """The run that a feed of words and moves gives, as `verify_feed` takes
    it: `feed(visit)` calls `visit(word, move)` for each word, with the move
    into it (None for the first word).  Complete when it has `size` words."""
    words, moves = [], []

    def keep(word, move) -> None:
        words.append(tuple(word))
        moves.append(move)

    feed(keep)
    complete = len(words) == size
    halted = EXHAUSTED if complete else NO_NEW_BUMP
    return GrayCodeRun(shape, patterns, tuple(words), tuple(moves[1:]), complete, halted)


def verify_gray_code(run: GrayCodeRun, cap: int | None = None) -> GrayCodeReport:
    """Check a run in one pass over its words and moves (`verify_feed`).
    Moves that do not number one fewer than the words are not classified."""
    words, moves = run.words, run.moves
    aligned = len(moves) == len(words) - 1
    recorded = (None,) + moves if aligned else itertools.repeat(None)
    _, report = verify_feed(
        run.shape,
        run.patterns,
        lambda visit: collections.deque(map(visit, words, recorded), maxlen=0),
        cap,
        bad_moves=None if aligned else ("length", len(moves), len(words)),
    )
    return report


def verify_feed(
    shape: Shape,
    patterns: frozenset[Word],
    feed: Callable[[Callable[[Word, Optional[BumpMove]], None]], None],
    cap: int | None = None,
    *,
    bad_moves=None,
    size: int | None = None,
) -> tuple[int, GrayCodeReport]:
    """Check a run given as a feed; return its word count and its report.

    `feed(visit)` calls `visit(word, move)` for each word in order, with
    the move recorded into it (ignored for the first word); the word may be
    a list that the feed reuses.  One pass checks, per word: membership
    (against the live patterns), distinctness (each word kept as its packed
    bytes), that the transition into it classifies as exactly the recorded
    bump, and how many positions that transition changes.  The first copy
    of a repeated word is found by running the feed again.  Exhaustiveness
    is decided by count: `size` when the caller already has the language's
    size, else the closed form, else the generating tree's; None over the
    cap.  `bad_moves` is a counterexample already found against the moves,
    which are then not classified.
    """
    counterexamples: dict = {} if bad_moves is None else {"moves_valid": bad_moves}
    member = oracle.member_test(oracle.live_patterns(shape, patterns))
    seen: set = set()
    k = -1
    prev = repeat = None
    all_member = transpositions_only = True
    moves_valid = bad_moves is None

    def visit(word, move) -> None:
        nonlocal k, prev, repeat, all_member, moves_valid, transpositions_only
        k += 1
        if all_member:
            try:
                validate_word(shape, word)
            except WordError:
                all_member = False
            else:
                all_member = member(word)
            if not all_member:
                counterexamples["all_member"] = (k, tuple(word))
        key = _key(word)
        distinct = len(seen)
        seen.add(key)
        if repeat is None and len(seen) == distinct:
            repeat = k, key, tuple(word)
        if k:
            if moves_valid:
                try:
                    got = classify_move(prev, key)
                except BumpError:  # a word outside the shape: no bump reaches it
                    got = None
                if got != move:
                    moves_valid = False
                    counterexamples["moves_valid"] = (k - 1, move, got)
            if transpositions_only:
                diff = sum(map(operator.ne, prev, key))
                if diff != 2:
                    transpositions_only = False
                    counterexamples["transpositions_only"] = (k - 1, diff)
        prev = key

    feed(visit)
    if repeat is not None:
        at, key, word = repeat
        same: list[bool] = []
        feed(lambda w, _: same.append(_key(w) == key))
        counterexamples["all_distinct"] = (same.index(True), at, word)

    exhaustive: Optional[bool]
    try:
        oracle._check_cap(shape, cap)
    except SizeLimitError:
        exhaustive = None
    else:
        if size is None:
            size = oracle.formula_count(shape, patterns)
        if size is None:
            size = oracle.count_avoiding(shape, patterns, cap)
        # members cover the language once as many distinct ones as its size
        # were visited
        exhaustive = all_member and len(seen) == size
        if not exhaustive:
            counterexamples["exhaustive"] = {"visited": len(seen), "language": size}

    return k + 1, GrayCodeReport(
        all_member=all_member,
        all_distinct=repeat is None,
        exhaustive=exhaustive,
        moves_valid=moves_valid,
        transpositions_only=transpositions_only,
        counterexamples=counterexamples,
    )


def _key(word) -> bytes | Word:
    """A word's distinctness key: its packed bytes, or the tuple when a
    digit lies outside 0..255."""
    try:
        return bytes(word)
    except (ValueError, TypeError):
        return tuple(word)


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
    """Rebuild a run from the form `run_to_payload` writes; a payload that
    is not an object, or a field that is missing or of the wrong type,
    raises ValueError naming it."""
    if not isinstance(payload, dict):
        raise ValueError(f"run payload is of type {type(payload).__name__}, not an object")
    try:
        shape = Shape(_digits(payload["shape"], "shape"))
        words = tuple(_digits(w, "words") for w in _list(payload["words"], "words"))
        moves = tuple(map(_payload_move, _list(payload["moves"], "moves")))
        complete = payload["complete"]
        if type(complete) is not bool:
            raise ValueError(f"run payload field 'complete' holds {complete!r}, not a bool")
        patterns = frozenset(_digits(p, "patterns") for p in _list(payload["patterns"], "patterns"))
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


def _payload_move(fields) -> BumpMove:
    if not isinstance(fields, dict):
        raise ValueError("run payload field 'moves' holds a move that is not an object")
    move = BumpMove.from_json(fields)
    if move.dir != RIGHT and move.dir != LEFT:
        raise ValueError(f"run payload move field 'dir' holds {move.dir!r}, not {RIGHT!r} or {LEFT!r}")
    for name in ("rank", "width", "distance", "anchor"):
        value = getattr(move, name)
        if type(value) is not int:
            raise ValueError(f"run payload move field {name!r} holds {value!r}, not an int")
    return move


def _list(value, name: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"run payload field {name!r} holds {type(value).__name__}, not a list")
    return value


def _digits(row, name: str) -> Word:
    if not all(type(d) is int for d in _list(row, name)):
        raise ValueError(f"run payload field {name!r} holds a digit that is not an int: {row}")
    return tuple(row)
