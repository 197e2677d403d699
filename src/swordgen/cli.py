"""
Command-line frontend.

Subcommands: generate, verify, count, trace, zigzag, trees, path.
Exit codes: 0 success; 1 a negative verdict (failed verification, zig-zag
counterexample, incomplete run under generate --expect-complete); 2
malformed input; 3 enumeration size limit exceeded; 141 the reader closed
stdout.

Words, shapes and patterns are read in their compact digit forms
("--shape 2,1,3", "--shape 2^8", "--avoid 212,132", "--start 112333").
JSON payloads carry "format": 1 and round-trip through the library.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import os
import sys

from . import greedy, oracle, stirling, trees, zigzag
from .bumps import RIGHT
from .greedy import NO_NEW_BUMP, GrayCodeRun, run_to_payload
from .oracle import SizeLimitError
from .patterns import normalize_patterns
from .words import Shape, format_word, nondecreasing_word, parse_shape, parse_word

# items per write: the first write comes after one chunk, and no more than
# one chunk of output is held at a time
CHUNK = 4096
# a word of digits 1..9 is its bytes, translated to ASCII a chunk at a time
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# each number 0..255 as the width of its digits
_WIDTHS = bytes.maketrans(bytes(range(256)), bytes(len(str(d)) for d in range(256)))


def _parse_avoid(text: str | None):
    if text is None or not text.strip():
        return frozenset()
    return normalize_patterns(p for p in text.split(",") if p.strip())


def _cap(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


# --- output -----------------------------------------------------------------
# A feed hands items to the visitor it is given: the loopless engine's feeds
# push from the loop as it runs, and a greedy walk as it chooses each word.


def _chunks(feed, convert, take):
    """Run `feed` with a visitor that keeps `convert(item)` of each item and
    hands every CHUNK kept items, and the rest at the end, to `take`.
    Returns what `feed` returns."""
    kept: list = []

    def add(item) -> None:
        kept.append(convert(item))
        if len(kept) == CHUNK:
            take(kept)
            kept.clear()

    result = feed(add)
    if kept:
        take(kept)
    return result


def _write_chunks(feed, convert, render, sep: str = ""):
    """`_chunks`, each chunk going to `sys.stdout` in one write as
    `render(kept)`, writes after the first led by `sep`.  `sys.stdout` is
    looked up at each write.  Returns what `feed` returns."""
    lead = ""

    def write(kept) -> None:
        nonlocal lead
        sys.stdout.write(lead + render(kept))
        lead = sep

    return _chunks(feed, convert, write)


def _lines(kept: list[str]) -> str:
    return "\n".join(kept) + "\n"


def _digit_lines(kept: list[bytes]) -> str:
    return (b"\n".join(kept) + b"\n").translate(_DIGITS).decode()


def _digit_lists(kept: list[bytes]) -> str:
    # every digit joined by ", ", and each line break, joined so too,
    # turned into the end of one JSON list and the start of the next
    text = ", ".join(b"\n".join(kept).translate(_DIGITS).decode())
    return "[" + text.replace(", \n, ", "], [") + "]"


def _json_items(kept: list) -> str:
    # a list's JSON without its brackets: the items joined by ", "
    return json.dumps(kept)[1:-1]


def _move_json(move) -> str:
    return json.dumps(move.to_json())


def _write_json(payload: dict, **lists) -> None:
    """`json.dumps(payload)` and a newline, where each keyword names a list
    that `payload` holds empty and gives the (feed, convert, render) with
    which `_write_chunks` writes its items.  The payload is dumped again
    after each list, so a feed may set a field that comes after its list."""
    done = 0  # where the payload's JSON that is not yet out starts
    for key, (feed, convert, render) in lists.items():
        text = json.dumps(payload)
        at = text.index(f'"{key}": []', done) + len(key) + 5  # the list's "]"
        sys.stdout.write(text[done:at])
        _write_chunks(feed, convert, render, ", ")
        done = at
    sys.stdout.write(json.dumps(payload)[done:] + "\n")


def _write_dot(name: str, *lists) -> int:
    """The DOT graph `name`: its head, then for each (feed, piece) the
    `piece(idx, item)` of every item of `feed`, numbered from 0 (see
    `trees.export_dot`), and its tail.  Returns what the first feed returns."""
    sys.stdout.write(trees.dot_head(name))
    counts = []
    for feed, piece in lists:
        ids = itertools.count()
        counts.append(_write_chunks(feed, lambda item: piece(next(ids), item), "".join))
    sys.stdout.write(trees.DOT_TAIL)
    return counts[0]


# --- subcommands ------------------------------------------------------------


def _setup(args):
    """The shape, patterns and language size of the run that `generate`
    writes and `verify` checks, and its greedy walk (None for the loopless
    engine, the default for {212}, which refuses other pattern sets; only
    the greedy engine takes --start).  Every refusal comes here, before any
    output."""
    shape = parse_shape(args.shape)
    pats = _parse_avoid(args.avoid)
    is_212 = pats == oracle.STIRLING_PATTERNS
    engine = args.engine or ("loopless" if is_212 else "greedy")
    if engine == "loopless" and args.avoid is not None and not is_212:
        raise ValueError("the loopless engine only generates the 212-avoiding language")
    if args.start is not None and engine != "greedy":
        raise ValueError("only the greedy engine honors --start")
    if engine == "loopless":
        stirling._check_output(shape)
        return shape, oracle.STIRLING_PATTERNS, oracle.stirling_count(shape), None
    start = parse_word(args.start) if args.start is not None else None
    walk = greedy.greedy_walk(shape, pats, start=start, cap=args.cap)
    return shape, walk.patterns, walk.size, walk


def _cmd_generate(args) -> int:
    shape, pats, size, walk = _setup(args)
    make = _move_json if args.format == "json" else trees.move_label
    if walk is None:
        # the loop runs once for the words and, in JSON and DOT, once for the moves
        words = functools.partial(stirling.generate_loopless, shape)
        moves = lambda add: stirling.loopless_steps(shape, make, lambda _, move: move and add(move))
    elif args.format == "text":
        words = lambda visit: walk(lambda word, _: visit(word))
    else:
        # the walk runs once; JSON and DOT keep each move's text, made once
        # per distinct move, until the words are out
        made, kept = functools.cache(make), []

        def words(visit) -> int:
            def step(word, move) -> None:
                visit(word)
                if move is not None:
                    kept.append(made(move))

            return walk(step)

        moves = lambda add: collections.deque(map(add, kept), maxlen=0)
    if args.format == "json":
        engine = "loopless" if walk is None else "greedy"
        payload = run_to_payload(GrayCodeRun(shape, pats, (), (), False, NO_NEW_BUMP), engine)
        if shape.m <= 9:
            items = bytes, _digit_lists
        else:  # a list of ints prints as JSON
            items = lambda word: str(list(word)), ", ".join

        def listed(visit) -> None:  # the words, then "complete" once they are out
            payload["complete"] = words(visit) == size

        _write_json(payload, words=(listed, *items), moves=(moves, str, ", ".join))
        complete = payload["complete"]
    elif args.format == "dot":
        complete = _write_dot("run", (words, trees.dot_word), (moves, trees.dot_edge)) == size
    elif shape.m <= 9:  # one `format_word` line per word
        complete = _write_chunks(words, bytes, _digit_lines) == size
    else:
        complete = _write_chunks(words, format_word, _lines) == size
    if args.expect_complete and not complete:
        print("run is incomplete", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    shape, pats, size, walk = _setup(args)
    feed = walk or functools.partial(stirling.loopless_steps, shape, lambda move: move)
    count, report = greedy.verify_feed(shape, pats, feed, args.cap, size=size)
    print(f"words: {count}")
    print(f"complete: {count == size}")
    for name in ("all_member", "all_distinct", "exhaustive", "moves_valid", "transpositions_only"):
        print(f"{name}: {getattr(report, name)}")
    print(f"ok: {report.ok}")
    for key, value in sorted(report.counterexamples.items()):
        print(f"counterexample[{key}]: {value}")
    return 0 if report.ok else 1


def _cmd_count(args) -> int:
    shape = parse_shape(args.shape, letters=args.method == "oracle")  # a formula builds no word
    pats = _parse_avoid(args.avoid)
    if args.method == "oracle":
        count = oracle.count_avoiding(shape, pats, args.cap)
    elif (count := oracle.formula_count(shape, pats)) is None:
        raise ValueError(f"no closed formula for patterns {sorted(pats)} on this shape")
    print(count)
    return 0


def _word_cells(words) -> list[str]:
    # `format_word` of each word, one of digits 0..9 translated from its bytes
    return [
        bytes(w).translate(_DIGITS).decode() if max(w) <= 9 else ",".join(map(str, w))
        for w in words
    ]


def _widest(words) -> int:
    """The width of the widest `format_word` of `words`, all of one length,
    from their values: the length while every digit is below 10, else each
    number's width (`_WIDTHS`) plus the commas."""
    top, size = max(map(max, words)), len(words[0])
    if top <= 9:
        return size
    if top > 255:  # too large for a byte
        return max(map(len, _word_cells(words)))
    widths = map(bytes.translate, map(bytes, words), itertools.repeat(_WIDTHS))
    return max(map(sum, widths)) + size - 1


def _cmd_trace(args) -> int:
    shape = parse_shape(args.shape)
    stirling._check_output(shape)  # before any output
    rows = functools.partial(stirling.trace_rows, shape)
    names = stirling.TraceRow._fields
    if args.format == "json":  # tuples serialise as JSON arrays
        payload = {"format": 1, "shape": list(shape.multiplicities), "rows": []}
        _write_json(payload, rows=(rows, lambda row: dict(zip(names, row)), _json_items))
        return 0

    # the loop runs twice, a chunk of rows at a time, column by column: once
    # for the widths, taken from the values, then for the lines, each cell
    # built once.  The perm and dirs cells all have one width, and a missing
    # move's "-" is as wide as a 0
    numbers, words = [0] * 4, [0] * 3  # each column's largest number, widest word

    def widen(kept) -> None:
        _, *numeric, left, inv, fs, _ = zip(*kept)
        numbers[:] = map(max, numbers, (max(filter(None, col), default=0) for col in numeric))
        words[:] = map(max, words, map(_widest, (left, inv, fs)))

    _chunks(rows, tuple, widen)
    sizes = (_widest([nondecreasing_word(shape)]), *map(len, map(str, numbers)), *words, shape.m)
    widths = list(map(max, map(len, names), sizes))
    signs = functools.cache(lambda dirs: "".join("+" if d > 0 else "-" for d in dirs))

    def table(kept) -> str:
        perm, *numeric, left, inv, fs, dirs = zip(*kept)
        numeric = (["-" if x is None else str(x) for x in col] for col in numeric)
        cells = (_word_cells(perm), *numeric, *map(_word_cells, (left, inv, fs)), map(signs, dirs))
        padded = map(map, itertools.repeat(str.ljust), cells, map(itertools.repeat, widths))
        return "\n".join(map(str.rstrip, map("  ".join, zip(*padded)))) + "\n"

    sys.stdout.write("  ".join(map(str.ljust, names, widths)).rstrip() + "\n")
    _write_chunks(rows, tuple, table)
    return 0


def _cmd_zigzag(args) -> int:
    pats = _parse_avoid(args.avoid)
    if args.shape is not None:
        shape = parse_shape(args.shape)
    elif args.mode != "syntactic":
        raise ValueError(f"--mode {args.mode} needs --shape")
    negative = False
    semantic = None
    if args.mode in ("semantic", "both"):
        # decided before any verdict is printed, so that a refusal over the
        # cap prints nothing
        semantic = zigzag.semantic_zigzag(shape, pats, args.cap)
    if args.mode in ("syntactic", "both"):
        verdict = zigzag.syntactic_zigzag(pats)
        print(f"syntactic: {verdict}")
        negative = negative or not verdict
    if semantic is not None:
        ok, witness = semantic
        print(f"semantic: {ok}")
        if witness is not None:
            w, i, direction, result = witness
            print(
                f"counterexample: word={format_word(w)} index={i} "
                f"dir={direction} result={format_word(result)}"
            )
        negative = negative or not ok
    return 1 if negative else 0


def _cmd_trees(args) -> int:
    shape = parse_shape(args.shape)
    # the trees are made as they are written, from the loop's words or, for
    # `kary`, the greedy walk's; JSON runs the loop or walk once per list
    if args.kind == "stirling":
        stirling._check_output(shape)  # before any output
        words = functools.partial(stirling.generate_loopless, shape)
        tree = trees.stirling_word_to_tree
    else:
        if len(set(shape.multiplicities)) != 1:
            raise ValueError("--kind kary needs a shape with equal multiplicities")
        k = shape.multiplicities[0] + 1
        walk = greedy.greedy_walk(shape, oracle.KCATALAN_PATTERNS, cap=args.cap)
        words = lambda visit: walk(lambda word, _: visit(word))
        tree = lambda word: trees.kcatalan_word_to_tree(word, k)
    text = lambda word: str(tree(word))
    if args.format == "json":
        payload = {"format": 1, "shape": list(shape.multiplicities), "kind": args.kind}
        payload.update(words=[], trees=[])
        if args.kind == "kary":
            payload["k"] = k
        _write_json(payload, words=(words, list, _json_items), trees=(words, text, _json_items))
    elif args.format == "dot":
        _write_dot("trees", (words, lambda idx, word: trees.dot_tree(idx, tree(word))))
    else:
        _write_chunks(words, text, _lines)
    return 0


def _cmd_path(args) -> int:
    shape = parse_shape(args.shape)
    stirling._check_output(shape)  # before any output
    vectors = functools.partial(stirling.inversion_vectors, shape)
    if args.format == "json":
        payload = {"format": 1, "shape": list(shape.multiplicities), "vectors": []}
        _write_json(payload, vectors=(vectors, list, _json_items))
    elif args.format == "dot":
        # the loop runs once for the vectors and once for its moves, each
        # edge labelled from its move, made once per distinct move
        values = nondecreasing_word(shape)  # the value at each rank

        def label(move) -> str:  # the run of v moving right lowers inv[v] by one
            return trees.coordinate_label(values[move.rank - 1], -1 if move.dir == RIGHT else 1)

        edges = lambda add: stirling.loopless_steps(shape, label, lambda _, made: made and add(made))
        _write_dot("path", (vectors, trees.dot_vector), (edges, trees.dot_edge))
    else:
        _write_chunks(vectors, lambda v: ",".join(map(str, v)), _lines)
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors start with "error: ", as every other error does."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swordgen",
        description="Gray codes for pattern-avoiding words with repeated letters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, cap=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--shape", required=name != "zigzag", help="multiplicities, e.g. 2,1,3 or 2^8")
        if cap:
            p.add_argument("--cap", type=_cap, default=None, help="enumeration size limit")
        return p

    p = add("generate", _cmd_generate, "emit a word sequence")
    p.add_argument("--avoid", default=None, help="comma-separated patterns, e.g. 212,132")
    p.add_argument("--engine", choices=("greedy", "loopless"), default=None)
    p.add_argument("--start", default=None, help="start word for the greedy engine")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--expect-complete", action="store_true")

    p = add("verify", _cmd_verify, "generate and check the Gray-code report")
    p.add_argument("--avoid", default=None)
    p.add_argument("--engine", choices=("greedy", "loopless"), default=None)
    p.add_argument("--start", default=None)

    p = add("count", _cmd_count, "count the language")
    p.add_argument("--avoid", default=None)
    p.add_argument("--method", choices=("oracle", "formula"), default="oracle")

    p = add("trace", _cmd_trace, "per-visit variable table of the loopless engine", cap=False)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("zigzag", _cmd_zigzag, "test the zig-zag property")
    p.add_argument("--avoid", default=None)
    p.add_argument("--mode", choices=("semantic", "syntactic", "both"), default="both")

    p = add("trees", _cmd_trees, "emit the tree forms of a Gray code")
    p.add_argument("--kind", choices=("stirling", "kary"), default="stirling")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = add("path", _cmd_path, "inversion-vector path through the box", cap=False)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    return parser


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = parse_and_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`swordgen generate ... | head`): stop without a
        # traceback, and point stdout at devnull so that the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process that signal ended
    sys.exit(code)


if __name__ == "__main__":
    main()
