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
import dataclasses
import functools
import json
import os
import sys

from . import greedy, oracle, stirling, trees, zigzag
from .greedy import EXHAUSTED, GrayCodeRun, run_to_payload
from .oracle import SizeLimitError
from .patterns import normalize_patterns
from .words import Shape, format_word, parse_shape, parse_word

# items per write: the first write comes after one chunk, and no more than
# one chunk of output is held at a time
CHUNK = 4096
# a word of digits 1..9 is its bytes, translated to ASCII a chunk at a time
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# where the word and move lists sit in the payload of a run without them
_LISTS = '"words": [], "moves": []'


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
# push from the loop as it runs.


def _each(items):
    """The feed of a finished sequence."""
    return lambda visit: collections.deque(map(visit, items), maxlen=0)


def _write_chunks(feed, convert, render, sep: str = "") -> None:
    """Run `feed` with a visitor that keeps `convert(item)` of each item;
    every CHUNK kept items, and the rest at the end, go to `sys.stdout` in
    one write as `render(kept)`, writes after the first led by `sep`.
    `sys.stdout` is looked up at each write."""
    kept: list = []
    lead = ""

    def flush() -> None:
        nonlocal lead
        if kept:
            sys.stdout.write(lead + render(kept))
            lead = sep
            kept.clear()

    def add(item) -> None:
        kept.append(convert(item))
        if len(kept) == CHUNK:
            flush()

    feed(add)
    flush()


def _lines(kept: list[str]) -> str:
    return "\n".join(kept) + "\n"


def _digit_lines(kept: list[bytes]) -> str:
    return (b"\n".join(kept) + b"\n").translate(_DIGITS).decode()


def _move_json(move) -> str:
    return json.dumps(move.to_json())


def _write_run_json(run: GrayCodeRun, engine: str, words, moves) -> None:
    """`json.dumps(run_to_payload(run, engine))` and a newline, with the
    words (lists of ints) and the moves (their `_move_json`) taken from
    their feeds instead of from `run`."""
    empty = dataclasses.replace(run, words=(), moves=())
    head, tail = json.dumps(run_to_payload(empty, engine)).split(_LISTS)
    sys.stdout.write(head + '"words": [')
    _write_chunks(words, str, ", ".join, ", ")  # a list of ints prints as JSON
    sys.stdout.write('], "moves": [')
    _write_chunks(moves, str, ", ".join, ", ")
    sys.stdout.write("]" + tail + "\n")


# --- subcommands ------------------------------------------------------------


def _choose_engine(args) -> tuple[Shape, frozenset, str]:
    """The shape, patterns and engine of a `generate` or `verify` call:
    loopless by default for {212}, greedy otherwise.  The loopless engine
    refuses other pattern sets; only the greedy engine takes --start."""
    shape = parse_shape(args.shape)
    pats = _parse_avoid(args.avoid)
    is_212 = pats == oracle.STIRLING_PATTERNS
    engine = args.engine or ("loopless" if is_212 else "greedy")
    if engine == "loopless" and args.avoid is not None and not is_212:
        raise ValueError("the loopless engine only generates the 212-avoiding language")
    if args.start is not None and engine != "greedy":
        raise ValueError("only the greedy engine honors --start")
    return shape, pats, engine


def _build_run(args, shape, pats, engine: str) -> GrayCodeRun:
    """The run that `generate` prints and `verify` checks."""
    if engine == "loopless":
        return stirling.loopless_run(shape)
    start = parse_word(args.start) if args.start is not None else None
    return greedy.generate_greedy(shape, pats, start=start, cap=args.cap)


def _cmd_generate(args) -> int:
    shape, pats, engine = _choose_engine(args)
    if engine == "loopless" and args.format != "dot":
        # a loopless run is always complete; its words and moves come from
        # the loop as it runs
        stirling._check_output(shape)
        run = GrayCodeRun(shape, oracle.STIRLING_PATTERNS, (), (), True, EXHAUSTED)
        words = functools.partial(stirling.generate_loopless, shape)
        moves = functools.partial(stirling.loopless_moves, shape, _move_json)
    else:
        run = _build_run(args, shape, pats, engine)
        # words as lists, as the loop gives them
        words, moves = _each(map(list, run.words)), _each(map(_move_json, run.moves))
    if args.format == "json":
        _write_run_json(run, engine, words, moves)
    elif args.format == "dot":
        print(trees.export_dot(run), end="")
    elif shape.m <= 9:  # one `format_word` line per word
        _write_chunks(words, bytes, _digit_lines)
    else:
        _write_chunks(words, format_word, _lines)
    if args.expect_complete and not run.complete:
        print("run is incomplete", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    run = _build_run(args, *_choose_engine(args))
    report = greedy.verify_gray_code(run, args.cap)
    print(f"words: {len(run.words)}")
    print(f"complete: {run.complete}")
    for name in ("all_member", "all_distinct", "exhaustive", "moves_valid", "transpositions_only"):
        print(f"{name}: {getattr(report, name)}")
    print(f"ok: {report.ok}")
    for key, value in sorted(report.counterexamples.items()):
        print(f"counterexample[{key}]: {value}")
    return 0 if report.ok else 1


def _cmd_count(args) -> int:
    shape = parse_shape(args.shape)
    pats = _parse_avoid(args.avoid)
    if args.method == "oracle":
        count = oracle.count_avoiding(shape, pats, args.cap)
    elif (count := oracle.formula_count(shape, pats)) is None:
        raise ValueError(f"no closed formula for patterns {sorted(pats)} on this shape")
    print(count)
    return 0


def _trace_cell(name: str, value) -> str:
    if value is None:
        return "-"
    if name == "dirs":
        return "".join("+" if d > 0 else "-" for d in value)
    if isinstance(value, tuple):
        return format_word(value)
    return str(value)


def _cmd_trace(args) -> int:
    shape = parse_shape(args.shape)
    rows = stirling.trace(shape)
    names = [f.name for f in dataclasses.fields(stirling.TraceRow)]
    if args.format == "json":
        # tuples serialise as JSON arrays
        table = [{name: getattr(r, name) for name in names} for r in rows]
        print(json.dumps({"format": 1, "shape": list(shape.multiplicities), "rows": table}))
        return 0
    table = [names] + [[_trace_cell(name, getattr(r, name)) for name in names] for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _cmd_zigzag(args) -> int:
    pats = _parse_avoid(args.avoid)
    if args.shape is not None:
        shape = parse_shape(args.shape)
    elif args.mode != "syntactic":
        raise ValueError(f"--mode {args.mode} needs --shape")
    negative = False
    if args.mode in ("syntactic", "both"):
        verdict = zigzag.syntactic_zigzag(pats)
        print(f"syntactic: {verdict}")
        negative = negative or not verdict
    if args.mode in ("semantic", "both"):
        ok, witness = zigzag.semantic_zigzag(shape, pats, args.cap)
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
    # the trees are made as they are written: the text form never holds them all
    if args.kind == "stirling":
        words = stirling.stirling_sequence(shape)
        forest = map(trees.stirling_word_to_tree, words)
    else:
        if len(set(shape.multiplicities)) != 1:
            raise ValueError("--kind kary needs a shape with equal multiplicities")
        k = shape.multiplicities[0] + 1
        words = greedy.generate_greedy(shape, oracle.KCATALAN_PATTERNS, cap=args.cap).words
        forest = (trees.kcatalan_word_to_tree(w, k) for w in words)
    if args.format == "json":
        payload = {
            "format": 1,
            "shape": list(shape.multiplicities),
            "kind": args.kind,
            "words": [list(w) for w in words],
            "trees": [str(t) for t in forest],
        }
        if args.kind == "kary":
            payload["k"] = k
        print(json.dumps(payload))
    elif args.format == "dot":
        print(trees.export_dot(list(forest)), end="")
    else:
        _write_chunks(_each(forest), str, _lines)
    return 0


def _cmd_path(args) -> int:
    shape = parse_shape(args.shape)
    vectors = trees.hamilton_path(shape)
    if args.format == "json":
        table = [list(v) for v in vectors]
        print(json.dumps({"format": 1, "shape": list(shape.multiplicities), "vectors": table}))
    elif args.format == "dot":
        print(trees.export_dot(vectors), end="")
    else:
        _write_chunks(_each(vectors), lambda v: ",".join(map(str, v)), _lines)
    return 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
