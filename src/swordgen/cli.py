"""
Command-line frontend.

Subcommands: generate, verify, count, trace, zigzag, trees, path.
Exit codes: 0 success; 1 a negative verdict (failed verification, zig-zag
counterexample, incomplete run under --expect-complete); 2 malformed
input; 3 enumeration size limit exceeded; 141 the reader closed stdout.

Words, shapes and patterns are read in their compact digit forms
("--shape 2,1,3", "--shape 2^8", "--avoid 212,132", "--start 112333").
JSON payloads carry "format": 1 and round-trip through the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import greedy, oracle, stirling, trees, zigzag
from .greedy import GrayCodeRun, run_to_payload
from .oracle import SizeLimitError
from .patterns import normalize_patterns
from .words import Shape, format_word, parse_shape, parse_word


def _parse_avoid(text: str | None):
    if text is None or not text.strip():
        return frozenset()
    return normalize_patterns(p for p in text.split(",") if p.strip())


def _cap(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload))


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
        # a loopless run is always complete, and streams as it goes
        (stirling.write_json if args.format == "json" else stirling.write_text)(shape)
        return 0
    run = _build_run(args, shape, pats, engine)
    if args.format == "json":
        _print_json(run_to_payload(run, engine))
    elif args.format == "dot":
        print(trees.export_dot(run), end="")
    else:
        add, flush = stirling.chunked_writer(format_word, stirling.text_lines)
        for w in run.words:
            add(w)
        flush()
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
    if not report.ok or (args.expect_complete and not run.complete):
        return 1
    return 0


def _cmd_count(args) -> int:
    shape = parse_shape(args.shape)
    pats = _parse_avoid(args.avoid)
    if args.method == "oracle":
        count = oracle.count_avoiding(shape, pats, args.cap)
    elif (count := oracle.formula_count(shape, pats)) is None:
        raise ValueError(f"no closed formula for patterns {sorted(pats)} on this shape")
    # int-to-str refuses counts longer than this (0: unlimited, or before 3.11)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and count >= 10**digits:
        raise SizeLimitError(f"the count has more than {digits} digits, the most an int prints")
    print(count)
    return 0


def _trace_cell(name: str, value) -> str:
    if value is None:
        return "-"
    if name == "perm":
        return format_word(value)
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
        _print_json(
            {
                "format": 1,
                "shape": list(shape.multiplicities),
                "rows": [{name: getattr(r, name) for name in names} for r in rows],
            }
        )
        return 0
    table = [names]
    for r in rows:
        table.append([_trace_cell(name, getattr(r, name)) for name in names])
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _cmd_zigzag(args) -> int:
    pats = _parse_avoid(args.avoid)
    if args.mode in ("semantic", "both"):
        if args.shape is None:
            raise ValueError(f"--mode {args.mode} needs --shape")
        shape = parse_shape(args.shape)
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
    if args.kind == "stirling":
        words = stirling.stirling_sequence(shape)
        forest = [trees.stirling_word_to_tree(w) for w in words]
    else:
        if len(set(shape.multiplicities)) != 1:
            raise ValueError("--kind kary needs a shape with equal multiplicities")
        k = shape.multiplicities[0] + 1
        run = greedy.generate_greedy(shape, oracle.KCATALAN_PATTERNS, cap=args.cap)
        words = list(run.words)
        forest = [trees.kcatalan_word_to_tree(w, k) for w in words]
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
        _print_json(payload)
    elif args.format == "dot":
        print(trees.export_dot(forest), end="")
    else:
        for t in forest:
            print(t)
    return 0


def _cmd_path(args) -> int:
    shape = parse_shape(args.shape)
    vectors = trees.hamilton_path(shape)
    if args.format == "json":
        _print_json(
            {
                "format": 1,
                "shape": list(shape.multiplicities),
                "vectors": [list(v) for v in vectors],
            }
        )
    elif args.format == "dot":
        print(trees.export_dot(vectors), end="")
    else:
        for v in vectors:
            print(",".join(str(x) for x in v))
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
    p.add_argument("--expect-complete", action="store_true")

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
