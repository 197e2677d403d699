"""
A fuzzer of the command line: argv drawn from a grammar of subcommands,
shapes, pattern sets and options, valid and malformed, through
`parse_and_dispatch`.

Every call must return 0, 1, 2 or 3 and never raise; exit 2 (malformed
input) and exit 3 (over the cap) must print nothing to stdout and a
message starting with "error: " to stderr, and exit 3 must come in under
a second.  A `count` that exits 0 on at most seven letters must print the
size of the language that the literal filter `oracle.language` lists.
The default cap is lowered to 3,000 words so that every call that does
its work stays small.  Tier-1 runs a fixed budget; a larger, random one
runs with SWORDGEN_FUZZ_EXAMPLES=N.
"""

import contextlib
import io
import os
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from swordgen.cli import parse_and_dispatch
from swordgen.oracle import language
from swordgen.words import parse_shape

from test_cli_golden import PATTERN_SETS

EXAMPLES = int(os.environ.get("SWORDGEN_FUZZ_EXAMPLES") or 0)

# more letters than the default cap: refused while the shape is parsed
HUGE_SHAPES = ("99999999999999999999", "1,99999999999999999999")
BAD_SHAPES = ("", " ", "x", "1,,2", "0", "-1", "1,0", "2^0", "1^-3", "2^", "^2", "2^x", "2^3^4", "1.5")
BAD_PATTERNS = ("2x2", "0", ",", "1,,2", "99999999999999999999")


@st.composite
def shapes(draw):
    if not draw(st.integers(0, 3)):  # one in four is huge or malformed
        return draw(st.sampled_from(HUGE_SHAPES + BAD_SHAPES))
    return draw(st.sampled_from(("{}", "1,{}", "1^{}", "2^{}"))).format(draw(st.integers(1, 6)))


VALUES = {
    "--avoid": st.sampled_from(PATTERN_SETS + BAD_PATTERNS),
    "--cap": st.sampled_from(("0", "5", "1000", "-1", "x", "99999999999999999999")),
    "--start": st.text("01239,x", max_size=8),
    "--format": st.sampled_from(("text", "json", "dot", "xml")),
    "--engine": st.sampled_from(("greedy", "loopless")),
    "--kind": st.sampled_from(("stirling", "kary")),
    "--mode": st.sampled_from(("semantic", "syntactic", "both")),
    "--method": st.sampled_from(("oracle", "formula")),
    "--expect-complete": st.just(None),
}
# the flags each subcommand takes besides --shape
FLAGS = {
    "generate": ("--avoid", "--cap", "--engine", "--start", "--format", "--expect-complete"),
    "verify": ("--avoid", "--cap", "--engine", "--start"),
    "count": ("--avoid", "--cap", "--method"),
    "trace": ("--format",),
    "zigzag": ("--avoid", "--cap", "--mode"),
    "trees": ("--cap", "--kind", "--format"),
    "path": ("--format",),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if draw(st.integers(0, 9)):  # --shape is left out now and then
        argv += ["--shape", draw(shapes())]
    flags = [flag for flag in FLAGS[command] if draw(st.booleans())]
    if not draw(st.integers(0, 9)):  # now and then a flag it does not take
        flags.append(draw(st.sampled_from(sorted(VALUES))))
    for flag in flags:
        value = draw(VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - begin


@settings(max_examples=EXAMPLES or 400, derandomize=not EXAMPLES, deadline=None, database=None)
@given(argvs())
def test_every_call_exits_with_a_code_and_a_message(argv):
    with mock.patch.dict(os.environ, {"SWORDGEN_CAP": "3000"}):
        code, out, err, seconds = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert out == "", (argv, code)
        assert err.startswith("error: "), (argv, code, err)
    if code == 3:
        assert seconds < 1.0, (argv, seconds)
    if code == 0 and argv[0] == "count":
        # every flag of a call that exits 0 carries a value; the last one counts
        options = dict(zip(argv[1::2], argv[2::2]))
        shape = parse_shape(options["--shape"], letters=False)  # a formula may count huge ones
        if shape.n <= 7:
            pats = [p for p in options.get("--avoid", "").split(",") if p.strip()]
            assert out == f"{len(language(shape, pats))}\n", (argv, out)
