"""
Golden digests of the command-line bytes.

A family is one subcommand in one format, run over every shape with
n <= 5 (and, for `generate`, `verify`, `count` and `zigzag`, over a list
of pattern sets; for `generate` and `verify` also over both engines of
212, and for `count` over both methods).  `count`, `verify` and `zigzag`
print one form only and take no `--format`.  A family's digest is the
sha256 of every call's argv, exit code, stdout and stderr, in order, so a
change to how any of these calls prints shows as a failure naming the
family.  After a deliberate change of output, print the new digests with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import hashlib
import io

import pytest

from swordgen import oracle
from swordgen.cli import parse_and_dispatch
from swordgen.oracle import all_shapes
from swordgen.words import format_shape

PATTERN_SETS = ("", "212", "231", "12121", "132,121", "132,231,121", "312")

DIGESTS = {
    "generate text": "9db7d028ede860ad210ef1012096434d729e8ad26ade5c5c6e0da309ef49bf54",
    "generate json": "24dc2bd6d8e4011070c0e9dddd34b289c54d399aa5bd614a666dca1df9a172c2",
    "generate dot": "f90658d1099aee3ac45f9214e74b2d52112eb9b52dbeace0d7059d6ad2b3faf5",
    "trees text": "0ceeadf932de129eba4c70316c5eb87f07fa1187653d7d14458fb13443a7ce07",
    "trees json": "b2db54e1d1f3b14289dd0228b5d2a0f54877ac275d47882a40c0c7b75c423dc0",
    "trees dot": "8267397024c6b5994b2068105fbaa6f3eb952b333362b4ecb8729e0a174f4829",
    "trees --kind kary text": "51128aa1cc3917585e9f76d2d611fafd47a2466d71cfbae608250d483c24ee5c",
    "trees --kind kary json": "959a6a05ae6b79c84ccfb246f4deaf10747b03711f2f46a199c537e0b65919ad",
    "trees --kind kary dot": "2624890685d3823ddfcbfa49b7a211155544e0b05140ee242b8fd0338a397cce",
    "path text": "f675019421c1b6ce2a86d9b0c0c64e1f1ed20aecf5438a1ecea428d5988bb8a1",
    "path json": "a6bbf416b22cc579fb631c449ffeaa0f4c32dc29ca2a81a3a3aa71ce880eaa6f",
    "path dot": "be7c42adf1436b9cafad0232b2e5089665ebfef761a030264958603ce8cdef34",
    "trace text": "25595b40be80f626af5111fbeb990a5d1687be5f42719aab30ada09d6b80ad07",
    "trace json": "d2c989c30a2d1e4949efee938321dcbfb63b9124b8aa44e2f1af590fcaf01598",
    "count": "e35ff2f1d0ad0dd207e423615a5fa38429c8e664e68c4583f3e8f3dba662108e",
    "verify": "c534e08cd8aa19aef2146f73f239210970a15fd4496b056fa75370cde71bdc7d",
    "zigzag --mode both": "7b1ab7286ca0bf9943cd2627fbd0dd116f8dea6311bc487e5dcada3be7ca1866",
}

# the subcommands that print one form only
UNFORMATTED = ("count", "verify", "zigzag")


def family_calls(family: str):
    """The argv lists of a family, in order."""
    command, *options = family.split()
    if command not in UNFORMATTED:
        options[-1:] = ["--format", options[-1]]
    methods = (["--method", "oracle"], ["--method", "formula"]) if command == "count" else ([],)
    for n in range(1, 6):
        for shape in all_shapes(n):
            base = [command, "--shape", format_shape(shape), *options]
            if command in ("trees", "path", "trace"):
                yield base
                continue
            for avoid in PATTERN_SETS:
                for method in methods:
                    yield base + (["--avoid", avoid] if avoid else []) + method
            if command in ("generate", "verify"):
                yield base + ["--avoid", "212", "--engine", "greedy"]


def family_digest(family: str) -> str:
    digest = hashlib.sha256()
    for argv in family_calls(family):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parse_and_dispatch(argv)
        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("family", DIGESTS)
def test_family_bytes_are_unchanged(family, monkeypatch):
    # no command lists the words of a shape by brute force
    def refuse(*args, **kwargs):
        raise AssertionError("a command listed every word of the shape")

    for name in ("language", "all_swords"):
        monkeypatch.setattr(oracle, name, refuse)
    assert family_digest(family) == DIGESTS[family], f"the output of `{family}` changed"


if __name__ == "__main__":
    for family in DIGESTS:
        print(f'    "{family}": "{family_digest(family)}",')
