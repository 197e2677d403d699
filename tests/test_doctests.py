"""Run the examples in the package's docstrings and the README."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import swordgen

MODULES = ["swordgen"] + [
    f"swordgen.{info.name}" for info in pkgutil.iter_modules(swordgen.__path__)
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples():
    results = {name: doctest.testmod(importlib.import_module(name)) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # 22 examples predate this test; a lost module or docstring shows here
    assert sum(r.attempted for r in results.values()) >= 22


def test_readme_quick_start(capsys):
    # the quick start reaches the package only through its top-level names
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "112333"


def test_readme_states_the_src_line_count():
    # the count that `cat src/swordgen/*.py | wc -l` prints
    lines = sum(path.read_bytes().count(b"\n") for path in (README.parent / "src" / "swordgen").glob("*.py"))
    stated = re.search(r"`cat src/swordgen/\*\.py \| wc -l`\s+counts\s+([\d,]+)\s+lines", README.read_text())
    assert stated, "README no longer states the src/ line count"
    assert int(stated[1].replace(",", "")) == lines
