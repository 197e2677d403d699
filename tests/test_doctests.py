"""Run the examples in the package's docstrings."""

import doctest
import importlib
import pkgutil

import swordgen

MODULES = ["swordgen"] + [
    f"swordgen.{info.name}" for info in pkgutil.iter_modules(swordgen.__path__)
]


def test_docstring_examples():
    results = {name: doctest.testmod(importlib.import_module(name)) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # 22 examples predate this test; a lost module or docstring shows here
    assert sum(r.attempted for r in results.values()) >= 22
