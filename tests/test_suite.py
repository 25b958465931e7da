"""The test suite itself: no module shadows one of its own definitions."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_test_module_defines_a_top_level_name_twice():
    # pytest collects only the last of two same-named tests, so the
    # first would never run
    twice = []
    for path in sorted([*ROOT.glob("tests/*.py"),
                        *ROOT.glob("bench/tests/*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        names = collections.Counter(
            node.name for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        twice += [f"{path.name}:{n}" for n, c in names.items() if c > 1]
    assert not twice
