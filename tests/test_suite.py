"""The test suite and the source tree: no test module shadows one of its
own definitions, every public name in src has a caller, and no function
defers a sibling import."""

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


def _references(node):
    """Identifiers under node: names, attributes, imported names, and
    string constants, which is how bench/tracing.py names what it
    wraps."""
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def test_every_public_name_in_src_has_a_caller():
    # a public function or class that nothing in src/ or bench/ refers
    # to outside its own definition has only its unit tests for callers
    sources = [*ROOT.glob("src/oope/*.py"), *ROOT.glob("bench/*.py")]
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sources}
    refs = sum((_references(tree) for tree in trees.values()),
               collections.Counter())
    uncalled = set()
    for path, tree in trees.items():
        if path.parent.name != "oope":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_") and \
                    refs[node.name] == _references(node)[node.name]:
                uncalled.add(f"{path.stem}.{node.name}")
    assert not uncalled, sorted(uncalled)


def test_no_function_in_src_imports_a_sibling_module():
    # every module imports its siblings at the top, so the import graph
    # stays acyclic without an import deferred into a function
    lazy = []
    for path in sorted(ROOT.glob("src/oope/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lazy += [f"{path.stem}.{func.name}:{node.lineno}"
                     for node in ast.walk(func) if _imports_oope(node)]
    assert not lazy, lazy


def test_only_transport_raises_framing_error():
    # FramingError means the channel is unusable, which only transport,
    # which owns the channel, can know; a malformed field elsewhere is a
    # plain ProtocolError
    raisers = []
    for path in sorted(ROOT.glob("src/oope/*.py")):
        if path.stem == "transport":
            continue
        tree = ast.parse(path.read_text(), str(path))
        raisers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and "FramingError" in _references(node.exc)]
    assert not raisers, raisers


def _imports_oope(node):
    """Whether node is an import of a module of the oope package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "oope"
    return isinstance(node, ast.Import) and \
        any(alias.name.split(".")[0] == "oope" for alias in node.names)
