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


# public names of src/oope that nothing in src/ or bench/ uses yet: the
# deployment path that the roles-as-processes item of ROADMAP.md gives
# callers, or deletes
UNCALLED = {"datastore.ingest", "datastore.save_csp_state",
            "datastore.load_csp_state", "datastore.save_do_state",
            "datastore.load_do_state"}


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
    assert uncalled <= UNCALLED, sorted(uncalled - UNCALLED)
