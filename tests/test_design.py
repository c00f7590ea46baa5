"""Design rules checked on the source: no exported function without a
caller, no error class that nothing raises, and no check that leans on
``assert`` or a catch-all ``except``.

Every public module-level function or class in ``src/posr``, and every
public method of such a class, must be referenced somewhere in ``src/posr``
outside its own definition: called, imported, named in an annotation or an
``except``.  Tests and the benchmark do not count as callers; a reference
implementation that only tests use belongs in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from posr import cayley, errors

SRC = Path(cayley.__file__).parent

# (module, name): why it stays without a caller in src/posr
ALLOWED = {
    ("catalog", "pdr_candidates"):
        "the classification census will decide its PDR cells with it",
    ("io", "connection_sets_to_json"):
        "writes the connection-set format that `posr build --sets` reads",
}


def _names(tree: ast.AST) -> Counter:
    """Every identifier a subtree looks up: names, attributes, imports."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class and
    of every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = sorted(
        (module, qualname) for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if not node.name.startswith("_")
        # references inside the definition itself (recursion) do not count;
        # a method counts as called when any attribute of its name is looked
        # up, whatever the object
        and total[node.name] == _names(node)[node.name]
    )
    extra = [d for d in uncalled if d not in ALLOWED]
    assert not extra, f"public names with no caller in src/posr: {extra}"
    # an allowlist entry that gained a caller or lost its definition is stale
    assert sorted(ALLOWED) == [d for d in uncalled if d in ALLOWED]


def test_no_assert_or_catch_all_except():
    # checks raise a PosrError, which ``python -O`` cannot strip; handlers
    # name the errors they expect, so a bug elsewhere still surfaces
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.ExceptHandler) and (
                    node.type is None
                    or isinstance(node.type, ast.Name) and node.type.id == "Exception"):
                found.append(f"{path.name}:{node.lineno}: catch-all except")
    assert not found, found


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead code that handlers still name
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.PosrError)
               and value is not errors.PosrError}
    assert not classes - raised, f"error classes never raised in src/posr: {sorted(classes - raised)}"
