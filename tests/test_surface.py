"""Every public name in src/orthox has a caller outside the tests.

A public top-level function or class, or a public method, passes when
src/ references it outside its own definition, when bench/*.py names it
(as an identifier or inside a string, as bench/tracing.py lists the
functions it wraps), or when orthox/__init__ exports it.  References are
matched by name, so a method passes when any attribute of that name is
read.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "orthox"


def _names(tree: ast.AST) -> Counter:
    """Identifiers read in tree: names and attribute names."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _bench_names() -> set[str]:
    out: set[str] = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= set(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.replace(".", " ").split())
    return out


def _public_defs(tree: ast.Module):
    """(name, node) of the public top-level functions and classes, and their
    public methods."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    in_bench = _bench_names()
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            name = node.name
            if in_src[name] > _names(node)[name] or name in in_bench or name in exported:
                continue
            unused.append(f"{module}.{qualname}")
    assert unused == []
