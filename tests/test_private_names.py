"""Every module-level private name in the package is read by package code
outside its own definition, so a helper that a change leaves unused
cannot stay behind."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import affine_mixer

PACKAGE = Path(affine_mixer.__file__).parent


def private_definitions(tree: ast.Module):
    """(name, statement) for each private name a module-level statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(node: ast.AST) -> Counter:
    """How often each name is read in node, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_module_name_is_read_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if total[name] == reads(node)[name]
    ]
    assert not orphans
