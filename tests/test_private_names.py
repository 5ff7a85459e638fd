"""Every module-level private name in the package is read by package code
outside its own definition, and every public function or class is
exported or read, so a helper that a change leaves unused cannot stay
behind; and the orbit products and the Fourier search are defined in
fourier alone."""

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


def imported(node: ast.AST) -> set[str]:
    """The names node imports from other modules."""
    return {
        alias.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }


def test_every_public_definition_is_exported_or_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = imported(trees.pop("__init__.py"))
    total = sum((reads(tree) for tree in trees.values()), Counter())
    imports = set().union(*map(imported, trees.values()))
    orphans = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported | imports
        and total[node.name] == reads(node)[node.name]
    ]
    assert not orphans


# the orbit-product engine and the Fourier search, which fourier owns
ORBIT_AND_SEARCH = {"_NearTie", "_round_off_margin", "_Orbit", "_join", "_power", "_fourier_search"}


def test_fourier_owns_the_orbit_products_and_the_fourier_search():
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in ("evolution", "fourier")}
    defined = {m: {name for name, _ in private_definitions(tree)} for m, tree in trees.items()}
    assert not ORBIT_AND_SEARCH & defined["evolution"]
    assert ORBIT_AND_SEARCH <= defined["fourier"]
    from_evolution = {
        alias.name
        for node in ast.walk(trees["fourier"])
        if isinstance(node, ast.ImportFrom) and node.module == "evolution"
        for alias in node.names
    }
    assert not ORBIT_AND_SEARCH & from_evolution
