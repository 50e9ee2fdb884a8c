"""Source hygiene: every module of the package, its `__init__` aside, uses
each name it imports at the top level and each private name it defines at
module level, so a leftover import or helper fails here."""

import ast
from pathlib import Path

import pytest

import vocab_lint

MODULES = sorted(p for p in Path(vocab_lint.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _checked_names(statement: ast.stmt) -> list[str]:
    """The names one top-level statement binds that its module must use:
    every imported name, and every private one that it defines."""
    if isinstance(statement, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in statement.names]
    if isinstance(statement, ast.ImportFrom):
        if statement.module == "__future__":
            return []
        return [alias.asname or alias.name for alias in statement.names]
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_and_private_names_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [name for statement in tree.body for name in _checked_names(statement)
              if name not in used]
    assert not unused, f"{path.name} never uses {unused}"
