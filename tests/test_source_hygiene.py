"""Source hygiene: every module of the package, its `__init__` aside, uses
each name it imports at the top level and each private name it defines at
module level, and every public function and class is reached from the
package's interface, so a leftover import, helper or function fails here."""

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

import vocab_lint

MODULES = sorted(p for p in Path(vocab_lint.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)]
    return []


def _checked_names(statement: ast.stmt) -> list[str]:
    """The names one top-level statement binds that its module must use:
    every imported name, and every private one that it defines."""
    if isinstance(statement, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in statement.names]
    if isinstance(statement, ast.ImportFrom):
        if statement.module == "__future__":
            return []
        return [alias.asname or alias.name for alias in statement.names]
    return [name for name in _defined_names(statement)
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_and_private_names_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [name for statement in tree.body for name in _checked_names(statement)
              if name not in used]
    assert not unused, f"{path.name} never uses {unused}"


def _references(node: ast.AST) -> Iterator[tuple[str | None, str]]:
    """(owner, name) for each name a statement loads, outside annotations:
    (None, name) for a bare name, (owner, name) for owner.name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        children = [*node.decorator_list, *node.args.defaults,
                    *(d for d in node.args.kw_defaults if d is not None), *node.body]
    elif isinstance(node, ast.AnnAssign):
        children = [node.value] if node.value is not None else []
    else:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield None, node.id
        children = list(ast.iter_child_nodes(node))
    for child in children:
        yield from _references(child)


def _reachable() -> tuple[set[str], set[str]]:
    """Every public top-level function and class of the package, and the
    top-level names reached from the roots: the names of `__all__`, all of
    `cli` and `engine.CHECKS`. A name is "module.name"; a top-level statement
    reaches each name it loads, resolved in its module or through its module's
    imports of the package, at the top level or in a function body."""
    package = Path(vocab_lint.__file__).parent
    bound: dict[str, ast.stmt] = {}          # "module.name" -> its statement
    resolve: dict[str, dict[str, str]] = {}  # module -> local name -> "module.name"
    public: set[str] = set()
    for path in sorted(package.glob("*.py")):
        module = path.stem
        local = resolve.setdefault(module, {})
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    local[alias.asname or alias.name] = target
        for statement in tree.body:
            for name in _defined_names(statement):
                local[name] = f"{module}.{name}"
                bound[f"{module}.{name}"] = statement
                if (module != "__init__" and not name.startswith("_")
                        and isinstance(statement, (ast.FunctionDef, ast.ClassDef))):
                    public.add(f"{module}.{name}")
    roots = [resolve["__init__"][name] for name in vocab_lint.__all__
             if name in resolve["__init__"]]
    roots += [name for name in bound if name.startswith("cli.")] + ["engine.CHECKS"]
    reached: set[str] = set()
    while roots:
        name = roots.pop()
        if name in reached or name not in bound:
            continue
        reached.add(name)
        module = name.partition(".")[0]
        for owner, loaded in _references(bound[name]):
            if owner is None:
                roots.append(resolve[module].get(loaded, ""))
            elif resolve[module].get(owner) == owner:  # a module of the package
                roots.append(f"{owner}.{loaded}")
    return public, reached


def test_every_public_function_and_class_is_reached_from_the_interface():
    public, reached = _reachable()
    assert sorted(public - reached) == []
