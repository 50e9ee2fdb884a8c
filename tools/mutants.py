"""Mutation analysis with the standard library alone.

    python tools/mutants.py src/vocab_lint/definitions.py \
        --function _genus_span --function check_genus_differentia \
        --stage "python -m pytest -x -q -p no:cacheprovider tests/test_definitions.py" \
        --stage "python -m pytest -x -q -p no:cacheprovider"

Each mutant changes one site of the module (or of the named functions, any
nested function included) with one of four operators: flip a comparison
(< and <=, > and >=, == and !=, in and not in, is and is not), swap and/or,
drop a not, or add 1 to an integer literal. The mutant is written back as
ast.unparse text into a copy of the current directory, with the copy's src
as PYTHONPATH and no bytecode written. The stages then run there in order.
A mutant dies at the first stage that fails or runs past STAGE_TIMEOUT_S,
and survives if all of them pass. The unmutated copy must pass every stage
first. Survivors are printed as path:line: change, and the exit status is 1
when any survive.
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

# A stage that runs longer than this is taken to loop, and kills its mutant.
STAGE_TIMEOUT_S = 900.0

_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
            ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}
_SWAPS = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.In: ast.NotIn,
          ast.Is: ast.IsNot, ast.And: ast.Or}
_SWAPS.update({b: a for a, b in list(_SWAPS.items())})


class _Mutate(ast.NodeTransformer):
    """Counts the sites in a fixed walk order and changes the target-th."""

    def __init__(self, target: int, functions: frozenset[str] | None):
        self.target, self.functions, self.count = target, functions, 0
        self.inside = functions is None
        self.change: tuple[int, str] | None = None

    def _hit(self, node: ast.AST, change: str) -> bool:
        if not self.inside:
            return False
        hit = self.count == self.target
        self.count += 1
        if hit:
            self.change = (node.lineno, change)
        return hit

    def visit_FunctionDef(self, node: ast.AST) -> ast.AST:
        outer = self.inside
        self.inside = outer or node.name in self.functions
        self.generic_visit(node)
        self.inside = outer
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = _SWAPS.get(type(op))
            if swap and self._hit(node, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[swap]}"):
                node.ops[i] = swap()
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        swap = _SWAPS[type(node.op)]
        if self._hit(node, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[swap]}"):
            node.op = swap()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._hit(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int and self._hit(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def mutants(source: str, functions: frozenset[str] | None = None
            ) -> Iterator[tuple[int, str, str]]:
    """(line, change, mutated source) for each site, in a fixed order."""
    target = 0
    while True:
        mutate = _Mutate(target, functions)
        tree = mutate.visit(ast.parse(source))
        if mutate.change is None:
            return
        yield (*mutate.change, ast.unparse(ast.fix_missing_locations(tree)))
        target += 1


def _passes(stages: list[str], tree: Path, env: dict[str, str]) -> bool:
    for stage in stages:
        try:
            done = subprocess.run(shlex.split(stage), cwd=tree, env=env, timeout=STAGE_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        if done.returncode != 0:
            return False
    return True


def run(module: str, stages: list[str], functions: frozenset[str] | None = None
        ) -> tuple[int, list[tuple[int, str]]]:
    """The number of mutants of `module` (relative to the current directory)
    and the (line, change) of each that passes every stage."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(".", tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
        if not _passes(stages, tree, env):
            raise SystemExit(f"mutants: the unmutated tree fails a stage: {stages}")
        target = tree / module
        made, survivors = 0, []
        for line, change, mutated in mutants(target.read_text(encoding="utf-8"), functions):
            made += 1
            target.write_text(mutated, encoding="utf-8")
            if _passes(stages, tree, env):
                survivors.append((line, change))
        return made, survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the file to mutate, relative to the current directory")
    parser.add_argument("--function", action="append", help="mutate only this function")
    parser.add_argument("--stage", action="append", required=True, help="a test command")
    args = parser.parse_args(argv)
    made, survivors = run(args.module, args.stage,
                          frozenset(args.function) if args.function else None)
    for line, change in survivors:
        print(f"{args.module}:{line}: {change}")
    print(f"{made} mutants, {made - len(survivors)} killed, {len(survivors)} survived",
          file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
