"""Worst-shape inputs for every vocabulary-scope check in the registry, each
run at a size with an explicit time bound. A check that turns quadratic in a
realistic group size fails its row; a new vocabulary check fails the coverage
test until it has a row here."""

import time
from typing import Callable, NamedTuple

import pytest

from vocab_lint.engine import CHECKS, VOCABULARY, CheckContext
from vocab_lint.identity import default_prefix_map
from vocab_lint.lexical import ComplexityConfig, default_lexicons
from vocab_lint.model import Definition, Iri, Synonym, Term, build_vocabulary


def term(label, i, **fields):
    return Term(label=label, iri=Iri(f"EX:{i}"), **fields)


def mention_graph(n):
    # Every definition names two other labels of one long-label family.
    return [term(f"abnormal thing{i} morphology", i, definition=Definition(
        f"A change that resembles abnormal thing{(i + 1) % n} morphology "
        f"and abnormal thing{(i + 2) % n} morphology."))
        for i in range(n)]


def replacement_chain(n):
    # n obsolete terms, each replaced by the next, ending in a live term.
    return [term(f"obsolete t{i}", i, obsolete=True, replaced_by=Iri(f"EX:{i + 1}"))
            for i in range(n)] + [term("live", n)]


class Shape(NamedTuple):
    build: Callable[[int], list[Term]]
    size: int
    seconds: float
    findings: int


SHAPES = {
    # No label extends another, so no base qualifies: comparing every base
    # with every member took about 3 s on a 2-vCPU host.
    ("C-WORD-BOMB",): Shape(
        lambda n: [term(f"mod{i} extra{i % 50} sample", i) for i in range(n)], 8000, 1.0, 0),
    ("R04-NARROW",): Shape(
        lambda n: [term(f"w{i} sample", i) for i in range(n)]
        + [term("sample", n + i) for i in range(n // 20)], 4000, 1.0, 4000),
    ("R07-DUPLICATE-DEF",): Shape(
        lambda n: [term(f"t{i}", i, definition=Definition("A sample taken on site."))
                   for i in range(n)], 8000, 1.0, 1),
    # Comparing each definition token with every label starting with it took
    # about 45 s; one probe per label length takes 0.2–0.4 s, on a 2-vCPU host.
    ("R07-SELF-REF", "R07-CIRCULAR"): Shape(mention_graph, 8000, 1.5, 100),
    ("R06-DUP-IRI",): Shape(
        lambda n: [Term(label=f"t{i}", iri=Iri("EX:1")) for i in range(n)], 8000, 1.0, 1),
    ("C-SEMANTIC-NOISE",): Shape(
        lambda n: [term("sample", i) for i in range(n)], 8000, 1.0, 1),
    ("C-SYNONYM-CLASH",): Shape(
        lambda n: [term(f"t{i}", i, synonyms=(Synonym("unknown"),)) for i in range(n)],
        4000, 1.0, 1),
    # Resolving the rest of the chain from every link took about 32 s; walking
    # each link once takes under 0.1 s, on a 2-vCPU host.
    ("R08-LABEL", "R08-NO-REPLACEMENT", "R08-LIVE-REPLACED", "R08-DANGLING", "R08-CHAIN",
     "R08-CYCLE", "R08-OBSOLETE-PARENT"): Shape(replacement_chain, 8000, 1.0, 7999),
}


def test_every_vocabulary_check_has_a_shape():
    assert set(SHAPES) == {rule_ids for rule_ids, scope, _ in CHECKS if scope == VOCABULARY}


@pytest.mark.parametrize("rule_ids, shape", [
    pytest.param(ids, shape, id=ids[0]) for ids, shape in SHAPES.items()])
def test_worst_shape_runs_within_its_bound(rule_ids, shape):
    run, = (run for ids, _, run in CHECKS if ids == rule_ids)
    unit = build_vocabulary(shape.build(shape.size), {"EX": "https://example.org/EX_"})
    ctx = CheckContext(unit, default_lexicons(), default_prefix_map(), ComplexityConfig())
    started = time.perf_counter()
    findings = run(unit, ctx)
    elapsed = time.perf_counter() - started
    assert len(findings) == shape.findings
    assert elapsed < shape.seconds
