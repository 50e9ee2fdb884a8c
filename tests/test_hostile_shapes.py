"""Worst-shape inputs for every check in the registry, each run at a size
with an explicit time bound. A vocabulary check that turns quadratic in a
realistic group size fails its row, as does a per-term check that turns
quadratic in the length of a label, definition or annotation value; a new
check fails the coverage test until it has a row here. The suggester has
rows of its own, for queries that its fuzzy tier might score in full."""

import time
from itertools import cycle, islice
from typing import Callable, NamedTuple

import pytest

from vocab_lint.engine import CHECKS, VOCABULARY, CheckContext, RuleConfig
from vocab_lint.identity import default_prefix_map
from vocab_lint.lexical import default_lexicons
from vocab_lint.model import Definition, Iri, Synonym, Term, build_vocabulary
from vocab_lint.reuse import build_index, suggest_terms


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


def long_text(*words):
    """200 tokens, cycling through `words`."""
    return " ".join(islice(cycle(words), 200))


# Twenty sentences, each naming a different genus.
SENTENCES = " ".join(f"A sample{j} is a specimen{j} that was taken at site {j}."
                     for j in range(20))


def long_terms(label, **fields):
    """Terms with one 200-token label, a definition of twenty sentences and
    200-token annotation values, unless `fields` says otherwise."""
    fields = {"definition": Definition(SENTENCES, ("PMID:1",)),
              "annotations": {"comment": long_text("seen"), "note": long_text("collected")},
              **fields}
    return lambda n: [term(label, i, **fields) for i in range(n)]


def genus_mismatch(n):
    # A 200-token genus, set against five parents with 200-token labels.
    label = long_text("sample", "site")
    definition = Definition(f"A sample is a {long_text('kind', 'of')} that was taken. "
                            + SENTENCES, ("PMID:1",))
    return [term(label, i, definition=definition,
                 parents=tuple(Iri(f"EX:{(i + k) % n}") for k in range(1, 6)))
            for i in range(n)]


class Shape(NamedTuple):
    build: Callable[[int], list[Term]]
    size: int
    seconds: float
    findings: int


SHAPES = {
    # Per-term checks: 200 terms, each label 200 tokens long. Normalizing one
    # such label takes about 0.5 ms, on a 2-vCPU host.
    ("R05-ABBREV", "R05-EXPANSION-STYLE"): Shape(
        long_terms(long_text("LFT", "(ALT)", "liver", "CT2") + " (ALT)"), 200, 1.0, 400),
    ("R02-NEGATIVE",): Shape(
        long_terms(long_text("non-linear", "nonlinear", "nonsense", "inorganic")),
        200, 1.0, 200),
    # Every conjunction but the last sits between capitalized words.
    ("R02-CONJUNCTION",): Shape(
        long_terms(long_text("Alpha", "and", "Beta", "or") + " gamma"), 200, 1.0, 200),
    ("R02-PLURAL",): Shape(long_terms(long_text("samples")), 200, 1.0, 200),
    ("R03-COLLOQUIAL",): Shape(
        long_terms(long_text("abdominal", "pain"), synonyms=tuple(
            Synonym(text) for text in islice(cycle(
                ("belly", "tummy", "wet cough", "throwing up", "sore")), 200))),
        200, 1.0, 800),
    ("C-TIMELINE",): Shape(
        long_terms(long_text("most", "recent", "to", "date", "last", "previous")),
        200, 1.0, 200),
    ("C-CONCEPT-BOMB",): Shape(long_terms(long_text("12", "most", "recent")), 200, 1.0, 200),
    # Ten annotations, half bare booleans, half 200-token records of an absence;
    # 100 terms, since each term carries ten labels' worth of text to normalize.
    ("R09-BOOLEAN", "R09-NEGATIVE-TAG"): Shape(
        long_terms(long_text("sample"), annotations={
            f"tag{j}": "yes" if j % 2 else long_text("no", "travel") for j in range(10)}),
        100, 1.0, 1000),
    ("R06-MISSING-IRI", "R06-BAD-IRI", "R06-NONPURL"): Shape(
        lambda n: [Term(label=long_text("sample"), iri=Iri(
            "https://example.org/" + long_text("part").replace(" ", "/") + f"/HP_{i}"))
            for i in range(n)], 200, 1.0, 200),
    ("R07-MISSING-DEF", "R07-MISSING-SOURCE"): Shape(
        long_terms(long_text("sample"), definition=Definition(SENTENCES)), 200, 1.0, 200),
    ("R07-FORM", "R07-GENUS-MISMATCH"): Shape(genus_mismatch, 200, 1.0, 200),
    # Vocabulary checks. No label extends another, so no base qualifies: comparing every base
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


def test_every_check_has_a_shape():
    assert set(SHAPES) == {rule_ids for rule_ids, _, _ in CHECKS}


@pytest.mark.parametrize("rule_ids, shape", [
    pytest.param(ids, shape, id=ids[0]) for ids, shape in SHAPES.items()])
def test_worst_shape_runs_within_its_bound(rule_ids, shape):
    (scope, run), = ((scope, run) for ids, scope, run in CHECKS if ids == rule_ids)
    unit = build_vocabulary(shape.build(shape.size), {"EX": "https://example.org/EX_"})
    ctx = CheckContext(unit, default_lexicons(), default_prefix_map(), RuleConfig())
    started = time.perf_counter()
    findings = [f for subject in ([unit] if scope == VOCABULARY else unit.terms)
                for f in run(subject, ctx)]
    elapsed = time.perf_counter() - started
    assert len(findings) == shape.findings
    assert elapsed < shape.seconds


class SuggestShape(NamedTuple):
    width: int        # characters in each of the 1,000 reference labels
    query: str
    seconds: float
    suggestions: int


SUGGEST_SHAPES = {
    # Scoring a 400-character query against every label in full took about
    # 20 s; its length alone puts each label past the fuzzy ceiling, and the
    # query takes about 7 ms, on a 2-vCPU host.
    "long-query": SuggestShape(120, "sample " * 57 + "s", 0.15, 5),
    "one-character": SuggestShape(120, "q", 0.1, 0),          # about 5 ms
    # Each label is within the ceiling in length but shares no character with
    # the query, so the cut-off ends each distance only after a quarter of
    # its rows: about 90 ms, against 0.4 s in full.
    "disjoint-characters": SuggestShape(40, "quz" * 13 + "q", 2.0, 0),
}


@pytest.mark.parametrize("shape", [
    pytest.param(shape, id=name) for name, shape in SUGGEST_SHAPES.items()])
def test_worst_suggest_shape_runs_within_its_bound(shape):
    labels = [(f"sample site{i:04d} " * 8)[:shape.width] for i in range(1000)]
    index = build_index([build_vocabulary([term(label, i) for i, label in enumerate(labels)],
                                          {"EX": "https://example.org/EX_"})])
    started = time.perf_counter()
    suggestions = suggest_terms(index, shape.query)
    elapsed = time.perf_counter() - started
    assert len(suggestions) == shape.suggestions
    assert elapsed < shape.seconds
