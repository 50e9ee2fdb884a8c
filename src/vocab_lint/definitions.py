"""Definition checks: presence and sourcing, genus-differentia form, genus /
parent agreement, uniqueness, and circular-definition detection over a
directed mention graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Collection, Iterator, Sequence

from .model import (
    Finding,
    Term,
    Vocabulary,
    bearer_order,
    find_phrases,
    least_bearers,
    phrase_table,
    shared_keys,
    tokens_of,
)

# Bounded output on pathological inputs.
MAX_REPORTED_CYCLES = 100

_SENTENCE_END = re.compile(r"\.(?=\s|$)")


@dataclass(frozen=True)
class DefinitionGraph:
    """Mention graph: nodes are term identities, each held by its least
    bearer. An edge T->U means the definition of a bearer of T contains the
    label of a bearer of U as a contiguous token subsequence (self-edges
    allowed). `self_mentions` are the terms whose definition contains their
    own label, in input order."""

    nodes: dict[str, Term]
    edges: frozenset[tuple[str, str]]
    self_mentions: tuple[Term, ...]


def first_sentence(text: str) -> str:
    m = _SENTENCE_END.search(text)
    return text[:m.start()] if m else text


def _genus_span(tokens: Sequence[str]) -> tuple[int, int, int, int] | None:
    """Where the tokens of a first sentence match: optional article, subject
    phrase, "is a"/"is an", genus phrase, "that"/"which", non-empty
    differentia. Returns the subject's start, the copula ("is"), the genus's
    start and the connective, or None when they do not match."""
    if "is" not in tokens:
        return None
    # The copula is the first "is" followed by "a" or "an".
    last = len(tokens) - 1
    copula = tokens.index("is")
    while copula == last or tokens[copula + 1] not in ("a", "an"):
        if "is" not in tokens[copula + 1:]:
            return None
        copula = tokens.index("is", copula + 1)
    start = 1 if tokens[0] in ("a", "an") else 0
    if start == copula:
        return None
    # The connective is the first "that" or "which" after the copula, and
    # the differentia after it is not empty.
    genus = connective = copula + 2
    while connective < last and tokens[connective] not in ("that", "which"):
        connective += 1
    if connective == genus or connective >= last:
        return None
    return start, copula, genus, connective


def check_definition_present(term: Term) -> list[Finding]:
    """R07: live terms need definitions; definitions need sources."""
    if term.definition is None:
        if term.obsolete:
            return []
        return [Finding.about(term, "R07-MISSING-DEF", "live term has no definition")]
    if not term.definition.sources:
        return [Finding.about(
            term, "R07-MISSING-SOURCE",
            "definition cites no source; provide sources for definitions")]
    return []


def check_genus_differentia(term: Term, vocab: Vocabulary) -> list[Finding]:
    """R07: the defining sentence should read 'X is a <genus> that <differentia>'
    and, when parents are declared, the genus should mention a parent label.
    The genus test runs only when at least one parent resolves in the
    vocabulary (foreign parents carry no label to compare against)."""
    definition = term.definition
    if definition is None:
        return []
    # The sentence end is a "." and so a token break: the first sentence's
    # tokens are the definition's less those of the text after that period.
    tokens = definition.tokens
    rest = definition.text[len(first_sentence(definition.text)) + 1:]
    if rest.strip():
        tokens = tokens[:len(tokens) - len(tokens_of(rest))]
    span = _genus_span(tokens)
    if span is None:
        return [Finding.about(
            term, "R07-FORM",
            'definition does not follow the "X is a <parent> that/which '
            '<differentia>" form')]
    # Most terms declare no parent; this exit skips building an empty list.
    if not term.parents:
        return []
    parents = [p for p in map(vocab.term_for, term.parents) if p is not None]
    if not parents:
        return []
    genus = tokens[span[2]:span[3]]
    if any(find_phrases(genus, phrase_table((p.tokens, p) for p in parents))):
        return []
    genus_text = " ".join(genus)
    return [Finding.about(
        term, "R07-GENUS-MISMATCH",
        f'definition genus "{genus_text}" does not mention any declared '
        "parent; the defining sentence should state the parent class")]


def check_definition_uniqueness(vocab: Vocabulary) -> list[Finding]:
    """R07: identical normalized definition text across live terms."""
    findings: list[Finding] = []
    for _, members in shared_keys(((" ".join(t.definition.tokens), t) for t in vocab.terms
                                   if not t.obsolete and t.definition is not None), vocab):
        labels = "; ".join(t.label for t in members)
        findings.append(Finding.about_terms(
            members, "R07-DUPLICATE-DEF", members[0].label,
            f"{len(members)} terms share one definition ({labels}); "
            "combine them via synonymy or differentiate the definitions"))
    return findings


def build_definition_graph(vocab: Vocabulary) -> DefinitionGraph:
    """Mention edges via token-subsequence matching of labels inside
    definition text (not substring matching, so "cough" never matches inside
    "coughing")."""
    # Every bearer of an identity speaks for it, with its label and its
    # definition, whatever the input order. A label that several bearers of
    # one identity share names that identity once.
    bearers = list(zip(vocab.identities, vocab.terms))
    labels = phrase_table(dict.fromkeys((term.tokens, node_id) for node_id, term in bearers))
    edges: set[tuple[str, str]] = set()
    self_mentions: list[Term] = []
    for node_id, term in bearers:
        if term.definition is None:
            continue
        tokens = term.definition.tokens
        mentions_itself = False
        for start, length, targets in find_phrases(tokens, labels):
            edges.update((node_id, target) for target in targets)
            mentions_itself = mentions_itself or tokens[start:start + length] == term.tokens
        if mentions_itself:
            self_mentions.append(term)
    return DefinitionGraph(nodes=least_bearers(bearers), edges=frozenset(edges),
                           self_mentions=tuple(self_mentions))


def _strong_components(succ: dict[str, list[str]],
                       nodes: Collection[str]) -> list[set[str]]:
    """Tarjan (1972) strongly connected components of the subgraph induced by
    nodes, with an explicit stack so long mention chains cannot overflow the
    interpreter's recursion limit."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[set[str]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.add(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def _circuits_from(start: str, component: set[str],
                   succ: dict[str, list[str]]) -> Iterator[tuple[str, ...]]:
    """Johnson (1975) elementary circuits through start, the least node of its
    strongly connected component. Successors are visited in sorted order, so
    circuits come out sorted; blocking only prunes branches that close no
    circuit, so it removes nothing from that order."""
    adj = {v: [w for w in succ[v] if w in component] for v in component}
    blocked = {start}
    blocked_by: dict[str, set[str]] = {v: set() for v in component}
    path = [start]
    closed = [False]
    work = [(start, iter(adj[start]))]
    while work:
        v, successors = work[-1]
        for w in successors:
            if w == start:
                yield tuple(path)
                closed[-1] = True
            elif w not in blocked:
                blocked.add(w)
                path.append(w)
                closed.append(False)
                work.append((w, iter(adj[w])))
                break
        else:
            work.pop()
            path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [v]
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.discard(u)
                        unblock.extend(blocked_by[u])
                        blocked_by[u].clear()
            else:
                for w in adj[v]:
                    blocked_by[w].add(v)


def _simple_cycles(edges: frozenset[tuple[str, str]]) -> Iterator[tuple[str, ...]]:
    """Directed cycles of length >= 2 as rotations starting at their least
    node, in sorted order. Components wait in a heap keyed by their least
    node; after its circuits are enumerated that node is removed and only its
    own component is split again."""
    succ: dict[str, list[str]] = {}
    for tail, head in sorted(edges):
        if tail != head:
            succ.setdefault(tail, []).append(head)
    heap = [(min(c), c) for c in _strong_components(succ, succ.keys()) if len(c) > 1]
    heapify(heap)
    while heap:
        start, component = heappop(heap)
        yield from _circuits_from(start, component, succ)
        component.discard(start)
        for sub in _strong_components(succ, component):
            if len(sub) > 1:
                heappush(heap, (min(sub), sub))


def detect_circular_definitions(vocab: Vocabulary) -> list[Finding]:
    """R07: self-mentions and directed mention cycles. Cycles are reported as
    canonical rotations starting from the least identity, in sorted order:
    the first MAX_REPORTED_CYCLES of them, whatever the input order."""
    graph = build_definition_graph(vocab)
    findings: list[Finding] = []
    for term in sorted(graph.self_mentions, key=lambda t: (vocab.identity(t), bearer_order(t))):
        findings.append(Finding.about(
            term, "R07-SELF-REF",
            "definition mentions the term's own label; definitions must "
            "be non-circular"))
    for rotation in islice(_simple_cycles(graph.edges), MAX_REPORTED_CYCLES):
        members = [graph.nodes[node_id] for node_id in rotation]
        chain = " -> ".join(t.label for t in members)
        findings.append(Finding.about_terms(
            members, "R07-CIRCULAR", chain,
            f"definitions mention each other in a cycle ({chain} -> "
            f"{members[0].label}); definitions must be non-circular"))
    return findings
