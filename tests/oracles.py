"""Plain reference forms that the tests judge the package against. No program
path calls them: resolve_replacement and its exceptions state what R08
computes, edit_distance is the unbounded distance the suggester's oracles
score with, parse_genus_differentia gives the genus test's tests a parsed
form, and first_sentence states what `Definition.head` counts."""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from vocab_lint.definitions import _genus_span
from vocab_lint.model import Iri, Vocabulary, expand_iri


class UnknownIriError(Exception):
    """An IRI was looked up that no term in the vocabulary bears."""


class ReplacementCycleError(Exception):
    """A replaced_by chain revisited an IRI."""


def resolve_replacement(vocab: Vocabulary, start: Iri) -> Iri:
    """Follow replaced_by links from `start` to the chain terminus.

    Raises UnknownIriError if the start or any link target is absent, and
    ReplacementCycleError if the chain revisits an IRI."""
    key = expand_iri(start, vocab.prefix_map)
    term = vocab.by_iri.get(key)
    if term is None:
        raise UnknownIriError(f"IRI not in vocabulary: {start.value}")
    seen = {key}
    while term.replaced_by is not None:
        next_key = expand_iri(term.replaced_by, vocab.prefix_map)
        if next_key in seen:
            raise ReplacementCycleError(
                f"replaced_by chain from {start.value} revisits {term.replaced_by.value}")
        nxt = vocab.by_iri.get(next_key)
        if nxt is None:
            raise UnknownIriError(f"IRI not in vocabulary: {term.replaced_by.value}")
        seen.add(next_key)
        term = nxt
    assert term.iri is not None
    return term.iri


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


class GenusDifferentia(NamedTuple):
    subject: tuple[str, ...]
    genus: tuple[str, ...]
    differentia: tuple[str, ...]


def parse_genus_differentia(tokens: Sequence[str]) -> GenusDifferentia | None:
    """The subject, genus and differentia of a first sentence's tokens, as
    `definitions._genus_span` matches them."""
    span = _genus_span(tokens)
    if span is None:
        return None
    start, copula, genus, connective = span
    return GenusDifferentia(tuple(tokens[start:copula]), tuple(tokens[genus:connective]),
                            tuple(tokens[connective + 1:]))


_SENTENCE_END = re.compile(r"\.(?=\s|$)")


def first_sentence(text: str) -> str:
    m = _SENTENCE_END.search(text)
    return text[:m.start()] if m else text
