"""Reuse index and term suggester: before minting a new term, look for an
existing one. Matches are scored on a fixed ladder (exact label, exact
synonym, other synonym, token overlap, fuzzy) and tie-broken by how many
reference vocabularies carry the term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Term, Vocabulary, bearer_order, normalize_label

EXACT_LABEL = "exact_label"
EXACT_SYNONYM = "exact_synonym"
OTHER_SYNONYM = "other_synonym"
TOKEN_OVERLAP = "token_overlap"
FUZZY = "fuzzy"

_KIND_RANK = {EXACT_LABEL: 0, EXACT_SYNONYM: 1, OTHER_SYNONYM: 2,
              TOKEN_OVERLAP: 3, FUZZY: 4}
_EXACT_SCORE = {"label": (1.0, EXACT_LABEL),
                "exact_synonym": (0.9, EXACT_SYNONYM),
                "other_synonym": (0.8, OTHER_SYNONYM)}

FUZZY_DISTANCE_CEILING = 0.25


class EmptyQueryError(ValueError):
    """The query normalizes to nothing."""


@dataclass(frozen=True)
class Suggestion:
    term: Term
    score: float
    match_kind: str
    reuse_count: int


@dataclass
class ReuseIndex:
    # identity -> (term, {normalized phrase -> phrase kind})
    entries: dict[str, tuple[Term, dict[str, str]]] = field(default_factory=dict)
    source_count: dict[str, int] = field(default_factory=dict)


def build_index(references: list[Vocabulary]) -> ReuseIndex:
    """Index live terms of the reference vocabularies by normalized label and
    synonyms, each under its identity in its own reference. A term found in
    several references keeps one entry, with every bearer's phrases and a higher
    source count."""
    index = ReuseIndex()
    for vocab in references:
        seen_here: set[str] = set()
        for term in vocab.terms:
            if term.obsolete:
                continue
            identity = vocab.identity(term)
            shown, phrases = index.entries.get(identity, (term, {}))
            # The least bearer is shown, whatever the reference order.
            index.entries[identity] = (min(shown, term, key=bearer_order), phrases)
            kinds = [(term.key, "label")] + [
                (syn.key, "exact_synonym" if syn.scope == "exact" else "other_synonym")
                for syn in term.synonyms]
            for phrase, kind in kinds:
                # Each phrase keeps its best kind, whatever the reference order.
                if phrase and _EXACT_SCORE[kind] > _EXACT_SCORE.get(phrases.get(phrase), (0.0,)):
                    phrases[phrase] = kind
            if identity not in seen_here:
                seen_here.add(identity)
                index.source_count[identity] = index.source_count.get(identity, 0) + 1
    return index


def _distance_within(a: str, b: str, k: int) -> int:
    """The unit-cost Levenshtein distance of a and b if it is at most k, else
    k + 1. Only cells within k of the diagonal are filled, and the walk stops
    at the first row whose every cell exceeds k (Ukkonen's cut-off)."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if len(a) - m > k:
        return k + 1
    # A cell outside the band holds k + 1, a lower bound on its distance cut
    # at k + 1, so no cell whose distance is at most k is misjudged.
    previous = list(range(m + 1))
    for i, ca in enumerate(a, start=1):
        current = [k + 1] * (m + 1)
        current[0] = left = i
        for j in range(max(1, i - k), min(m, i + k) + 1):
            # The least of a deletion, an insertion and a substitution,
            # compared in place: a call to min() per cell costs about 40% more
            # on CPython 3.11.
            left = (previous[j] if previous[j] < left else left) + 1
            substitution = previous[j - 1] + (ca != b[j - 1])
            current[j] = left = substitution if substitution < left else left
        if min(current) > k:
            return k + 1
        previous = current
    return min(previous[-1], k + 1)


def _score_phrase(query: str, query_tokens: frozenset[str], phrase: str,
                  phrase_kind: str) -> tuple[float, str] | None:
    """One phrase's best score. The query is never empty, so no divisor is 0."""
    if phrase == query:
        return _EXACT_SCORE[phrase_kind]
    best: tuple[float, str] | None = None
    phrase_tokens = frozenset(phrase.split())
    overlap = len(query_tokens & phrase_tokens)
    if overlap:
        best = (0.7 * overlap / len(query_tokens | phrase_tokens), TOKEN_OVERLAP)
    longest = max(len(query), len(phrase))
    # The length difference is a lower bound on the distance, so a pair it
    # already puts past the ceiling is never scored; any other distance is
    # needed only up to the ceiling. The cut-off is one above the floor of
    # the ceiling's distance, so a product rounded just below a whole number
    # cannot cut off a distance that the ratio test below accepts.
    if abs(len(query) - len(phrase)) / longest <= FUZZY_DISTANCE_CEILING:
        cut_off = int(FUZZY_DISTANCE_CEILING * longest) + 1
        ratio = _distance_within(query, phrase, cut_off) / longest
        if ratio <= FUZZY_DISTANCE_CEILING:
            fuzzy = (0.6 * (1.0 - ratio), FUZZY)
            if best is None or fuzzy[0] > best[0]:
                best = fuzzy
    return best


def suggest_terms(index: ReuseIndex, query: str, k: int = 5) -> list[Suggestion]:
    """Top-k candidate terms for a proposed label, best score per term,
    ordered by score desc, reuse count desc, identity asc."""
    normalized = normalize_label(query)
    if not normalized:
        raise EmptyQueryError("query is empty after normalization")
    if k < 1:
        return []
    query_tokens = frozenset(normalized.split())
    scored: list[tuple[float, int, str, str, Term]] = []
    for identity, (term, phrases) in index.entries.items():
        candidates = [c for c in (_score_phrase(normalized, query_tokens, phrase, kind)
                                  for phrase, kind in phrases.items()) if c is not None]
        if candidates:
            # The best score; among equal scores, the best-ranked kind.
            score, kind = max(candidates, key=lambda c: (c[0], -_KIND_RANK[c[1]]))
            scored.append((score, index.source_count.get(identity, 1), kind, identity, term))
    scored.sort(key=lambda row: (-row[0], -row[1], row[3]))
    return [Suggestion(term=term, score=score, match_kind=kind, reuse_count=count)
            for score, count, kind, _, term in scored[:k]]
