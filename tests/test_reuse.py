import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocab_lint.model import Iri, Synonym, Term, build_vocabulary, expand_iri, normalize_label
from vocab_lint.reuse import (
    FUZZY_DISTANCE_CEILING,
    EmptyQueryError,
    _distance_within,
    build_index,
    suggest_terms,
)

from oracles import edit_distance

PREFIXES = {"EX": "https://example.org/EX_", "HP": "http://purl.obolibrary.org/obo/HP_"}


def term(label, iri, synonyms=(), obsolete=False):
    syns = tuple(Synonym(text, scope=scope) for text, scope in synonyms)
    return Term(label=label, iri=Iri(iri), synonyms=syns, obsolete=obsolete)


def vocab(*terms_):
    return build_vocabulary(list(terms_), PREFIXES)


def reference_index():
    clinical = vocab(
        term("productive cough", "HP:0031352",
             synonyms=[("wet cough", "exact"), ("chesty cough", "related")]),
        term("cough", "HP:0012735"),
        term("fever", "HP:0001945", synonyms=[("pyrexia", "exact")]),
        term("obsolete old fever", "EX:900", obsolete=True),
    )
    surveillance = vocab(
        term("cough", "HP:0012735"),
        term("wastewater sample", "EX:1"),
    )
    return build_index([clinical, surveillance])


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0), ("abc", "", 3), ("", "abc", 3),
        ("kitten", "sitting", 3), ("flaw", "lawn", 2),
        ("cough", "cough", 0), ("feverr", "fever", 1),
    ])
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry_and_bounds(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    # Any text, or text over a few characters (one outside the BMP), where
    # small distances are common.
    TEXT = st.text(max_size=12) | st.text("ab c\u00e9\U0001d518", max_size=12)

    @given(TEXT, TEXT, st.data())
    def test_distance_within_is_the_distance_cut_at_k_plus_one(self, a, b, data):
        k = data.draw(st.integers(0, max(len(a), len(b)) + 1))
        assert _distance_within(a, b, k) == min(edit_distance(a, b), k + 1)

    @pytest.mark.parametrize("a,b,k,expected", [
        ("", "", 0, 0), ("abc", "", 2, 3), ("", "abc", 3, 3),
        ("kitten", "sitting", 2, 3), ("kitten", "sitting", 3, 3),
        ("abcd", "abxy", 1, 2), ("abcd", "abcx", 1, 1),
        # The last row holds a cell within k, but the last cell exceeds k + 1.
        ("aabb", "bbaa", 2, 3),
    ])
    def test_distance_within_known_cases(self, a, b, k, expected):
        assert _distance_within(a, b, k) == expected


class TestBuildIndex:
    def test_obsolete_terms_excluded(self):
        index = reference_index()
        assert "https://example.org/EX_900" not in index.entries

    def test_source_count_spans_references(self):
        index = reference_index()
        assert index.source_count["http://purl.obolibrary.org/obo/HP_0012735"] == 2
        assert index.source_count["http://purl.obolibrary.org/obo/HP_0031352"] == 1

    def test_phrase_kinds(self):
        index = reference_index()
        _, phrases = index.entries["http://purl.obolibrary.org/obo/HP_0031352"]
        assert phrases == {"productive cough": "label",
                           "wet cough": "exact_synonym",
                           "chesty cough": "other_synonym"}

    def test_each_reference_expands_under_its_own_map(self):
        # EX:1 names one term in the first and third references, whose maps
        # agree, and another in the second; no map is merged into another.
        one = build_vocabulary([term("cough", "EX:1")], {"EX": "https://one.example/"})
        two = build_vocabulary([term("cough", "EX:1")], {"EX": "https://two.example/"})
        purl = build_vocabulary([term("cough", "https://one.example/1")])
        index = build_index([one, two, purl])
        assert index.source_count == {"https://one.example/1": 2, "https://two.example/1": 1}

    def test_label_outranks_synonym_for_same_phrase(self):
        v = vocab(term("cough", "EX:1", synonyms=[("cough", "related")]))
        index = build_index([v])
        _, phrases = index.entries["https://example.org/EX_1"]
        assert phrases == {"cough": "label"}

    def test_exact_synonym_upgrade_across_references(self):
        first = vocab(term("fever", "EX:1", synonyms=[("pyrexia", "related")]))
        second = vocab(term("fever", "EX:1", synonyms=[("pyrexia", "exact")]))
        index = build_index([first, second])
        _, phrases = index.entries["https://example.org/EX_1"]
        assert phrases["pyrexia"] == "exact_synonym"

    def test_phrase_kind_does_not_depend_on_reference_order(self):
        # One reference labels EX:1 "pyrexia"; the other carries it as an
        # exact synonym. The label is the better kind either way, and the
        # term shown is the least-keyed bearer, "fever", either way.
        labelled = vocab(term("pyrexia", "EX:1"))
        synonym = vocab(term("fever", "EX:1", synonyms=[("pyrexia", "exact")]))
        results = []
        for references in ([labelled, synonym], [synonym, labelled]):
            index = build_index(references)
            assert index.entries["https://example.org/EX_1"][1]["pyrexia"] == "label"
            results.append([(s.term.label, s.term.iri, s.score, s.match_kind, s.reuse_count)
                            for s in suggest_terms(index, "pyrexia")])
        assert results[0] == results[1] == [("fever", Iri("EX:1"), 1.0, "exact_label", 2)]


class TestSuggest:
    def test_exact_label(self):
        s, = suggest_terms(reference_index(), "Productive Cough", k=1)
        assert s.term.label == "productive cough"
        assert s.score == 1.0 and s.match_kind == "exact_label"

    def test_exact_synonym(self):
        s = suggest_terms(reference_index(), "wet cough", k=1)[0]
        assert s.term.label == "productive cough"
        assert s.score == pytest.approx(0.9) and s.match_kind == "exact_synonym"

    def test_other_synonym(self):
        s = suggest_terms(reference_index(), "chesty cough", k=1)[0]
        assert s.score == pytest.approx(0.8) and s.match_kind == "other_synonym"

    def test_token_overlap_score(self):
        results = suggest_terms(reference_index(), "wet cough", k=3)
        overlap = [s for s in results if s.match_kind == "token_overlap"]
        # {"wet","cough"} vs {"cough"}: 1 shared of 2 in the union.
        assert overlap[0].term.label == "cough"
        assert overlap[0].score == pytest.approx(0.7 * 1 / 2)

    def test_fuzzy_score(self):
        s = suggest_terms(reference_index(), "feverr", k=1)[0]
        assert s.term.label == "fever" and s.match_kind == "fuzzy"
        assert s.score == pytest.approx(0.6 * (1 - 1 / 6))

    def test_fuzzy_ceiling(self):
        index = build_index([vocab(term("abcd", "EX:1"))])
        assert suggest_terms(index, "abxy") == []   # ratio 0.5 > ceiling
        s, = suggest_terms(index, "abcx")           # ratio 0.25 == ceiling
        assert s.match_kind == "fuzzy"
        assert FUZZY_DISTANCE_CEILING == 0.25

    def test_reuse_count_breaks_score_ties(self):
        a = vocab(term("alpha sample", "EX:1"), term("alpha probe", "EX:2"))
        b = vocab(term("alpha probe", "EX:2"))
        results = suggest_terms(build_index([a, b]), "alpha", k=2)
        assert [s.term.label for s in results] == ["alpha probe", "alpha sample"]
        assert [s.reuse_count for s in results] == [2, 1]

    def test_identity_breaks_remaining_ties(self):
        v = vocab(term("beta sample", "EX:2"), term("beta probe", "EX:1"))
        results = suggest_terms(build_index([v]), "beta", k=2)
        assert [s.term.label for s in results] == ["beta probe", "beta sample"]

    def test_k_truncates(self):
        assert len(suggest_terms(reference_index(), "cough", k=1)) == 1

    def test_k_below_one_returns_nothing(self):
        assert suggest_terms(reference_index(), "cough", k=0) == []

    def test_empty_query_raises(self):
        with pytest.raises(EmptyQueryError):
            suggest_terms(reference_index(), "  !! ")

    def test_no_candidates(self):
        assert suggest_terms(reference_index(), "zzzzzzzz") == []

    def test_a_token_overlap_tied_with_a_fuzzy_score_stays_a_token_overlap(self):
        # 0.7 * 4/5 and 0.6 * (1 - 1/15) are one float. Token overlap, the
        # better-ranked kind, wins the tie within one phrase (EX:1) and
        # between a fuzzy label and a token-overlap synonym (EX:2).
        index = build_index([vocab(
            term("aaa bb cc dd dd", "EX:1"),
            term("aaa bb cc dd dx", "EX:2", synonyms=[("aaa bb cc dd", "related")]))])
        results = suggest_terms(index, "aaa bb cc dd de")
        assert [(s.term.label, s.score, s.match_kind) for s in results] == [
            ("aaa bb cc dd dd", 0.7 * 4 / 5, "token_overlap"),
            ("aaa bb cc dd dx", 0.6 * (1.0 - 1 / 15), "token_overlap")]

    def test_best_phrase_per_term(self):
        # Both the label and the exact synonym match; the term appears once
        # with the higher-scoring kind.
        index = build_index([vocab(term("fever", "EX:1",
                                        synonyms=[("fever", "exact")]))])
        results = suggest_terms(index, "fever")
        assert len(results) == 1 and results[0].match_kind == "exact_label"


def brute_force_best(index, query):
    """Independent rescoring of every (term, phrase) pair."""
    normalized = normalize_label(query)
    qtokens = frozenset(normalized.split())
    best_by_identity = {}
    for identity, (t, phrases) in index.entries.items():
        for phrase, kind in phrases.items():
            candidates = []
            if phrase == normalized:
                exact = {"label": (1.0, "exact_label"),
                         "exact_synonym": (0.9, "exact_synonym"),
                         "other_synonym": (0.8, "other_synonym")}[kind]
                candidates.append(exact)
            else:
                ptokens = frozenset(phrase.split())
                if qtokens & ptokens:
                    jac = len(qtokens & ptokens) / len(qtokens | ptokens)
                    candidates.append((0.7 * jac, "token_overlap"))
                longest = max(len(normalized), len(phrase))
                if longest:
                    ratio = edit_distance(normalized, phrase) / longest
                    if ratio <= 0.25:
                        candidates.append((0.6 * (1 - ratio), "fuzzy"))
            for score, kind_name in candidates:
                current = best_by_identity.get(identity)
                if current is None or score > current[0]:
                    best_by_identity[identity] = (score, kind_name)
    return best_by_identity


WORDS = st.sampled_from(["cough", "wet cough", "dry cough", "fever", "pyrexia", "sample",
                         "swab", "fevr", "wastewater", "belly"])
# Phrases over two or three letters, at lengths where a distance or a length
# difference of exactly a quarter of the longer phrase is common.
BOUNDARY_PHRASES = st.tuples(st.sampled_from(["ab", "abc"]),
                             st.sampled_from([3, 4, 6, 8, 9, 12])).flatmap(
    lambda shape: st.text(shape[0], min_size=shape[1], max_size=shape[1]))


# Enough examples that a cut-off off by one at either boundary fails.
@settings(max_examples=300, deadline=None)
@given(st.tuples(st.lists(WORDS, min_size=1, max_size=3).map(" ".join), st.just([]))
       | st.tuples(BOUNDARY_PHRASES, st.lists(BOUNDARY_PHRASES, min_size=1, max_size=8)))
def test_property_scores_match_brute_force(case):
    # A query against the reference index, or against labels of its own.
    query, labels = case
    index = (build_index([vocab(*(term(label, f"EX:{i}") for i, label in enumerate(labels)))])
             if labels else reference_index())
    expected = brute_force_best(index, query)
    results = suggest_terms(index, query, k=len(index.entries))
    got = {expand_iri(s.term.iri, PREFIXES): s.score for s in results}
    assert set(got) == set(expected)
    for identity, score in got.items():
        assert score == pytest.approx(expected[identity][0], abs=1e-9)
    scores = [s.score for s in results]
    assert scores == sorted(scores, reverse=True)
