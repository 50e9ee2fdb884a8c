import time
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocab_lint import definitions
from vocab_lint.definitions import (
    MAX_REPORTED_CYCLES,
    build_definition_graph,
    check_definition_present,
    check_definition_uniqueness,
    check_genus_differentia,
    detect_circular_definitions,
)
from vocab_lint.model import (
    Definition,
    Iri,
    SourceLocation,
    Term,
    bearer_order,
    build_vocabulary,
    expand_iri,
    find_phrases,
    phrase_table,
    tokens_of,
)

from oracles import GenusDifferentia, first_sentence, parse_genus_differentia
from test_acceptance import brute_force_simple_cycles

PREFIXES = {"EX": "https://example.org/EX_"}


def term(label, iri=None, definition=None, sources=("SRC:1",), parents=(),
         obsolete=False, location=None):
    d = None
    if definition is not None:
        d = Definition(text=definition, sources=tuple(sources))
    return Term(label=label, iri=Iri(iri) if iri else None, definition=d,
                parents=tuple(Iri(p) for p in parents), obsolete=obsolete,
                location=location)


def vocab(*terms_):
    return build_vocabulary(list(terms_), PREFIXES)


def parse(text):
    return parse_genus_differentia(tokens_of(first_sentence(text)))


class TestFirstSentence:
    def test_stops_at_sentence_end(self):
        assert first_sentence("A cough. A second sentence.") == "A cough"

    def test_decimal_point_not_a_boundary(self):
        assert first_sentence("A dose of 2.5 ml given daily.") == "A dose of 2.5 ml given daily"

    def test_no_period_returns_whole_text(self):
        assert first_sentence("no terminator here") == "no terminator here"


class TestParseGenusDifferentia:
    def test_canonical_form(self):
        parsed = parse(
            "A productive cough is a cough that yields sputum.")
        assert parsed == GenusDifferentia(
            subject=("productive", "cough"),
            genus=("cough",),
            differentia=("yields", "sputum"))

    def test_which_connective_and_an(self):
        parsed = parse(
            "An emesis is an expulsion which empties the stomach.")
        assert parsed.genus == ("expulsion",)

    def test_article_optional(self):
        assert parse("Cough is a reflex that clears airways.") is not None

    @pytest.mark.parametrize("text", [
        "Sputum produced by coughing.",            # no copula
        "A is a cough that yields sputum.",        # empty subject after article
        "A wet cough is a that yields sputum.",    # empty genus
        "A wet cough is a cough that.",            # empty differentia
        "A wet cough is a cough with sputum.",     # no connective
        "",
    ])
    def test_structural_failures_return_none(self, text):
        assert parse(text) is None

    def test_only_first_sentence_considered(self):
        parsed = parse(
            "Sputum production. It is a cough that yields sputum.")
        assert parsed is None


class TestDefinitionPresent:
    def test_missing_definition_warns(self):
        f, = check_definition_present(term("cough", "EX:1"))
        assert f.rule_id == "R07-MISSING-DEF" and f.severity == "warning"

    def test_obsolete_exempt(self):
        assert check_definition_present(term("old", "EX:1", obsolete=True)) == []

    def test_missing_source_is_info(self):
        f, = check_definition_present(
            term("cough", "EX:1", definition="A reflex.", sources=()))
        assert f.rule_id == "R07-MISSING-SOURCE" and f.severity == "info"

    def test_sourced_definition_passes(self):
        assert check_definition_present(
            term("cough", "EX:1", definition="A reflex.")) == []

    def test_obsolete_with_unsourced_definition_still_noted(self):
        f, = check_definition_present(
            term("old", "EX:1", definition="A relic.", sources=(), obsolete=True))
        assert f.rule_id == "R07-MISSING-SOURCE"


class TestGenusDifferentia:
    def test_non_conforming_form_is_info(self):
        t = term("sputum", "EX:1", definition="Mucus from the airways.")
        f, = check_genus_differentia(t, vocab(t))
        assert f.rule_id == "R07-FORM" and f.severity == "info"

    def test_conforming_no_parents_passes(self):
        t = term("wet cough", "EX:1",
                 definition="A wet cough is a cough that yields sputum.")
        assert check_genus_differentia(t, vocab(t)) == []

    def test_genus_matches_parent(self):
        parent = term("cough", "EX:1", definition="A cough is a reflex that clears airways.")
        child = term("wet cough", "EX:2", parents=["EX:1"],
                     definition="A wet cough is a cough that yields sputum.")
        assert check_genus_differentia(child, vocab(parent, child)) == []

    def test_genus_mismatch_fires(self):
        parent = term("reflex", "EX:1", definition="A reflex is a response that is involuntary.")
        child = term("wet cough", "EX:2", parents=["EX:1"],
                     definition="A wet cough is a cough that yields sputum.")
        f, = check_genus_differentia(child, vocab(parent, child))
        assert f.rule_id == "R07-GENUS-MISMATCH"
        assert '"cough"' in f.message

    def test_unresolvable_parents_skip_the_check(self):
        child = term("wet cough", "EX:2", parents=["EX:404"],
                     definition="A wet cough is a cough that yields sputum.")
        assert check_genus_differentia(child, vocab(child)) == []

    def test_any_resolvable_parent_suffices(self):
        p1 = term("reflex", "EX:1", definition="A reflex is a response that is involuntary.")
        p2 = term("cough", "EX:3", definition="A cough is a reflex that clears airways.")
        child = term("wet cough", "EX:2", parents=["EX:1", "EX:3"],
                     definition="A wet cough is a cough that yields sputum.")
        assert check_genus_differentia(child, vocab(p1, p2, child)) == []

    def test_multiword_parent_matched_as_token_run(self):
        parent = term("body fluid", "EX:1",
                      definition="A body fluid is a liquid that the body produces.")
        child = term("plasma", "EX:2", parents=["EX:1"],
                     definition="Plasma is a body fluid that carries cells.")
        assert check_genus_differentia(child, vocab(parent, child)) == []

    def test_parent_whose_label_has_no_tokens_still_mismatches(self):
        # "--" normalizes to an empty key: a resolvable parent no genus can name.
        parent = term("--", "EX:1")
        child = term("wet cough", "EX:2", parents=["EX:1"],
                     definition="A wet cough is a cough that yields sputum.")
        f, = check_genus_differentia(child, vocab(parent, child))
        assert f.rule_id == "R07-GENUS-MISMATCH"

    def test_genus_naming_another_bearer_of_the_parent_iri_still_mismatches(self):
        # EX:1 resolves to its least bearer, "sample"; "specimen" shares the
        # IRI, and so the label table's identity, but is not that parent.
        child = term("nasal swab", "EX:2", parents=["EX:1"],
                     definition="A nose sample is a specimen that is taken from the nose.")
        for order in ((term("specimen", "EX:1"), term("sample", "EX:1"), child),
                      (child, term("sample", "EX:1"), term("specimen", "EX:1"))):
            f, = check_genus_differentia(child, vocab(*order))
            assert f.rule_id == "R07-GENUS-MISMATCH"

    @given(st.lists(st.sampled_from(["wet", "dry", "cough", "reflex"]), min_size=1, max_size=6),
           st.lists(st.lists(st.sampled_from(["wet", "dry", "cough", "reflex"]), max_size=3),
                    min_size=1, max_size=4))
    def test_genus_test_matches_the_phrase_table_lookup(self, genus, parent_labels):
        parents = [term(" ".join(words) or "--", f"EX:{i}")
                   for i, words in enumerate(parent_labels, start=1)]
        child = term("child", "EX:0", parents=[p.iri.value for p in parents],
                     definition=f"A child is a {' '.join(genus)} that yields sputum.")
        # A phrase table of the parents' labels alone: a run of the genus
        # names a parent exactly when it is one of these phrases.
        mentioned = any(find_phrases(tuple(genus), phrase_table((p.tokens, p) for p in parents)))
        findings = check_genus_differentia(child, vocab(child, *parents))
        assert [f.rule_id for f in findings] == ([] if mentioned else ["R07-GENUS-MISMATCH"])

    @given(st.text(st.one_of(st.characters(), st.sampled_from(". \n")), min_size=1))
    def test_parses_the_first_sentence_read_from_the_cached_tokens(self, text):
        d = Definition(text)
        assert d.tokens[:d.head] == tuple(tokens_of(first_sentence(text)))

    def test_parses_the_head_of_the_definition(self):
        t = term("x", definition="A cough is a reflex. That clears it.")
        with mock.patch.object(definitions, "_genus_span", return_value=None) as parsed:
            check_genus_differentia(t, vocab(t))
        assert parsed.call_args.args[0] == ("a", "cough", "is", "a", "reflex")


class TestDefinitionUniqueness:
    def test_identical_texts_grouped(self):
        a = term("dry cough", "EX:1", definition="A cough that yields no sputum.")
        b = term("unproductive cough", "EX:2", definition="A cough that yields NO sputum.")
        f, = check_definition_uniqueness(vocab(a, b))
        assert f.rule_id == "R07-DUPLICATE-DEF"
        assert f.subject_label == "dry cough"
        assert "dry cough; unproductive cough" in f.message

    def test_obsolete_members_excluded(self):
        a = term("dry cough", "EX:1", definition="A cough that yields no sputum.")
        b = term("unproductive cough", "EX:2", obsolete=True,
                 definition="A cough that yields no sputum.")
        assert check_definition_uniqueness(vocab(a, b)) == []

    def test_distinct_texts_pass(self):
        a = term("dry cough", "EX:1", definition="A cough that yields no sputum.")
        b = term("wet cough", "EX:2", definition="A cough that yields sputum.")
        assert check_definition_uniqueness(vocab(a, b)) == []

    def test_location_is_earliest_member(self):
        loc1 = SourceLocation(file="a.obo", line=9)
        loc2 = SourceLocation(file="a.obo", line=3)
        a = term("dry cough", "EX:1", definition="Shared.", location=loc1)
        b = term("unproductive cough", "EX:2", definition="Shared.", location=loc2)
        f, = check_definition_uniqueness(vocab(a, b))
        assert f.location == loc2


class TestDefinitionGraph:
    def test_edge_from_mention(self):
        a = term("cough", "EX:1", definition="A reflex that clears airways.")
        b = term("wet cough", "EX:2", definition="A cough that yields sputum.")
        g = build_definition_graph(vocab(a, b))
        ida, idb = "https://example.org/EX_1", "https://example.org/EX_2"
        assert (idb, ida) in g.edges
        assert (ida, idb) not in g.edges

    def test_subsequence_not_substring(self):
        a = term("cough", "EX:1", definition="A reflex produced by coughing fits.")
        g = build_definition_graph(vocab(a))
        assert g.edges == frozenset()

    def test_multiword_label_needs_contiguous_run(self):
        a = term("wet cough", "EX:1", definition="A reflex.")
        b = term("sample", "EX:2", definition="A wet sputum cough source.")
        c = term("other", "EX:3", definition="Makes a wet cough happen.")
        g = build_definition_graph(vocab(a, b, c))
        id1 = "https://example.org/EX_1"
        id2 = "https://example.org/EX_2"
        id3 = "https://example.org/EX_3"
        assert (id3, id1) in g.edges
        assert (id2, id1) not in g.edges

    def test_self_edge_recorded(self):
        a = term("cough", "EX:1", definition="A cough that repeats.")
        g = build_definition_graph(vocab(a))
        ident = "https://example.org/EX_1"
        assert (ident, ident) in g.edges

    def test_terms_without_definitions_are_nodes_without_out_edges(self):
        a = term("cough", "EX:1")
        g = build_definition_graph(vocab(a))
        assert "https://example.org/EX_1" in g.nodes
        assert g.edges == frozenset()


    # Labels that share first tokens and nest, plus one with no tokens at all.
    @given(st.lists(st.sampled_from(["a", "a b", "a b c", "b", "b c", "c a", "--"]),
                    min_size=1, max_size=8),
           st.data())
    def test_edges_match_a_brute_force_scan_of_every_pair(self, labels, data):
        terms = []
        for i, label in enumerate(labels):
            words = data.draw(st.lists(st.sampled_from("abcd"), max_size=10))
            terms.append(term(label, f"EX:{i % 6}",
                              definition=" ".join(words) + "." if words else None))
        v = vocab(*terms)
        # Every bearer of an identity speaks for it, with its label and its
        # definition.
        expected = set()
        self_mentions = []
        for t in v.terms:
            for u in v.terms:
                if t.definition is None or not u.tokens:
                    continue
                run, width = t.definition.tokens, len(u.tokens)
                if any(run[i:i + width] == u.tokens for i in range(len(run))):
                    expected.add((expand_iri(t.iri, v.prefix_map), expand_iri(u.iri, v.prefix_map)))
                    if u is t:
                        self_mentions.append(t)
        graph = build_definition_graph(v)
        assert graph.edges == expected
        assert graph.self_mentions == tuple(self_mentions)
        least = {}
        for t in v.terms:
            node_id = expand_iri(t.iri, v.prefix_map)
            least[node_id] = min(least.get(node_id, bearer_order(t)), bearer_order(t))
        assert {node_id: bearer_order(t) for node_id, t in graph.nodes.items()} == least


class TestCircularDefinitions:
    def test_self_reference(self):
        a = term("cough", "EX:1", definition="A cough that repeats.")
        f, = detect_circular_definitions(vocab(a))
        assert f.rule_id == "R07-SELF-REF" and f.subject_label == "cough"

    def test_every_bearer_of_an_iri_is_tested_on_its_own_definition(self):
        vessel = term("vessel", "EX:1", definition="A vessel that holds liquid.")
        jar = term("jar", "EX:1", definition="A jar with a lid.")
        mute = term("pot", "EX:1", definition="A container.")
        for order in ((vessel, jar, mute), (mute, jar, vessel)):
            findings = detect_circular_definitions(vocab(*order))
            assert [(f.rule_id, f.subject_label) for f in findings] == [
                ("R07-SELF-REF", "jar"), ("R07-SELF-REF", "vessel")]

    def test_two_cycle(self):
        a = term("harvest season", "EX:1",
                 definition="The period before the growing season ends.")
        b = term("growing season", "EX:2",
                 definition="The period after the harvest season.")
        f, = detect_circular_definitions(vocab(a, b))
        assert f.rule_id == "R07-CIRCULAR"
        assert f.subject_label == "harvest season -> growing season"
        assert "(harvest season -> growing season -> harvest season)" in f.message

    def test_rotation_starts_at_least_identity(self):
        # b -> c -> a -> b; least identity is EX_1 (term a).
        a = term("alpha", "EX:1", definition="Comes before beta here.")
        b = term("beta", "EX:2", definition="Comes before gamma here.")
        c = term("gamma", "EX:3", definition="Comes before alpha here.")
        f, = detect_circular_definitions(vocab(c, b, a))
        assert f.subject_label == "alpha -> beta -> gamma"

    def test_acyclic_chain_is_clean(self):
        a = term("cough", "EX:1", definition="A reflex that clears airways.")
        b = term("wet cough", "EX:2", definition="A cough that yields sputum.")
        assert detect_circular_definitions(vocab(a, b)) == []

    def test_cycle_cap(self):
        # A hub pattern with many 2-cycles through distinct satellites.
        terms = [term("hub", "EX:0", definition="Touches " + " and ".join(
            f"spoke{i}" for i in range(150)) + " daily.")]
        for i in range(150):
            terms.append(term(f"spoke{i}", f"EX:{i + 1}",
                              definition="Connected to the hub always."))
        v = vocab(*terms)
        findings = detect_circular_definitions(v)
        cycles = [f for f in findings if f.rule_id == "R07-CIRCULAR"]
        assert len(cycles) == MAX_REPORTED_CYCLES
        # The cap keeps the first cycles in sorted order, not whichever the
        # enumerator happened to find first.
        g = build_definition_graph(v)
        by_label = {g.nodes[n].label: n for n in g.nodes}
        got = [tuple(by_label[lbl] for lbl in f.subject_label.split(" -> "))
               for f in cycles]
        expected = sorted(brute_force_simple_cycles(set(g.nodes), g.edges))
        assert got == expected[:MAX_REPORTED_CYCLES]
        reversed_findings = detect_circular_definitions(vocab(*reversed(terms)))
        assert [f.subject_label for f in reversed_findings
                if f.rule_id == "R07-CIRCULAR"] == [f.subject_label for f in cycles]

    def test_long_ring_is_one_cycle_without_recursion(self):
        # Single-token labels keep build_definition_graph linear; the ring is
        # far deeper than the interpreter's recursion limit.
        n = 20_000
        terms = [term(f"t{i}", f"EX:{i}", definition=f"Follows t{(i + 1) % n} closely.")
                 for i in range(n)]
        v = vocab(*terms)
        started = time.perf_counter()
        findings = detect_circular_definitions(v)
        elapsed = time.perf_counter() - started
        f, = findings
        assert f.rule_id == "R07-CIRCULAR"
        assert f.subject_label.count(" -> ") == n - 1
        assert elapsed < 5.0

    def test_clique_stops_at_cap_quickly(self):
        # A 40-clique has astronomically many cycles; enumeration must stop
        # once the cap is reached.
        labels = [f"c{i}" for i in range(40)]
        terms = [term(label, f"EX:{i}", definition="Mentions " + " ".join(
            other for other in labels if other != label) + " here.")
            for i, label in enumerate(labels)]
        v = vocab(*terms)
        started = time.perf_counter()
        findings = detect_circular_definitions(v)
        elapsed = time.perf_counter() - started
        assert [f.rule_id for f in findings] == ["R07-CIRCULAR"] * MAX_REPORTED_CYCLES
        assert elapsed < 0.5

    def test_input_order_invariance(self):
        a = term("harvest season", "EX:1",
                 definition="The period before the growing season ends.")
        b = term("growing season", "EX:2",
                 definition="The period after the harvest season.")
        first = detect_circular_definitions(vocab(a, b))
        second = detect_circular_definitions(vocab(b, a))
        assert [f.message for f in first] == [f.message for f in second]


@given(st.lists(st.sampled_from(["cough", "fever", "sputum", "airway"]),
                min_size=1, max_size=6, unique=True),
       st.data())
def test_property_every_reported_cycle_is_a_real_cycle(labels, data):
    terms = []
    for i, label in enumerate(labels):
        mentioned = data.draw(st.lists(st.sampled_from(labels), max_size=3))
        text = "Means " + " then ".join(mentioned) + " today." if mentioned else "Means rest."
        terms.append(term(label, f"EX:{i}", definition=text))
    v = vocab(*terms)
    g = build_definition_graph(v)
    by_label = {g.nodes[n].label: n for n in g.nodes}
    for f in detect_circular_definitions(v):
        if f.rule_id == "R07-SELF-REF":
            ident = by_label[f.subject_label]
            assert (ident, ident) in g.edges
        else:
            chain = [by_label[lbl] for lbl in f.subject_label.split(" -> ")]
            for t, u in zip(chain, chain[1:] + chain[:1]):
                assert (t, u) in g.edges
