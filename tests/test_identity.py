import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocab_lint.identity import (
    DEFAULT_PREFIXES,
    PrefixMap,
    PrefixMapError,
    check_deprecation,
    check_iri,
    check_iri_uniqueness,
    check_label_collisions,
    check_synonym_collisions,
    default_prefix_map,
    load_prefix_map,
)
from vocab_lint.model import (
    Iri,
    Synonym,
    Term,
    build_vocabulary,
)

from oracles import ReplacementCycleError, UnknownIriError, resolve_replacement

PREFIXES = {"EX": "https://example.org/EX_", **DEFAULT_PREFIXES}


def term(label, iri=None, parents=(), synonyms=(), obsolete=False, replaced_by=None):
    return Term(label=label, iri=Iri(iri) if iri else None,
                parents=tuple(Iri(p) for p in parents),
                synonyms=tuple(Synonym(s) for s in synonyms),
                obsolete=obsolete,
                replaced_by=Iri(replaced_by) if replaced_by else None)


def vocab(*terms_):
    return build_vocabulary(list(terms_), PREFIXES)


class TestPrefixMapLoading:
    def test_defaults_are_purls(self):
        pm = default_prefix_map()
        assert pm.entries["HP"] == "http://purl.obolibrary.org/obo/HP_"
        assert "HP" in pm.obo_prefixes

    def test_file_extends_defaults(self):
        pm = load_prefix_map("EX\thttps://example.org/EX_\texternal\n")
        assert pm.entries["EX"] == "https://example.org/EX_"
        assert "EX" not in pm.obo_prefixes
        assert "HP" in pm.entries

    def test_obo_kind_registers_prefix(self):
        pm = load_prefix_map("ZZ\thttp://purl.obolibrary.org/obo/ZZ_\tobo\n")
        assert "ZZ" in pm.obo_prefixes

    def test_file_entry_replaces_default(self):
        pm = load_prefix_map("HP\thttps://mirror.example.org/HP_\texternal\n")
        assert pm.entries["HP"] == "https://mirror.example.org/HP_"
        assert "HP" not in pm.obo_prefixes

    def test_comments_and_blanks_skipped(self):
        pm = load_prefix_map("# heading\n\nEX\thttps://example.org/EX_\texternal\n")
        assert "EX" in pm.entries

    @pytest.mark.parametrize("line", [
        "EX\thttps://example.org/EX_",            # 2 fields
        "EX\thttps://example.org/EX_\tweird",     # bad kind
        "EX\thttps://a/\texternal\nEX\thttps://b/\texternal",  # duplicate
        "EX\tnot-absolute\texternal",             # relative base
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(PrefixMapError):
            load_prefix_map(line + "\n")

    def test_errors_name_their_line(self):
        with pytest.raises(PrefixMapError, match="^line 3: expected 3 tab-separated fields$"):
            load_prefix_map("# heading\n\nEX only\n")

    def test_lone_cr_ends_a_line_and_a_form_feed_does_not(self):
        prefixes = load_prefix_map("EX\thttps://example.org/EX_\tobo\rXY\thttps://x.org/a\fb\t"
                                   "external\r")
        assert prefixes.entries["XY"] == "https://x.org/a\fb" and "EX" in prefixes.obo_prefixes

    # Texts built from the pieces of a prefix-map line and from any characters.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["\t", "\n", "\r", " ", "#", ":", "EX", "HP", "obo", "external",
                         "https://example.org/EX_", "http://purl.obolibrary.org/obo/"]),
        st.text(max_size=3)), max_size=24).map("".join))
    def test_any_text_loads_or_raises_a_prefix_map_error(self, text):
        try:
            assert isinstance(load_prefix_map(text), PrefixMap)
        except PrefixMapError:
            pass

    @pytest.mark.parametrize("prefix", ["", " EX", "EX "])
    def test_empty_or_padded_prefix_raises(self, prefix):
        with pytest.raises(PrefixMapError, match="^invalid prefix"):
            PrefixMap(entries={prefix: "https://example.org/EX_"})

    def test_obo_prefix_must_have_entry(self):
        with pytest.raises(PrefixMapError):
            PrefixMap(entries={}, obo_prefixes=frozenset({"HP"}))


class TestCheckIri:
    def test_missing_iri_warns(self):
        f, = check_iri(term("cough"), default_prefix_map())
        assert f.rule_id == "R06-MISSING-IRI" and f.severity == "warning"

    def test_registered_curie_passes(self):
        assert check_iri(term("cough", "HP:0012735"), default_prefix_map()) == []

    def test_unregistered_curie_is_error(self):
        f, = check_iri(term("cough", "XYZ:123"), default_prefix_map())
        assert f.rule_id == "R06-BAD-IRI" and f.severity == "error"
        assert '"XYZ:123"' in f.message

    def test_bare_token_is_error(self):
        f, = check_iri(term("cough", "12735"), default_prefix_map())
        assert f.rule_id == "R06-BAD-IRI"

    def test_purl_for_obo_prefix_passes(self):
        assert check_iri(term("cough", "http://purl.obolibrary.org/obo/HP_0012735"),
                         default_prefix_map()) == []

    def test_https_purl_for_obo_prefix_passes(self):
        assert check_iri(term("cough", "https://purl.obolibrary.org/obo/HP_0012735"),
                         default_prefix_map()) == []

    @pytest.mark.parametrize("iri", [
        "https://hpo.example.org/ontology/HP_0012735",
        "https://hpo.example.org/terms#HP_0012735",
        "https://hpo.example.org/HP/0012735",
    ])
    def test_non_purl_shapes_are_info(self, iri):
        f, = check_iri(term("cough", iri), default_prefix_map())
        assert f.rule_id == "R06-NONPURL" and f.severity == "info"
        assert '"HP"' in f.message
        assert "(http://purl.obolibrary.org/obo/HP_...)" in f.message

    def test_nonpurl_names_the_least_mentioned_prefix(self):
        f, = check_iri(term("heart", "https://example.org/HP/UBERON_0000948"),
                       default_prefix_map())
        assert '"HP"' in f.message and "UBERON" not in f.message

    @pytest.mark.parametrize("iri", [
        "https://hpo.example.org/HP/0012735",
        "http://purl.obolibrary.org/obo/HP_0012735",
    ])
    def test_no_obo_prefix_holds_no_iri_to_the_purl_form(self, iri):
        pm = PrefixMap(entries=dict(DEFAULT_PREFIXES))
        assert check_iri(term("cough", iri), pm) == []

    def test_foreign_absolute_iri_passes(self):
        assert check_iri(term("widget", "https://example.org/vocab/widget"),
                         default_prefix_map()) == []

    def test_external_prefix_not_held_to_purl(self):
        pm = load_prefix_map("EX\thttps://example.org/EX_\texternal\n")
        assert check_iri(term("widget", "https://example.org/EX_1"), pm) == []


class TestIriUniqueness:
    def test_shared_identity_is_error(self):
        a = term("cough", "HP:0012735")
        b = term("tussis", "http://purl.obolibrary.org/obo/HP_0012735")
        f, = check_iri_uniqueness(vocab(a, b))
        assert f.rule_id == "R06-DUP-IRI" and f.severity == "error"
        assert "cough; tussis" in f.message

    def test_iriless_terms_do_not_collide(self):
        assert check_iri_uniqueness(vocab(term("cough"), term("fever"))) == []

    def test_distinct_iris_pass(self):
        assert check_iri_uniqueness(
            vocab(term("cough", "HP:0012735"), term("fever", "HP:0001945"))) == []


class TestLabelCollisions:
    def test_same_label_two_identities(self):
        a = term("plasma", "NCIT:C13356")
        b = term("plasma", "ENVO:01000798")
        f, = check_label_collisions(vocab(a, b))
        assert f.rule_id == "C-SEMANTIC-NOISE" and f.severity == "warning"
        assert "2 distinct terms" in f.message
        assert "ENVO_01000798" in f.message and "NCIT_C13356" in f.message

    def test_normalization_applies(self):
        a = term("Plasma", "NCIT:C13356")
        b = term("plasma", "ENVO:01000798")
        assert len(check_label_collisions(vocab(a, b))) == 1

    def test_same_identity_not_noise(self):
        a = term("plasma", "NCIT:C13356")
        b = term("Plasma", "NCIT:C13356")
        assert check_label_collisions(vocab(a, b)) == []

    def test_obsolete_terms_excluded(self):
        a = term("plasma", "NCIT:C13356")
        b = term("plasma", "ENVO:01000798", obsolete=True)
        assert check_label_collisions(vocab(a, b)) == []

    def test_iriless_duplicates_not_counted(self):
        assert check_label_collisions(vocab(term("plasma"), term("plasma"))) == []


class TestSynonymCollisions:
    def test_synonym_matches_other_label(self):
        a = term("tachypnea", "HP:0002789", synonyms=["rapid breathing"])
        b = term("rapid breathing", "EX:1")
        f, = check_synonym_collisions(vocab(a, b))
        assert f.rule_id == "C-SYNONYM-CLASH" and f.severity == "info"
        assert '"rapid breathing"' in f.message

    def test_synonym_matches_other_synonym(self):
        a = term("vomiting", "EX:1", synonyms=["throwing up"])
        b = term("emesis", "EX:2", synonyms=["Throwing Up"])
        f, = check_synonym_collisions(vocab(a, b))
        assert "vomiting" in f.message and "emesis" in f.message

    def test_pair_reported_once(self):
        a = term("vomiting", "EX:1", synonyms=["throwing up"])
        b = term("emesis", "EX:2", synonyms=["throwing up"])
        assert len(check_synonym_collisions(vocab(a, b))) == 1

    def test_own_label_as_synonym_exempt(self):
        a = term("cough", "EX:1", synonyms=["cough"])
        assert check_synonym_collisions(vocab(a)) == []

    def test_obsolete_terms_excluded(self):
        a = term("tachypnea", "HP:0002789", synonyms=["rapid breathing"])
        b = term("rapid breathing", "EX:1", obsolete=True)
        assert check_synonym_collisions(vocab(a, b)) == []

    def test_obsolete_synonym_does_not_clash_with_live_label(self):
        a = term("obsolete tachypnea", "HP:0002789", synonyms=["rapid breathing"],
                 obsolete=True)
        b = term("rapid breathing", "EX:1")
        assert check_synonym_collisions(vocab(a, b)) == []

    def test_shared_labels_alone_are_not_a_clash(self):
        assert check_synonym_collisions(vocab(term("plasma", "EX:1"),
                                              term("plasma", "EX:2"))) == []

    def test_own_label_as_synonym_counts_the_term_once(self):
        a = term("cough", "EX:2", synonyms=["cough", "Cough"])
        b = term("tussis", "EX:1", synonyms=["cough"])
        f, = check_synonym_collisions(vocab(a, b))
        assert f.message == ('phrase "cough" appears on both "tussis" and "cough"; '
                             "shared synonyms blur term boundaries")

    def test_one_finding_lists_every_carrier_by_identity(self):
        a = term("tachypnea", "EX:3", synonyms=["rapid breathing"])
        b = term("rapid breathing", "EX:1")
        c = term("polypnea", "EX:2", synonyms=["Rapid breathing", "fast breathing"])
        d = term("hyperpnea", "EX:4", synonyms=["fast breathing"])
        fast, rapid = check_synonym_collisions(vocab(a, b, c, d))
        assert rapid.subject_label == "rapid breathing"
        assert rapid.message == (
            'phrase "rapid breathing" appears on 3 terms ("rapid breathing", "polypnea", '
            '"tachypnea"); shared synonyms blur term boundaries')
        assert [iri.value for iri in rapid.subject_iris] == ["EX:1", "EX:2", "EX:3"]
        assert fast.message.startswith('phrase "fast breathing" appears on both "polypnea" and')


class TestDeprecation:
    def test_label_prefix_required(self):
        f, = check_deprecation(vocab(term("Rapid Breathing", "EX:1", obsolete=True,
                                          replaced_by="EX:2"),
                                     term("tachypnea", "EX:2")))
        assert f.rule_id == "R08-LABEL"

    def test_obsolete_prefix_accepted(self):
        v = vocab(term("obsolete rapid breathing", "EX:1", obsolete=True,
                       replaced_by="EX:2"),
                  term("tachypnea", "EX:2"))
        assert check_deprecation(v) == []

    def test_prefix_match_is_token_based(self):
        v = vocab(term("OBSOLETE: rapid breathing", "EX:1", obsolete=True,
                       replaced_by="EX:2"),
                  term("tachypnea", "EX:2"))
        assert check_deprecation(v) == []

    def test_no_replacement_is_info(self):
        f, = check_deprecation(vocab(term("obsolete kit", "EX:1", obsolete=True)))
        assert f.rule_id == "R08-NO-REPLACEMENT" and f.severity == "info"

    def test_live_term_with_pointer(self):
        v = vocab(term("cough", "EX:1", replaced_by="EX:2"), term("fever", "EX:2"))
        f, = check_deprecation(v)
        assert f.rule_id == "R08-LIVE-REPLACED" and f.severity == "warning"

    def test_dangling_target(self):
        f, = check_deprecation(vocab(term("obsolete kit", "EX:1", obsolete=True,
                                          replaced_by="EX:404")))
        assert f.rule_id == "R08-DANGLING" and f.severity == "error"
        assert '"EX:404"' in f.message

    def test_chain_resolves_to_terminus(self):
        v = vocab(term("obsolete one", "EX:1", obsolete=True, replaced_by="EX:2"),
                  term("obsolete two", "EX:2", obsolete=True, replaced_by="EX:3"),
                  term("three", "EX:3"))
        findings = check_deprecation(v)
        chains = [f for f in findings if f.rule_id == "R08-CHAIN"]
        assert len(chains) == 1
        assert chains[0].subject_label == "obsolete one"
        assert chains[0].suggestion == "three"
        assert '"three"' in chains[0].message

    def test_cycle_is_error(self):
        v = vocab(term("obsolete one", "EX:1", obsolete=True, replaced_by="EX:2"),
                  term("obsolete two", "EX:2", obsolete=True, replaced_by="EX:1"))
        rules = sorted(f.rule_id for f in check_deprecation(v))
        assert rules == ["R08-CYCLE", "R08-CYCLE"]

    def test_chain_with_dangling_tail_reported_once(self):
        v = vocab(term("obsolete one", "EX:1", obsolete=True, replaced_by="EX:2"),
                  term("obsolete two", "EX:2", obsolete=True, replaced_by="EX:404"))
        rules = sorted(f.rule_id for f in check_deprecation(v))
        assert rules == ["R08-DANGLING"]
        f, = check_deprecation(v)
        assert f.subject_label == "obsolete two"

    def test_live_term_in_mid_chain_with_dangling_link_gives_no_chain(self):
        v = vocab(term("obsolete one", "EX:1", obsolete=True, replaced_by="EX:2"),
                  term("obsolete two", "EX:2", obsolete=True, replaced_by="EX:3"),
                  term("three", "EX:3", replaced_by="EX:404"))
        assert [(f.rule_id, f.subject_label) for f in check_deprecation(v)] == [
            ("R08-LIVE-REPLACED", "three"), ("R08-DANGLING", "three")]

    def test_self_replacement_is_a_cycle(self):
        f, = check_deprecation(vocab(term("obsolete one", "EX:1", obsolete=True,
                                          replaced_by="EX:1")))
        assert f.rule_id == "R08-CYCLE"

    def test_obsolete_parent(self):
        v = vocab(term("obsolete old farm", "EX:1", obsolete=True,
                       replaced_by="EX:3"),
                  term("barn", "EX:2", parents=["EX:1"]),
                  term("farm", "EX:3"))
        findings = check_deprecation(v)
        parents = [f for f in findings if f.rule_id == "R08-OBSOLETE-PARENT"]
        assert len(parents) == 1 and parents[0].subject_label == "barn"
        assert '"obsolete old farm"' in parents[0].message

    def test_live_parent_is_fine(self):
        v = vocab(term("farm", "EX:1"), term("barn", "EX:2", parents=["EX:1"]))
        assert check_deprecation(v) == []

    def test_unresolvable_parent_ignored(self):
        v = vocab(term("barn", "EX:2", parents=["EX:404"]))
        assert check_deprecation(v) == []


def chain_findings_by_resolving_each_term(v):
    """R08-CHAIN and R08-CYCLE as resolve_replacement gives them, one term at a
    time: from the term itself when it owns its IRI's index slot, else from its
    replacement target."""
    expected = []
    for t in v.terms:
        target = v.term_for(t.replaced_by) if t.replaced_by is not None else None
        if target is None or not target.obsolete:
            continue
        start = t.iri if t.iri is not None and v.term_for(t.iri) is t else t.replaced_by
        try:
            final = resolve_replacement(v, start)
        except ReplacementCycleError:
            expected.append(("R08-CYCLE", t.label, None,
                             "replacement pointers form a cycle; no live "
                             "replacement can be reached"))
        except UnknownIriError:
            continue
        else:
            end = v.term_for(final)
            expected.append(("R08-CHAIN", t.label, end.label,
                             f'replacement target "{target.label}" is itself obsolete; '
                             f'the chain resolves to "{end.label}" ({final.value}); '
                             "point directly at the live term"))
    return expected


def test_chains_match_resolving_each_term_on_random_replacement_graphs():
    rng = random.Random(20261018)

    def iri(n):
        # The CURIE and the absolute form name one IRI.
        return rng.choice([f"EX:{n}", f"https://example.org/EX_{n}"])

    for _ in range(2000):
        ids = rng.randint(1, 7)
        terms = []
        for i in range(rng.randint(1, 9)):
            obsolete = rng.random() < 0.7
            # Ids past the last one dangle; drawing from few ids makes
            # duplicates, cycles and live terms in mid-chain common.
            target = rng.randrange(ids + 2) if rng.random() < 0.8 else None
            terms.append(term(("obsolete " if obsolete else "") + f"t{i}",
                              iri(rng.randrange(ids)) if rng.random() < 0.9 else None,
                              obsolete=obsolete,
                              replaced_by=iri(target) if target is not None else None))
        v = vocab(*terms)
        found = [(f.rule_id, f.subject_label, f.suggestion, f.message)
                 for f in check_deprecation(v) if f.rule_id in ("R08-CHAIN", "R08-CYCLE")]
        assert found == chain_findings_by_resolving_each_term(v)
