import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocab_lint.lexical import (
    LexiconError,
    Lexicons,
    apply_lexicon_overrides,
    check_abbreviation,
    check_colloquial,
    check_concept_bomb,
    check_conjunction,
    check_negative_phrasing,
    check_plural,
    check_redundant_narrowing,
    check_tag_style,
    check_timeline,
    default_lexicons,
    detect_word_bombs,
)
from vocab_lint.model import Iri, Term, build_vocabulary

from test_model import EVERY_COPY

LEX = default_lexicons()
THRESHOLD, MIN_GROUP = 7, 5  # RuleConfig's defaults


def term(label, iri=None, parents=(), synonyms=(), obsolete=False):
    from vocab_lint.model import Synonym
    return Term(label=label, iri=Iri(iri) if iri else None,
                parents=tuple(Iri(p) for p in parents),
                synonyms=tuple(Synonym(s) for s in synonyms),
                obsolete=obsolete)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestAbbreviation:
    def test_unexpanded_abbreviation(self):
        f, = check_abbreviation(term("LFT"), LEX)
        assert f.rule_id == "R05-ABBREV" and f.severity == "warning"

    def test_mixed_label(self):
        f, = check_abbreviation(term("RNA extraction"), LEX)
        assert '"RNA"' in f.message

    def test_accepted_word(self):
        assert check_abbreviation(term("LASER"), LEX) == []
        assert check_abbreviation(term("laser cutter"), LEX) == []

    def test_lowercase_and_long_tokens_pass(self):
        assert check_abbreviation(term("pH measurement"), LEX) == []
        assert check_abbreviation(term("COVID-19 positive"), LEX) == []

    # An abbreviation is 2 to 5 capitals or digits, any capital from A to Z.
    @pytest.mark.parametrize("token,flagged", [
        ("Q", False), ("CT", True), ("ABCDE", True), ("ABCDEF", False), ("XYZ", True),
    ])
    def test_abbreviation_bounds(self, token, flagged):
        assert rule_ids(check_abbreviation(term(f"{token} panel"), LEX)) == (
            ["R05-ABBREV"] if flagged else [])

    def test_expansion_style(self):
        f, = check_abbreviation(term("Bronchoalveolar lavage (BAL)"), LEX)
        assert f.rule_id == "R05-EXPANSION-STYLE" and f.severity == "info"
        assert f.suggestion and "BAL" in f.suggestion

    def test_expansion_style_needs_trailing_parens(self):
        assert check_abbreviation(term("(BAL) lavage"), LEX) == []

    def test_digits_only_parenthetical_ignored(self):
        assert check_abbreviation(term("sample (42)"), LEX) == []

    def test_both_can_fire(self):
        findings = check_abbreviation(term("LFT panel (LP)"), LEX)
        assert rule_ids(findings) == ["R05-ABBREV", "R05-EXPANSION-STYLE"]


class TestNegativePhrasing:
    @pytest.mark.parametrize("label", [
        "not collected", "no growth", "none detected", "all meat except lamb",
        "sample without treatment", "neither option",
    ])
    def test_determiners_warn(self, label):
        f, = check_negative_phrasing(term(label), LEX)
        assert f.rule_id == "R02-NEGATIVE" and f.severity == "warning"

    def test_one_finding_for_many_determiners(self):
        f, = check_negative_phrasing(term("not this and not without that"), LEX)
        assert '"not"' in f.message and '"without"' in f.message

    @pytest.mark.parametrize("label", [
        "non-parametric test", "nonlinear model", "inorganic compound",
    ])
    def test_allowlisted_prefixes_pass(self, label):
        assert check_negative_phrasing(term(label), LEX) == []

    def test_non_prefix_is_info(self):
        f, = check_negative_phrasing(term("nonmetal sample"), LEX)
        assert f.severity == "info"

    def test_plain_label_passes(self):
        assert check_negative_phrasing(term("productive cough"), LEX) == []
        # "nothing" starts with "no" but not with a determiner token
        assert check_negative_phrasing(term("nose swab"), LEX) == []


class TestConjunction:
    def test_or_warns_with_broader_hint(self):
        f, = check_conjunction(term("chicken or turkey"), LEX)
        assert f.severity == "warning" and "broader" in f.message

    def test_and_warns_with_split_hint(self):
        f, = check_conjunction(term("cough and fever"), LEX)
        assert "split" in f.message

    def test_proper_noun_allowlist(self):
        assert check_conjunction(term("Fisheries and Oceans Canada"), LEX) == []

    def test_capitalized_neighbors_read_as_proper_noun(self):
        assert check_conjunction(term("Trinidad and Tobago"), LEX) == []

    def test_lowercase_neighbor_still_fires(self):
        assert len(check_conjunction(term("Trinidad and tobago"), LEX)) == 1


class TestPlural:
    def test_plural_head_is_info(self):
        f, = check_plural(term("collected samples"), LEX)
        assert f.rule_id == "R02-PLURAL" and f.severity == "info"

    @pytest.mark.parametrize("label", [
        "goggles", "species", "glass", "bus", "analysis", "dry cough", "--",
    ])
    def test_exemptions(self, label):
        assert check_plural(term(label), LEX) == []

    def test_only_final_token_counted(self):
        assert check_plural(term("samples archive"), LEX) == []


class TestColloquial:
    def test_label_hit_warns_with_suggestion(self):
        f, = check_colloquial(term("belly"), LEX)
        assert f.severity == "warning" and f.suggestion == "abdomen"

    def test_case_and_punctuation_insensitive(self):
        f, = check_colloquial(term("Wet Cough"), LEX)
        assert f.suggestion == "productive cough"

    def test_synonym_hit_is_info(self):
        f, = check_colloquial(term("abdomen", synonyms=["tummy"]), LEX)
        assert f.severity == "info" and "tummy" in f.message

    def test_distinct_synonym_hits_sorted(self):
        findings = check_colloquial(term("abdomen", synonyms=["tummy", "belly", "Tummy"]), LEX)
        assert [f.message.split('"')[1] for f in findings] == ["belly", "tummy"]

    def test_clean_label_passes(self):
        assert check_colloquial(term("abdomen"), LEX) == []


class TestTimeline:
    def test_longest_phrase_named(self):
        f, = check_timeline(term("most recent test date"), LEX)
        assert '"most recent"' in f.message

    @pytest.mark.parametrize("label", ["current address", "results to date", "last dose"])
    def test_phrases(self, label):
        assert len(check_timeline(term(label), LEX)) == 1

    def test_absolute_label_passes(self):
        assert check_timeline(term("collection date"), LEX) == []
        # "lastly" is not the token "last"
        assert check_timeline(term("lastly observed"), LEX) == []


class TestConceptBomb:
    def test_token_threshold(self):
        assert check_concept_bomb(term("one two three four five six seven"), THRESHOLD, LEX)
        assert check_concept_bomb(term("one two three four five six"), THRESHOLD, LEX) == []

    def test_digit_plus_timeline(self):
        f, = check_concept_bomb(term("last 6 months"), THRESHOLD, LEX)
        assert "relative-time" in f.message

    def test_digit_alone_passes(self):
        assert check_concept_bomb(term("6 months"), THRESHOLD, LEX) == []

    def test_custom_threshold(self):
        assert check_concept_bomb(term("alpha beta gamma"), 3, LEX)

    @given(st.integers(min_value=0, max_value=5))
    def test_monotone_in_added_tokens(self, extra):
        base = "one two three four five six seven"
        label = base + "".join(f" w{i}" for i in range(extra))
        assert len(check_concept_bomb(term(label), THRESHOLD, LEX)) == 1


def vocab(*terms_):
    return build_vocabulary(list(terms_), {"EX": "https://example.org/EX_"})


class TestWordBombs:
    def test_conjunction_member_qualifies_group(self):
        v = vocab(term("red farm", "EX:1"), term("blue farm", "EX:2"),
                  term("green farm", "EX:3"), term("red and blue farm", "EX:4"),
                  term("old farm", "EX:5"))
        f, = detect_word_bombs(v, MIN_GROUP)
        assert f.rule_id == "C-WORD-BOMB" and f.subject_label == "farm"
        assert len(f.subject_iris) == 5

    def test_extension_family_qualifies(self):
        v = vocab(term("kiosk", "EX:0"), term("alpha kiosk", "EX:1"),
                  term("beta kiosk", "EX:2"), term("gamma kiosk", "EX:3"),
                  term("delta kiosk", "EX:4"), term("epsilon kiosk", "EX:5"))
        f, = detect_word_bombs(v, MIN_GROUP)
        assert f.subject_label == "kiosk"

    def test_shared_head_alone_not_enough(self):
        v = vocab(term("alpha kiosk", "EX:1"), term("beta kiosk", "EX:2"),
                  term("gamma kiosk", "EX:3"), term("delta kiosk", "EX:4"),
                  term("epsilon kiosk", "EX:5"))
        assert detect_word_bombs(v, MIN_GROUP) == []

    def test_below_min_group(self):
        v = vocab(term("kiosk", "EX:0"), term("alpha kiosk", "EX:1"),
                  term("beta and gamma kiosk", "EX:2"))
        assert detect_word_bombs(v, MIN_GROUP) == []

    def test_obsolete_members_ignored(self):
        v = vocab(term("kiosk", "EX:0"), term("alpha kiosk", "EX:1"),
                  term("beta kiosk", "EX:2"), term("gamma kiosk", "EX:3"),
                  term("delta kiosk", "EX:4"),
                  term("epsilon kiosk", "EX:5", obsolete=True))
        assert detect_word_bombs(v, MIN_GROUP) == []

    def test_member_labels_listed_sorted(self):
        v = vocab(term("kiosk", "EX:0"), term("alpha kiosk", "EX:1"),
                  term("beta kiosk", "EX:2"), term("gamma kiosk", "EX:3"),
                  term("delta kiosk", "EX:4"), term("epsilon kiosk", "EX:5"))
        f, = detect_word_bombs(v, MIN_GROUP)
        assert "alpha kiosk; beta kiosk; delta kiosk" in f.message


class TestRedundantNarrowing:
    def test_unrelated_pair_fires(self):
        v = vocab(term("purpose", "EX:1"), term("wastewater purpose", "EX:2"))
        f, = check_redundant_narrowing(v)
        assert f.subject_label == "wastewater purpose" and f.suggestion == "purpose"

    def test_is_a_exempts(self):
        # The parent's label exempts every term that bears it.
        v = vocab(term("cough", "EX:1"), term("cough", "EX:3"),
                  term("wet cough", "EX:2", parents=["EX:1"]))
        assert check_redundant_narrowing(v) == []

    def test_parent_label_exempts_without_iri_match(self):
        v = vocab(term("cough", "EX:1"),
                  term("wet cough", "EX:2", parents=["https://example.org/EX_1"]))
        assert check_redundant_narrowing(v) == []

    def test_parent_iri_exempts_when_its_term_has_another_label(self):
        # "a" stands for EX:1, so only the IRI ties "wet cough" to its parent "cough".
        v = vocab(term("a", "EX:1"), term("cough", "EX:1"),
                  term("wet cough", "EX:2", parents=["EX:1"]))
        assert check_redundant_narrowing(v) == []

    def test_multiple_pairs_sorted(self):
        v = vocab(term("site", "EX:1"), term("farm site", "EX:2"),
                  term("old farm site", "EX:3"))
        findings = check_redundant_narrowing(v)
        assert [(f.subject_label, f.suggestion) for f in findings] == [
            ("farm site", "site"),
            ("old farm site", "farm site"),
            ("old farm site", "site"),
        ]

    def test_obsolete_ignored(self):
        v = vocab(term("purpose", "EX:1"),
                  term("wastewater purpose", "EX:2", obsolete=True))
        assert check_redundant_narrowing(v) == []

    def test_one_finding_per_broader_label_names_least_identity(self):
        v = vocab(term("Sample", "EX:3"), term("wet sample", "EX:9"),
                  term("sample", "EX:2"), term("sample", "EX:4"))
        f, = check_redundant_narrowing(v)
        assert (f.subject_label, f.suggestion, f.subject_iris) == (
            "wet sample", "sample", (Iri("EX:9"),))
        assert f.message == (
            'label narrows "sample" (the label of 3 terms) with leading modifiers but '
            "declares no relation to it; reuse the broader term or record the modifier "
            "in its own field")


def tagged(*values, obsolete=False):
    # Keys sort in the order the values are given.
    return Term(label="sample", obsolete=obsolete,
                annotations={f"tag_{i}": value for i, value in enumerate(values)})


class TestTagStyle:
    def test_booleans(self):
        findings = check_tag_style(tagged("yes", "no"), LEX)
        assert rule_ids(findings) == ["R09-BOOLEAN", "R09-BOOLEAN"]
        assert [f.subject_label for f in findings] == ["yes", "no"]

    def test_boolean_not_double_reported_as_negative(self):
        findings = check_tag_style(tagged("no"), LEX)
        assert rule_ids(findings) == ["R09-BOOLEAN"]

    def test_negative_value(self):
        f, = check_tag_style(tagged("no growth observed"), LEX)
        assert f.rule_id == "R09-NEGATIVE-TAG" and f.severity == "info"

    def test_case_insensitive_boolean(self):
        assert rule_ids(check_tag_style(tagged("TRUE", "N"), LEX)) == ["R09-BOOLEAN"] * 2

    def test_descriptive_value_passes(self):
        assert check_tag_style(tagged("primer specification deprecated"), LEX) == []

    def test_obsolete_term_is_not_checked(self):
        term = Term(label="obsolete assay", obsolete=True, annotations={"primer_check": "yes"})
        assert check_tag_style(term, LEX) == []


class TestLexiconConstruction:
    def test_colloquial_closure_enforced(self):
        with pytest.raises(LexiconError):
            Lexicons(colloquial_map={"a": "b", "b": "c"})

    def test_empty_preferred_rejected(self):
        with pytest.raises(LexiconError):
            Lexicons(colloquial_map={"a": "!!"})

    def test_entries_normalized(self):
        lex = Lexicons(timeline_phrases=["Most  Recent"])
        assert "most recent" in lex.timeline_phrases

    def test_every_construction_normalizes_and_checks(self):
        # A value built by replace() normalizes and checks itself as the
        # constructor and an override file do.
        lex = replace(LEX, timeline_phrases=frozenset({"As Of Now", "!!"}),
                      colloquial_map={" Tummy ": "ABDOMEN"})
        assert lex.timeline_phrases == {"as of now"}
        assert lex.colloquial_map == {"tummy": "abdomen"}
        f, = check_timeline(term("as of now"), lex)
        assert '"as of now"' in f.message
        assert Lexicons(plural_by_nature=["Scissors", ""]).plural_by_nature == {"scissors"}
        closure = "colloquial suggestion 'tummy' (for 'belly') is itself a colloquial key"
        for build in (lambda cmap: Lexicons(colloquial_map=cmap),
                      lambda cmap: replace(LEX, colloquial_map=cmap)):
            with pytest.raises(LexiconError, match=f"^{re.escape(closure)}$"):
                build({"belly": "tummy", "tummy": "abdomen"})

    def test_colloquial_map_is_read_only(self):
        # A map changed after the closure check could tell a label to prefer
        # a phrase that is itself colloquial.
        lex = Lexicons(colloquial_map={"belly": "abdomen"})
        with pytest.raises(TypeError):
            lex.colloquial_map["abdomen"] = "tummy"
        assert lex.colloquial_map == {"belly": "abdomen"}

    @EVERY_COPY
    def test_copies_equal_the_original(self, copy_of):
        lex = default_lexicons()
        lex.timeline_table  # a cached table rides along or is rebuilt
        twin = copy_of(lex)
        assert twin == lex
        with pytest.raises(TypeError):
            twin.colloquial_map["abdomen"] = "tummy"
        assert twin.timeline_table == lex.timeline_table

    def test_override_adds_and_removes(self):
        lex = apply_lexicon_overrides(LEX, "negative_determiners", "minus\n-not\n# c\n")
        assert "minus" in lex.negative_determiners
        assert "not" not in lex.negative_determiners

    def test_override_colloquial_pairs(self):
        lex = apply_lexicon_overrides(LEX, "colloquial_map", "icky stuff -> contamination\n")
        assert lex.colloquial_map["icky stuff"] == "contamination"

    def test_override_colloquial_removal(self):
        lex = apply_lexicon_overrides(LEX, "colloquial_map", "-belly\n")
        assert "belly" not in lex.colloquial_map

    def test_override_bad_pair_raises(self):
        # A line with no separator, or with a blank side, is no pair; the
        # error names its line.
        for line in ("no arrow here", "icky stuff ->"):
            message = f"colloquial_map line 3: expected 'colloquial -> preferred', got {line!r}"
            with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
                apply_lexicon_overrides(LEX, "colloquial_map",
                                        f"# slang\nicky -> contamination\n{line}\n")

    # Texts built from the pieces of an override line and from any characters,
    # for every lexicon and for a name that is none.
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([f.name for f in fields(Lexicons)] + ["bogus_lexicon"]),
           st.lists(st.one_of(
               st.sampled_from(["\n", "\r", " ", "#", "-", "->", "belly", "stomach", "not",
                                "as of now", "!!"]),
               st.text(max_size=3)), max_size=24).map("".join))
    def test_any_text_applies_or_raises_a_lexicon_error(self, name, text):
        try:
            assert isinstance(apply_lexicon_overrides(LEX, name, text), Lexicons)
        except LexiconError:
            pass

    def test_lone_cr_ends_a_line_and_a_form_feed_does_not(self):
        lex = apply_lexicon_overrides(LEX, "plural_by_nature", "scissorz\rtong\fz\r")
        assert lex.plural_by_nature - LEX.plural_by_nature == {"scissorz", "tong z"}

    def test_override_unknown_name_raises(self):
        with pytest.raises(LexiconError):
            apply_lexicon_overrides(LEX, "bogus_lexicon", "x\n")

    def test_override_gets_fresh_phrase_tables(self):
        # Both checks read their tables from LEX first, so a stale cache would show.
        assert check_timeline(term("as of now"), LEX) == []
        assert check_negative_phrasing(term("non dairy milk"), LEX)
        timeline = apply_lexicon_overrides(LEX, "timeline_phrases", "as of now\n")
        allowed = apply_lexicon_overrides(LEX, "negative_prefix_allowlist", "non dairy\n")
        f, = check_timeline(term("as of now"), timeline)
        assert '"as of now"' in f.message
        assert check_negative_phrasing(term("non dairy milk"), allowed) == []

    def test_override_breaking_closure_raises(self):
        with pytest.raises(LexiconError):
            apply_lexicon_overrides(LEX, "colloquial_map", "slang -> belly\n")
