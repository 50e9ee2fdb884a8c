import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocab_lint.definitions import check_definition_present
from vocab_lint.engine import LintFatalError, RuleConfig, parse_input, run_lint
from vocab_lint.ingest import (
    TSV_COLUMNS,
    FatalParseError,
    _parse_quoted,
    parse_obo,
    parse_term_table,
    serialize_obo,
)
from vocab_lint.model import Definition, Iri, SourceLocation, Synonym, Term, Vocabulary

OBO_BASIC = """format-version: 1.2
ontology: demo

[Term]
id: HP:0012735
name: cough
def: "A reflex that expels air." [PMID:1, ISBN:2]
synonym: "tussis" EXACT []
synonym: "hack" RELATED [ABBREVIATION]
synonym: "HK" EXACT ABBREVIATION []
is_a: HP:0000001 ! phenotype
comment: common sign

[Typedef]
id: part_of

[Term]
id: HP:0000002
name: obsolete thing
is_obsolete: true
replaced_by: HP:0012735
xref: UMLS:C0010200
xref: SNOMED:49727002
"""


class TestOboParsing:
    def test_fields(self):
        vocab, diags = parse_obo(OBO_BASIC, "demo.obo")
        assert diags == []
        assert len(vocab.terms) == 2
        cough = vocab.terms[0]
        assert cough.label == "cough"
        assert cough.iri.value == "HP:0012735"
        assert cough.definition.text == "A reflex that expels air."
        assert cough.definition.sources == ("PMID:1", "ISBN:2")
        assert [(s.text, s.scope, s.is_abbreviation) for s in cough.synonyms] == [
            ("tussis", "exact", False),
            ("hack", "related", True),
            ("HK", "exact", True),
        ]
        assert [p.value for p in cough.parents] == ["HP:0000001"]
        assert cough.annotations == {"comment": "common sign"}

    def test_locations_are_stanza_starts(self):
        vocab, _ = parse_obo(OBO_BASIC, "demo.obo")
        assert vocab.terms[0].location.line == 4
        assert vocab.terms[1].location.line == 17

    def test_non_term_stanza_skipped(self):
        vocab, _ = parse_obo(OBO_BASIC, "demo.obo")
        assert all(t.label != "part_of" for t in vocab.terms)

    def test_obsolete_and_replaced_by(self):
        vocab, _ = parse_obo(OBO_BASIC, "demo.obo")
        old = vocab.terms[1]
        assert old.obsolete is True
        assert old.replaced_by.value == "HP:0012735"

    def test_repeated_unknown_tags_join(self):
        vocab, _ = parse_obo(OBO_BASIC, "demo.obo")
        assert vocab.terms[1].annotations["xref"] == "UMLS:C0010200|SNOMED:49727002"

    def test_def_escapes(self):
        text = '[Term]\nid: EX:1\nname: x\ndef: "a \\"quoted\\" part and a \\\\ slash" [S:1]\n'
        vocab, diags = parse_obo(text, "f.obo")
        assert diags == []
        assert vocab.terms[0].definition.text == 'a "quoted" part and a \\ slash'

    @pytest.mark.parametrize("tail", ["", " [PMID:1", " PMID:1]"],
                             ids=["no-list", "unclosed-list", "unopened-list"])
    def test_def_without_a_closed_source_list_has_no_sources(self, tail):
        vocab, diags = parse_obo(f'[Term]\nid: EX:1\nname: x\ndef: "A thing."{tail}\n', "f.obo")
        assert diags == []
        term, = vocab.terms
        assert term.definition == Definition("A thing.")
        f, = check_definition_present(term)
        assert f.rule_id == "R07-MISSING-SOURCE"

    def test_unclosed_quote_skips_stanza(self):
        text = '[Term]\nid: EX:1\nname: x\ndef: "never closes [S:1]\n\n[Term]\nid: EX:2\nname: y\n'
        vocab, diags = parse_obo(text, "f.obo")
        assert [t.iri.value for t in vocab.terms] == ["EX:2"]
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].location.line == 4

    def test_duplicate_id_reported_both_kept(self):
        text = "[Term]\nid: EX:1\nname: a\n\n[Term]\nid: EX:1\nname: b\n"
        vocab, diags = parse_obo(text, "f.obo")
        assert len(vocab.terms) == 2
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert "duplicate id" in diags[0].message
        assert diags[0].location.line == 5

    def test_missing_id_warns_term_kept(self):
        vocab, diags = parse_obo("[Term]\nname: nameless\n", "f.obo")
        assert vocab.terms[0].iri is None
        assert vocab.terms[0].label == "nameless"
        assert any("no id" in d.message and d.severity == "warning" for d in diags)

    def test_missing_name_uses_id(self):
        vocab, diags = parse_obo("[Term]\nid: EX:1\n", "f.obo")
        assert vocab.terms[0].label == "EX:1"
        assert any("no name" in d.message for d in diags)

    def test_id_and_name_both_missing_skips(self):
        vocab, diags = parse_obo("[Term]\nis_obsolete: true\n", "f.obo")
        assert vocab.terms == ()
        assert any("neither" in d.message for d in diags)

    def test_is_a_comment_stripped(self):
        vocab, _ = parse_obo("[Term]\nid: EX:1\nname: x\nis_a: EX:0 ! parent label\n", "f.obo")
        assert vocab.terms[0].parents[0].value == "EX:0"

    def test_unknown_scope_becomes_related(self):
        vocab, diags = parse_obo('[Term]\nid: EX:1\nname: x\nsynonym: "y" WIDE []\n', "f.obo")
        assert vocab.terms[0].synonyms[0].scope == "related"
        assert any("unknown synonym scope" in d.message for d in diags)

    def test_duplicate_scalar_tags_keep_first(self):
        text = "[Term]\nid: EX:1\nid: EX:2\nname: a\nname: b\n"
        vocab, diags = parse_obo(text, "f.obo")
        assert vocab.terms[0].iri.value == "EX:1"
        assert vocab.terms[0].label == "a"
        assert sum("first kept" in d.message for d in diags) == 2

    def test_bad_is_obsolete_value_warns(self):
        vocab, diags = parse_obo("[Term]\nid: EX:1\nname: x\nis_obsolete: maybe\n", "f.obo")
        assert vocab.terms[0].obsolete is False
        assert any("is_obsolete" in d.message for d in diags)

    @pytest.mark.parametrize("values, obsolete", [
        (("maybe", "true"), True), (("false", "true"), False), (("true", "false"), True),
    ])
    def test_is_obsolete_keeps_its_first_valid_value(self, values, obsolete):
        tags = "".join(f"is_obsolete: {v}\n" for v in values)
        vocab, diags = parse_obo(TERM + tags, "f.obo")
        assert vocab.terms[0].obsolete is obsolete
        assert len(diags) == 1

    def test_header_only(self):
        vocab, diags = parse_obo("format-version: 1.2\n", "f.obo")
        assert vocab.terms == ()
        assert diags == []


TSV_BASIC = (
    "label\tiri\tdefinition\tdefinition_source\tparents\tsynonyms\tobsolete\treplaced_by\n"
    "cough\tHP:0012735\tA reflex that expels air.\tPMID:1|PMID:2\t\ttussis|hack\t\t\n"
    "old one\tEX:9\t\t\tHP:0012735|EX:8\t\ttrue\tHP:0012735\n"
)


class TestTsvParsing:
    def test_fields(self):
        vocab, diags = parse_term_table(TSV_BASIC, "t.tsv")
        assert diags == []
        cough, old = vocab.terms
        assert cough.label == "cough"
        assert cough.definition.sources == ("PMID:1", "PMID:2")
        assert [s.text for s in cough.synonyms] == ["tussis", "hack"]
        assert all(s.scope == "exact" for s in cough.synonyms)
        assert [p.value for p in old.parents] == ["HP:0012735", "EX:8"]
        assert old.obsolete is True
        assert old.replaced_by.value == "HP:0012735"

    def test_line_numbers(self):
        vocab, _ = parse_term_table(TSV_BASIC, "t.tsv")
        assert [t.location.line for t in vocab.terms] == [2, 3]

    def test_bom_skipped(self):
        vocab, _ = parse_term_table("﻿" + TSV_BASIC, "t.tsv")
        assert vocab.terms[0].label == "cough"

    def test_missing_label_column_fatal(self):
        with pytest.raises(FatalParseError):
            parse_term_table("name\tiri\nx\tEX:1\n", "t.tsv")

    def test_empty_file_fatal(self):
        with pytest.raises(FatalParseError):
            parse_term_table("", "t.tsv")

    def test_empty_label_cell_skips_row(self):
        text = "label\tiri\n\tEX:1\nok\tEX:2\n"
        vocab, diags = parse_term_table(text, "t.tsv")
        assert [t.label for t in vocab.terms] == ["ok"]
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].location.line == 2

    def test_invalid_iri_keeps_term(self):
        vocab, diags = parse_term_table("label\tiri\nx\tbad iri\n", "t.tsv")
        assert vocab.terms[0].iri is None
        assert any(d.severity == "warning" for d in diags)

    def test_cells_stripped(self):
        vocab, _ = parse_term_table("label\tiri\n  padded  \t EX:1 \n", "t.tsv")
        assert vocab.terms[0].label == "padded"
        assert vocab.terms[0].iri.value == "EX:1"

    @pytest.mark.parametrize("text, expected", [
        pytest.param("label\tiri\tsynonyms\ncough\tEX:1\ttussis\tEX:9\tstray\n",
                     Term(label="cough", iri=Iri("EX:1"), synonyms=(Synonym("tussis", "exact"),),
                          location=SourceLocation("t.tsv", 2)),
                     id="row-longer-than-header"),
        pytest.param("synonyms\tlabel\tiri\tobsolete\n\tcough\n",
                     Term(label="cough", location=SourceLocation("t.tsv", 2)),
                     id="row-shorter-than-header"),
        pytest.param("label\n cough \tEX:1\tA reflex.\n",
                     Term(label="cough", location=SourceLocation("t.tsv", 2)),
                     id="header-without-optional-columns"),
        pytest.param("definition\tlabel\n A reflex. \t cough \n",
                     Term(label="cough", definition=Definition("A reflex."),
                          location=SourceLocation("t.tsv", 2)),
                     id="label-after-an-optional-column"),
    ])
    def test_row_width_differs_from_header(self, text, expected):
        vocab, diags = parse_term_table(text, "t.tsv")
        assert diags == []
        assert vocab.terms == (expected,)


TERM = "[Term]\nid: EX:1\nname: x\n"


# One row per parser diagnostic: the input, then the only diagnostic it draws.
DIAGNOSTICS = [
    pytest.param(parse_obo, TERM + "just words\n",
                 "warning", "line is not a tag: value pair: 'just words'", 4, id="obo-no-colon"),
    pytest.param(parse_obo, "[Term]\nid: EX 1\nid: EX:1\nname: x\n",
                 "warning", "invalid id value: 'EX 1'", 2, id="obo-bad-id"),
    pytest.param(parse_obo, TERM + "is_a: EX 0\n",
                 "warning", "invalid is_a value: 'EX 0'", 4, id="obo-bad-is-a"),
    pytest.param(parse_obo, TERM + "replaced_by: EX 2\n",
                 "warning", "invalid replaced_by value: 'EX 2'", 4, id="obo-bad-replaced-by"),
    pytest.param(parse_obo, TERM + "id: EX:2\n",
                 "warning", "duplicate id tag in stanza; first kept", 4, id="obo-second-id"),
    pytest.param(parse_obo, TERM + 'def: "a" []\ndef: "b" []\n',
                 "warning", "duplicate def tag in stanza; first kept", 5, id="obo-second-def"),
    pytest.param(parse_obo, TERM + "replaced_by: EX:2\nreplaced_by: EX:3\n",
                 "warning", "duplicate replaced_by tag in stanza; first kept", 5,
                 id="obo-second-replaced-by"),
    pytest.param(parse_obo, "[Term]\nid: EX:1\nname:\nname: x\n",
                 "warning", "empty name value ignored", 3, id="obo-empty-name"),
    pytest.param(parse_obo, TERM + 'def: "" [S:1]\n',
                 "warning", "empty definition text ignored", 4, id="obo-empty-def"),
    pytest.param(parse_obo, TERM + 'synonym: "" EXACT []\n',
                 "warning", "empty synonym text ignored", 4, id="obo-empty-synonym"),
    pytest.param(parse_obo, TERM + 'synonym: "never closes EXACT []\n',
                 "error", "unclosed quote in synonym; stanza skipped", 4,
                 id="obo-unclosed-synonym"),
    pytest.param(parse_obo, TERM + "name: y\n",
                 "warning", "duplicate name tag in stanza; first kept", 4, id="obo-second-name"),
    pytest.param(parse_obo, TERM + "is_obsolete: true\nis_obsolete: false\n",
                 "warning", "duplicate is_obsolete tag in stanza; first kept", 5,
                 id="obo-second-is-obsolete"),
    pytest.param(parse_obo, TERM + 'def: "never closes [S:1]\n',
                 "error", "unclosed quote in def; stanza skipped", 4, id="obo-unclosed-def"),
    pytest.param(parse_obo, TERM + 'synonym: "y" WIDE []\n',
                 "warning", "unknown synonym scope 'WIDE'; treated as related", 4,
                 id="obo-unknown-scope"),
    pytest.param(parse_obo, TERM + "is_obsolete: maybe\n",
                 "warning", "invalid is_obsolete value: 'maybe'", 4,
                 id="obo-bad-is-obsolete"),
    pytest.param(parse_obo, "[Term]\nis_obsolete: true\n",
                 "warning", "[Term] stanza has neither id nor name; skipped", 1,
                 id="obo-no-id-no-name"),
    pytest.param(parse_obo, "[Term]\nid: EX:1\n",
                 "warning", "[Term] stanza has no name; id used as label", 1, id="obo-no-name"),
    pytest.param(parse_obo, "[Term]\nname: x\n",
                 "warning", "[Term] stanza has no id", 1, id="obo-no-id"),
    pytest.param(parse_obo, TERM + "\n[Term]\nid: EX:1\nname: y\n",
                 "error", "duplicate id EX:1 (first seen on line 1)", 5, id="obo-duplicate-id"),
    pytest.param(parse_term_table, "label\tiri\n\tEX:1\n",
                 "error", "row has an empty label cell; row skipped", 2, id="tsv-empty-label"),
    pytest.param(parse_term_table, "label\tiri\nx\tbad iri\n",
                 "warning", "invalid IRI value 'bad iri'; term kept without IRI", 2,
                 id="tsv-bad-iri"),
    pytest.param(parse_term_table, "label\tparents\nx\tEX:1|EX 2\n",
                 "warning", "invalid parent IRI 'EX 2'", 2, id="tsv-bad-parent"),
    pytest.param(parse_term_table, "label\tobsolete\nx\tMaybe\n",
                 "warning", "obsolete expects true/false, got 'Maybe'; treated as false", 2,
                 id="tsv-bad-obsolete"),
    pytest.param(parse_term_table, "label\treplaced_by\nx\tEX 2\n",
                 "warning", "invalid replaced_by IRI 'EX 2'", 2, id="tsv-bad-replaced-by"),
]


@pytest.mark.parametrize("parse, text", [(parse_obo, "[Term]\rid: EX:1\rname: a\fb\r"),
                                         (parse_term_table, "label\tiri\ra\fb\tEX:1\r")])
def test_lone_cr_ends_a_line_and_a_form_feed_does_not(parse, text):
    vocab, diags = parse(text, "f")
    assert [(t.label, t.iri.value) for t in vocab.terms] == [("a\fb", "EX:1")] and diags == []


@pytest.mark.parametrize("parse, text, severity, message, line", DIAGNOSTICS)
def test_diagnostic(parse, text, severity, message, line):
    _, diags = parse(text, "f")
    assert [(d.severity, d.message, d.location) for d in diags] == [
        (severity, message, SourceLocation("f", line))]


def _reference_parse_quoted(raw):
    """The character loop that _parse_quoted replaced, kept as its oracle."""
    start = raw.find('"')
    if start == -1:
        return None
    out = []
    i = start + 1
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw) and raw[i + 1] in ('"', "\\"):
            out.append(raw[i + 1])
            i += 2
        elif ch == '"':
            return "".join(out), raw[i + 1:]
        else:
            out.append(ch)
            i += 1
    return None


class TestParseQuoted:
    @given(st.text(alphabet='a "\\\n', max_size=40))
    def test_matches_the_reference_loop(self, raw):
        assert _parse_quoted(raw) == _reference_parse_quoted(raw)

    def test_unclosed_synonym_full_of_backslashes_is_linear(self):
        # An odd run of backslashes escapes the last quote, so the quote
        # that opens this 200k-character synonym never closes.
        value = '"' + "\\a" * 50_000 + "\\" * 99_999 + '" EXACT []'
        started = time.perf_counter()
        _, diags = parse_obo(TERM + f"synonym: {value}\n", "f.obo")
        elapsed = time.perf_counter() - started
        assert [(d.severity, d.message, d.location.line) for d in diags] == [
            ("error", "unclosed quote in synonym; stanza skipped", 4)]
        assert elapsed < 1.0


def _fields(term):
    return (
        term.label,
        term.iri.value if term.iri else None,
        tuple((s.text, s.scope, s.is_abbreviation) for s in term.synonyms),
        (term.definition.text, term.definition.sources) if term.definition else None,
        tuple(p.value for p in term.parents),
        term.obsolete,
        term.replaced_by.value if term.replaced_by else None,
        dict(term.annotations),
    )


class TestRoundTrip:
    def test_serialize_reparse_identical(self):
        vocab, _ = parse_obo(OBO_BASIC, "demo.obo")
        text = serialize_obo(vocab)
        again, diags = parse_obo(text, "demo.obo")
        assert diags == []
        assert [_fields(t) for t in again.terms] == [_fields(t) for t in vocab.terms]

    def test_escapes_survive(self):
        source = '[Term]\nid: EX:1\nname: x\ndef: "uses \\"quotes\\" and \\\\" [S:1]\n'
        vocab, _ = parse_obo(source, "f.obo")
        again, diags = parse_obo(serialize_obo(vocab), "f.obo")
        assert diags == []
        assert again.terms[0].definition.text == vocab.terms[0].definition.text

    def test_no_annotations_write_as_an_empty_map(self):
        # Term stores annotations=None as None; the writer reads it as no
        # annotations, as check_tag_style does.
        def text(annotations):
            return serialize_obo(Vocabulary(
                (Term("wet cough", Iri("EX:1"), annotations=annotations),), {}))

        assert text(None) == text({}) == (
            "format-version: 1.2\n\n[Term]\nid: EX:1\nname: wet cough\n")


# Strategies for the two carriers, from the grammar in docs/formats.md. Free
# text draws on the characters the grammar gives a meaning to.
_FREE = st.text(alphabet='ab :!"\\[],|\t\r\ufeff', max_size=8)
_IRIS = st.sampled_from(["EX:1", "EX:2", "HP:0000001", "http://example.org/a", "EX 3"]) | _FREE
_LABELS = st.sampled_from(["cough", "wet cough", "coughs", "non cough", "cough and fever",
                           "a", "Cough"]) | _FREE
_BOOLEAN_TEXT = st.sampled_from(["true", "false", "TRUE", "maybe", "true ! a note"]) | _FREE
_QUOTED = st.builds(
    lambda text, closed, scope, markers, tail: (
        '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"' * closed
        + f" {scope} [{', '.join(markers)}]{tail}"),
    _LABELS, st.sampled_from([True, True, True, False]),
    st.sampled_from(["EXACT", "BROAD", "NARROW", "RELATED", "WIDE", "", "ABBREVIATION"]),
    st.lists(st.sampled_from(["ABBREVIATION", "PMID:1", "x y", ""]), max_size=3), _FREE)
_OBO_TAG_VALUES = {"id": _IRIS, "name": _LABELS, "def": _QUOTED, "synonym": _QUOTED,
                   "is_a": _IRIS, "is_obsolete": _BOOLEAN_TEXT, "replaced_by": _IRIS,
                   "comment": _FREE, "xref": _IRIS}
_OBO_TAG_LINES = st.one_of([st.builds(f"{tag}: {{}}".format, values)
                            for tag, values in _OBO_TAG_VALUES.items()]
                           + [st.builds("{}:{}".format, _FREE, _FREE)])
_OBO_OTHER_LINES = st.sampled_from(["", "! a comment", "just words"]) | _FREE
_OBO_STANZAS = st.builds(
    lambda header, head, lines: [header, *head, *lines],
    st.sampled_from(["[Term]", "[Term]", "[Term]", "[Typedef]"]),
    st.just(()) | st.tuples(st.builds("id: {}".format, _IRIS),
                            st.builds("name: {}".format, _LABELS)),
    st.lists(st.one_of(_OBO_TAG_LINES, _OBO_TAG_LINES, _OBO_OTHER_LINES), max_size=6))
OBO_TEXTS = st.builds(
    lambda bom, stanzas, newline: bom + newline.join(
        ["format-version: 1.2"] + [line for stanza in stanzas for line in stanza]) + newline,
    st.sampled_from(["", "\ufeff"]), st.lists(_OBO_STANZAS, max_size=4),
    st.sampled_from(["\n", "\r\n"]))

_TSV_CELLS = {"label": _LABELS, "iri": _IRIS, "definition": _LABELS,
              "definition_source": _IRIS, "parents": st.lists(_IRIS, max_size=2).map("|".join),
              "synonyms": st.lists(_LABELS, max_size=2).map("|".join),
              "obsolete": _BOOLEAN_TEXT, "replaced_by": _IRIS, "note": _FREE}
_TSV_HEADERS = st.builds(
    lambda label, others: ["label"] * label + others, st.sampled_from([1, 1, 1, 0]),
    st.lists(st.sampled_from(sorted(_TSV_CELLS)), max_size=8))
TSV_TEXTS = _TSV_HEADERS.flatmap(lambda header: st.builds(
    lambda rows, tails, newline: newline.join(
        ["\t".join(header)] + ["\t".join(row) + tail for row, tail in zip(rows, tails)])
    + newline,
    st.lists(st.tuples(*[_TSV_CELLS[column] for column in header]), max_size=6),
    st.lists(st.sampled_from(["", "", "\tstray", "\t"]), min_size=6, max_size=6),
    st.sampled_from(["\n", "\r\n"]))) | _FREE


def _parsed(parse, *args):
    """What a parse gives: the terms, with their locations, and the
    diagnostics; or the message of its fatal error."""
    try:
        vocab, diags = parse(*args)
    except (FatalParseError, LintFatalError) as exc:
        return str(exc)
    return vocab.terms, diags


def _lint_file(text, suffix):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"vocabulary{suffix}"
        path.write_text(text, encoding="utf-8")
        run_lint(RuleConfig(), [(str(path), None)])


class TestParseProperties:
    @given(OBO_TEXTS)
    def test_obo_parses_lints_and_reparses_from_its_serialization(self, text):
        vocab, diags = parse_obo(text, "f.obo")
        assert isinstance(vocab, Vocabulary)
        assert all(d.rule_id == "PARSE" for d in diags)
        _lint_file(text, ".obo")
        again, _ = parse_obo(serialize_obo(vocab), "f.obo")
        assert [_fields(t) for t in again.terms] == [_fields(t) for t in vocab.terms]

    @given(TSV_TEXTS)
    def test_tsv_parses_or_is_fatal_and_lints(self, text):
        try:
            vocab, diags = parse_term_table(text, "f.tsv")
        except FatalParseError:
            return
        assert isinstance(vocab, Vocabulary)
        assert all(d.rule_id == "PARSE" for d in diags)
        _lint_file(text, ".tsv")

    # The file keeps the text's bytes, line ends and marks included; reading
    # it back in text mode must not change what the parser sees.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(OBO_TEXTS.map(lambda text: (parse_obo, ".obo", text)),
                     TSV_TEXTS.map(lambda text: (parse_term_table, ".tsv", text))))
    @example((parse_obo, ".obo", "[Term]\nid: EX:1\nname: wet\rcough\n"))
    @example((parse_term_table, ".tsv", "\ufeff\ufefflabel\rcough\r\n"))
    def test_a_file_parses_as_its_text_does(self, drawn):
        parse, suffix, text = drawn
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / f"vocabulary{suffix}"
            path.write_text(text, encoding="utf-8", newline="")
            assert _parsed(parse_input, str(path), None) == _parsed(parse, text, str(path))
