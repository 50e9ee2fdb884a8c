import copy
import dataclasses
import inspect
import pickle
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocab_lint import model
from vocab_lint.ingest import parse_obo, parse_term_table
from vocab_lint.model import (
    Definition,
    Finding,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    Vocabulary,
    build_vocabulary,
    expand_iri,
    find_phrases,
    merge_vocabularies,
    normalize_label,
    phrase_table,
    shared_keys,
    tokens_of,
)

from oracles import ReplacementCycleError, UnknownIriError, resolve_replacement

PM = {"HP": "http://purl.obolibrary.org/obo/HP_",
      "EX": "https://example.org/vocab/EX_"}

EVERY_COPY = pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])


def _committed_space_points() -> frozenset[int]:
    """The code points that the committed table says become spaces, parsed
    here rather than by model's own reader, so that a slip in it shows."""
    points = set()
    for item in model._SPACE_RANGES.split():
        lo, _, hi = item.partition("-")
        points.update(range(int(lo, 16), int(hi or lo, 16) + 1))
    return frozenset(points)


SPACE_POINTS = _committed_space_points()


def _ranges_text(points: list[int]) -> str:
    """Sorted code points as the committed table writes them: hex ranges,
    lines of at most 84 characters, between two newlines."""
    ranges: list[list[int]] = []
    for point in points:
        if ranges and ranges[-1][1] == point - 1:
            ranges[-1][1] = point
        else:
            ranges.append([point, point])
    lines = [""]
    for lo, hi in ranges:
        item = f"{lo:x}" if lo == hi else f"{lo:x}-{hi:x}"
        if lines[-1] and len(lines[-1]) + 1 + len(item) > 84:
            lines.append("")
        lines[-1] = f"{lines[-1]} {item}".lstrip()
    return "\n" + "\n".join(lines) + "\n"


def _reference_normalize_label(raw):
    """The character loop that normalize_label replaced, kept as its oracle.
    It reads the interpreter's Unicode tables, so it is the reference only
    on a 14.0.0 interpreter."""
    out = []
    for ch in raw:
        if "A" <= ch <= "Z":
            out.append(chr(ord(ch) + 32))
        elif ch.isspace() or unicodedata.category(ch).startswith("P"):
            out.append(" ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


UNICODE_14 = pytest.mark.skipif(unicodedata.unidata_version != "14.0.0",
                                reason="the table is pinned to Unicode 14.0.0")


class TestNormalizeLabel:
    # expected values hand-derived: ASCII A-Z lowered, unicode punctuation
    # and whitespace to single spaces, collapse, strip
    @pytest.mark.parametrize("raw,expected", [
        ("Tachypnea (Rapid Breathing)", "tachypnea rapid breathing"),
        ("SARS-CoV-2", "sars cov 2"),
        ("  Fish--Farm ", "fish farm"),
        ("wet\tcough", "wet cough"),
        ("plasma", "plasma"),
        ("Über-Term", "Über term"),
        ("a.b,c;d", "a b c d"),
        ("''", ""),
        ("", ""),
        ("non-parametric test", "non parametric test"),
        ("foo\u2e53bar", "foo bar"),  # Po since Unicode 14.0
        ("baz\U00011b00qux", "baz\U00011b00qux"),  # Po only since 15.0
    ])
    def test_examples(self, raw, expected):
        assert normalize_label(raw) == expected

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = normalize_label(raw)
        assert normalize_label(once) == once

    @given(st.text(max_size=60))
    def test_shape(self, raw):
        out = normalize_label(raw)
        assert out == out.strip()
        assert "  " not in out
        for ch in out:
            if ch != " ":
                assert not ("A" <= ch <= "Z")
                assert ord(ch) not in SPACE_POINTS

    def test_tokens_of(self):
        assert tokens_of("Wet (productive) cough") == ["wet", "productive", "cough"]

    def test_every_code_point_follows_the_committed_table(self):
        def expected(point):
            if point in SPACE_POINTS:
                return "a b"
            if ord("A") <= point <= ord("Z"):
                return f"a{chr(point + 32)}b"
            return f"a{chr(point)}b"

        # Each probe "a?B" starts and ends with a letter, so a block of probes
        # normalizes to the concatenation of their expected keys. The first
        # block holds only ASCII, so it takes the bytes path.
        blocks = [range(0x80)] + [range(start, start + 0x400)
                                  for start in range(0, 0x110000, 0x400)]
        wrong = [hex(block.start) for block in blocks
                 if normalize_label("".join(f"a{chr(p)}B" for p in block))
                 != "".join(map(expected, block))]
        assert wrong == []

    @given(st.one_of(st.text(st.characters(max_codepoint=0x7f), max_size=60),
                     st.text(st.one_of(st.characters(max_codepoint=0x7f), st.characters()),
                             max_size=60)))
    def test_ascii_path_matches_the_translate_path(self, raw):
        # ASCII text goes through the bytes table; this is the str.translate
        # path that every other text takes.
        assert normalize_label(raw) == " ".join(
            filter(None, raw.translate(model._TABLE).split(" ")))

    @UNICODE_14
    @given(st.text(max_size=60))
    def test_matches_the_reference_loop(self, raw):
        assert normalize_label(raw) == _reference_normalize_label(raw)

    @UNICODE_14
    def test_committed_table_is_unicode_14_whitespace_and_punctuation(self):
        # The only generator of model._SPACE_RANGES: on a mismatch, the
        # diff shows the text to commit.
        points = [point for point in range(0x110000)
                  if chr(point).isspace() or unicodedata.category(chr(point)).startswith("P")]
        assert model._SPACE_RANGES == _ranges_text(points)


class TestComparisonForms:
    # The cached forms the checks compare on must be exactly what
    # normalize_label and tokens_of give for the same text.
    @given(st.text(min_size=1, max_size=60))
    def test_cached_forms_match_normalize_label(self, raw):
        term = Term(label=raw)
        assert term.key == normalize_label(raw)
        assert term.tokens == tuple(tokens_of(raw))
        assert Synonym(raw).key == normalize_label(raw)
        assert Definition(raw).tokens == tuple(tokens_of(raw))

    def test_cache_stays_out_of_equality_and_replace(self):
        term = Term(label="Wet Cough", iri=Iri("HP:0031352"))
        assert term.key == "wet cough"
        fresh = Term(label="Wet Cough", iri=Iri("HP:0031352"))
        assert term == fresh
        assert dataclasses.asdict(term) == dataclasses.asdict(fresh)
        renamed = dataclasses.replace(term, label="Dry-Cough")
        assert renamed.key == "dry cough"
        assert renamed.tokens == ("dry", "cough")
        synonym = Synonym("Wet Cough", scope="exact")
        assert dataclasses.asdict(synonym) == {
            "text": "Wet Cough", "scope": "exact", "is_abbreviation": False, "key": "wet cough"}
        assert dataclasses.replace(synonym, text="Dry-Cough").key == "dry cough"
        definition = Definition("A Wet Cough.", ("PMID:1",))
        assert definition == Definition("A Wet Cough.", ("PMID:1",))
        assert dataclasses.asdict(definition) == {
            "text": "A Wet Cough.", "sources": ("PMID:1",), "tokens": ("a", "wet", "cough"),
            "head": 3}
        replaced = dataclasses.replace(definition, text="A Dry-Cough. It is.")
        assert (replaced.tokens, replaced.head) == (("a", "dry", "cough", "it", "is"), 3)

    def test_forms_are_neither_arguments_nor_shown(self):
        with pytest.raises(TypeError):
            Synonym("x", key="y")
        with pytest.raises(TypeError):
            Definition("x", tokens=("y",))
        with pytest.raises(TypeError):
            Definition("x", head=0)
        with pytest.raises(TypeError):
            Term(label="x", key="y")
        term = Term(label="Wet Cough", synonyms=(Synonym("moist"),),
                    definition=Definition("A cough."))
        assert "key" not in repr(term) and "tokens" not in repr(term)
        assert "head" not in repr(term.definition)

    @EVERY_COPY
    def test_copies_carry_the_forms(self, copy_of):
        term = Term(label="Wet Cough", synonyms=(Synonym("Moist-Cough"),),
                    definition=Definition("A Wet Cough."))
        copied = copy_of(term)
        assert copied == term
        assert (copied.key, copied.tokens) == ("wet cough", ("wet", "cough"))
        assert copied.synonyms[0].key == "moist cough"
        assert copied.definition.tokens == ("a", "wet", "cough")

    @EVERY_COPY
    def test_copies_hash_alike(self, copy_of):
        term = Term(label="Wet Cough", iri=Iri("HP:0031352"), synonyms=(Synonym("moist"),),
                    annotations={"comment": "kept"}, location=SourceLocation("a.obo", 3))
        copied = copy_of(term)
        assert hash(copied) == hash(term)
        assert {term, copied} == {term}

    @pytest.mark.parametrize("instance", [
        Iri("EX:1"), SourceLocation("a.obo", 1), Synonym("wet cough"), Definition("A cough."),
        Term(label="cough"), Finding(rule_id="PARSE", severity="info", subject_label="",
                                     message="m")], ids=lambda instance: type(instance).__name__)
    def test_model_instances_have_no_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, dataclasses.fields(instance)[0].name, None)


# One instance of each model class with every field set away from its
# default, so that a value stored in the wrong slot shows.
FULL = {
    Iri: Iri("EX:1"),
    SourceLocation: SourceLocation("a.obo", 2),
    Synonym: Synonym("Wet-Cough", "exact", True),
    Definition: Definition("A Wet Cough. Seen twice.", ("PMID:1",)),
    Term: Term("Wet Cough", Iri("EX:1"), (Synonym("moist"),), Definition("A cough."),
               (Iri("EX:2"),), True, Iri("EX:3"), {"comment": "kept"},
               SourceLocation("a.obo", 3)),
    Finding: Finding("R02-PLURAL", "info", "Wet Cough", "m", (Iri("EX:1"),),
                     SourceLocation("a.obo", 4), "s"),
}
EVERY_CLASS = pytest.mark.parametrize("cls", list(FULL), ids=lambda cls: cls.__name__)
EVERY_FIELD = pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in FULL for f in dataclasses.fields(cls)],
    ids=lambda value: value if isinstance(value, str) else value.__name__)


def _init_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.init]


class TestConstructors:
    # Each model class writes its own __init__; it must take what the
    # dataclass's generated one took and store each argument as given.
    @EVERY_CLASS
    def test_signature_is_the_init_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in _init_fields(cls)]
        assert cls.__match_args__ == tuple(p.name for p in params)
        for param, f in zip(params, _init_fields(cls)):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            if f.default is not dataclasses.MISSING:
                assert type(param.default) is type(f.default) and param.default == f.default
            else:
                has_factory = f.default_factory is not dataclasses.MISSING
                assert (param.default is not param.empty) == has_factory, f.name

    @EVERY_CLASS
    def test_each_argument_lands_in_its_field(self, cls):
        full = FULL[cls]
        values = [getattr(full, f.name) for f in _init_fields(cls)]
        for built in (cls(*values), cls(**{f.name: v for f, v in zip(_init_fields(cls), values)})):
            assert built == full
            for f, value in zip(_init_fields(cls), values):
                assert getattr(built, f.name) is value
            for f in dataclasses.fields(cls):
                assert getattr(built, f.name) == getattr(full, f.name)

    @EVERY_CLASS
    def test_defaults_fill_the_fields(self, cls):
        required = {f.name: getattr(FULL[cls], f.name) for f in _init_fields(cls)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING}
        built = cls(**required)
        for f in _init_fields(cls):
            if f.name not in required:
                expected = (f.default if f.default is not dataclasses.MISSING
                            else f.default_factory())
                assert getattr(built, f.name) == expected

    @pytest.mark.parametrize("text, head", [
        ("A Wet Cough. Seen twice.", 3), ("A dose of 2.5 ml. Daily.", 6), ("No end", 2),
        ("Ends here.  ", 2), ("One.Two", 2), ("A cough. ...", 2), ("One.\nTwo", 1),
        ("...", 0), (". Two", 0)])
    def test_definition_head_counts_the_first_sentence(self, text, head):
        assert Definition(text).head == head

    def test_each_term_gets_its_own_annotations(self):
        first, second = Term(label="a"), Term(label="a")
        assert first.annotations == {} and first.annotations is not second.annotations
        given = {"comment": "x"}
        assert Term(label="a", annotations=given).annotations is given
        assert Term(label="a", annotations=None).annotations is None

    @pytest.mark.parametrize("cls, changes", [
        (Term, {"obsolete": False}), (Synonym, {"scope": "broad"}), (Definition, {"sources": ()})],
        ids=["Term", "Synonym", "Definition"])
    def test_replace_of_another_field_keeps_the_forms(self, cls, changes):
        # A change of the text rebuilds the forms (TestComparisonForms).
        replaced = dataclasses.replace(FULL[cls], **changes)
        for f in dataclasses.fields(cls):
            expected = changes.get(f.name, getattr(FULL[cls], f.name))
            assert getattr(replaced, f.name) == expected

    @EVERY_FIELD
    def test_no_field_can_be_set_or_deleted(self, cls, name):
        instance = FULL[cls]
        before = getattr(instance, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
        assert getattr(instance, name) is before

    @EVERY_CLASS
    @EVERY_COPY
    def test_copies_are_equal_field_by_field(self, cls, copy_of):
        copied = copy_of(FULL[cls])
        assert type(copied) is cls and copied == FULL[cls]
        for f in dataclasses.fields(cls):
            assert getattr(copied, f.name) == getattr(FULL[cls], f.name)


class TestFindingSubjects:
    def test_about_cites_label_iri_and_location(self):
        loc = SourceLocation("a.tsv", 3)
        f = Finding.about(Term(label="cough", iri=Iri("HP:1"), location=loc),
                          "R02-PLURAL", "m", suggestion="s")
        assert (f.subject_label, f.subject_iris, f.location, f.suggestion) == (
            "cough", (Iri("HP:1"),), loc, "s")
        bare = Finding.about(Term(label="cough"), "R02-PLURAL", "m")
        assert (bare.subject_iris, bare.location) == ((), None)

    def test_about_terms_keeps_order_and_takes_earliest_location(self):
        terms = [Term(label="b", iri=Iri("EX:2"), location=SourceLocation("b.tsv", 1)),
                 Term(label="x"),
                 Term(label="a", iri=Iri("EX:1"), location=SourceLocation("a.tsv", 9)),
                 Term(label="c", location=SourceLocation("a.tsv", 4))]
        f = Finding.about_terms(terms, "C-SEMANTIC-NOISE", "group", "m")
        assert f.subject_label == "group"
        assert f.subject_iris == (Iri("EX:2"), Iri("EX:1"))
        assert f.location == SourceLocation("a.tsv", 4)
        assert Finding.about_terms([Term(label="x")], "C-SEMANTIC-NOISE",
                                   "x", "m").location is None


class TestSharedKeys:
    def test_shared_keys_sorted_with_terms_in_bearer_order(self):
        a, b, c, d = (Term(label=label) for label in "abcd")
        # c repeating "w" shares it with no one; a repeating "x" counts once.
        pairs = [("y", a), ("x", a), ("x", a), ("y", b), ("w", c), ("w", c), ("x", d),
                 ("x", b)]
        assert shared_keys(iter(pairs), Vocabulary()) == [("x", [a, b, d]), ("y", [a, b])]

    def test_members_order_by_label_then_identity_then_bearer_order(self):
        # Bearer order would give EX:1, EX:2, http://a.org/1: "Wet" sorts
        # first, then the IRIs as written. Expanded, both EX IRIs follow it.
        first = Term(label="wet", iri=Iri("EX:2"))
        second = Term(label="wet", iri=Iri("http://a.org/1"))
        third = Term(label="Wet", iri=Iri("EX:1"))
        pairs = [("k", t) for t in (first, second, third)]
        ((_, members),) = shared_keys(pairs, Vocabulary(prefix_map={"EX": "http://b.org/"}))
        assert [t.iri.value for t in members] == ["http://a.org/1", "EX:1", "EX:2"]


# A three-letter alphabet, so phrases nest ("a", "a b", "a b a"), overlap and
# repeat inside short runs.
TOKENS = st.lists(st.sampled_from("abc"), max_size=12).map(tuple)
PHRASES = st.lists(st.tuples(st.lists(st.sampled_from("abc"), max_size=4).map(tuple),
                             st.integers(0, 9)), max_size=12)


class TestPhraseTable:
    @given(TOKENS, PHRASES)
    def test_find_phrases_matches_a_naive_scan(self, tokens, entries):
        expected: dict[tuple[int, int], list[int]] = {}
        for phrase, value in entries:
            for start in range(len(tokens) - len(phrase) + 1):
                if phrase and tokens[start:start + len(phrase)] == phrase:
                    expected.setdefault((start, len(phrase)), []).append(value)
        found = [((start, length), values)
                 for start, length, values in find_phrases(tokens, phrase_table(entries))]
        assert dict(found) == expected
        assert len(found) == len(expected)

    def test_empty_phrases_are_dropped(self):
        assert phrase_table([((), "x")]) == {}
        table = phrase_table([(("a", "b"), 1), (("a",), 2), (("a", "b"), 3)])
        assert table == {"a": {2: {("a", "b"): [1, 3]}, 1: {("a",): [2]}}}


def _raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestIri:
    def test_rejects_empty_and_whitespace(self):
        with _raises_exactly("IRI value must be non-empty"):
            Iri("")
        with _raises_exactly("IRI value contains whitespace: 'HP: 123'"):
            Iri("HP: 123")

    def test_whitespace_means_str_isspace_for_every_code_point(self):
        # Each code point str.isspace accepts is rejected alone, inside and at
        # the edge of a value; every other code point, all in one value, passes.
        chars = [chr(cp) for cp in range(0x110000)]
        for ch in (c for c in chars if c.isspace()):
            for value in (ch, f"HP:{ch}1", f"{ch}HP:1"):
                with pytest.raises(ValueError, match="whitespace"):
                    Iri(value)
        Iri("".join(c for c in chars if not c.isspace()))

    def test_absolute_detection(self):
        assert Iri("http://purl.obolibrary.org/obo/HP_1").is_absolute
        assert not Iri("HP:0000001").is_absolute

    def test_expand(self):
        assert expand_iri(Iri("HP:0012735"), PM) == "http://purl.obolibrary.org/obo/HP_0012735"
        assert expand_iri("hp:0012735", PM) == "hp:0012735"  # case-sensitive
        assert expand_iri("https://x.org/a", PM) == "https://x.org/a"
        assert expand_iri("ZZ:1", PM) == "ZZ:1"


class TestValidation:
    def test_synonym_scope(self):
        assert Synonym("x").scope == "related"
        with _raises_exactly("unknown synonym scope: 'bogus'"):
            Synonym("x", scope="bogus")

    def test_synonym_text(self):
        with _raises_exactly("synonym text must be non-empty"):
            Synonym("")

    def test_definition_text(self):
        with _raises_exactly("definition text must be non-empty"):
            Definition(text="")

    def test_location_line(self):
        with _raises_exactly("line numbers start at 1"):
            SourceLocation("f", 0)
        assert SourceLocation("f", 1).line == 1

    def test_term_label(self):
        with _raises_exactly("term label must be non-empty"):
            Term(label="")

    def test_finding_rule_and_severity(self):
        with _raises_exactly("rule id not in catalog: 'R99-NOPE'"):
            Finding(rule_id="R99-NOPE", severity="info", subject_label="x", message="m")
        with _raises_exactly("unknown severity: 'fatal'"):
            Finding(rule_id="R02-PLURAL", severity="fatal", subject_label="x", message="m")
        with _raises_exactly("finding message must be non-empty"):
            Finding(rule_id="R02-PLURAL", severity="info", subject_label="x", message="")

    def test_replace_checks_again(self):
        with _raises_exactly("term label must be non-empty"):
            dataclasses.replace(Term(label="x"), label="")
        with _raises_exactly("unknown severity: 'fatal'"):
            dataclasses.replace(FULL[Finding], severity="fatal")


class TestIdentity:
    def test_prefers_expanded_iri(self):
        term = Term(label="cough", iri=Iri("HP:0012735"))
        assert (Vocabulary((term,), PM).identity(term)
                == "http://purl.obolibrary.org/obo/HP_0012735")

    def test_location_placeholder(self):
        term = Term(label="x", location=SourceLocation("f.tsv", 7))
        assert Vocabulary((term,), PM).identity(term) == "no-iri:f.tsv:7"

    def test_label_placeholder(self):
        assert Vocabulary((), PM).identity(Term(label="Wet Cough")) == "no-iri::wet cough"


def _t(label, iri=None, replaced_by=None, obsolete=False):
    return Term(label=label, iri=Iri(iri) if iri else None,
                replaced_by=Iri(replaced_by) if replaced_by else None,
                obsolete=obsolete)


class TestVocabulary:
    def test_least_bearer_wins_index(self):
        a = _t("first", "EX:1")
        b = _t("second", "EX:1")
        for terms in ([a, b], [b, a]):
            vocab = build_vocabulary(terms, PM)
            assert vocab.term_for(Iri("EX:1")) is a
            assert len(vocab.terms) == 2  # both stay for uniqueness checks

    def test_bearer_order_ends_on_the_location(self):
        here = Term(label="cough", iri=Iri("EX:1"), location=SourceLocation("b.obo", 2))
        there = dataclasses.replace(here, location=SourceLocation("a.obo", 9))
        for terms in ([here, there], [there, here]):
            assert build_vocabulary(terms, PM).term_for(Iri("EX:1")) is there

    def test_term_for_expands(self):
        vocab = build_vocabulary([_t("cough", "HP:0012735")], PM)
        assert vocab.term_for("http://purl.obolibrary.org/obo/HP_0012735") is not None

    def test_merge_keeps_order_and_prefixes(self):
        # The merged terms expand under the given map alone: neither
        # vocabulary's own map enters it, and the given one is copied.
        v1 = build_vocabulary([_t("a", "EX:1")], {"EX": "https://one.example/"})
        v2 = build_vocabulary([_t("b", "EX:2")], {"EX": "https://two.example/", "HP": "x"})
        given = {"EX": "https://given.example/"}
        merged = merge_vocabularies([v1, v2], given)
        assert [t.label for t in merged.terms] == ["a", "b"]
        assert merged.prefix_map == given and merged.prefix_map is not given
        assert merged.term_for("https://given.example/2").label == "b"
        assert merge_vocabularies([v1, v2]).prefix_map == {}

    def test_constructed_vocabulary_indexes_its_terms(self):
        term = _t("a", "HP:1")
        assert Vocabulary(terms=(term,)).term_for("HP:1") is term

    @pytest.mark.parametrize("parse, text", [
        (parse_obo, "[Term]\nid: HP:0000001\nname: wet\n"),
        (parse_term_table, "label\tiri\nwet\tHP:0000001\n")], ids=["obo", "tsv"])
    def test_index_is_built_on_first_read_from_the_current_prefixes(self, parse, text):
        vocab, _ = parse(text, "terms")
        assert "by_iri" not in vars(vocab)
        vocab.prefix_map.update(PM)
        assert vocab.term_for("HP:0000001").label == "wet"
        assert list(vocab.by_iri) == ["http://purl.obolibrary.org/obo/HP_0000001"]

    def test_fields_cannot_be_assigned(self):
        vocab = build_vocabulary([_t("a", "EX:1")], PM)
        for name in ("terms", "prefix_map"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vocab, name, None)


class TestResolveReplacement:
    def test_chain(self):
        vocab = build_vocabulary([
            _t("a", "EX:1", replaced_by="EX:2", obsolete=True),
            _t("b", "EX:2", replaced_by="EX:3", obsolete=True),
            _t("c", "EX:3"),
        ], PM)
        assert resolve_replacement(vocab, Iri("EX:1")).value == "EX:3"

    def test_terminus_is_start_when_no_pointer(self):
        vocab = build_vocabulary([_t("a", "EX:1")], PM)
        assert resolve_replacement(vocab, Iri("EX:1")).value == "EX:1"

    def test_unknown_start(self):
        vocab = build_vocabulary([_t("a", "EX:1")], PM)
        with pytest.raises(UnknownIriError):
            resolve_replacement(vocab, Iri("EX:404"))

    def test_dangling_link(self):
        vocab = build_vocabulary([_t("a", "EX:1", replaced_by="EX:404")], PM)
        with pytest.raises(UnknownIriError):
            resolve_replacement(vocab, Iri("EX:1"))

    def test_cycle(self):
        vocab = build_vocabulary([
            _t("a", "EX:1", replaced_by="EX:2", obsolete=True),
            _t("b", "EX:2", replaced_by="EX:1", obsolete=True),
        ], PM)
        with pytest.raises(ReplacementCycleError):
            resolve_replacement(vocab, Iri("EX:1"))

    def test_self_cycle(self):
        vocab = build_vocabulary([_t("a", "EX:1", replaced_by="EX:1", obsolete=True)], PM)
        with pytest.raises(ReplacementCycleError):
            resolve_replacement(vocab, Iri("EX:1"))
