"""A naive reference for the grouped entries of `engine.CHECKS`, written from
the "Grouped findings" table of docs/formats.md and the rule catalog. Each
reference is called as the registry calls its check, on a unit and a check
context; it scans every term for every key, computes identities itself from
`expand_iri` and the documented placeholders, and builds each finding whole.
A property holds each registered check equal to its reference, as multisets
of full findings, on small vocabularies drawn from a pool of label words.

The other `VOCABULARY` entries are judged by the oracles named in
`COVERED_ELSEWHERE`.
"""

import copy
import pickle
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocab_lint.catalog import RULES
from vocab_lint.engine import CHECKS, VOCABULARY, CheckContext, RuleConfig
from vocab_lint.identity import default_prefix_map
from vocab_lint.lexical import default_lexicons
from vocab_lint.model import (
    Definition,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    Vocabulary,
    expand_iri,
    normalize_label,
)

PREFIX_MAP = {"EX": "https://example.org/EX_"}
LEX = default_lexicons()


def _identity(term, prefix_map):
    """The expanded IRI, or the location placeholder, or the label one."""
    if term.iri is not None:
        return expand_iri(term.iri, prefix_map)
    if term.location is not None:
        return f"no-iri:{term.location.file}:{term.location.line}"
    return f"no-iri::{normalize_label(term.label)}"


def _bearer_order(term):
    loc = term.location
    return (normalize_label(term.label), term.label, term.iri.value if term.iri else "",
            loc.file if loc else "", loc.line if loc else 0)


def _ordered(members, prefix_map):
    """The one member order: normalized label, identity, bearer order."""
    return sorted(members, key=lambda t: (normalize_label(t.label), _identity(t, prefix_map),
                                          _bearer_order(t)))


def _finding(rule_id, members, subject_label, message, suggestion=None):
    """A full finding as a tuple: the members' IRIs in the given order and
    the earliest member location."""
    locations = [(t.location.file, t.location.line) for t in members if t.location]
    return (rule_id, RULES[rule_id].default_severity, subject_label, message,
            tuple(t.iri.value for t in members if t.iri is not None),
            min(locations, default=None), suggestion)


def _groups(terms, keys_of):
    """Each key that two or more of the terms carry, with every carrier."""
    keys = {key for t in terms for key in keys_of(t)}
    for key in sorted(keys):
        carriers = [t for t in terms if key in keys_of(t)]
        if len(carriers) > 1:
            yield key, carriers


def _live(unit):
    return [t for t in unit.terms if not t.obsolete]


def _label_phrases(unit):
    """Each non-empty label's tokens, with the identities of its bearers,
    each once, in term order."""
    phrases = {}
    for t in unit.terms:
        phrase, identity = tuple(normalize_label(t.label).split()), _identity(t, PREFIX_MAP)
        if phrase and identity not in phrases.setdefault(phrase, []):
            phrases[phrase].append(identity)
    return phrases


def _flat(table):
    """A phrase table's {phrase: values}, with each phrase checked to sit
    under its first token and its length."""
    flat = {}
    for first, by_length in table.items():
        for length, phrases in by_length.items():
            assert phrases
            for phrase, values in phrases.items():
                assert (phrase[0], len(phrase)) == (first, length)
                flat[phrase] = values
    return flat


def duplicate_iri(unit, ctx):
    pm = unit.prefix_map
    found = []
    for iri, members in _groups([t for t in unit.terms if t.iri is not None],
                                lambda t: {_identity(t, pm)}):
        members = _ordered(members, pm)
        labels = "; ".join(t.label for t in members)
        found.append(_finding("R06-DUP-IRI", members, members[0].label,
                              f"{len(members)} terms share the IRI {iri} ({labels})"))
    return found


def semantic_noise(unit, ctx):
    pm = unit.prefix_map
    found = []
    for _, members in _groups(_live(unit), lambda t: {normalize_label(t.label)}):
        members = _ordered(members, pm)
        iris = sorted({_identity(t, pm) for t in members if t.iri is not None})
        if len(iris) > 1:
            found.append(_finding(
                "C-SEMANTIC-NOISE", members, members[0].label,
                f'label "{members[0].label}" denotes {len(iris)} distinct terms '
                f"({', '.join(iris)}); a shared spelling hides different meanings"))
    return found


def synonym_clash(unit, ctx):
    pm = unit.prefix_map
    live = _live(unit)
    synonyms = {normalize_label(s.text) for t in live for s in t.synonyms}
    found = []
    for phrase, members in _groups(live, lambda t: {normalize_label(t.label)} | {
            normalize_label(s.text) for s in t.synonyms}):
        if phrase not in synonyms:
            continue
        members = sorted(_ordered(members, pm), key=lambda t: _identity(t, pm))
        quoted = [f'"{t.label}"' for t in members]
        carriers = (f"both {quoted[0]} and {quoted[1]}" if len(quoted) == 2
                    else f"{len(quoted)} terms ({', '.join(quoted)})")
        found.append(_finding(
            "C-SYNONYM-CLASH", members, members[0].label,
            f'phrase "{phrase}" appears on {carriers}; shared synonyms blur term boundaries'))
    return found


def duplicate_definition(unit, ctx):
    found = []
    for _, members in _groups([t for t in _live(unit) if t.definition is not None],
                              lambda t: {normalize_label(t.definition.text)}):
        members = _ordered(members, unit.prefix_map)
        labels = "; ".join(t.label for t in members)
        found.append(_finding(
            "R07-DUPLICATE-DEF", members, members[0].label,
            f"{len(members)} terms share one definition ({labels}); "
            "combine them via synonymy or differentiate the definitions"))
    return found


def _resolve(unit, iri):
    """The least bearer, in bearer order, of the expanded IRI."""
    key = expand_iri(iri, unit.prefix_map)
    return min((t for t in unit.terms if t.iri is not None
                and expand_iri(t.iri, unit.prefix_map) == key), key=_bearer_order, default=None)


def redundant_narrowing(unit, ctx):
    pm = unit.prefix_map
    live = _live(unit)
    found = []
    for a in live:
        words = normalize_label(a.label).split()
        parent_iris = {expand_iri(p, pm) for p in a.parents}
        parents = [_resolve(unit, p) for p in a.parents]
        for cut in range(1, len(words)):
            label = " ".join(words[cut:])
            bearers = _ordered([b for b in live if normalize_label(b.label) == label], pm)
            if not bearers or any(p is not None and normalize_label(p.label) == label
                                  for p in parents):
                continue
            kept = [b for b in bearers if b.iri is None or _identity(b, pm) not in parent_iris]
            if not kept:
                continue
            shared = "" if len(kept) == 1 else f" (the label of {len(kept)} terms)"
            found.append(_finding(
                "R04-NARROW", [a], a.label,
                f'label narrows "{kept[0].label}"{shared} with leading modifiers but '
                "declares no relation to it; reuse the broader term or record the modifier "
                "in its own field", suggestion=kept[0].label))
    return found


def word_bomb(unit, ctx):
    """Live labels grouped by their last token. A group of at least the
    minimum size qualifies when a member holds "and" or "or" as a token, or
    when that many members each end in one member's label and are longer."""
    min_group = ctx.config.word_bomb_min_group
    found = []
    for head, members in _groups(_live(unit),
                                 lambda t: set(normalize_label(t.label).split()[-1:])):
        if len(members) < min_group:
            continue
        token_lists = [normalize_label(t.label).split() for t in members]
        conjunction = any("and" in toks or "or" in toks for toks in token_lists)
        extended = any(sum(len(toks) > len(base) and toks[-len(base):] == base
                           for toks in token_lists) >= min_group for base in token_lists)
        if conjunction or extended:
            members = _ordered(members, unit.prefix_map)
            labels = "; ".join(t.label for t in members)
            found.append(_finding(
                "C-WORD-BOMB", members, head,
                f'{len(members)} labels share the head noun "{head}" ({labels}); '
                "combinatorial picklist; model the modifiers as separate fields"))
    return found


ORACLES = {
    ("R06-DUP-IRI",): duplicate_iri,
    ("C-SEMANTIC-NOISE",): semantic_noise,
    ("C-SYNONYM-CLASH",): synonym_clash,
    ("R07-DUPLICATE-DEF",): duplicate_definition,
    ("R04-NARROW",): redundant_narrowing,
    ("C-WORD-BOMB",): word_bomb,
}

# The vocabulary checks judged elsewhere, each by the test that judges it.
COVERED_ELSEWHERE = {
    ("R07-SELF-REF", "R07-CIRCULAR"): [
        "test_definitions.py::test_edges_match_a_brute_force_scan_of_every_pair",
        "test_acceptance.py::test_criterion_3_cycle_detector_matches_oracle"],
    ("R08-LABEL", "R08-NO-REPLACEMENT", "R08-LIVE-REPLACED", "R08-DANGLING", "R08-CHAIN",
     "R08-CYCLE", "R08-OBSOLETE-PARENT"): [
        "test_identity.py::test_chains_match_resolving_each_term_on_random_replacement_graphs"],
}


def test_every_vocabulary_check_has_an_oracle():
    vocabulary_checks = [rule_ids for rule_ids, scope, _ in CHECKS if scope == VOCABULARY]
    assert set(ORACLES).isdisjoint(COVERED_ELSEWHERE)
    assert Counter(vocabulary_checks) == Counter([*ORACLES, *COVERED_ELSEWHERE])
    for tests in COVERED_ELSEWHERE.values():
        for test in tests:
            file_name, _, name = test.partition("::")
            assert f"def {name}(" in Path(__file__).with_name(file_name).read_text()


WORDS = ["wet", "cough", "Cough", "dry", "fever"]
IRIS = ["EX:1", "EX:2", "https://example.org/EX_1", "https://example.org/EX_2", "ZZ:1"]

TERMS = st.builds(
    Term,
    label=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    iri=st.none() | st.sampled_from(IRIS).map(Iri),
    synonyms=st.lists(st.sampled_from(["cough", "wet cough", "Fever", "dry-cough"]).map(Synonym),
                      max_size=2).map(tuple),
    definition=st.none() | st.sampled_from(["A cough.", "a Cough", "A fever."]).map(Definition),
    parents=st.lists(st.sampled_from(IRIS).map(Iri), max_size=2).map(tuple),
    obsolete=st.sampled_from([False, False, False, True]),
    location=st.none() | st.builds(SourceLocation, st.sampled_from(["a.obo", "b.tsv"]),
                                   st.integers(min_value=1, max_value=3)),
)


def _t(label, iri=None, **fields):
    return Term(label=label, iri=Iri(iri) if iri else None, **fields)


# Every rule of the table fires under the default settings: both forms of
# EX:1 on two labels, a shared synonym and definition, narrowers with and
# without a parent link, and seven live labels ending in "cough", one with "or".
EVERY_RULE = [
    _t("cough", "EX:1", synonyms=(Synonym("dry cough"),), definition=Definition("A cough.")),
    _t("Cough", "https://example.org/EX_1", definition=Definition("a Cough"),
       location=SourceLocation("b.tsv", 2)),
    _t("dry cough", "EX:2", parents=(Iri("https://example.org/EX_1"),)),
    _t("wet cough", location=SourceLocation("a.obo", 3), synonyms=(Synonym("cough"),)),
    _t("cough", "ZZ:1", parents=(Iri("EX:1"),)),
    _t("wet dry cough", parents=(Iri("EX:2"),)),
    _t("cough", obsolete=True),
    _t("dry or wet cough", "EX:3"),
]


def test_the_example_fires_every_rule_of_the_table():
    unit = Vocabulary(tuple(EVERY_RULE), dict(PREFIX_MAP))
    ctx = CheckContext(unit, LEX, default_prefix_map(), RuleConfig())
    assert all(oracle(unit, ctx) for oracle in ORACLES.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(TERMS, min_size=1, max_size=8), st.sampled_from([2, 3, 5]))
@example(EVERY_RULE, 5)
# EX:1 stands in as "cough", so the parent link exempts no narrowing of "dry
# cough"; it only uncounts the bearer EX:1, and R04 names "dry Cough".
@example([_t("dry cough", "EX:1"), _t("cough", "https://example.org/EX_1"),
          _t("dry Cough", "EX:2"), _t("wet dry cough", parents=(Iri("EX:1"),))], 2)
# A group of exactly the minimum size qualifies by its conjunction alone.
@example([_t("cough", "EX:1"), _t("wet or dry cough"), _t("fever")], 2)
def test_each_grouped_check_equals_its_oracle(terms, min_group):
    unit = Vocabulary(tuple(terms), dict(PREFIX_MAP))
    ctx = CheckContext(unit, LEX, default_prefix_map(), RuleConfig(word_bomb_min_group=min_group))
    for rule_ids, _, run in CHECKS:
        if rule_ids in ORACLES:
            found = [(f.rule_id, f.severity, f.subject_label, f.message,
                      tuple(iri.value for iri in f.subject_iris),
                      (f.location.file, f.location.line) if f.location else None,
                      f.suggestion) for f in run(unit, ctx)]
            assert Counter(found) == Counter(ORACLES[rule_ids](unit, ctx)), rule_ids


@settings(max_examples=100, deadline=None)
@given(st.lists(TERMS, max_size=8),
       st.sampled_from([copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]))
def test_identities_and_index_match_a_naive_reference(terms, copy_of):
    # All are read before the copy, so the copy carries them: they must
    # still answer for the copy's own terms.
    unit = Vocabulary(tuple(terms), dict(PREFIX_MAP))
    assert unit.identities == tuple(map(unit.identity, unit.terms))
    assert unit.by_iri.keys() <= set(unit.identities)
    assert unit.live is unit.live and unit.labels is unit.labels
    for vocab in (unit, copy_of(unit)):
        assert vocab.identities == tuple(_identity(t, PREFIX_MAP) for t in vocab.terms)
        live = _live(vocab)
        assert len(vocab.live) == len(live)
        assert all(a is b for a, b in zip(vocab.live, live))
        assert _flat(vocab.labels) == _label_phrases(vocab)
        least = {_identity(t, PREFIX_MAP): _resolve(vocab, t.iri)
                 for t in vocab.terms if t.iri is not None}
        assert vocab.by_iri.keys() == least.keys()
        assert all(vocab.by_iri[key] is term for key, term in least.items())
