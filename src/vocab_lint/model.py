"""Canonical in-memory model: terms, vocabularies, findings, and the shared
label-normalization and phrase-lookup primitives used by every check.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

from .catalog import RULES, SEVERITIES

SYNONYM_SCOPES = ("exact", "broad", "narrow", "related")


def _slot_setters(cls: type) -> Iterator[Callable[[object, object], None]]:
    """The `__set__` of each field's slot, in field order. Each `__init__`
    below stores its fields through these: like `object.__setattr__`, they
    pass the frozen class's `__setattr__`, at about a third of its cost."""
    return (cls.__dict__[f.name].__set__ for f in fields(cls))


# The default of Term.annotations: a new dict for each term.
_NEW_DICT: Any = object()


# Each model class below is a frozen, slotted dataclass that writes its own
# __init__, with the signature the dataclass would generate: it checks its
# arguments, then stores each field through its slot's setter.
@dataclass(frozen=True, slots=True, init=False)
class Iri:
    """An absolute IRI or a CURIE of shape PREFIX:LOCALID."""

    value: str

    def __init__(self, value: str) -> None:
        if not value:
            raise ValueError("IRI value must be non-empty")
        if value.split() != [value]:
            raise ValueError(f"IRI value contains whitespace: {value!r}")
        _iri_value(self, value)

    @property
    def is_absolute(self) -> bool:
        return "://" in self.value

    def __str__(self) -> str:
        return self.value


(_iri_value,) = _slot_setters(Iri)


@dataclass(frozen=True, slots=True, init=False)
class Synonym:
    """A synonym; `key` is its normalized text. Construction, equality, hash
    and repr do not see `key`; `fields()` and `asdict()` do."""

    text: str
    scope: str = "related"
    is_abbreviation: bool = False
    key: str = field(init=False, repr=False, compare=False)

    def __init__(self, text: str, scope: str = "related", is_abbreviation: bool = False) -> None:
        if not text:
            raise ValueError("synonym text must be non-empty")
        if scope not in SYNONYM_SCOPES:
            raise ValueError(f"unknown synonym scope: {scope!r}")
        _synonym_text(self, text)
        _synonym_scope(self, scope)
        _synonym_is_abbreviation(self, is_abbreviation)
        _synonym_key(self, normalize_label(text))


_synonym_text, _synonym_scope, _synonym_is_abbreviation, _synonym_key = _slot_setters(Synonym)


_SENTENCE_END = re.compile(r"\.(?=\s|$)")


@dataclass(frozen=True, slots=True, init=False)
class Definition:
    """A definition; `tokens` are its normalized text's tokens and the first
    `head` of them are its first sentence's. Construction, equality, hash and
    repr do not see `tokens` or `head`; `fields()` and `asdict()` do."""

    text: str
    sources: tuple[str, ...] = ()
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)
    head: int = field(init=False, repr=False, compare=False)

    def __init__(self, text: str, sources: tuple[str, ...] = ()) -> None:
        if not text:
            raise ValueError("definition text must be non-empty")
        tokens = tuple(tokens_of(text))
        # The sentence end is a "." and so a token break: the first
        # sentence's tokens are the text's less those after that period,
        # which only a "." before the text's last character can start.
        dot = text.find(".", 0, -1)
        end = _SENTENCE_END.search(text, dot) if dot >= 0 else None
        rest = text[end.end():] if end else ""
        _definition_text(self, text)
        _definition_sources(self, sources)
        _definition_tokens(self, tokens)
        _definition_head(self, len(tokens) - len(tokens_of(rest)) if rest else len(tokens))


(_definition_text, _definition_sources, _definition_tokens,
 _definition_head) = _slot_setters(Definition)


@dataclass(frozen=True, slots=True, init=False)
class SourceLocation:
    file: str
    line: int

    def __init__(self, file: str, line: int) -> None:
        if line < 1:
            raise ValueError("line numbers start at 1")
        _location_file(self, file)
        _location_line(self, line)


_location_file, _location_line = _slot_setters(SourceLocation)


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """One vocabulary entry, stored exactly as the input file stated it.

    `key` (the normalized label) and `tokens` (its tokens) are the comparison
    forms every check uses. They are computed once, when the term is built.
    Construction, equality, hash, repr and `replace` do not see them;
    `fields()` and `asdict()` do."""

    label: str
    iri: Iri | None = None
    synonyms: tuple[Synonym, ...] = ()
    definition: Definition | None = None
    parents: tuple[Iri, ...] = ()
    obsolete: bool = False
    replaced_by: Iri | None = None
    annotations: dict[str, str] = field(default_factory=dict, hash=False)
    location: SourceLocation | None = None
    key: str = field(init=False, repr=False, compare=False)
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, label: str, iri: Iri | None = None, synonyms: tuple[Synonym, ...] = (),
                 definition: Definition | None = None, parents: tuple[Iri, ...] = (),
                 obsolete: bool = False, replaced_by: Iri | None = None,
                 annotations: dict[str, str] = _NEW_DICT,
                 location: SourceLocation | None = None) -> None:
        if not label:
            raise ValueError("term label must be non-empty")
        tokens = tuple(tokens_of(label))
        _term_label(self, label)
        _term_iri(self, iri)
        _term_synonyms(self, synonyms)
        _term_definition(self, definition)
        _term_parents(self, parents)
        _term_obsolete(self, obsolete)
        _term_replaced_by(self, replaced_by)
        _term_annotations(self, {} if annotations is _NEW_DICT else annotations)
        _term_location(self, location)
        _term_key(self, " ".join(tokens))
        _term_tokens(self, tokens)


(_term_label, _term_iri, _term_synonyms, _term_definition, _term_parents, _term_obsolete,
 _term_replaced_by, _term_annotations, _term_location, _term_key,
 _term_tokens) = _slot_setters(Term)


@dataclass(frozen=True, slots=True, init=False)
class Finding:
    rule_id: str
    severity: str
    subject_label: str
    message: str
    subject_iris: tuple[Iri, ...] = ()
    location: SourceLocation | None = None
    suggestion: str | None = None

    def __init__(self, rule_id: str, severity: str, subject_label: str, message: str,
                 subject_iris: tuple[Iri, ...] = (), location: SourceLocation | None = None,
                 suggestion: str | None = None) -> None:
        if rule_id not in RULES:
            raise ValueError(f"rule id not in catalog: {rule_id!r}")
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {severity!r}")
        if not message:
            raise ValueError("finding message must be non-empty")
        _finding_rule_id(self, rule_id)
        _finding_severity(self, severity)
        _finding_subject_label(self, subject_label)
        _finding_message(self, message)
        _finding_subject_iris(self, subject_iris)
        _finding_location(self, location)
        _finding_suggestion(self, suggestion)

    @classmethod
    def about(cls, term: Term, rule_id: str, message: str, suggestion: str | None = None,
              *, severity: str | None = None) -> Finding:
        """A finding whose subject is one term: its label, its IRI if it has
        one, and its location."""
        return cls.about_terms((term,), rule_id, term.label, message, suggestion,
                               severity=severity)

    @classmethod
    def about_terms(cls, terms: tuple[Term, ...] | list[Term], rule_id: str,
                    subject_label: str, message: str, suggestion: str | None = None,
                    *, severity: str | None = None) -> Finding:
        """A finding about a group of terms: the IRIs of those that have one,
        in the given order, and the earliest location by (file, line). The
        severity defaults to the rule's in the catalog."""
        locations = [t.location for t in terms if t.location is not None]
        return cls(rule_id=rule_id,
                   severity=RULES[rule_id].default_severity if severity is None else severity,
                   subject_label=subject_label, message=message,
                   subject_iris=tuple(t.iri for t in terms if t.iri is not None),
                   location=min(locations, key=lambda loc: (loc.file, loc.line),
                                default=None),
                   suggestion=suggestion)


(_finding_rule_id, _finding_severity, _finding_subject_label, _finding_message,
 _finding_subject_iris, _finding_location, _finding_suggestion) = _slot_setters(Finding)


def shared_keys(pairs: Iterable[tuple[str, Term]],
                vocab: Vocabulary) -> list[tuple[str, list[Term]]]:
    """The keys that two or more terms share, in sorted order, each with its
    terms ordered by normalized label, then identity in `vocab`, then
    bearer_order, whatever the input order. A term yielding one key again
    before the next term's pairs counts once."""
    # A key's first bearer waits in `first`; a list starts at its second.
    first: dict[str, Term] = {}
    groups: dict[str, list[Term]] = {}
    for key, term in pairs:
        group = groups.get(key)
        if group is not None:
            if group[-1] is not term:
                group.append(term)
        else:
            held = first.setdefault(key, term)
            if held is not term:
                groups[key] = [held, term]
    return [(key, sorted(groups[key], key=lambda t: (t.key, vocab.identity(t),
                                                     bearer_order(t))))
            for key in sorted(groups)]


PhraseTable = dict[str, dict[int, dict[tuple[str, ...], list]]]


def phrase_table(entries: Iterable[tuple[tuple[str, ...], object]]) -> PhraseTable:
    """Group (phrase tokens, value) pairs for find_phrases as {first token:
    {length: {phrase: values}}}. Empty phrases are dropped; the values of one
    phrase stay in input order."""
    table: PhraseTable = {}
    for phrase, value in entries:
        if phrase:
            by_length = table.setdefault(phrase[0], {})
            by_length.setdefault(len(phrase), {}).setdefault(phrase, []).append(value)
    return table


def find_phrases(tokens: tuple[str, ...], table: PhraseTable) -> Iterator[tuple[int, int, list]]:
    """(start, length, values) for each run tokens[start:start + length] that is
    a phrase of the table: one probe per token, plus one per length of the
    phrases starting with that token."""
    for start, token in enumerate(tokens):
        if token in table:
            for length, phrases in table[token].items():
                values = phrases.get(tokens[start:start + length])
                if values is not None:
                    yield start, length, values


# Every code point that is whitespace or in a P* category under Unicode
# 14.0.0, as hex ranges; tests/test_model.py regenerates it on a 14.0.0
# interpreter.
_SPACE_RANGES = """
9-d 1c-23 25-2a 2c-2f 3a-3b 3f-40 5b-5d 5f 7b 7d 85 a0-a1 a7 ab b6-b7 bb bf 37e 387
55a-55f 589-58a 5be 5c0 5c3 5c6 5f3-5f4 609-60a 60c-60d 61b 61d-61f 66a-66d 6d4
700-70d 7f7-7f9 830-83e 85e 964-965 970 9fd a76 af0 c77 c84 df4 e4f e5a-e5b f04-f12
f14 f3a-f3d f85 fd0-fd4 fd9-fda 104a-104f 10fb 1360-1368 1400 166e 1680 169b-169c
16eb-16ed 1735-1736 17d4-17d6 17d8-17da 1800-180a 1944-1945 1a1e-1a1f 1aa0-1aa6
1aa8-1aad 1b5a-1b60 1b7d-1b7e 1bfc-1bff 1c3b-1c3f 1c7e-1c7f 1cc0-1cc7 1cd3 2000-200a
2010-2029 202f-2043 2045-2051 2053-205f 207d-207e 208d-208e 2308-230b 2329-232a
2768-2775 27c5-27c6 27e6-27ef 2983-2998 29d8-29db 29fc-29fd 2cf9-2cfc 2cfe-2cff 2d70
2e00-2e2e 2e30-2e4f 2e52-2e5d 3000-3003 3008-3011 3014-301f 3030 303d 30a0 30fb
a4fe-a4ff a60d-a60f a673 a67e a6f2-a6f7 a874-a877 a8ce-a8cf a8f8-a8fa a8fc a92e-a92f
a95f a9c1-a9cd a9de-a9df aa5c-aa5f aade-aadf aaf0-aaf1 abeb fd3e-fd3f fe10-fe19
fe30-fe52 fe54-fe61 fe63 fe68 fe6a-fe6b ff01-ff03 ff05-ff0a ff0c-ff0f ff1a-ff1b
ff1f-ff20 ff3b-ff3d ff3f ff5b ff5d ff5f-ff65 10100-10102 1039f 103d0 1056f 10857
1091f 1093f 10a50-10a58 10a7f 10af0-10af6 10b39-10b3f 10b99-10b9c 10ead 10f55-10f59
10f86-10f89 11047-1104d 110bb-110bc 110be-110c1 11140-11143 11174-11175 111c5-111c8
111cd 111db 111dd-111df 11238-1123d 112a9 1144b-1144f 1145a-1145b 1145d 114c6
115c1-115d7 11641-11643 11660-1166c 116b9 1173c-1173e 1183b 11944-11946 119e2
11a3f-11a46 11a9a-11a9c 11a9e-11aa2 11c41-11c45 11c70-11c71 11ef7-11ef8 11fff
12470-12474 12ff1-12ff2 16a6e-16a6f 16af5 16b37-16b3b 16b44 16e97-16e9a 16fe2 1bc9f
1da87-1da8b 1e95e-1e95f
"""


def _space_points() -> Iterator[int]:
    for item in _SPACE_RANGES.split():
        lo, _, hi = item.partition("-")
        yield from range(int(lo, 16), int(hi or lo, 16) + 1)


_TABLE = dict.fromkeys(_space_points(), ord(" "))
_TABLE.update((c, c + 32) for c in range(ord("A"), ord("Z") + 1))
# The same mapping for ASCII text, as bytes. It turns every ASCII whitespace
# byte into a space, so splitting on bytes whitespace splits on spaces.
_ASCII_TABLE = bytes(_TABLE.get(b, b) for b in range(256))


def normalize_label(raw: str) -> str:
    """Shared comparison key: ASCII letters lowercased, the whitespace and
    punctuation of Unicode 14.0.0 (including parentheses and hyphens) turned
    into spaces, spaces collapsed. Every other character, including one
    assigned after 14.0.0, passes through unchanged. Idempotent."""
    return " ".join(tokens_of(raw))


def tokens_of(raw: str) -> list[str]:
    """normalize_label(raw).split(), in one split. The ASCII table leaves no
    whitespace but the space, so str.split() splits on spaces alone there."""
    if raw.isascii():
        return raw.encode().translate(_ASCII_TABLE).decode().split()
    return [token for token in raw.translate(_TABLE).split(" ") if token]


def split_lines(text: str) -> list[str]:
    """The lines of `text` less its leading byte-order marks, each ended at
    "\r\n", "\r" or "\n" as reading a file in text mode ends it, so that a
    file and its text read alike. Every line-oriented reader splits here."""
    return text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")


def expand_iri(iri: Iri | str, prefix_map: dict[str, str]) -> str:
    """Expand a CURIE against a prefix map (first ":" splits, prefixes are
    case-sensitive); absolute or unexpandable values are returned unchanged."""
    value = iri.value if isinstance(iri, Iri) else iri
    if "://" in value:
        return value
    prefix, sep, local = value.partition(":")
    if sep and prefix in prefix_map:
        return prefix_map[prefix] + local
    return value


@dataclass(frozen=True)
class Vocabulary:
    """An ordered collection of terms and the prefix map their CURIEs expand
    against, which fixes each term's `identity`. `identities` holds every
    term's identity, in `terms` order; `by_iri` indexes the terms with an IRI
    by it; `live` and `labels` hold what several checks of a unit share.

    `identities`, `labels` and `by_iri` read `prefix_map` once, when first
    built: an update made after that first read reaches none of them. To look
    terms up under a different map, build a new Vocabulary, as `cli.suggest`
    does. The map stays a plain `dict`, the type `expand_iri` and every
    caller pass around, so a caller that completes it in place before the
    first lookup (the benchmark's set-up probe does) still can."""

    terms: tuple[Term, ...] = ()
    prefix_map: dict[str, str] = field(default_factory=dict)

    def identity(self, term: Term) -> str:
        """The term's identity: its IRI expanded under `prefix_map` or, for a
        term without one, a placeholder from its location or its key."""
        if term.iri is not None:
            return expand_iri(term.iri, self.prefix_map)
        if term.location is not None:
            return f"no-iri:{term.location.file}:{term.location.line}"
        return f"no-iri::{term.key}"

    @cached_property
    def identities(self) -> tuple[str, ...]:
        """`identity(t)` for each term, in `terms` order, built the first time
        it is read. Being aligned with `terms`, it stays right in a copy."""
        return tuple(map(self.identity, self.terms))

    @cached_property
    def live(self) -> tuple[Term, ...]:
        """The terms that are not obsolete, in `terms` order, built on first read."""
        return tuple(t for t in self.terms if not t.obsolete)

    @cached_property
    def labels(self) -> PhraseTable:
        """The `phrase_table` of every label's tokens, each valued with its
        bearers' identities (once each, in `terms` order), built on first read."""
        return phrase_table(dict.fromkeys(zip((t.tokens for t in self.terms), self.identities)))

    @cached_property
    def by_iri(self) -> dict[str, Term]:
        """The terms with an IRI by identity, built the first time it is read.
        On duplicate identities the least bearer wins the slot; all bearers
        stay in `terms` so uniqueness checks can report them."""
        return least_bearers((identity, term) for identity, term
                             in zip(self.identities, self.terms) if term.iri is not None)

    def term_for(self, iri: Iri | str) -> Term | None:
        return self.by_iri.get(expand_iri(iri, self.prefix_map))


def bearer_order(term: Term) -> tuple[str, str, str, str, int]:
    """Which of the terms that bear one identity stands for it: the least of
    these, whatever the input order."""
    loc = term.location
    return (term.key, term.label, term.iri.value if term.iri else "",
            loc.file if loc else "", loc.line if loc else 0)


def least_bearers(pairs: Iterable[tuple[str, Term]]) -> dict[str, Term]:
    """Each key's least bearer by bearer_order, whatever the order of the
    (key, term) pairs."""
    held: dict[str, Term] = {}
    for key, term in pairs:
        other = held.get(key)
        if other is None or bearer_order(term) < bearer_order(other):
            held[key] = term
    return held


def build_vocabulary(terms: list[Term] | tuple[Term, ...],
                     prefix_map: dict[str, str] | None = None) -> Vocabulary:
    """A vocabulary of the terms under a copy of the prefix map."""
    return Vocabulary(tuple(terms), dict(prefix_map or {}))


def merge_vocabularies(vocabs: list[Vocabulary],
                       prefix_map: dict[str, str] | None = None) -> Vocabulary:
    """One vocabulary of every term, in order, under a copy of `prefix_map`
    alone: the vocabularies' own maps do not enter it."""
    return build_vocabulary(tuple(t for v in vocabs for t in v.terms), prefix_map)
