"""Seeded input generators for the vocab-lint benchmark.

Every workload is a pure function of its seed: the same seed writes
byte-identical files. Filler terms are clean by construction (no rule fires
on them), and each planted defect is written together with the
(rule_id, subject_label) pairs it must produce, so the expected output comes
from the generator, never from a run of the linter.

Construction invariants that keep the filler clean:

* Label words are generated pseudo-words; definition prose uses a disjoint
  English word list, so a definition mentions a label only on purpose.
* No label is a contiguous token run of another label (outside a planted
  family), so R04-NARROW, word bombs and stray mention edges cannot arise.
  A child's definition names its parent's label as the genus, which makes
  child -> parent the only mention edge of the filler; parents are drawn
  from earlier terms, so the filler's mention graph is acyclic.
* No label word ends in "s", starts with "non", or is a lexicon entry, so
  the phrasing checks stay quiet.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

PREFIX = "BX"
PREFIX_BASE = "https://example.org/bx/BX_"
REF_PREFIX = "RV"

# Sizes of each workload, small so that ops are short (NOTES.md says why).
# Changing one changes the benchmark.
BROAD_TERMS = 400            # split evenly between the OBO and the TSV file
CLUSTERED_GROUP = 120        # labels sharing first token and head noun
CLUSTERED_CHAIN = 60         # links in the replaced_by chain
CLUSTERED_FILLER = 20
CLUSTERED_CYCLES = 24        # planted R07-CIRCULAR cycles (< MAX_REPORTED_CYCLES)
SUGGEST_TERMS = 150          # live reference terms
SUGGEST_QUERIES = 12

# Term shape, counted on the 42 live terms of the repo's test fixtures
# (tests/fixtures/example_corpus and tests/fixtures/reference). Each table
# maps a value to how many fixture terms have it.
LABEL_WORDS = {1: 16, 2: 15, 3: 5, 4: 5}     # plus one 10-word concept bomb
SYNONYMS_PER_TERM = {0: 32, 1: 8, 2: 2}
SYNONYM_WORDS = {1: 5, 2: 7}
SYNONYM_SCOPES = {"exact": 6, "related": 3, "broad": 1}   # the 10 OBO synonyms
PARENT_RATE = 10 / 42
CAPITALIZED_RATE = 1 / 41    # "Tachypnea"; every other clean label is lower case
ANNOTATED_RATE = 1 / 25      # one of 25 live OBO terms carries a comment
# Every fixture definition is one "A ... is a ... that ..." sentence with
# one source; these are its word counts.
DEFINITION_WORDS_SEEN = {10: 5, 11: 8, 12: 6, 13: 9, 14: 9, 15: 2, 16: 3}
# The reference fixture alone (tests/fixtures/reference, 10 distinct live
# terms, two of them in both files): the suggest workload's shape.
REFERENCE_LABEL_WORDS = {1: 6, 2: 3, 3: 1}
REFERENCE_SYNONYMS_PER_TERM = {0: 2, 1: 6, 2: 2}
REFERENCE_SHARED_RATE = 2 / 10

CLUSTER_FIRST = "abnormal"
CLUSTER_HEAD = "morphology"

# Prose for definitions. None of these can be a label token, because label
# words are pseudo-words filtered against this list.
DEFINITION_WORDS = (
    "material specimen sample portion region structure process quality "
    "measurement record entry value field descriptor attribute procedure "
    "method device container vessel collection batch site location period "
    "interval event observation result response condition state property "
    "fluid tissue organ surface layer boundary segment fragment component "
    "unit amount level degree rate count volume mass length width depth "
    "taken from during after before within across between under over "
    "through along near inside outside beside toward upon the of in on at "
    "by for with into onto when where while whose one each every some many "
    "used kept held drawn stored shipped noted marked logged assessed seen "
    "derived obtained prepared washed dried frozen heated mixed sorted "
    "primary secondary visible stable mobile distinct regular typical "
    "small large narrow broad early late upper lower inner outer central "
    "lateral anterior posterior medial distal proximal dorsal ventral"
).split()

# Words that carry meaning for some check; pseudo-words must avoid them.
_RESERVED = frozenset(DEFINITION_WORDS) | frozenset(
    "a an is it that which and or no not neither none except without most "
    "recent previous last current latest to date obsolete true false yes y "
    "n belly tummy wet cough throwing up abnormal morphology laser radar "
    "scuba sonar goggles scissors forceps tongs pants glasses news species "
    "feces curator".split())

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "p", "r", "t", "v", "z",
           "br", "dr", "kr", "pl", "tr", "gl", "fr", "th", "ch", "sh")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "o", "ai", "ou", "ei")
_CODAS = ("", "", "", "n", "r", "l", "m", "k", "t", "nd", "rk")
_ABBREV_LETTERS = "BCDFGHJKLMNPQRTVWXZ"


def norm(text: str) -> str:
    """Normalization of the ASCII text this module writes: lowercase,
    punctuation to spaces, whitespace collapsed."""
    return " ".join(re.sub(r"[^a-z0-9]+", " ", text.lower()).split())


class Words:
    """Draws distinct pseudo-words from a seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        rng = self.rng
        while True:
            word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                           for _ in range(rng.choice((1, 1, 1, 2, 2, 3))))
            word += rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            if (word in self.used or word in _RESERVED or word.endswith("s")
                    or word.startswith("non")):
                continue
            self.used.add(word)
            return word

    def abbreviation(self) -> str:
        while True:
            word = "".join(self.rng.choice(_ABBREV_LETTERS)
                           for _ in range(self.rng.choice((3, 3, 4))))
            if word.lower() not in self.used:
                self.used.add(word.lower())
                return word


def _runs(tokens: tuple[str, ...]):
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            yield tokens[i:j]


class LabelRegistry:
    """Keeps any label from being a contiguous token run of another label.
    Labels are compared as normalized token tuples."""

    def __init__(self) -> None:
        self.labels: set[tuple[str, ...]] = set()
        self.runs: set[tuple[str, ...]] = set()

    def fits(self, tokens: tuple[str, ...]) -> bool:
        return tokens not in self.runs and not any(
            run in self.labels for run in _runs(tokens))

    def add(self, tokens: tuple[str, ...]) -> None:
        self.labels.add(tokens)
        self.runs.update(_runs(tokens))


@dataclass
class TermSpec:
    label: str
    iri: str | None
    definition: str | None = None
    sources: tuple[str, ...] = ()
    parents: tuple[str, ...] = ()
    synonyms: tuple[tuple[str, str], ...] = ()  # (text, scope)
    obsolete: bool = False
    replaced_by: str | None = None
    annotations: tuple[tuple[str, str], ...] = ()
    extra_lines: tuple[str, ...] = ()   # raw OBO lines that plant parse diagnostics
    obsolete_cell: str | None = None    # raw TSV obsolete cell, same purpose
    absolute: bool = False              # write the IRI in expanded form in TSV


@dataclass
class Expect:
    rule_id: str
    subject: str
    iris: tuple[str, ...] = ()   # IRIs a suppression may name, compact and expanded


@dataclass
class LintCase:
    obo: list[TermSpec] = field(default_factory=list)
    tsv: list[TermSpec] = field(default_factory=list)
    expected: list[Expect] = field(default_factory=list)
    suppressions: list[tuple[str, str]] = field(default_factory=list)
    severity_overrides: dict[str, str] = field(default_factory=dict)


def expanded(iri: str) -> str:
    if iri.startswith(PREFIX + ":"):
        return PREFIX_BASE + iri.split(":", 1)[1]
    return iri


class Generator:
    """Generation state for one workload."""

    def __init__(self, workload: str, seed: int, prefix: str = PREFIX) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.words = Words(self.rng)
        self.registry = LabelRegistry()
        self.prefix = prefix
        self.next_id = 1
        self.definitions: set[str] = set()
        self.decks: dict[tuple, list] = {}
        self.modifiers = [self.words.fresh() for _ in range(1500)]
        self.heads = [self.words.fresh() for _ in range(2500)]

    def new_iri(self) -> str:
        iri = f"{self.prefix}:{self.next_id:07d}"
        self.next_id += 1
        return iri

    def weighted(self, table: dict):
        """A value of `table`, dealt from a shuffled deck that holds each
        value as many times as its weight and refills when empty, so every
        seed's proportions match the table closely."""
        key = tuple(table.items())
        deck = self.decks.get(key)
        if not deck:
            deck = [value for value, count in table.items() for _ in range(count)]
            self.rng.shuffle(deck)
            self.decks[key] = deck
        return deck.pop()

    def modifier(self) -> str:
        # Zipf-like reuse, an assumption: a few modifiers are common, most
        # are rare.
        return self.modifiers[int(len(self.modifiers) * self.rng.random() ** 2.2)]

    def reserve(self, tokens: tuple[str, ...]) -> tuple[str, ...]:
        if not self.registry.fits(tokens):
            raise ValueError(f"label clashes with an earlier label: {tokens}")
        self.registry.add(tokens)
        return tokens

    def label_tokens(self, mods: int | None = None, head: str | None = None,
                     first: str | None = None,
                     words: dict = LABEL_WORDS) -> tuple[str, ...]:
        """A label of modifiers + head noun that fits the registry; without
        `mods`, its word count follows `words`. mods=0 gives a single fresh
        word used by no other label."""
        while True:
            n = self.weighted(words) - 1 if mods is None else mods
            if n == 0:
                tokens = (self.words.fresh(),)
            else:
                tokens = tuple(self.modifier() for _ in range(n)) + (
                    head or self.rng.choice(self.heads),)
                if first is not None:
                    tokens = (first,) + tokens
            if len(set(tokens)) == len(tokens) and self.registry.fits(tokens):
                self.registry.add(tokens)
                return tokens

    def reserve_family(self, members: list[tuple[str, ...]]) -> None:
        """Reserve labels that may contain each other (a planted family)."""
        if not all(self.registry.fits(m) for m in members):
            raise ValueError(f"family clashes with an earlier label: {members}")
        for m in members:
            self.registry.add(m)

    def fresh_tokens(self, n: int) -> tuple[str, ...]:
        return self.reserve(tuple(self.words.fresh() for _ in range(n)))

    def render(self, tokens: tuple[str, ...]) -> str:
        if self.rng.random() < CAPITALIZED_RATE:
            return " ".join(tokens).capitalize()
        return " ".join(tokens)

    def prose(self, lo: int, hi: int) -> str:
        return " ".join(self.rng.choice(DEFINITION_WORDS)
                        for _ in range(self.rng.randint(lo, hi)))

    def definition(self, genus: str | None = None, mention: str = "") -> str:
        """A unique one-sentence genus-differentia definition whose length
        follows the fixtures. The genus is the parent label when there is
        one; `mention` is added to the differentia."""
        while True:
            genus_text = genus if genus is not None else self.prose(1, 2)
            subject = self.prose(1, 3)
            # "A", "is a" and "that" are the 4 words around subject and genus.
            n = max(2, self.weighted(DEFINITION_WORDS_SEEN) - 4 - len(subject.split())
                    - len(genus_text.split()))
            differentia = self.prose(n, n)
            if mention:
                differentia += f" {mention} {self.prose(1, 3)}"
            text = f"A {subject} is a {genus_text} that {differentia}."
            key = norm(text)
            if key not in self.definitions:
                self.definitions.add(key)
                return text

    def sources(self) -> tuple[str, ...]:
        return (f"PMID:{self.rng.randint(1000000, 9999999)}",)

    def synonyms(self, obo: bool, per_term: dict = SYNONYMS_PER_TERM
                 ) -> tuple[tuple[str, str], ...]:
        out = []
        for _ in range(self.weighted(per_term)):
            text = " ".join(self.words.fresh() for _ in range(self.weighted(SYNONYM_WORDS)))
            out.append((text, self.weighted(SYNONYM_SCOPES) if obo else "exact"))
        return tuple(out)

    def annotations(self) -> tuple[tuple[str, str], ...]:
        if self.rng.random() < ANNOTATED_RATE:
            return (("comment", self.prose(3, 10)),)
        return ()

    def term(self, tokens: tuple[str, ...], obo: bool, *, label: str | None = None,
             parent: TermSpec | None = None, mention: str = "",
             synonyms: bool = True) -> TermSpec:
        """A clean live term with the given label tokens."""
        genus = " ".join(tokens_of(parent.label)) if parent is not None else None
        return TermSpec(
            label=label or self.render(tokens), iri=self.new_iri(),
            definition=self.definition(genus, mention), sources=self.sources(),
            parents=(parent.iri,) if parent is not None else (),
            synonyms=self.synonyms(obo) if synonyms else (),
            annotations=self.annotations() if obo else (),
            # The fixtures write CURIEs, the scale test's corpus full IRIs;
            # a third in full form is an assumption.
            absolute=not obo and self.rng.random() < 0.3)


def tokens_of(label: str) -> list[str]:
    return norm(label).split()


# --------------------------------------------------------------------------
# Planted defects: each adds terms and the findings they must produce.


class Planter:
    def __init__(self, b: Generator, case: LintCase, pool: list[TermSpec]) -> None:
        self.b = b
        self.case = case
        self.pool = pool   # live filler terms, safe as parents and replacement targets

    def add(self, spec: TermSpec, obo: bool | None = None) -> TermSpec:
        if obo is None:
            obo = self.b.rng.random() < 0.5
        if obo:
            spec.absolute = False
        (self.case.obo if obo else self.case.tsv).append(spec)
        return spec

    def expect(self, rule_id: str, subject: str, *terms: TermSpec) -> None:
        """Record a finding; `terms` are its subjects, whose IRIs (as written
        and expanded) a suppression may name."""
        iris: list[str] = []
        for t in terms:
            if t.iri is not None:
                iris += [expanded(t.iri)] if t.absolute else [t.iri, expanded(t.iri)]
        self.case.expected.append(Expect(rule_id, subject, tuple(iris)))

    def plain(self, n: int = 2, obo: bool | None = None, **kw) -> TermSpec:
        """A clean term whose words are fresh (its head-noun group is itself)."""
        return self.labelled(self.b.fresh_tokens(n), obo, **kw)

    def labelled(self, tokens: tuple[str, ...], obo: bool | None = None,
                 label: str | None = None, **kw) -> TermSpec:
        """A clean term with an already reserved label."""
        b = self.b
        if obo is None:
            obo = b.rng.random() < 0.5
        return self.add(b.term(tokens, obo, label=label or " ".join(tokens),
                               synonyms=False, **kw), obo)

    def live_target(self) -> TermSpec:
        return self.b.rng.choice(self.pool)

    def obsolete(self, tokens: tuple[str, ...], replaced_by: str | None) -> TermSpec:
        b = self.b
        b.reserve(tokens)
        return self.add(TermSpec(label=" ".join(tokens), iri=b.new_iri(),
                                 obsolete=True, replaced_by=replaced_by))

    # Each method below plants one defect.

    def abbrev(self) -> None:
        b = self.b
        abbr = b.words.abbreviation()
        word = b.words.fresh()
        t = self.labelled(b.reserve((word, abbr.lower())), label=f"{word} {abbr}")
        self.expect("R05-ABBREV", t.label, t)

    def expansion(self) -> None:
        b = self.b
        abbr = b.words.abbreviation()
        w1, w2 = b.words.fresh(), b.words.fresh()
        t = self.labelled(b.reserve((w1, w2, abbr.lower())), label=f"{w1} {w2} ({abbr})")
        self.expect("R05-EXPANSION-STYLE", t.label, t)

    def negative(self) -> None:
        b = self.b
        det = b.rng.choice(("no", "not", "without", "except", "neither"))
        t = self.labelled(b.reserve((det, b.words.fresh(), b.words.fresh())))
        self.expect("R02-NEGATIVE", t.label, t)

    def negative_prefix(self) -> None:
        b = self.b
        t = self.labelled(b.reserve(("non" + b.words.fresh(), b.words.fresh())))
        self.expect("R02-NEGATIVE", t.label, t)

    def conjunction(self) -> None:
        b = self.b
        t = self.labelled(b.reserve((b.words.fresh(), b.rng.choice(("and", "or")),
                                     b.words.fresh())))
        self.expect("R02-CONJUNCTION", t.label, t)

    def plural(self) -> None:
        b = self.b
        head = b.words.fresh()
        while head[-1] in "iu":   # "-is" and "-us" endings read as singular
            head = b.words.fresh()
        t = self.labelled(b.reserve((b.words.fresh(), head + "s")))
        self.expect("R02-PLURAL", t.label, t)

    def timeline(self) -> None:
        b = self.b
        phrase = b.rng.choice(("latest", "previous", "current", "recent", "last",
                               "most recent"))
        t = self.labelled(b.reserve(tuple(phrase.split())
                                    + (b.words.fresh(), b.words.fresh())))
        self.expect("C-TIMELINE", t.label, t)

    def concept_bomb(self) -> None:
        t = self.plain(self.b.rng.randint(7, 9))
        self.expect("C-CONCEPT-BOMB", t.label, t)

    def temporal_bomb(self) -> None:
        b = self.b
        t = self.labelled(b.reserve(("previous", b.words.fresh(), str(b.rng.randint(2, 12)),
                                     b.words.fresh())))
        self.expect("C-TIMELINE", t.label, t)
        self.expect("C-CONCEPT-BOMB", t.label, t)

    def tag_boolean(self) -> None:
        value = self.b.rng.choice(("yes", "no", "true", "false", "Y", "N"))
        t = self.plain(2, obo=True)
        t.annotations += (("is_verified", value),)
        self.expect("R09-BOOLEAN", value, t)

    def tag_negative(self) -> None:
        value = f"no {self.b.words.fresh()} seen"
        t = self.plain(2, obo=True)
        t.annotations += (("growth_note", value),)
        self.expect("R09-NEGATIVE-TAG", value, t)

    def missing_iri(self) -> None:
        t = self.plain(2, obo=False)
        t.iri = None
        self.expect("R06-MISSING-IRI", t.label)

    def missing_id_stanza(self) -> None:
        t = self.plain(2, obo=True)
        t.iri = None
        self.expect("R06-MISSING-IRI", t.label)
        self.expect("PARSE", "")

    def bad_iri(self) -> None:
        t = self.plain(2)
        t.iri, t.absolute = f"ZQ{self.b.next_id}:{self.b.rng.randint(10, 99)}", False
        self.expect("R06-BAD-IRI", t.label, t)

    def nonpurl(self) -> None:
        t = self.plain(2)
        t.iri, t.absolute = f"https://mirror.example.net/HP_{self.b.next_id:07d}", False
        self.expect("R06-NONPURL", t.label, t)

    def missing_def(self) -> None:
        t = self.plain(2)
        t.definition, t.sources = None, ()
        self.expect("R07-MISSING-DEF", t.label, t)

    def missing_source(self) -> None:
        t = self.plain(2)
        t.sources = ()
        self.expect("R07-MISSING-SOURCE", t.label, t)

    def bad_form(self) -> None:
        t = self.plain(2)
        t.definition = f"Collected {self.b.prose(4, 12)}."
        self.expect("R07-FORM", t.label, t)

    def genus_mismatch(self) -> None:
        t = self.plain(2)
        t.parents = (self.live_target().iri,)
        self.expect("R07-GENUS-MISMATCH", t.label, t)

    def dup_iri(self) -> None:
        first = self.plain(2, obo=True)
        second = self.plain(2, obo=False)
        second.iri = first.iri
        self.expect("R06-DUP-IRI", min((norm(t.label), t.label) for t in (first, second))[1])

    def semantic_noise(self) -> None:
        tokens = self.b.fresh_tokens(2)
        first = self.labelled(tokens, obo=True)
        second = self.labelled(tokens, obo=False)
        self.expect("C-SEMANTIC-NOISE", first.label, first, second)

    def synonym_clash(self) -> None:
        named = self.plain(2)
        other = self.plain(2)
        other.synonyms = ((named.label, "exact"),)
        first = min((named, other), key=lambda t: expanded(t.iri))
        self.expect("C-SYNONYM-CLASH", first.label)

    def duplicate_def(self) -> None:
        one = self.plain(2)
        two = self.plain(2)
        two.definition = one.definition
        first = min((one, two), key=lambda t: (norm(t.label), expanded(t.iri)))
        self.expect("R07-DUPLICATE-DEF", first.label)

    def self_ref(self) -> None:
        tokens = self.b.fresh_tokens(2)
        t = self.labelled(tokens, mention=" ".join(tokens))
        self.expect("R07-SELF-REF", t.label, t)

    def circular(self, first: str | None = None, head: str | None = None) -> None:
        """Definitions that mention each other around one cycle."""
        b = self.b
        size = b.rng.choice((2, 2, 3))
        tokens = [b.label_tokens(mods=b.rng.randint(1, 2), head=head, first=first)
                  if head else b.fresh_tokens(2) for _ in range(size)]
        members = [self.labelled(t, mention=" ".join(tokens[(i + 1) % size]))
                   for i, t in enumerate(tokens)]
        start = min(range(size), key=lambda i: expanded(members[i].iri))
        order = members[start:] + members[:start]
        self.expect("R07-CIRCULAR", " -> ".join(m.label for m in order), *members)

    def word_bomb(self) -> None:
        """A base label and five or more children extending it; the children
        declare the base as parent, so R04-NARROW stays quiet."""
        b = self.b
        head = b.words.fresh()
        kids = [(b.words.fresh(), head) for _ in range(b.rng.randint(5, 7))]
        b.reserve_family([(head,)] + kids)
        base = self.labelled((head,), obo=True)
        for kid in kids:
            self.labelled(kid, parent=base)
        self.expect("C-WORD-BOMB", head)

    def word_bomb_conjunction(self) -> None:
        b = self.b
        head = b.words.fresh()
        for _ in range(4):
            self.labelled(b.reserve((b.words.fresh(), head)))
        t = self.labelled(b.reserve((b.words.fresh(), "or", b.words.fresh(), head)))
        self.expect("R02-CONJUNCTION", t.label, t)
        self.expect("C-WORD-BOMB", head)

    def narrow(self) -> None:
        b = self.b
        head = b.words.fresh()
        wide = (b.words.fresh(), head)
        b.reserve_family([(head,), wide])
        self.labelled((head,))
        t = self.labelled(wide)
        self.expect("R04-NARROW", t.label, t)

    def obsolete_label(self) -> None:
        b = self.b
        t = self.obsolete((b.words.fresh(), b.words.fresh()), self.live_target().iri)
        self.expect("R08-LABEL", t.label, t)

    def retired(self, replaced_by: str | None) -> TermSpec:
        b = self.b
        return self.obsolete(("obsolete", b.words.fresh(), b.words.fresh()), replaced_by)

    def no_replacement(self) -> None:
        t = self.retired(None)
        self.expect("R08-NO-REPLACEMENT", t.label, t)

    def dangling(self) -> None:
        t = self.retired(f"{PREFIX}:9{self.b.next_id:06d}")
        self.expect("R08-DANGLING", t.label, t)

    def chain(self) -> None:
        second = self.retired(self.live_target().iri)
        first = self.retired(second.iri)
        self.expect("R08-CHAIN", first.label, first)

    def replacement_cycle(self) -> None:
        one = self.retired(None)
        two = self.retired(one.iri)
        one.replaced_by = two.iri
        self.expect("R08-CYCLE", one.label, one)
        self.expect("R08-CYCLE", two.label, two)

    def live_replaced(self) -> None:
        t = self.plain(2)
        t.replaced_by = self.live_target().iri
        self.expect("R08-LIVE-REPLACED", t.label, t)

    def obsolete_parent(self) -> None:
        old = self.retired(self.live_target().iri)
        t = self.plain(2, parent=old)
        self.expect("R08-OBSOLETE-PARENT", t.label, t)

    def parse_warning(self) -> None:
        b = self.b
        if b.rng.random() < 0.5:
            t = self.plain(2, obo=True)
            t.extra_lines = (b.rng.choice(("is_obsolete: maybe",
                                           "stray text without a separator")),)
        else:
            t = self.plain(2, obo=False)
            t.obsolete_cell = "maybe"
        self.expect("PARSE", "")

    def skipped_stanza(self) -> None:
        """An unclosed quote drops the whole stanza with one parse error."""
        t = self.plain(2, obo=True)
        t.extra_lines = ('synonym: "unterminated EXACT []',)
        self.expect("PARSE", "")


# Planted kinds for lint-broad, in the order they are cycled through.
BROAD_KINDS = (
    "abbrev", "expansion", "negative", "negative_prefix", "conjunction", "plural",
    "timeline", "concept_bomb", "temporal_bomb", "tag_boolean", "tag_negative",
    "missing_iri", "missing_id_stanza", "bad_iri", "nonpurl", "missing_def",
    "missing_source", "bad_form", "genus_mismatch", "dup_iri", "semantic_noise",
    "synonym_clash", "duplicate_def", "self_ref", "circular", "word_bomb",
    "word_bomb_conjunction", "narrow", "obsolete_label", "no_replacement",
    "dangling", "chain", "replacement_cycle", "live_replaced", "obsolete_parent",
    "parse_warning", "skipped_stanza",
)

SEVERITY_CHOICES = (("R02-PLURAL", "warning"), ("R07-MISSING-SOURCE", "warning"),
                    ("C-SYNONYM-CLASH", "warning"), ("R06-NONPURL", "warning"),
                    ("R07-FORM", "warning"), ("C-WORD-BOMB", "warning"),
                    ("R08-CHAIN", "warning"), ("R05-ABBREV", "error"))


def _filler(b: Generator, case: LintCase, pool: list[TermSpec], count: int) -> None:
    for i in range(count):
        obo = i % 2 == 0
        parent = b.rng.choice(pool) if pool and b.rng.random() < PARENT_RATE else None
        t = b.term(b.label_tokens(), obo, parent=parent)
        (case.obo if obo else case.tsv).append(t)
        pool.append(t)


def _ci_config(b: Generator, case: LintCase) -> None:
    """A few dozen suppressions (some hit planted findings by label or IRI,
    the rest are stale) and a few severity overrides."""
    rng = b.rng
    candidates = [e for e in case.expected if e.rule_id != "PARSE"]
    for e in rng.sample(candidates, min(18, len(candidates) // 4)):
        if e.iris and rng.random() < 0.4:
            case.suppressions.append((e.rule_id, rng.choice(e.iris)))
        else:
            subject = e.subject.upper() if rng.random() < 0.3 else e.subject
            case.suppressions.append((e.rule_id, subject))
    rules = sorted({e.rule_id for e in case.expected if e.rule_id != "PARSE"})
    for _ in range(14):
        case.suppressions.append((rng.choice(rules), f"retired {b.words.fresh()}"))
    case.severity_overrides = dict(rng.sample(SEVERITY_CHOICES, 4))


def _apply_suppressions(case: LintCase) -> list[tuple[str, str]]:
    kept = []
    for e in case.expected:
        if any(rule == e.rule_id and (norm(subject) == norm(e.subject) or subject in e.iris)
               for rule, subject in case.suppressions):
            continue
        kept.append((e.rule_id, e.subject))
    return sorted(kept)


def build_broad(seed: int, terms: int) -> LintCase:
    """Filler with every planted kind once. The defect density follows from
    planting each kind once, so that every run checks every rule's output;
    it is an assumption, not a measured rate (the scale test's corpus in
    tests/test_acceptance.py plants 48 defective terms in 10,000)."""
    b = Generator("lint-broad", seed)
    case = LintCase()
    pool: list[TermSpec] = []
    _filler(b, case, pool, min(500, terms // 4))
    planter = Planter(b, case, pool)
    for kind in BROAD_KINDS:
        getattr(planter, kind)()
    _filler(b, case, pool, terms - len(case.obo) - len(case.tsv))
    _ci_config(b, case)
    b.rng.shuffle(case.obo)
    b.rng.shuffle(case.tsv)
    return case


def build_clustered(seed: int, group: int, chain: int, filler: int) -> LintCase:
    b = Generator("lint-clustered", seed)
    case = LintCase()
    pool: list[TermSpec] = []
    _filler(b, case, pool, filler)
    planter = Planter(b, case, pool)
    grouped: list[TermSpec] = []
    # Label lengths and mention counts follow the index, not the seed, so
    # every seed's group costs the quadratic checks about the same.
    for i in range(group):
        tokens = b.label_tokens(mods=(1, 1, 2, 2, 3)[i % 5], head=CLUSTER_HEAD,
                                first=CLUSTER_FIRST)
        mentions = [b.rng.choice(grouped).label for _ in range((1, 1, 2)[i % 3])
                    ] if grouped else []
        t = b.term(tokens, i % 2 == 0, label=" ".join(tokens), mention=" ".join(mentions))
        planter.add(t, i % 2 == 0)
        grouped.append(t)
    for _ in range(CLUSTERED_CYCLES):
        planter.circular(first=CLUSTER_FIRST, head=CLUSTER_HEAD)
    # One replaced_by chain through the file: link i points at link i + 1,
    # the last link at a live term.
    links = [planter.retired(None) for _ in range(chain)]
    for here, there in zip(links, links[1:]):
        here.replaced_by = there.iri
    links[-1].replaced_by = planter.live_target().iri
    for link in links[:-1]:
        planter.expect("R08-CHAIN", link.label, link)
    _ci_config(b, case)
    b.rng.shuffle(case.obo)
    b.rng.shuffle(case.tsv)
    return case


# --------------------------------------------------------------------------
# Writers.


def obo_text(terms: list[TermSpec]) -> str:
    chunks = ["format-version: 1.2\nontology: bench"]
    for t in terms:
        lines = ["[Term]"]
        if t.iri is not None:
            lines.append(f"id: {t.iri}")
        lines.append(f"name: {t.label}")
        if t.definition is not None:
            lines.append(f'def: "{t.definition}" [{", ".join(t.sources)}]')
        for text, scope in t.synonyms:
            lines.append(f'synonym: "{text}" {scope.upper()} []')
        for parent in t.parents:
            lines.append(f"is_a: {parent}")
        if t.obsolete:
            lines.append("is_obsolete: true")
        if t.replaced_by is not None:
            lines.append(f"replaced_by: {t.replaced_by}")
        for key, value in t.annotations:
            lines.append(f"{key}: {value}")
        lines.extend(t.extra_lines)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def tsv_text(terms: list[TermSpec]) -> str:
    rows = ["label\tiri\tdefinition\tdefinition_source\tparents\tsynonyms"
            "\tobsolete\treplaced_by"]
    for t in terms:
        iri = "" if t.iri is None else (expanded(t.iri) if t.absolute else t.iri)
        obsolete = t.obsolete_cell if t.obsolete_cell is not None else (
            "true" if t.obsolete else "")
        rows.append("\t".join((t.label, iri, t.definition or "", "|".join(t.sources),
                               "|".join(t.parents), "|".join(s for s, _ in t.synonyms),
                               obsolete, t.replaced_by or "")))
    return "\n".join(rows) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def write_lint(case: LintCase, out: Path, enabled_rules: tuple[str, ...] = ()) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "terms.obo", obo_text(case.obo))
    _write(out / "terms.tsv", tsv_text(case.tsv))
    _write(out / "prefixes.tsv",
           "# prefix\tiri-base\tkind\n"
           f"{PREFIX}\t{PREFIX_BASE}\texternal\n"
           "LOCAL\thttps://example.org/local/\texternal\n"
           "HP\thttp://purl.obolibrary.org/obo/HP_\tobo\n")
    config: dict = {
        "prefix_map_path": "prefixes.tsv",
        "suppressions": [list(s) for s in case.suppressions],
        "severity_overrides": case.severity_overrides,
    }
    expected = _apply_suppressions(case)
    if enabled_rules:
        config["enabled_rules"] = list(enabled_rules)
        expected = [e for e in expected
                    if any(re.fullmatch(p.replace("*", ".*"), e[0]) for p in enabled_rules)]
    _write(out / "config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    spec = {
        "kind": "lint",
        "inputs": ["terms.obo", "terms.tsv"],
        "config": "config.json",
        "terms": len(case.obo) + len(case.tsv),
        "expected": [list(e) for e in expected],
    }
    _write(out / "expected.json", json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return spec


# --------------------------------------------------------------------------
# Suggest: reference vocabularies and a query batch with known answers.

_FUZZY_CEILING = 0.25


def _within_one_edit(a: str, b: str) -> bool:
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) > len(b):
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1:] == b[i + 1:]
    return a[i:] == b[i + 1:]


@dataclass
class SuggestCase:
    obo: list[TermSpec]
    tsv: list[TermSpec]
    queries: list[dict]


def build_suggest(seed: int, terms: int, queries: int) -> SuggestCase:
    """Live reference terms across an OBO and a TSV file, shaped like the
    reference fixture: 60% only in the OBO file, 20% only in the TSV file,
    20% in both, so reuse counts vary. Every phrase (label or synonym) has a
    token set no other phrase has, which fixes the winner of each query."""
    b = Generator("suggest", seed, prefix=REF_PREFIX)
    token_sets: set[tuple[str, ...]] = set()

    def phrase_ok(text: str) -> bool:
        key = tuple(sorted(set(tokens_of(text))))
        if key in token_sets:
            return False
        token_sets.add(key)
        return True

    obo: list[TermSpec] = []
    tsv: list[TermSpec] = []
    live: list[TermSpec] = []
    while len(live) < terms:
        tokens = b.label_tokens(words=REFERENCE_LABEL_WORDS)
        label = b.render(tokens)
        if not phrase_ok(label):
            continue
        synonyms = tuple((text, scope) for text, scope
                         in b.synonyms(True, REFERENCE_SYNONYMS_PER_TERM) if phrase_ok(text))
        place = b.rng.random()
        both = place < REFERENCE_SHARED_RATE
        if both:
            synonyms = tuple((text, "exact") for text, _ in synonyms)
        t = TermSpec(label=label, iri=b.new_iri(), definition=b.definition(),
                     sources=b.sources(), synonyms=synonyms)
        live.append(t)
        if both or place < 0.8:
            obo.append(t)
        if both or place >= 0.8:
            tsv.append(t)
        if b.rng.random() < 0.05:   # an assumption: the fixture has none
            gone = TermSpec(label=" ".join(("obsolete",) + b.fresh_tokens(2)),
                            iri=b.new_iri(), obsolete=True, replaced_by=t.iri)
            (obo if place < 0.8 else tsv).append(gone)

    phrases = [(tokens_of(t.label), norm(t.label), t) for t in live] + [
        (tokens_of(s), norm(s), t) for t in live for s, _ in t.synonyms]
    by_token: dict[str, list[int]] = {}
    for i, (toks, _, _) in enumerate(phrases):
        for tok in set(toks):
            by_token.setdefault(tok, []).append(i)

    def typo_wins(query: str, target: TermSpec) -> bool:
        """True when the typo's one-edit fuzzy match on the target label
        beats every other phrase's token-overlap and fuzzy scores."""
        label = norm(target.label)
        score = 0.6 * (1 - 1 / max(len(query), len(label)))
        if 1 / max(len(query), len(label)) > _FUZZY_CEILING:
            return False
        qtoks = set(query.split())
        for i in {i for tok in qtoks for i in by_token.get(tok, ())}:
            ptoks = set(phrases[i][0])
            if 0.7 * len(qtoks & ptoks) / len(qtoks | ptoks) >= score:
                return False
        return not any(_within_one_edit(query, p) for _, p, t in phrases
                       if not (t is target and p == label))

    with_exact_syn = [t for t in live if any(s == "exact" for _, s in t.synonyms)]

    def candidate(kind: str) -> dict | None:
        if kind == "label":
            t = b.rng.choice(live)
            return {"query": t.label, "iri": t.iri, "match_kind": "exact_label"}
        if kind == "synonym":
            t = b.rng.choice(with_exact_syn)
            text = b.rng.choice([s for s, scope in t.synonyms if scope == "exact"])
            return {"query": text, "iri": t.iri, "match_kind": "exact_synonym"}
        if kind == "typo":
            t = b.rng.choice(live)
            label = norm(t.label)
            pos = b.rng.randrange(len(label))
            if label[pos] == " ":
                return None
            letter = b.rng.choice([c for c in "aeioukrt" if c != label[pos]])
            query = label[:pos] + letter + label[pos + 1:]
            if not typo_wins(query, t):
                return None
            return {"query": query, "iri": t.iri, "match_kind": "fuzzy"}
        if kind == "reorder":
            t = b.rng.choice(live)
            toks = tokens_of(t.label)
            b.rng.shuffle(toks)
            query = " ".join(toks)
            if query == norm(t.label):
                return None
            return {"query": query, "iri": t.iri, "match_kind": "token_overlap"}
        query = " ".join(b.words.fresh() for _ in range(b.rng.randint(1, 4)))
        return {"query": query, "iri": None, "match_kind": None}

    # Query time grows with query length, so every seed's batch follows one
    # ladder of lengths (6 to 24 characters, about the 10th to the 90th
    # percentile of the reference phrases, spread across the kinds): the
    # seed changes the queries, not the batch's latency profile. The ladder
    # and the mix of kinds are choices of this benchmark, not measurements.
    kinds = ("label", "label", "label", "synonym", "synonym", "typo", "typo",
             "reorder", "reorder", "miss")
    batch: list[dict] = []
    for slot in range(queries):
        target = 6 + (slot * 7) % queries * 18 // max(1, queries - 1)
        found: list[dict] = []
        while len(found) < 100:
            q = candidate(kinds[slot % len(kinds)])
            if q is not None:
                found.append(q)
        batch.append(min(found, key=lambda q: abs(len(norm(q["query"])) - target)))
    b.rng.shuffle(obo)
    b.rng.shuffle(tsv)
    return SuggestCase(obo=obo, tsv=tsv, queries=batch)


def write_suggest(case: SuggestCase, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "reference.obo", obo_text(case.obo))
    _write(out / "reference.tsv", tsv_text(case.tsv))
    spec = {
        "kind": "suggest",
        "references": ["reference.obo", "reference.tsv"],
        "terms": len({t.iri for t in case.obo + case.tsv if not t.obsolete}),
        "queries": case.queries,
    }
    _write(out / "expected.json", json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return spec


WORKLOADS = ("lint-broad", "lint-clustered", "lint-narrow", "suggest")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into `out` and return its spec (the
    same data as out/expected.json). Sizes are read from the module
    constants at call time."""
    if workload == "lint-broad":
        return write_lint(build_broad(seed, BROAD_TERMS), out)
    if workload == "lint-narrow":
        # Same inputs as lint-broad: the broad generator is seeded by name.
        return write_lint(build_broad(seed, BROAD_TERMS), out, ("R06-*",))
    if workload == "lint-clustered":
        return write_lint(build_clustered(seed, CLUSTERED_GROUP, CLUSTERED_CHAIN,
                                          CLUSTERED_FILLER), out)
    if workload == "suggest":
        return write_suggest(build_suggest(seed, SUGGEST_TERMS, SUGGEST_QUERIES), out)
    raise ValueError(f"unknown workload {workload!r}")
