"""Label- and value-level checks: negative/conjunction/plural phrasing,
colloquialisms, abbreviations, tag style, redundant narrowing, and the
combinatorial pathologies (word bombs, concept bombs, timeline terms).

All checks are pure functions of (inputs, lexicons, thresholds). Lexicon
entries are stored normalized; built-in defaults are extensible through
override files (see docs/formats.md).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping

from .catalog import INFO
from .model import (Finding, PhraseTable, Term, Vocabulary, find_phrases, normalize_label,
                    phrase_table, shared_keys, split_lines)


class LexiconError(Exception):
    """A lexicon file or entry violates the lexicon contract."""


_BOOLEAN_VALUES = frozenset({"true", "false", "yes", "no", "y", "n"})


def rebuilt_from_fields(value):
    """The `__reduce__` of a dataclass that stores read-only maps and checks
    its fields when built. A mapping proxy neither pickles nor deep-copies,
    so a copy is built anew from the fields, with each map as a plain dict."""
    values = (getattr(value, f.name) for f in fields(value))
    return type(value), tuple(dict(v) if isinstance(v, Mapping) else v for v in values)


@dataclass(frozen=True)
class Lexicons:
    """Controlled word lists, each entry stored normalized however the value
    is built; no suggested colloquial phrase may itself be a colloquial key.
    `colloquial_map` is stored read-only, so that rule holds for the value's
    whole life."""
    negative_determiners: frozenset[str] = frozenset()
    negative_prefix_allowlist: frozenset[str] = frozenset()
    accepted_abbreviation_words: frozenset[str] = frozenset()
    proper_noun_allowlist: frozenset[str] = frozenset()
    plural_by_nature: frozenset[str] = frozenset()
    colloquial_map: Mapping[str, str] = field(default_factory=dict)
    timeline_phrases: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for f in fields(self):
            entries = getattr(self, f.name)
            if f.name == "colloquial_map":
                mapping = {normalize_label(k): normalize_label(v) for k, v in entries.items()}
                mapping.pop("", None)
                normalized = MappingProxyType(mapping)
            else:
                normalized = frozenset(map(normalize_label, entries)) - {""}
            object.__setattr__(self, f.name, normalized)
        for key, preferred in self.colloquial_map.items():
            if not preferred:
                raise LexiconError(f"colloquial entry {key!r} maps to an empty phrase")
            if preferred in self.colloquial_map:
                raise LexiconError(
                    f"colloquial suggestion {preferred!r} (for {key!r}) is itself a colloquial key")

    __reduce__ = rebuilt_from_fields

    # Built once per value, outside the fields, so a replace() gets fresh tables.
    @cached_property
    def negative_prefix_table(self) -> PhraseTable:
        return phrase_table((tuple(p.split()), p) for p in self.negative_prefix_allowlist)

    @cached_property
    def timeline_table(self) -> PhraseTable:
        return phrase_table((tuple(p.split()), p) for p in self.timeline_phrases)


def default_lexicons() -> Lexicons:
    return Lexicons(
        negative_determiners=["no", "not", "neither", "none", "except", "without"],
        negative_prefix_allowlist=[
            "inorganic", "nonlinear", "non-linear", "nonparametric", "non-parametric",
        ],
        accepted_abbreviation_words=["laser", "radar", "scuba", "sonar"],
        proper_noun_allowlist=["Fisheries and Oceans Canada"],
        plural_by_nature=[
            "goggles", "scissors", "forceps", "tongs", "pants", "glasses",
            "news", "species", "feces",
        ],
        colloquial_map={
            "belly": "abdomen",
            "tummy": "abdomen",
            "wet cough": "productive cough",
            "throwing up": "vomiting",
        },
        timeline_phrases=["most recent", "previous", "last", "current", "latest",
                          "recent", "to date"],
    )


def apply_lexicon_overrides(lex: Lexicons, name: str, text: str) -> Lexicons:
    """Extend one lexicon from an override file: one entry per line, "#"
    comments, a leading "-" removes a built-in entry, and colloquial_map lines
    use "colloquial -> preferred"."""
    if name not in {f.name for f in fields(Lexicons)}:
        raise LexiconError(f"unknown lexicon name: {name!r}")
    additions: list = []
    removals: set[str] = set()
    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("-"):
            removals.add(normalize_label(line[1:]))
        elif name == "colloquial_map":
            # The line is stripped and starts with no "-", so a separator
            # has some text before it.
            colloquial, sep, preferred = line.partition("->")
            if not sep or not preferred.strip():
                raise LexiconError(
                    f"{name} line {line_no}: expected 'colloquial -> preferred', got {raw!r}")
            additions.append((colloquial, preferred))
        else:
            additions.append(line)
    # Removals go first, so a file that removes and adds one entry keeps it.
    old = getattr(lex, name)
    if name == "colloquial_map":
        merged = {key: old[key] for key in old if key not in removals} | dict(additions)
    else:
        merged = [entry for entry in old if entry not in removals] + additions
    # The rebuilt value normalizes its entries and checks the colloquial closure.
    return replace(lex, **{name: merged})


_PARENTHETICAL = re.compile(r"\([^()]*\)")
_UPPER = re.compile(r"[A-Z]")
_EXPANSION_STYLE = re.compile(r"^(?P<words>.*\S)\s*\((?P<abbr>[A-Z0-9]{2,5})\)\s*$")


def _is_abbrev_token(token: str) -> bool:
    if not 2 <= len(token) <= 5:
        return False
    if not any(ch.isalpha() for ch in token):
        return False
    return all(ch.isdigit() or ("A" <= ch <= "Z") for ch in token)


def check_abbreviation(term: Term, lex: Lexicons) -> list[Finding]:
    """R05: unexpanded abbreviations in labels; parenthesized-abbreviation
    style gets a milder nudge toward an abbreviation synonym. Both need an
    ASCII capital in the label, so a label without one is clean."""
    if not _UPPER.search(term.label):
        return []
    findings: list[Finding] = []
    stripped = _PARENTHETICAL.sub(" ", term.label)
    offenders = [tok for tok in stripped.split()
                 if _is_abbrev_token(tok) and tok.lower() not in lex.accepted_abbreviation_words]
    if offenders:
        listed = ", ".join(f'"{t}"' for t in offenders)
        findings.append(Finding.about(
            term, "R05-ABBREV",
            f"label contains unexpanded abbreviation {listed}; "
            "use the fully expanded phrase as the label",
            suggestion="expand the abbreviation and keep the short form as an "
                       "abbreviation synonym"))
    m = _EXPANSION_STYLE.match(term.label)
    if m and any(ch.isalpha() for ch in m.group("abbr")):
        findings.append(Finding.about(
            term, "R05-EXPANSION-STYLE",
            f'label embeds the abbreviation "{m.group("abbr")}" in parentheses',
            suggestion=f'keep the label "{m.group("words").strip()}" and record '
                       f'"{m.group("abbr")}" as a synonym with is_abbreviation=true'))
    return findings


def check_negative_phrasing(term: Term, lex: Lexicons) -> list[Finding]:
    """R02: negative determiners (warning) and non- prefixes (info) in labels.
    A label with no determiner token and no "non" in its key is clean."""
    tokens = term.tokens
    if lex.negative_determiners.isdisjoint(tokens) and "non" not in term.key:
        return []
    determiners = sorted(set(tok for tok in tokens if tok in lex.negative_determiners))
    if determiners:
        listed = ", ".join(f'"{t}"' for t in determiners)
        return [Finding.about(
            term, "R02-NEGATIVE",
            f"label is phrased negatively (negative determiner {listed}); "
            "state what the term is, not what it is not")]
    covered = {i for start, width, _ in find_phrases(tokens, lex.negative_prefix_table)
               for i in range(start, start + width)}
    offenders = sorted(set(
        tok for i, tok in enumerate(tokens)
        if tok.startswith("non") and i not in covered))
    if offenders:
        listed = ", ".join(f'"{t}"' for t in offenders)
        return [Finding.about(
            term, "R02-NEGATIVE",
            f"label uses a negative prefix ({listed}); prefer a positive "
            "phrasing unless the word is standard technical vocabulary", severity=INFO)]
    return []


def check_conjunction(term: Term, lex: Lexicons) -> list[Finding]:
    """R02: 'and'/'or' in labels, with a proper-noun escape hatch. A label
    with neither token is clean."""
    if "and" not in term.tokens and "or" not in term.tokens:
        return []
    if term.key in lex.proper_noun_allowlist:
        return []
    raw_words = term.label.split()
    conj_positions = [i for i, w in enumerate(raw_words) if normalize_label(w) in ("and", "or")]
    if conj_positions:
        neighbors = []
        for i in conj_positions:
            if i > 0:
                neighbors.append(raw_words[i - 1])
            if i + 1 < len(raw_words):
                neighbors.append(raw_words[i + 1])
        if neighbors and all(w[:1].isupper() for w in neighbors):
            return []  # reads as a proper noun
    if "or" in term.tokens:
        message = ('label offers alternatives with "or"; prefer a broader label '
                   "that encompasses all the alternatives")
    else:
        message = ('label joins concepts with "and"; split the concepts into '
                   "separate terms or fields")
    return [Finding.about(term, "R02-CONJUNCTION", message)]


def check_plural(term: Term, lex: Lexicons) -> list[Finding]:
    """R02: plural head nouns (suffix heuristic with a plural-by-nature list)."""
    if not term.tokens:
        return []
    final = term.tokens[-1]
    if not final.endswith("s") or final.endswith(("ss", "us", "is")):
        return []
    if final in lex.plural_by_nature:
        return []
    return [Finding.about(
        term, "R02-PLURAL",
        f'label ends in the plural "{final}"; use the singular unless '
        "the noun is plural by nature")]


def check_colloquial(term: Term, lex: Lexicons) -> list[Finding]:
    """R03: colloquial phrases with standardized equivalents. A hit on the
    label is a warning; a hit on a synonym alone is info. After the label
    lookup, a term without synonyms is clean."""
    preferred = lex.colloquial_map.get(term.key)
    if preferred is not None:
        return [Finding.about(
            term, "R03-COLLOQUIAL",
            f'label "{term.label}" is colloquial; prefer the standardized '
            f'phrase "{preferred}"',
            suggestion=preferred)]
    if not term.synonyms:
        return []
    findings: list[Finding] = []
    for phrase in sorted({s.key for s in term.synonyms}):
        preferred = lex.colloquial_map.get(phrase)
        if preferred is not None:
            findings.append(Finding.about(
                term, "R03-COLLOQUIAL",
                f'synonym "{phrase}" is colloquial; if it must stay, keep '
                f'it as a synonym of "{preferred}"',
                suggestion=preferred, severity=INFO))
    return findings


def check_timeline(term: Term, lex: Lexicons) -> list[Finding]:
    """Timeline pathology: relative-time phrases whose meaning moves as data
    accumulates. A label with no token that starts a timeline phrase is
    clean."""
    if lex.timeline_table.keys().isdisjoint(term.tokens):
        return []
    # The longest phrase found, then the least; each phrase is its own value.
    found = sorted((-length, phrases[0])
                   for _, length, phrases in find_phrases(term.tokens, lex.timeline_table))
    if not found:
        return []
    return [Finding.about(
        term, "C-TIMELINE",
        f'label is anchored to a moving point in time ("{found[0][1]}"); '
        "record an absolute date or interval instead")]


def check_concept_bomb(term: Term, threshold: int, lex: Lexicons) -> list[Finding]:
    """Concept-bomb pathology: one label packing several assertions. A label
    of fewer than `threshold` tokens with no token that starts a timeline
    phrase is clean."""
    tokens = term.tokens
    too_long = len(tokens) >= threshold
    if not too_long and lex.timeline_table.keys().isdisjoint(tokens):
        return []
    compound_temporal = (any(tok.isdigit() for tok in tokens)
                         and any(find_phrases(tokens, lex.timeline_table)))
    if not too_long and not compound_temporal:
        return []
    if too_long:
        reason = f"{len(tokens)} tokens >= threshold {threshold}"
    else:
        reason = "combines a relative-time phrase with a numeric quantity"
    return [Finding.about(
        term, "C-CONCEPT-BOMB",
        f"label packs multiple assertions into one value ({reason}); "
        "recommend separation into individual fields")]


def detect_word_bombs(vocab: Vocabulary, min_group: int) -> list[Finding]:
    """Word-bomb pathology: combinatorial label families sharing a head noun.
    Groups live labels by final token; a group of at least `min_group` members
    qualifies when a member contains a conjunction or when at least
    `min_group` members are strict modifier-extensions of a common base label."""
    findings: list[Finding] = []
    for head, members in shared_keys(((t.tokens[-1], t) for t in vocab.live if t.tokens), vocab):
        if len(members) < min_group:
            continue
        token_lists = [t.tokens for t in members]
        if not any("and" in toks or "or" in toks for toks in token_lists):
            # How many members extend each base label, slicing only at base lengths.
            bases = set(token_lists)
            lengths = {len(base) for base in bases}
            extensions = Counter(toks[-n:] for toks in token_lists for n in lengths
                                 if n < len(toks) and toks[-n:] in bases)
            if not any(count >= min_group for count in extensions.values()):
                continue
        labels = "; ".join(t.label for t in members)
        findings.append(Finding.about_terms(
            members, "C-WORD-BOMB", head,
            f'{len(members)} labels share the head noun "{head}" ({labels}); '
            "combinatorial picklist; model the modifiers as separate fields"))
    return findings


def _labels_and_suffixes(live: tuple[Term, ...]) -> Iterator[tuple[str, Term]]:
    """Each live term's label, then every proper suffix of it that is a live
    term's label (longest first)."""
    labels = {term.key for term in live}
    for term in live:
        yield term.key, term
        for cut in range(1, len(term.tokens)):
            suffix = " ".join(term.tokens[cut:])
            if suffix in labels:
                yield suffix, term


def check_redundant_narrowing(vocab: Vocabulary) -> list[Finding]:
    """R04: label A = modifiers + label B for live terms A, B without an A
    is_a B link. Parent-child pairs are exempt. One finding per (A, B's label)
    names the bearer of that label with the least identity and counts the rest."""
    results: list[tuple[tuple, Finding]] = []
    for label, members in shared_keys(_labels_and_suffixes(vocab.live), vocab):
        narrowers = [t for t in members if t.key != label]
        if not narrowers:
            continue
        bearers = [(vocab.identity(t), t) for t in members if t.key == label]
        bearer_iris = Counter(identity for identity, b in bearers if b.iri is not None)
        for a in narrowers:
            parents = [p for p in map(vocab.term_for, a.parents) if p is not None]
            if any(parent.key == label for parent in parents):
                continue
            parent_ids = {vocab.identity(p) for p in parents}
            kept = len(bearers) - sum(bearer_iris[p] for p in parent_ids)
            if kept == 0:
                continue
            b = next(b for identity, b in bearers if b.iri is None or identity not in parent_ids)
            shared = "" if kept == 1 else f" (the label of {kept} terms)"
            results.append(((a.key, vocab.identity(a), label), Finding.about(
                a, "R04-NARROW",
                f'label narrows "{b.label}"{shared} with leading modifiers but '
                "declares no relation to it; reuse the broader term or "
                "record the modifier in its own field",
                suggestion=b.label)))
    return [f for _, f in sorted(results, key=lambda pair: pair[0])]


def check_tag_style(term: Term, lex: Lexicons) -> list[Finding]:
    """R09: a live term's annotation values (its comment aside) should be
    self-describing phrases, not booleans, and should tag what is present
    rather than what is absent. A term without annotations is clean."""
    if term.obsolete or not term.annotations:
        return []
    findings: list[Finding] = []
    for key in sorted(term.annotations.keys() - {"comment"}):
        value = term.annotations[key]
        norm = normalize_label(value)
        if norm in _BOOLEAN_VALUES:
            findings.append(Finding.about_terms(
                (term,), "R09-BOOLEAN", value,
                f'tag value "{value}" is a bare boolean; replace the '
                "question-plus-boolean with a tag naming what is asserted"))
        elif norm.partition(" ")[0] in lex.negative_determiners:
            findings.append(Finding.about_terms(
                (term,), "R09-NEGATIVE-TAG", value,
                f'tag value "{value}" records an absence; tag what is present instead'))
    return findings
