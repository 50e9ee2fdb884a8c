"""Identity checks: IRI presence and resolvability, duplicate IRIs, label and
synonym collisions, and deprecation hygiene (obsolete markers, replacement
chains, cycles, dangling pointers).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .model import Finding, Term, Vocabulary, expand_iri, shared_keys


class PrefixMapError(ValueError):
    """Malformed prefix map file."""


# Prefixes resolvable out of the box; obo-registered ones are additionally
# held to the persistent-URL shape.
DEFAULT_PREFIXES: dict[str, str] = {
    "BFO": "http://purl.obolibrary.org/obo/BFO_",
    "CHEBI": "http://purl.obolibrary.org/obo/CHEBI_",
    "DOID": "http://purl.obolibrary.org/obo/DOID_",
    "ENVO": "http://purl.obolibrary.org/obo/ENVO_",
    "FOODON": "http://purl.obolibrary.org/obo/FOODON_",
    "GO": "http://purl.obolibrary.org/obo/GO_",
    "HP": "http://purl.obolibrary.org/obo/HP_",
    "MONDO": "http://purl.obolibrary.org/obo/MONDO_",
    "NCBITaxon": "http://purl.obolibrary.org/obo/NCBITaxon_",
    "NCIT": "http://purl.obolibrary.org/obo/NCIT_",
    "OBI": "http://purl.obolibrary.org/obo/OBI_",
    "PATO": "http://purl.obolibrary.org/obo/PATO_",
    "UBERON": "http://purl.obolibrary.org/obo/UBERON_",
}

_PURL = re.compile(r"^https?://purl\.obolibrary\.org/obo/(?P<prefix>[A-Za-z0-9]+)_.+$")


@dataclass(frozen=True)
class PrefixMap:
    entries: dict[str, str] = field(default_factory=dict)
    obo_prefixes: frozenset[str] = frozenset()

    def __post_init__(self):
        for prefix, base in self.entries.items():
            if not prefix or prefix != prefix.strip():
                raise PrefixMapError(f"invalid prefix {prefix!r}")
            if "://" not in base:
                raise PrefixMapError(f"prefix {prefix!r} maps to a non-absolute base {base!r}")
        unknown = self.obo_prefixes - set(self.entries)
        if unknown:
            raise PrefixMapError(f"obo prefixes without entries: {sorted(unknown)}")

    @cached_property
    def _obo_mention(self) -> re.Pattern[str]:
        """Matches an IRI containing "/P_", "#P_" or "/P/" for some obo
        prefix P; with no obo prefix, matches nothing."""
        if not self.obo_prefixes:
            return re.compile(r"(?!)")
        names = "|".join(map(re.escape, self.obo_prefixes))
        return re.compile(f"[/#](?:{names})_|/(?:{names})/")


def default_prefix_map() -> PrefixMap:
    return PrefixMap(entries=dict(DEFAULT_PREFIXES),
                     obo_prefixes=frozenset(DEFAULT_PREFIXES))


def load_prefix_map(text: str) -> PrefixMap:
    """Parse tab-separated lines "PREFIX<TAB>IRI-base<TAB>obo|external" on
    top of the built-in defaults. Blank lines and "#" comments are skipped.
    A file entry replaces a built-in default of the same prefix."""
    entries = dict(DEFAULT_PREFIXES)
    obo = set(DEFAULT_PREFIXES)
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3:
            raise PrefixMapError(f"line {lineno}: expected 3 tab-separated fields")
        prefix, base, kind = parts
        if kind not in ("obo", "external"):
            raise PrefixMapError(f"line {lineno}: kind must be obo or external, got {kind!r}")
        if prefix in seen:
            raise PrefixMapError(f"line {lineno}: duplicate prefix {prefix!r}")
        seen.add(prefix)
        entries[prefix] = base
        if kind == "obo":
            obo.add(prefix)
        else:
            obo.discard(prefix)
    return PrefixMap(entries=entries, obo_prefixes=frozenset(obo))


def check_iri(term: Term, prefixes: PrefixMap) -> list[Finding]:
    """R06: every term needs an IRI; compact IRIs must use a registered
    prefix; obo-registered terms should sit behind a persistent URL. An
    absolute IRI that mentions no obo prefix (one pattern search) is clean."""
    if term.iri is None:
        return [Finding.about(term, "R06-MISSING-IRI",
                              "term has no IRI; mint a resolvable identifier")]
    value = term.iri.value
    if not term.iri.is_absolute:
        prefix, sep, _ = value.partition(":")
        if not sep or prefix not in prefixes.entries:
            return [Finding.about(
                term, "R06-BAD-IRI",
                f'compact identifier "{value}" uses an unregistered prefix')]
        return []
    if not prefixes._obo_mention.search(value):
        return []
    m = _PURL.match(value)
    if m and m.group("prefix") in prefixes.obo_prefixes:
        return []
    prefix = min(p for p in prefixes.obo_prefixes
                 if f"/{p}_" in value or f"#{p}_" in value or f"/{p}/" in value)
    return [Finding.about(
        term, "R06-NONPURL",
        f'IRI mentions the registered ontology prefix "{prefix}" but '
        "is not its persistent URL form "
        f"(http://purl.obolibrary.org/obo/{prefix}_...)")]


def check_iri_uniqueness(vocab: Vocabulary) -> list[Finding]:
    """R06: one IRI, one term."""
    findings: list[Finding] = []
    for identity, members in shared_keys(((identity, t) for identity, t
                                          in zip(vocab.identities, vocab.terms)
                                          if t.iri is not None), vocab):
        labels = "; ".join(t.label for t in members)
        findings.append(Finding.about_terms(
            members, "R06-DUP-IRI", members[0].label,
            f"{len(members)} terms share the IRI {identity} ({labels})"))
    return findings


def check_label_collisions(vocab: Vocabulary) -> list[Finding]:
    """One label naming several identified concepts is semantic noise."""
    findings: list[Finding] = []
    for _, members in shared_keys(((t.key, t) for t in vocab.terms if not t.obsolete), vocab):
        identities = sorted({vocab.identity(t) for t in members if t.iri is not None})
        if len(identities) < 2:
            continue
        findings.append(Finding.about_terms(
            members, "C-SEMANTIC-NOISE", members[0].label,
            f'label "{members[0].label}" denotes {len(identities)} distinct '
            f"terms ({', '.join(identities)}); a shared spelling hides "
            "different meanings"))
    return findings


def check_synonym_collisions(vocab: Vocabulary) -> list[Finding]:
    """A synonym of one live term matching the label or a synonym of another
    live term invites mis-selection: one finding per shared phrase, listing
    every live term that carries it. A term's own synonyms are exempt."""
    live = [t for t in vocab.terms if not t.obsolete]
    synonym_keys = {syn.key for t in live for syn in t.synonyms}
    findings: list[Finding] = []
    for phrase, members in shared_keys(
            ((key, t) for t in live for key in (t.key, *(syn.key for syn in t.synonyms))
             if key in synonym_keys), vocab):
        ordered = sorted(members, key=vocab.identity)
        quoted = [f'"{t.label}"' for t in ordered]
        carriers = (f"both {quoted[0]} and {quoted[1]}" if len(quoted) == 2
                    else f"{len(quoted)} terms ({', '.join(quoted)})")
        findings.append(Finding.about_terms(
            ordered, "C-SYNONYM-CLASH", ordered[0].label,
            f'phrase "{phrase}" appears on {carriers}; shared synonyms blur term boundaries'))
    return findings


def _chain_end(vocab: Vocabulary, key: str, ends: dict[str, str | None]) -> str | None:
    """Where the replaced_by chain from `key` stops: the expanded IRI of its
    first term with no replaced_by or first IRI outside the vocabulary, or None
    on a cycle. Every IRI walked is memoized in `ends`, so no link is followed
    twice."""
    path: list[str] = []
    while key not in ends:
        ends[key] = None  # reaching it again on this path closes a cycle
        path.append(key)
        link = vocab.by_iri.get(key)
        if link is None or link.replaced_by is None:
            end = key
            break
        key = expand_iri(link.replaced_by, vocab.prefix_map)
    else:
        end = ends[key]
    for k in path:
        ends[k] = end
    return end


def check_deprecation(vocab: Vocabulary) -> list[Finding]:
    """R08: obsolete terms are labelled as such and forward readers to live
    replacements; replacement pointers resolve, do not cycle, and do not hang
    off live terms; live terms do not sit under obsolete parents."""
    findings: list[Finding] = []
    ends: dict[str, str | None] = {}
    for term in vocab.terms:
        if term.obsolete:
            if not term.tokens or term.tokens[0] != "obsolete":
                findings.append(Finding.about(
                    term, "R08-LABEL", 'obsolete term label does not start with "obsolete"'))
            if term.replaced_by is None:
                findings.append(Finding.about(
                    term, "R08-NO-REPLACEMENT", "obsolete term names no replacement"))
        elif term.replaced_by is not None:
            findings.append(Finding.about(
                term, "R08-LIVE-REPLACED",
                "live term carries a replacement pointer; either obsolete "
                "the term or drop the pointer"))
        if term.replaced_by is not None:
            key = expand_iri(term.replaced_by, vocab.prefix_map)
            target = vocab.by_iri.get(key)
            if target is None:
                findings.append(Finding.about(
                    term, "R08-DANGLING",
                    f'replacement target "{term.replaced_by.value}" is not '
                    "in the vocabulary"))
            elif target.obsolete:
                end = _chain_end(vocab, key, ends)
                if end is None:
                    findings.append(Finding.about(
                        term, "R08-CYCLE", "replacement pointers form a cycle; no live "
                        "replacement can be reached"))
                elif end in vocab.by_iri:  # else a later link dangles (R08-DANGLING)
                    final = vocab.by_iri[end]
                    findings.append(Finding.about(
                        term, "R08-CHAIN",
                        f'replacement target "{target.label}" is itself '
                        f'obsolete; the chain resolves to "{final.label}" '
                        f"({final.iri.value}); point directly at the live term",
                        suggestion=final.label))
        if not term.obsolete:
            for parent in term.parents:
                parent_term = vocab.term_for(parent)
                if parent_term is not None and parent_term.obsolete:
                    findings.append(Finding.about(
                        term, "R08-OBSOLETE-PARENT",
                        f'live term lists the obsolete term "{parent_term.label}" '
                        "as a parent"))
    return findings
