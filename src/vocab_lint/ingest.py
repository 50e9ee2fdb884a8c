"""Parsers for the two supported vocabulary carriers: an OBO flat-file subset
and a tab-separated term table. Both return (Vocabulary, PARSE findings) with
line-accurate source locations. The grammar details live in docs/formats.md.
"""

from __future__ import annotations

import re

from .model import (
    Definition,
    Finding,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    Vocabulary,
)

_SCOPES = {"EXACT": "exact", "BROAD": "broad", "NARROW": "narrow", "RELATED": "related"}


class FatalParseError(Exception):
    """Input cannot be interpreted at all (e.g. required column missing)."""


def _diagnostic(severity: str, message: str, location: SourceLocation) -> Finding:
    """A PARSE finding: a problem in the input itself, reported in place."""
    return Finding(rule_id="PARSE", severity=severity, subject_label="", message=message,
                   location=location)


# The columns parse_term_table reads. Only the label column must be present
# in the header; absent optional columns are simply unused.
TSV_COLUMNS = ("label", "iri", "definition", "definition_source", "parents", "synonyms",
               "obsolete", "replaced_by")


def _strip_bom(text: str) -> str:
    return text[1:] if text.startswith("﻿") else text


# From the first double quote to the next one that no backslash escapes.
_QUOTED = re.compile(r'[^"]*"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)


def _parse_quoted(raw: str) -> tuple[str, str] | None:
    """Parse the first double-quoted string in `raw`, honoring backslash
    escapes for quote and backslash; any other backslash stays literal.
    Returns (text, remainder-after-quote), or None when the quote never
    closes (or never opens)."""
    match = _QUOTED.match(raw)
    if match is None:
        return None
    # Every quote inside the match is escaped, and backslashes pair up from
    # the left, so these two replaces undo exactly the escapes.
    return match[1].replace("\\\\", "\\").replace('\\"', '"'), raw[match.end():]


def _parse_bracket_list(raw: str) -> list[str]:
    open_idx = raw.find("[")
    if open_idx == -1:
        return []
    close_idx = raw.find("]", open_idx)
    if close_idx == -1:
        return []
    inner = raw[open_idx + 1:close_idx]
    return [part.strip() for part in inner.split(",") if part.strip()]


def _strip_trailing_comment(value: str) -> str:
    return value.split("!", 1)[0].strip()


def _make_iri(value: str) -> Iri | None:
    try:
        return Iri(value)
    except ValueError:
        return None


class _StanzaState:
    """Accumulates one [Term] stanza; mutated line by line."""

    def __init__(self, file_name: str, start_line: int) -> None:
        self.location = SourceLocation(file_name, start_line)
        self.iri: Iri | None = None
        self.label: str | None = None
        self.definition: Definition | None = None
        self.synonyms: list[Synonym] = []
        self.parents: list[Iri] = []
        self.obsolete = False
        self.replaced_by: Iri | None = None
        self.annotations: dict[str, str] = {}
        self.skip = False  # set on irrecoverable structure damage


def parse_obo(text: str, file_name: str) -> tuple[Vocabulary, list[Finding]]:
    """Parse [Term] stanzas from the documented OBO subset. Header lines and
    non-Term stanzas are skipped; unknown tags inside Term stanzas are kept
    as annotations."""
    diags: list[Finding] = []
    terms: list[Term] = []
    seen_ids: dict[str, int] = {}

    def warn(line: int, message: str) -> None:
        diags.append(_diagnostic("warning", message, SourceLocation(file_name, line)))

    def error(line: int, message: str) -> None:
        diags.append(_diagnostic("error", message, SourceLocation(file_name, line)))

    def finish(st: _StanzaState) -> None:
        if st.skip:
            return
        if st.iri is None and st.label is None:
            warn(st.location.line, "[Term] stanza has neither id nor name; skipped")
            return
        if st.label is None:
            warn(st.location.line, "[Term] stanza has no name; id used as label")
            st.label = st.iri.value
        if st.iri is None:
            warn(st.location.line, "[Term] stanza has no id")
        elif st.iri.value in seen_ids:
            error(st.location.line,
                  f"duplicate id {st.iri.value} (first seen on line {seen_ids[st.iri.value]})")
        else:
            seen_ids[st.iri.value] = st.location.line
        terms.append(Term(
            label=st.label,
            iri=st.iri,
            synonyms=tuple(st.synonyms),
            definition=st.definition,
            parents=tuple(st.parents),
            obsolete=st.obsolete,
            replaced_by=st.replaced_by,
            annotations=st.annotations,
            location=st.location,
        ))

    state: _StanzaState | None = None
    lines = _strip_bom(text).split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if state is not None:
                finish(state)
            state = _StanzaState(file_name, line_no) if stripped == "[Term]" else None
            continue
        if state is None or state.skip:
            continue
        if not stripped or stripped.startswith("!"):
            continue
        tag, sep, value = line.partition(":")
        if not sep:
            warn(line_no, f"line is not a tag: value pair: {stripped!r}")
            continue
        _apply_tag(state, tag.strip(), value.strip(), line_no, warn, error)
    if state is not None:
        finish(state)
    return Vocabulary(tuple(terms)), diags


def _apply_tag(st: _StanzaState, tag: str, value: str, line_no: int, warn, error) -> None:
    if tag == "id":
        iri = _make_iri(_strip_trailing_comment(value))
        if iri is None:
            warn(line_no, f"invalid id value: {value!r}")
        elif st.iri is not None:
            warn(line_no, "duplicate id tag in stanza; first kept")
        else:
            st.iri = iri
    elif tag == "name":
        if not value:
            warn(line_no, "empty name value ignored")
        elif st.label is not None:
            warn(line_no, "duplicate name tag in stanza; first kept")
        else:
            st.label = value
    elif tag == "def":
        parsed = _parse_quoted(value)
        if parsed is None:
            error(line_no, "unclosed quote in def; stanza skipped")
            st.skip = True
            return
        text, rest = parsed
        if not text:
            warn(line_no, "empty definition text ignored")
            return
        if st.definition is not None:
            warn(line_no, "duplicate def tag in stanza; first kept")
            return
        st.definition = Definition(text=text, sources=tuple(_parse_bracket_list(rest)))
    elif tag == "synonym":
        parsed = _parse_quoted(value)
        if parsed is None:
            error(line_no, "unclosed quote in synonym; stanza skipped")
            st.skip = True
            return
        text, rest = parsed
        if not text:
            warn(line_no, "empty synonym text ignored")
            return
        bracket = _parse_bracket_list(rest)
        head = rest.split("[", 1)[0].split()
        if head and head[0] not in _SCOPES:
            warn(line_no, f"unknown synonym scope {head[0]!r}; treated as related")
        scope = _SCOPES.get(head[0], "related") if head else "related"
        is_abbrev = "ABBREVIATION" in bracket or "ABBREVIATION" in head[1:]
        st.synonyms.append(Synonym(text=text, scope=scope, is_abbreviation=is_abbrev))
    elif tag == "is_a":
        iri = _make_iri(_strip_trailing_comment(value))
        if iri is None:
            warn(line_no, f"invalid is_a value: {value!r}")
        else:
            st.parents.append(iri)
    elif tag == "is_obsolete":
        lowered = _strip_trailing_comment(value).lower()
        if lowered == "true":
            st.obsolete = True
        elif lowered != "false":
            warn(line_no, f"is_obsolete expects true/false, got {value!r}; treated as false")
    elif tag == "replaced_by":
        iri = _make_iri(_strip_trailing_comment(value))
        if iri is None:
            warn(line_no, f"invalid replaced_by value: {value!r}")
        elif st.replaced_by is not None:
            warn(line_no, "duplicate replaced_by tag in stanza; first kept")
        else:
            st.replaced_by = iri
    else:
        # comment and all unrecognized tags are preserved opaquely; repeated
        # tags concatenate with "|" so nothing is silently dropped.
        if tag in st.annotations:
            st.annotations[tag] = st.annotations[tag] + "|" + value
        else:
            st.annotations[tag] = value


def parse_term_table(text: str, file_name: str) -> tuple[Vocabulary, list[Finding]]:
    """Parse a UTF-8 TSV term table. The first row is the header; "|" splits
    list-valued cells; empty cells mean absent fields."""
    diags: list[Finding] = []
    terms: list[Term] = []
    lines = _strip_bom(text).split("\n")
    if not lines or not lines[0].strip():
        raise FatalParseError(f"{file_name}: missing header row")
    header = [cell.strip() for cell in lines[0].rstrip("\r").split("\t")]
    if "label" not in header:
        raise FatalParseError(f"{file_name}: required label column 'label' not in header")
    position: dict[str, int] = {}
    for pos, name in enumerate(header):
        position.setdefault(name, pos)
    # Each row is padded with one header's width of empty cells, and an
    # absent column reads index -1: both always land on padding.
    padding = [""] * len(header)
    (label_at, iri_at, definition_at, def_source_at, parent_at, synonyms_at, obsolete_at,
     replaced_by_at) = [position.get(name, -1) for name in TSV_COLUMNS]

    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t") + padding
        loc = SourceLocation(file_name, line_no)
        label = cells[label_at].strip()
        if not label:
            diags.append(_diagnostic("error", "row has an empty label cell; row skipped", loc))
            continue
        iri: Iri | None = None
        raw_iri = cells[iri_at].strip()
        if raw_iri:
            iri = _make_iri(raw_iri)
            if iri is None:
                diags.append(_diagnostic(
                    "warning", f"invalid IRI value {raw_iri!r}; term kept without IRI", loc))
        definition: Definition | None = None
        def_text = cells[definition_at].strip()
        if def_text:
            sources = [s for s in cells[def_source_at].strip().split("|") if s]
            definition = Definition(text=def_text, sources=tuple(sources))
        parents = []
        for part in cells[parent_at].split("|"):
            part = part.strip()
            if not part:
                continue
            parent = _make_iri(part)
            if parent is None:
                diags.append(_diagnostic("warning", f"invalid parent IRI {part!r}", loc))
            else:
                parents.append(parent)
        synonyms = tuple(
            Synonym(text=s.strip(), scope="exact")
            for s in cells[synonyms_at].split("|") if s.strip())
        obsolete_raw = cells[obsolete_at].strip()
        obsolete = obsolete_raw.lower() == "true"
        if obsolete_raw.lower() not in ("", "true", "false"):
            diags.append(_diagnostic(
                "warning", f"obsolete expects true/false, got {obsolete_raw!r}; treated as false",
                loc))
        replaced_by: Iri | None = None
        raw_replaced = cells[replaced_by_at].strip()
        if raw_replaced:
            replaced_by = _make_iri(raw_replaced)
            if replaced_by is None:
                diags.append(_diagnostic(
                    "warning", f"invalid replaced_by IRI {raw_replaced!r}", loc))
        terms.append(Term(
            label=label,
            iri=iri,
            synonyms=synonyms,
            definition=definition,
            parents=tuple(parents),
            obsolete=obsolete,
            replaced_by=replaced_by,
            location=loc,
        ))
    return Vocabulary(tuple(terms)), diags


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_obo(vocab: Vocabulary) -> str:
    """Write the supported tag subset back out. Annotations are emitted in
    sorted key order so serialization is deterministic; re-parsing the output
    reproduces every term field-by-field (locations aside)."""
    chunks: list[str] = ["format-version: 1.2"]
    for term in vocab.terms:
        lines = ["[Term]"]
        if term.iri is not None:
            lines.append(f"id: {term.iri.value}")
        lines.append(f"name: {term.label}")
        if term.definition is not None:
            lines.append(f"def: {_quote(term.definition.text)} "
                         f"[{', '.join(term.definition.sources)}]")
        for syn in term.synonyms:
            marker = "[ABBREVIATION]" if syn.is_abbreviation else "[]"
            lines.append(f"synonym: {_quote(syn.text)} {syn.scope.upper()} {marker}")
        for parent in term.parents:
            lines.append(f"is_a: {parent.value}")
        if term.obsolete:
            lines.append("is_obsolete: true")
        if term.replaced_by is not None:
            lines.append(f"replaced_by: {term.replaced_by.value}")
        for key in sorted(term.annotations):
            lines.append(f"{key}: {term.annotations[key]}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
