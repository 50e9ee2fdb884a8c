"""Run orchestration: configuration loading, parsing inputs, running the
selected checks over the merged vocabulary, filtering and sorting findings,
and rendering deterministic text or JSON reports.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

from . import __version__, definitions, identity, lexical
from .catalog import INFO, RULES, SEVERITIES, SEVERITY_RANK
from .identity import PrefixMap, PrefixMapError, default_prefix_map, load_prefix_map
from .ingest import FatalParseError, parse_obo, parse_term_table
from .lexical import (LexiconError, Lexicons, apply_lexicon_overrides, default_lexicons,
                      rebuilt_from_fields)
from .model import Finding, Vocabulary, expand_iri, merge_vocabularies, normalize_label

FORMATS = ("obo", "tsv")

_SUFFIX_FORMATS = {".obo": "obo", ".tsv": "tsv", ".tab": "tsv"}


class ConfigError(Exception):
    """Unusable configuration (bad JSON, unknown keys, bad values, or an
    unreadable file the configuration points at)."""


class LintFatalError(Exception):
    """An input that cannot be processed at all."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class RuleConfig:
    """A run's settings, checked when built, so a value built in code, by
    `load_config` or by `dataclasses.replace` passes the same rules. The maps
    are stored read-only, so a value stays as checked for its whole life."""
    enabled_rules: tuple[str, ...] = ("*",)
    severity_overrides: Mapping[str, str] = field(default_factory=dict)
    suppressions: tuple[tuple[str, str], ...] = ()
    fail_threshold: str = "warning"
    prefix_map_path: str | None = None
    lexicon_overrides: Mapping[str, str] = field(default_factory=dict)
    reference_paths: tuple[str, ...] = ()
    metadata_path: str | None = None
    health_weights: Mapping[str, float] | None = None
    concept_bomb_token_threshold: int = 7
    word_bomb_min_group: int = 5
    per_file: bool = False

    def __post_init__(self) -> None:
        patterns = self.enabled_rules
        _require(isinstance(patterns, (list, tuple)) and patterns
                 and all(isinstance(p, str) for p in patterns),
                 "enabled_rules must be a non-empty list of patterns")
        unmatched = ", ".join(repr(p) for p in dict.fromkeys(patterns)
                              if not any(fnmatchcase(rule_id, p) for rule_id in RULES))
        _require(not unmatched, f"rule patterns match no rule: {unmatched}")
        overrides = self.severity_overrides
        _require(isinstance(overrides, Mapping), "severity_overrides must be an object")
        for rule_id, severity in overrides.items():
            _require(rule_id in RULES, f"severity override for unknown rule {rule_id!r}")
            _require(severity in SEVERITIES,
                     f"severity override for {rule_id} must be one of {SEVERITIES}")
        _require(isinstance(self.suppressions, (list, tuple)), "suppressions must be a list")
        for entry in self.suppressions:
            _require(isinstance(entry, (list, tuple)) and len(entry) == 2
                     and all(isinstance(x, str) for x in entry),
                     "each suppression must be a [rule-id, subject] pair")
            _require(entry[0] in RULES, f"suppression for unknown rule {entry[0]!r}")
        _require(self.fail_threshold in SEVERITIES,
                 f"fail_threshold must be one of {SEVERITIES}")
        _require(isinstance(self.per_file, bool), "per_file must be a boolean")
        thresholds = (self.concept_bomb_token_threshold, self.word_bomb_min_group)
        _require(all(isinstance(n, int) and not isinstance(n, bool) for n in thresholds),
                 "complexity thresholds must be integers")
        _require(min(thresholds) >= 2, "complexity thresholds must be >= 2")
        for name in ("prefix_map_path", "metadata_path"):
            _require(isinstance(getattr(self, name), (str, type(None))), f"{name} must be a string")
        lexicon, refs = self.lexicon_overrides, self.reference_paths
        _require(isinstance(lexicon, Mapping)
                 and all(isinstance(k, str) and isinstance(v, str) for k, v in lexicon.items()),
                 "lexicon_overrides must map lexicon names to file paths")
        _require(isinstance(refs, (list, tuple)) and all(isinstance(r, str) for r in refs),
                 "reference_paths must be a list of paths")
        weights = self.health_weights
        if weights is not None:
            from .health import validate_weights

            _require(isinstance(weights, Mapping) and all(
                isinstance(k, str) and isinstance(v, (int, float)) and not isinstance(v, bool)
                for k, v in weights.items()), "health_weights must map subscore names to numbers")
            try:
                weights = MappingProxyType({k: float(v) for k, v in weights.items()})
                validate_weights(weights)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
        for name, value in (("enabled_rules", tuple(patterns)),
                            ("severity_overrides", MappingProxyType(dict(overrides))),
                            ("suppressions", tuple(map(tuple, self.suppressions))),
                            ("lexicon_overrides", MappingProxyType(dict(lexicon))),
                            ("reference_paths", tuple(refs)),
                            ("health_weights", weights)):
            object.__setattr__(self, name, value)

    __reduce__ = rebuilt_from_fields


# The keys a configuration file may set: RuleConfig's fields.
CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RuleConfig))


def _shown(path: str) -> str:
    """`path` with each non-printable character escaped as repr escapes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in path)


def read_text(what: str, path: str, error: type[Exception] = ConfigError) -> str:
    """The text of the UTF-8 file at `path`, less a leading byte-order mark. A
    file that cannot be read or decoded raises `error` naming "{what}{path}"."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8 (UnicodeDecodeError), or a
        # path holding a NUL character.
        raise error(f"cannot read {what}{_shown(path)}: {exc}") from exc


def load_config(path: str) -> RuleConfig:
    """Read a JSON configuration file. Relative path strings inside it
    resolve against the file's own directory; unknown keys are rejected so
    typos cannot silently disable anything. Every value then goes to
    `RuleConfig`, which checks it."""
    try:
        raw = json.loads(read_text("config ", path))
    except (ValueError, RecursionError) as exc:  # bad JSON, huge integers, deep nesting
        raise ConfigError(f"config {_shown(path)} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"config {_shown(path)} must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    _require(not unknown, f"config {_shown(path)} has unknown keys: {sorted(unknown)}")
    base = Path(path).resolve().parent

    def resolve(p: object) -> object:
        return str(base / p) if isinstance(p, str) and not Path(p).is_absolute() else p

    for key in ("prefix_map_path", "metadata_path"):
        if key in raw:
            raw[key] = resolve(raw[key])
    if isinstance(raw.get("lexicon_overrides"), dict):
        raw["lexicon_overrides"] = {k: resolve(p) for k, p in raw["lexicon_overrides"].items()}
    if isinstance(raw.get("reference_paths"), list):
        raw["reference_paths"] = list(map(resolve, raw["reference_paths"]))
    return RuleConfig(**raw)


def build_lexicons(config: RuleConfig) -> Lexicons:
    lex = default_lexicons()
    for name in sorted(config.lexicon_overrides):
        path = config.lexicon_overrides[name]
        try:
            lex = apply_lexicon_overrides(lex, name, read_text("lexicon file ", path))
        except LexiconError as exc:
            raise ConfigError(f"lexicon file {_shown(path)}: {exc}") from exc
    return lex


def build_prefix_map(config: RuleConfig) -> PrefixMap:
    if config.prefix_map_path is None:
        return default_prefix_map()
    try:
        return load_prefix_map(read_text("prefix map ", config.prefix_map_path))
    except PrefixMapError as exc:
        raise ConfigError(f"prefix map {_shown(config.prefix_map_path)}: {exc}") from exc


def infer_format(path: str) -> str:
    fmt = _SUFFIX_FORMATS.get(Path(path).suffix.lower())
    if fmt is None:
        raise LintFatalError(
            f"cannot infer format of {_shown(path)}; pass --format obo or --format tsv")
    return fmt


def parse_input(path: str, fmt: str | None) -> tuple[Vocabulary, list[Finding]]:
    """The vocabulary in the file at `path` and its PARSE findings."""
    if fmt is None:
        fmt = infer_format(path)
    if fmt not in FORMATS:
        raise LintFatalError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    text = read_text("", path, LintFatalError)
    if fmt == "obo":
        return parse_obo(text, path)
    try:
        return parse_term_table(text, path)
    except FatalParseError as exc:
        raise LintFatalError(str(exc)) from exc


@dataclass(frozen=True)
class InputSummary:
    file: str
    format: str
    term_count: int


@dataclass(frozen=True)
class Report:
    findings: tuple[Finding, ...]
    counts: dict[str, int]
    inputs: tuple[InputSummary, ...]
    tool_version: str = __version__


# A phrasing check judges a term's label and drops to info on obsolete terms;
# a term check runs once per term; a vocabulary check once per linted unit.
PHRASING, TERM, VOCABULARY = "phrasing", "term", "vocabulary"


@dataclass(frozen=True)
class CheckContext:
    """What a check may read besides its subject."""

    unit: Vocabulary
    lex: Lexicons
    prefixes: PrefixMap
    config: RuleConfig


# Every check: the catalog rule ids it can emit, its scope, and a call on
# (term or unit, context). The call looks the check up on its module each
# time, so a function rebound there (as a profiler does) is the one that runs.
CHECKS = (
    (("R05-ABBREV", "R05-EXPANSION-STYLE"), PHRASING,
     lambda term, ctx: lexical.check_abbreviation(term, ctx.lex)),
    (("R02-NEGATIVE",), PHRASING,
     lambda term, ctx: lexical.check_negative_phrasing(term, ctx.lex)),
    (("R02-CONJUNCTION",), PHRASING, lambda term, ctx: lexical.check_conjunction(term, ctx.lex)),
    (("R02-PLURAL",), PHRASING, lambda term, ctx: lexical.check_plural(term, ctx.lex)),
    (("R03-COLLOQUIAL",), PHRASING, lambda term, ctx: lexical.check_colloquial(term, ctx.lex)),
    (("C-TIMELINE",), PHRASING, lambda term, ctx: lexical.check_timeline(term, ctx.lex)),
    (("C-CONCEPT-BOMB",), PHRASING, lambda term, ctx: lexical.check_concept_bomb(
        term, ctx.config.concept_bomb_token_threshold, ctx.lex)),
    (("R09-BOOLEAN", "R09-NEGATIVE-TAG"), TERM,
     lambda term, ctx: lexical.check_tag_style(term, ctx.lex)),
    (("R06-MISSING-IRI", "R06-BAD-IRI", "R06-NONPURL"), TERM,
     lambda term, ctx: identity.check_iri(term, ctx.prefixes)),
    (("R07-MISSING-DEF", "R07-MISSING-SOURCE"), TERM,
     lambda term, _: definitions.check_definition_present(term)),
    (("R07-FORM", "R07-GENUS-MISMATCH"), TERM,
     lambda term, ctx: definitions.check_genus_differentia(term, ctx.unit)),
    (("C-WORD-BOMB",), VOCABULARY,
     lambda unit, ctx: lexical.detect_word_bombs(unit, ctx.config.word_bomb_min_group)),
    (("R04-NARROW",), VOCABULARY, lambda unit, _: lexical.check_redundant_narrowing(unit)),
    (("R07-DUPLICATE-DEF",), VOCABULARY,
     lambda unit, _: definitions.check_definition_uniqueness(unit)),
    (("R07-SELF-REF", "R07-CIRCULAR"), VOCABULARY,
     lambda unit, _: definitions.detect_circular_definitions(unit)),
    (("R06-DUP-IRI",), VOCABULARY, lambda unit, _: identity.check_iri_uniqueness(unit)),
    (("C-SEMANTIC-NOISE",), VOCABULARY, lambda unit, _: identity.check_label_collisions(unit)),
    (("C-SYNONYM-CLASH",), VOCABULARY, lambda unit, _: identity.check_synonym_collisions(unit)),
    (("R08-LABEL", "R08-NO-REPLACEMENT", "R08-LIVE-REPLACED", "R08-DANGLING", "R08-CHAIN",
      "R08-CYCLE", "R08-OBSOLETE-PARENT"), VOCABULARY,
     lambda unit, _: identity.check_deprecation(unit)),
)


def _suppressed(finding: Finding, subjects: Sequence[tuple[str, str]],
                prefix_map: dict[str, str]) -> bool:
    """subjects: the finding's rule's suppression subjects, as written and normalized."""
    if not subjects:
        return False
    iris = {v for iri in finding.subject_iris for v in (iri.value, expand_iri(iri, prefix_map))}
    return (any(subject in iris for subject, _ in subjects)
            or normalize_label(finding.subject_label) in {key for _, key in subjects})


def _sort_key(finding: Finding):
    """Ties on location, rule and subject are broken by every other field the
    report prints, so the order never falls back to the order in which the
    checks produced the findings."""
    loc = finding.location
    return (loc.file if loc else "", loc.line if loc else 0,
            finding.rule_id, finding.subject_label, finding.message,
            finding.suggestion or "", tuple(iri.value for iri in finding.subject_iris),
            finding.severity)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for the block, then restore the caller's
    setting, on every exit. A run's objects live until it ends and form no
    cycles, so the collector would only walk them again and again. A nested
    pause leaves the outer one's setting alone."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@collector_paused()
def run_lint(config: RuleConfig, inputs: Sequence[tuple[str, str | None]]) -> Report:
    """Parse every input, lint the merged vocabulary (or each file alone when
    per_file is set), and return the filtered, deterministically ordered
    report. The cyclic collector is paused for the run."""
    lex = build_lexicons(config)
    prefixes = build_prefix_map(config)
    # Only checks that can emit a selected rule run; the filter below still
    # drops PARSE findings and the unselected ids of checks that emit several.
    selected = {rule_id for pattern in config.enabled_rules for rule_id in RULES
                if fnmatchcase(rule_id, pattern)}
    checks = [c for c in CHECKS if selected.intersection(c[0])]
    findings: list[Finding] = []
    vocabs: list[Vocabulary] = []
    summaries: list[InputSummary] = []
    for path, fmt in inputs:
        resolved_fmt = fmt if fmt is not None else infer_format(path)
        vocab, parse_findings = parse_input(path, resolved_fmt)
        vocabs.append(vocab)
        summaries.append(InputSummary(file=path, format=resolved_fmt,
                                      term_count=len(vocab.terms)))
        findings.extend(parse_findings)
    groups = [[vocab] for vocab in vocabs] if config.per_file else [vocabs]
    for group in groups:
        unit = merge_vocabularies(group, prefixes.entries)
        ctx = CheckContext(unit, lex, prefixes, config)
        for _, scope, run in checks:
            for subject in ([unit] if scope == VOCABULARY else unit.terms):
                emitted = run(subject, ctx)
                if emitted:
                    if scope == PHRASING and subject.obsolete:
                        # Phrasing complaints about terms already out of
                        # service are informational at most.
                        emitted = [dataclasses.replace(f, severity=INFO) for f in emitted]
                    findings.extend(emitted)

    subjects: dict[str, list[tuple[str, str]]] = {}
    for rule_id, subject in config.suppressions:
        subjects.setdefault(rule_id, []).append((subject, normalize_label(subject)))
    kept: list[Finding] = []
    for finding in findings:
        if finding.rule_id not in selected:
            continue
        if _suppressed(finding, subjects.get(finding.rule_id, ()), prefixes.entries):
            continue
        override = config.severity_overrides.get(finding.rule_id)
        if override is not None and override != finding.severity:
            finding = dataclasses.replace(finding, severity=override)
        kept.append(finding)
    kept.sort(key=_sort_key)
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in kept:
        counts[finding.severity] += 1
    summaries.sort(key=lambda s: (s.file, s.format))
    return Report(findings=tuple(kept), counts=counts, inputs=tuple(summaries))


def exit_code(report: Report, config: RuleConfig) -> int:
    threshold = SEVERITY_RANK[config.fail_threshold]
    if any(SEVERITY_RANK[f.severity] >= threshold for f in report.findings):
        return 1
    return 0


_ANSI = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
_ANSI_RESET = "\x1b[0m"


def format_finding(f: Finding, color: bool = False) -> str:
    """One finding as a line of the text report."""
    where = f"{f.location.file}:{f.location.line}" if f.location else "-"
    severity = f"{_ANSI[f.severity]}{f.severity}{_ANSI_RESET}" if color else f.severity
    subject = f" {f.subject_label}" if f.subject_label else ""
    message = f"{f.message} (suggestion: {f.suggestion})" if f.suggestion else f.message
    return f"{where}: {severity} {f.rule_id}{subject}: {message}"


def _json_items(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON container of items already written one level below `indent`,
    laid out as json.dumps(indent=2) lays it out: an empty one on one line."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _json_report(report: Report) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n", written in one pass without building the
    payload. Each object's keys are written in sorted order. Strings go
    through the encoder that json.dumps uses under ensure_ascii=False, and
    integers through repr, as json.dumps writes them."""
    q = json.encoder.encode_basestring
    findings = []
    for f in report.findings:
        location = (f'{{\n        "file": {q(f.location.file)},\n'
                    f'        "line": {f.location.line!r}\n      }}' if f.location else "null")
        iris = _json_items([f"        {q(iri.value)}" for iri in f.subject_iris], "      ")
        suggestion = "null" if f.suggestion is None else q(f.suggestion)
        findings.append(
            f'    {{\n      "location": {location},\n      "message": {q(f.message)},\n'
            f'      "rule_id": {q(f.rule_id)},\n      "severity": {q(f.severity)},\n'
            f'      "subject_iris": {iris},\n      "subject_label": {q(f.subject_label)},\n'
            f'      "suggestion": {suggestion}\n    }}')
    inputs = [f'    {{\n      "file": {q(s.file)},\n      "format": {q(s.format)},\n'
              f'      "term_count": {s.term_count!r}\n    }}' for s in report.inputs]
    counts = [f"    {q(severity)}: {n!r}" for severity, n in sorted(report.counts.items())]
    return (f'{{\n  "counts": {_json_items(counts, "  ", "{}")},\n'
            f'  "findings": {_json_items(findings, "  ")},\n'
            f'  "inputs": {_json_items(inputs, "  ")},\n'
            f'  "tool": "vocab-lint",\n  "version": {q(report.tool_version)}\n}}\n')


def render_report(report: Report, output: str = "text", color: bool = False) -> str:
    """Byte-deterministic rendering of a report; color only when asked."""
    if output == "json":
        return _json_report(report)
    if output != "text":
        raise ValueError(f"unknown output format {output!r}")
    lines = [format_finding(f, color) for f in report.findings]
    lines.append(f"{report.counts['error']} error(s), {report.counts['warning']} "
                 f"warning(s), {report.counts['info']} info note(s) in "
                 f"{len(report.inputs)} input(s)")
    return "\n".join(lines) + "\n"
