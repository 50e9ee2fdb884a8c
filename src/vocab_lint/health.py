"""Ontology health scoring from metadata snapshots: activity, responsiveness,
documentation, reuse, and identifier practice roll up into a weighted
composite and a verdict.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from itertools import groupby

from .model import split_lines

SUBSCORE_NAMES = ("activity", "responsiveness", "documentation", "reuse", "identifiers")

DEFAULT_WEIGHTS: dict[str, float] = {name: 0.2 for name in SUBSCORE_NAMES}

HEALTHY_THRESHOLD = 0.75
CAUTION_THRESHOLD = 0.4

_WEIGHT_SUM_TOLERANCE = 1e-9


class MetadataError(ValueError):
    """A metadata record that cannot be represented."""


@dataclass(frozen=True)
class OntologyMetadata:
    name: str
    as_of: dt.date
    last_release: dt.date | None = None
    median_issue_response_days: float | None = None
    accepts_term_requests: bool = False
    definition_coverage: float = 0.0
    terms_reused_elsewhere: int = 0
    total_terms: int = 1
    has_permanent_iris: bool = False

    def __post_init__(self):
        if not self.name:
            raise MetadataError("name must be non-empty")
        if not 0.0 <= self.definition_coverage <= 1.0:
            raise MetadataError("definition_coverage must lie in [0, 1]")
        if self.total_terms < 1:
            raise MetadataError("total_terms must be at least 1")
        if self.terms_reused_elsewhere < 0:
            raise MetadataError("terms_reused_elsewhere must be non-negative")
        days = self.median_issue_response_days
        if days is not None and not days >= 0:  # NaN fails too
            raise MetadataError("median_issue_response_days must be non-negative")
        if self.last_release is not None and self.last_release > self.as_of:
            raise MetadataError("last_release must not postdate as_of")


@dataclass(frozen=True)
class HealthReport:
    name: str
    subscores: dict[str, float]
    composite: float
    verdict: str
    notes: tuple[str, ...] = ()


_BOOL_VALUES = {"true": True, "yes": True, "false": False, "no": False}


def _parse_bool(value: str) -> bool:
    try:
        return _BOOL_VALUES[value.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {value!r}") from None


# How each snapshot key's value is read; the keys are OntologyMetadata's fields.
_PARSERS = {
    "name": str,
    "as_of": dt.date.fromisoformat,
    "last_release": dt.date.fromisoformat,
    "median_issue_response_days": float,
    "accepts_term_requests": _parse_bool,
    "definition_coverage": float,
    "terms_reused_elsewhere": int,
    "total_terms": int,
    "has_permanent_iris": _parse_bool,
}


def load_metadata(text: str) -> tuple[list[OntologyMetadata], list[str]]:
    """Parse a snapshot file of "key: value" records separated by blank
    lines, with "#" comment lines. Returns the usable records plus notes for
    anything skipped or ignored; a bad record never aborts the whole file."""
    records: list[OntologyMetadata] = []
    notes: list[str] = []
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(split_lines(text), start=1))
    for filled, run in groupby(lines, key=lambda item: bool(item[1])):
        entries = [(lineno, line) for lineno, line in run if not line.startswith("#")]
        if not filled or not entries:
            continue
        block: dict[str, object] = {}
        usable = True
        for lineno, line in entries:
            key, sep, value = map(str.strip, line.partition(":"))
            if not sep:
                notes.append(f"line {lineno}: not a key: value pair; record skipped")
                usable = False
                continue
            parse = _PARSERS.get(key)
            if parse is None:
                notes.append(f"line {lineno}: unknown key {key!r} ignored")
                continue
            try:
                block[key] = parse(value)
            except ValueError as exc:
                notes.append(f"line {lineno}: bad value for {key!r} ({exc}); record skipped")
                usable = False
        if not usable:
            continue
        if "name" not in block or "as_of" not in block:
            notes.append(f"record at line {entries[0][0]}: missing name or as_of; skipped")
            continue
        try:
            records.append(OntologyMetadata(**block))  # type: ignore[arg-type]
        except MetadataError as exc:
            notes.append(f"record at line {entries[0][0]}: {exc}; skipped")
    return records, notes


def months_before(day: dt.date, months: int) -> dt.date:
    """The same calendar day `months` earlier, clamped to month length, or
    `dt.date.min` when that day would fall before it."""
    import calendar

    total = day.year * 12 + (day.month - 1) - months
    if total < 12:
        return dt.date.min
    year, month = divmod(total, 12)
    month += 1
    last_day = calendar.monthrange(year, month)[1]
    return dt.date(year, month, min(day.day, last_day))


def _activity(meta: OntologyMetadata) -> float:
    if meta.last_release is None:
        return 0.0
    if meta.last_release >= months_before(meta.as_of, 12):
        return 1.0
    if meta.last_release >= months_before(meta.as_of, 24):
        return 0.5
    return 0.0


def _responsiveness(meta: OntologyMetadata) -> float:
    if not meta.accepts_term_requests:
        return 0.0
    days = meta.median_issue_response_days
    if days is not None and days <= 30:
        return 1.0
    if days is None or days <= 180:
        return 0.5
    return 0.0


def _reuse(meta: OntologyMetadata) -> float:
    return min(1.0, meta.terms_reused_elsewhere / meta.total_terms * 10.0)


def validate_weights(weights: dict[str, float]) -> None:
    unknown = set(weights) - set(SUBSCORE_NAMES)
    if unknown:
        raise ValueError(f"unknown subscore weights: {sorted(unknown)}")
    if any(value < 0 for value in weights.values()):
        raise ValueError("weights must be non-negative")
    total = sum(weights.values())
    if not abs(total - 1.0) <= _WEIGHT_SUM_TOLERANCE:  # a NaN total fails too
        raise ValueError(f"weights must sum to 1, got {total!r}")


def assess_health(meta: OntologyMetadata,
                  weights: dict[str, float] | None = None) -> HealthReport:
    """Score one ontology. Weights default to 0.2 each; a partial weight map
    treats missing subscores as weight zero."""
    if weights is None:
        weights = DEFAULT_WEIGHTS
    validate_weights(weights)
    subscores = {
        "activity": _activity(meta),
        "responsiveness": _responsiveness(meta),
        "documentation": meta.definition_coverage,
        "reuse": _reuse(meta),
        "identifiers": 1.0 if meta.has_permanent_iris else 0.0,
    }
    composite = sum(weights.get(name, 0.0) * subscores[name] for name in SUBSCORE_NAMES)
    if composite >= HEALTHY_THRESHOLD:
        verdict = "healthy"
    elif composite >= CAUTION_THRESHOLD:
        verdict = "caution"
    else:
        verdict = "stale"
    notes: tuple[str, ...] = ()
    if verdict == "stale":
        notes = ("a stale verdict reflects maintenance signals only; it does not "
                 "mean the content is of poor quality",)
    return HealthReport(name=meta.name, subscores=subscores, composite=composite,
                        verdict=verdict, notes=notes)
