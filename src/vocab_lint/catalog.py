"""Rule catalog: stable public identifiers for every finding the linter can emit.

Rule ids are part of the public API. Severities listed here are editorial
defaults, which the checks emit and a run can override; the numbered groups
(R02, R05, ...) follow the tool's published guidance themes, and the C- group
covers the contextual-data pathologies (semantic noise, word/concept bombs,
timeline terms).
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

# Higher rank = more severe; used for fail-threshold comparisons.
SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


@dataclass(frozen=True)
class RuleInfo:
    rule_id: str
    default_severity: str
    summary: str
    principle: str


_RULES = [
    RuleInfo("R01-REUSE", INFO,
             "reuse suggestion produced by suggest mode (not a lint finding)",
             "search existing vocabularies before minting a new term (rule 1)"),
    RuleInfo("R02-NEGATIVE", WARNING,
             "label is phrased negatively (negative determiner or non- prefix)",
             "state each concept simply and positively (rule 2)"),
    RuleInfo("R02-CONJUNCTION", WARNING,
             "label bundles multiple concepts with 'and' or 'or'",
             "one concept per term; split or generalize (rule 2)"),
    RuleInfo("R02-PLURAL", INFO,
             "label ends in a plural where a singular noun is expected",
             "use singular nouns unless plural by nature (rule 2)"),
    RuleInfo("R03-COLLOQUIAL", WARNING,
             "label or synonym is a colloquial phrase with a standard equivalent",
             "prefer standardized terminology over colloquialisms (rule 3)"),
    RuleInfo("R04-NARROW", INFO,
             "label needlessly narrows an existing broader term",
             "be no more specific than necessary; reuse the broader term (rule 4)"),
    RuleInfo("R05-ABBREV", WARNING,
             "label contains an unexpanded abbreviation",
             "use fully expanded terminology in preferred labels (rule 5)"),
    RuleInfo("R05-EXPANSION-STYLE", INFO,
             "label carries a trailing parenthesized abbreviation",
             "store abbreviations as synonyms, not in the label (rule 5)"),
    RuleInfo("R06-MISSING-IRI", WARNING,
             "term has no identifier",
             "every term needs a unique, permanent identifier (rule 6)"),
    RuleInfo("R06-BAD-IRI", ERROR,
             "identifier is neither absolute nor an expandable compact form",
             "identifiers must expand to resolvable IRIs (rule 6)"),
    RuleInfo("R06-NONPURL", INFO,
             "absolute identifier under a registered ontology prefix is not in permanent-URL form",
             "use the permanent-URL form for registered prefixes (rule 6)"),
    RuleInfo("R06-DUP-IRI", ERROR,
             "one identifier is claimed by more than one term",
             "identifiers must be unique across the vocabulary (rule 6)"),
    RuleInfo("R07-MISSING-DEF", WARNING,
             "live term has no definition",
             "define every term (rule 7)"),
    RuleInfo("R07-MISSING-SOURCE", INFO,
             "definition cites no source",
             "provide sources for definitions (rule 7)"),
    RuleInfo("R07-FORM", INFO,
             "definition does not follow the genus-differentia template",
             "prefer 'X is a <parent> that <differentia>' definitions (rule 7)"),
    RuleInfo("R07-GENUS-MISMATCH", INFO,
             "definition genus does not mention any declared parent",
             "the defining genus should state the parent class (rule 7)"),
    RuleInfo("R07-DUPLICATE-DEF", WARNING,
             "two or more live terms share one definition text",
             "definitions must be unique across terms (rule 7)"),
    RuleInfo("R07-SELF-REF", WARNING,
             "definition mentions the term's own label",
             "definitions must be non-circular (rule 7)"),
    RuleInfo("R07-CIRCULAR", WARNING,
             "definitions of distinct terms mention each other in a cycle",
             "definitions must be non-circular (rule 7)"),
    RuleInfo("R08-LABEL", WARNING,
             "deprecated term's label is not marked obsolete",
             "prepend 'obsolete' to deprecated labels (rule 8)"),
    RuleInfo("R08-NO-REPLACEMENT", INFO,
             "deprecated term names no replacement",
             "point deprecated terms at their replacements (rule 8)"),
    RuleInfo("R08-DANGLING", ERROR,
             "replacement points at a term absent from the vocabulary",
             "replacement targets must exist (rule 8)"),
    RuleInfo("R08-CHAIN", INFO,
             "replacement points at another deprecated term",
             "replacements should resolve to live terms (rule 8)"),
    RuleInfo("R08-CYCLE", ERROR,
             "replacement chain loops back on itself",
             "replacement chains must terminate (rule 8)"),
    RuleInfo("R08-LIVE-REPLACED", WARNING,
             "live term carries a replacement pointer",
             "only deprecated terms should name replacements (rule 8)"),
    RuleInfo("R08-OBSOLETE-PARENT", WARNING,
             "live term lists a deprecated parent",
             "re-home children of deprecated terms (rule 8)"),
    RuleInfo("R09-BOOLEAN", WARNING,
             "tag value is a bare boolean instead of a self-describing phrase",
             "avoid boolean tag values (rule 9)"),
    RuleInfo("R09-NEGATIVE-TAG", INFO,
             "tag value records the absence of something",
             "tag what is present, not what is absent (rule 9)"),
    RuleInfo("C-SEMANTIC-NOISE", WARNING,
             "one label denotes different concepts under different identifiers",
             "pathology: semantic noise"),
    RuleInfo("C-SYNONYM-CLASH", INFO,
             "synonym collides with another term's label or synonym",
             "pathology: semantic noise"),
    RuleInfo("C-WORD-BOMB", INFO,
             "label family enumerates modifier combinations over one head noun",
             "pathology: word bombs"),
    RuleInfo("C-CONCEPT-BOMB", WARNING,
             "label packs several independent assertions into one value",
             "pathology: concept bombs"),
    RuleInfo("C-TIMELINE", WARNING,
             "label anchors its meaning to a moving point in time",
             "pathology: timeline terms"),
    RuleInfo("PARSE", ERROR,
             "input file could not be fully parsed",
             "malformed input reported in place"),
]

RULES: dict[str, RuleInfo] = {r.rule_id: r for r in _RULES}
