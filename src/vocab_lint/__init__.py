"""vocab-lint: a static analyzer for controlled vocabularies and picklists.

Checks term labels, definitions, identifiers, and deprecation practice;
suggests existing terms to reuse before new ones are minted; and scores
ontology maintenance health from metadata snapshots.
"""

__version__ = "0.1.0"

from .catalog import RULES, RuleInfo
from .engine import (
    ConfigError,
    LintFatalError,
    Report,
    RuleConfig,
    exit_code,
    load_config,
    render_report,
    run_lint,
)
from .ingest import FatalParseError, parse_obo, parse_term_table, serialize_obo
from .model import (
    Definition,
    Finding,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    Vocabulary,
    build_vocabulary,
    merge_vocabularies,
    normalize_label,
)

# The health scorer and the reuse suggester, which a `check` run never
# calls, load on first access to one of their names (PEP 562).
_DEFERRED = {
    "HealthReport": "health", "OntologyMetadata": "health",
    "assess_health": "health", "load_metadata": "health",
    "ReuseIndex": "reuse", "Suggestion": "reuse",
    "build_index": "reuse", "suggest_terms": "reuse",
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    return value


__all__ = [
    "__version__",
    "ConfigError",
    "Definition",
    "FatalParseError",
    "Finding",
    "HealthReport",
    "Iri",
    "LintFatalError",
    "OntologyMetadata",
    "Report",
    "ReuseIndex",
    "RuleConfig",
    "RuleInfo",
    "RULES",
    "SourceLocation",
    "Suggestion",
    "Synonym",
    "Term",
    "Vocabulary",
    "assess_health",
    "build_index",
    "build_vocabulary",
    "exit_code",
    "load_config",
    "load_metadata",
    "merge_vocabularies",
    "normalize_label",
    "parse_obo",
    "parse_term_table",
    "render_report",
    "run_lint",
    "serialize_obo",
    "suggest_terms",
]
