"""Command-line interface: check, suggest, health, rules.

Exit codes: 0 clean, 1 findings at or above the fail threshold,
2 unusable input or configuration.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NoReturn

import click

from . import __version__
from .catalog import RULES, SEVERITIES
from .engine import (
    FORMATS,
    ConfigError,
    LintFatalError,
    RuleConfig,
    build_prefix_map,
    exit_code,
    load_config,
    parse_input,
    read_text,
    render_report,
    run_lint,
)
from .health import SUBSCORE_NAMES, assess_health, load_metadata
from .model import build_vocabulary
from .reuse import EmptyQueryError, build_index, suggest_terms

FATAL_EXIT = 2


def _fail(message: str) -> NoReturn:
    click.echo(f"vocab-lint: error: {message}", err=True)
    sys.exit(FATAL_EXIT)


def _load_config_or_default(path: str | None) -> RuleConfig:
    if path is None:
        return RuleConfig()
    try:
        return load_config(path)
    except ConfigError as exc:
        _fail(str(exc))


def _use_color(output: str) -> bool:
    if output != "text":
        return False
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


@click.group()
@click.version_option(version=__version__, prog_name="vocab-lint")
def main() -> None:
    """Static analysis for controlled vocabularies and data-dictionary
    picklists."""


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None,
              help="Force the input format instead of inferring from suffixes.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file.")
@click.option("--output", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="Report format.")
@click.option("--fail-on", type=click.Choice(list(SEVERITIES)), default=None,
              help="Lowest severity that makes the run fail (default: warning).")
@click.option("--rule", "rules", multiple=True, metavar="PATTERN",
              help="Only run rules matching this glob pattern (repeatable).")
@click.option("--suppress", "suppressions", multiple=True, metavar="RULE:SUBJECT",
              help="Drop findings of RULE whose subject matches (repeatable).")
@click.option("--per-file", is_flag=True,
              help="Lint each file in isolation instead of the merged vocabulary.")
def check(files, fmt, config_path, output, fail_on, rules, suppressions, per_file):
    """Lint vocabulary FILES and report findings."""
    config = _load_config_or_default(config_path)
    if rules:
        config.enabled_rules = tuple(rules)
    if fail_on is not None:
        config.fail_threshold = fail_on
    if per_file:
        config.per_file = True
    extra = []
    for item in suppressions:
        rule_id, sep, subject = item.partition(":")
        if not sep or not rule_id or not subject:
            _fail(f"--suppress needs RULE:SUBJECT, got {item!r}")
        if rule_id not in RULES:
            _fail(f"--suppress names unknown rule {rule_id!r}")
        extra.append((rule_id, subject))
    if extra:
        config.suppressions = config.suppressions + tuple(extra)
    try:
        report = run_lint(config, [(path, fmt) for path in files])
    except (ConfigError, LintFatalError) as exc:
        _fail(str(exc))
    click.echo(render_report(report, output=output, color=_use_color(output)),
               nl=False)
    sys.exit(exit_code(report, config))


@main.command()
@click.argument("queries", nargs=-1, required=True)
@click.option("--references", "references", multiple=True, type=click.Path(),
              help="Reference vocabulary to search (repeatable).")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file (reference_paths are used).")
@click.option("-k", "top_k", type=int, default=5, show_default=True,
              help="Suggestions per query.")
@click.option("--output", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def suggest(queries, references, config_path, top_k, output):
    """Suggest existing terms to reuse for each proposed label in QUERIES."""
    config = _load_config_or_default(config_path)
    paths = tuple(config.reference_paths) + tuple(references)
    if not paths:
        _fail("no reference vocabularies; pass --references or set reference_paths")
    try:
        prefixes = build_prefix_map(config)
        vocabs = []
        for path in paths:
            vocab, _ = parse_input(path, None)
            vocabs.append(build_vocabulary(vocab.terms,
                                           {**vocab.prefix_map, **prefixes.entries}))
    except (ConfigError, LintFatalError) as exc:
        _fail(str(exc))
    index = build_index(vocabs)
    rows = []
    for query in queries:
        try:
            matches = suggest_terms(index, query, k=top_k)
        except EmptyQueryError:
            _fail(f"query {query!r} is empty after normalization")
        rows.append((query, matches))
    if output == "json":
        payload = {"queries": [
            {"query": query,
             "suggestions": [
                 {"label": s.term.label,
                  "iri": s.term.iri.value if s.term.iri else None,
                  "score": s.score,
                  "match_kind": s.match_kind,
                  "reuse_count": s.reuse_count}
                 for s in matches]}
            for query, matches in rows]}
        click.echo(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
        return
    for query, matches in rows:
        click.echo(f"query: {query}")
        if not matches:
            click.echo("  (no candidates)")
            continue
        for rank, s in enumerate(matches, start=1):
            iri = s.term.iri.value if s.term.iri else "(no iri)"
            click.echo(f"  {rank}. {s.term.label}  score {s.score:.3f}  "
                       f"{s.match_kind}  reused-in {s.reuse_count}  {iri}")


@main.command()
@click.option("--metadata", "metadata_path", type=click.Path(), default=None,
              help="Metadata snapshot file (overrides the config).")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file.")
@click.option("--output", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def health(metadata_path, config_path, output):
    """Score maintenance health of the ontologies in a metadata snapshot."""
    config = _load_config_or_default(config_path)
    path = metadata_path or config.metadata_path
    if path is None:
        _fail("no metadata snapshot; pass --metadata or set metadata_path")
    try:
        records, notes = load_metadata(read_text("metadata ", path))
        reports = [assess_health(record, config.health_weights) for record in records]
    except (ConfigError, ValueError) as exc:
        _fail(str(exc))
    if output == "json":
        payload = {
            "notes": notes,
            "ontologies": [
                {"name": r.name, "subscores": r.subscores, "composite": r.composite,
                 "verdict": r.verdict, "notes": list(r.notes)}
                for r in reports],
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
        return
    for note in notes:
        click.echo(f"note: {note}")
    for r in reports:
        click.echo(f"{r.name}: {r.verdict} (composite {r.composite:.2f})")
        for name in SUBSCORE_NAMES:
            click.echo(f"  {name:<15} {r.subscores[name]:.2f}")
        for note in r.notes:
            click.echo(f"  note: {note}")
    if not reports:
        click.echo("no usable metadata records")


@main.command()
def rules() -> None:
    """List every rule with its default severity."""
    width = max(len(rule_id) for rule_id in RULES)
    for rule_id in sorted(RULES):
        info = RULES[rule_id]
        click.echo(f"{rule_id:<{width}}  {info.default_severity:<7}  {info.summary}")


if __name__ == "__main__":
    main()
