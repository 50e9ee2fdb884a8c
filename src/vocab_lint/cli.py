"""Command-line interface: check, suggest, health, rules.

Exit codes: 0 clean, 1 findings at or above the fail threshold,
2 unusable input or configuration, 3 an internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .catalog import RULES, SEVERITIES
from .engine import (
    FORMATS,
    ConfigError,
    LintFatalError,
    RuleConfig,
    build_prefix_map,
    collector_paused,
    exit_code,
    format_finding,
    load_config,
    parse_input,
    read_text,
    render_report,
    run_lint,
)
from .model import build_vocabulary

FATAL_EXIT = 2
INTERNAL_EXIT = 3


def _fail(message: str) -> NoReturn:
    print(f"vocab-lint: error: {message}", file=sys.stderr)
    sys.exit(FATAL_EXIT)


def _load_config_or_default(path: str | None) -> RuleConfig:
    return RuleConfig() if path is None else load_config(path)


def _use_color(output: str) -> bool:
    if output != "text":
        return False
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def check(args: argparse.Namespace) -> int:
    """Lint vocabulary FILES and report findings."""
    config = _load_config_or_default(args.config)
    extra = []
    for item in args.suppressions:
        rule_id, sep, subject = item.partition(":")
        if not sep or not rule_id or not subject:
            _fail(f"--suppress needs RULE:SUBJECT, got {item!r}")
        extra.append((rule_id, subject))
    config = dataclasses.replace(
        config, enabled_rules=tuple(args.rules) or config.enabled_rules,
        fail_threshold=args.fail_on or config.fail_threshold,
        per_file=args.per_file or config.per_file,
        suppressions=config.suppressions + tuple(extra))
    report = run_lint(config, [(path, args.format) for path in args.files])
    print(render_report(report, output=args.output, color=_use_color(args.output)), end="")
    return exit_code(report, config)


def suggest(args: argparse.Namespace) -> int:
    """Suggest existing terms to reuse for each proposed label in QUERIES."""
    from .reuse import EmptyQueryError, build_index, suggest_terms

    config = _load_config_or_default(args.config)
    paths = tuple(config.reference_paths) + tuple(args.references)
    if not paths:
        _fail("no reference vocabularies; pass --references or set reference_paths")
    prefixes = build_prefix_map(config)
    vocabs = []
    for path in paths:
        vocab, problems = parse_input(path, None)
        # A reference's parse problems go to stderr in check's form, so
        # stdout holds only the suggestions.
        for finding in sorted(problems, key=lambda f: f.location.line):
            print(format_finding(finding), file=sys.stderr)
        vocabs.append(build_vocabulary(vocab.terms, prefixes.entries))
    index = build_index(vocabs)
    rows = []
    for query in args.queries:
        try:
            matches = suggest_terms(index, query, k=args.top_k)
        except EmptyQueryError:
            _fail(f"query {query!r} is empty after normalization")
        rows.append((query, matches))
    if args.output == "json":
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
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
        return 0
    for query, matches in rows:
        print(f"query: {query}")
        if not matches:
            print("  (no candidates)")
            continue
        for rank, s in enumerate(matches, start=1):
            iri = s.term.iri.value if s.term.iri else "(no iri)"
            print(f"  {rank}. {s.term.label}  score {s.score:.3f}  "
                  f"{s.match_kind}  reused-in {s.reuse_count}  {iri}")
    return 0


def health(args: argparse.Namespace) -> int:
    """Score maintenance health of the ontologies in a metadata snapshot."""
    from .health import SUBSCORE_NAMES, assess_health, load_metadata

    config = _load_config_or_default(args.config)
    path = args.metadata or config.metadata_path
    if path is None:
        _fail("no metadata snapshot; pass --metadata or set metadata_path")
    records, notes = load_metadata(read_text("metadata ", path))
    reports = [assess_health(record, config.health_weights) for record in records]
    if args.output == "json":
        payload = {
            "notes": notes,
            "ontologies": [
                {"name": r.name, "subscores": r.subscores, "composite": r.composite,
                 "verdict": r.verdict, "notes": list(r.notes)}
                for r in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
        return 0
    for note in notes:
        print(f"note: {note}")
    for r in reports:
        print(f"{r.name}: {r.verdict} (composite {r.composite:.2f})")
        for name in SUBSCORE_NAMES:
            print(f"  {name:<15} {r.subscores[name]:.2f}")
        for note in r.notes:
            print(f"  note: {note}")
    if not reports:
        print("no usable metadata records")
    return 0


def rules(args: argparse.Namespace) -> int:
    """List every rule with its default severity."""
    width = max(map(len, RULES))
    for rule_id in sorted(RULES):
        info = RULES[rule_id]
        print(f"{rule_id:<{width}}  {info.default_severity:<7}  {info.summary}")
    return 0


COMMANDS = {command.__name__: command for command in (check, suggest, health, rules)}


def count(text: str) -> int:
    """The value of -k: an integer of at least 1. argparse names this type in
    its error for a value that is no integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The argument parser of one subcommand. Options may come between
    positional arguments, and must be spelled out in full."""
    parser = argparse.ArgumentParser(prog=f"vocab-lint {name}", allow_abbrev=False,
                                     description=COMMANDS[name].__doc__)
    add = parser.add_argument
    if name == "check":
        add("files", nargs="+", metavar="FILES")
        add("--format", choices=FORMATS,
            help="Force the input format instead of inferring from suffixes.")
        add("--fail-on", choices=SEVERITIES,
            help="Lowest severity that makes the run fail (default: warning).")
        add("--rule", dest="rules", action="append", default=[], metavar="PATTERN",
            help="Only run rules matching this glob pattern (repeatable).")
        add("--suppress", dest="suppressions", action="append", default=[],
            metavar="RULE:SUBJECT",
            help="Drop findings of RULE whose subject matches (repeatable).")
        add("--per-file", action="store_true",
            help="Lint each file in isolation instead of the merged vocabulary.")
    elif name == "suggest":
        add("queries", nargs="+", metavar="QUERIES")
        add("--references", action="append", default=[],
            help="Reference vocabulary to search (repeatable).")
        add("-k", dest="top_k", type=count, default=5,
            help="Suggestions per query (default: 5).")
    elif name == "health":
        add("--metadata", help="Metadata snapshot file (overrides the config).")
    if name != "rules":
        add("--config", help="JSON configuration file.")
        add("--output", choices=("text", "json"), default="text",
            help="Report format (default: text).")
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Parse argv, run one subcommand and exit with its code. An error the
    program raises itself prints as "vocab-lint: error: ..." and exits 2; any
    other exception prints its traceback and exits 3, so that it cannot pass
    for findings."""
    top = argparse.ArgumentParser(
        prog="vocab-lint", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Static analysis for controlled vocabularies and "
                    "data-dictionary picklists.",
        epilog="commands:\n" + "\n".join(f"  {name:<9}{command.__doc__}"
                                         for name, command in COMMANDS.items()))
    top.add_argument("--version", action="version", version=f"vocab-lint, version {__version__}")
    top.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                     help="one of the commands below")
    top.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                     help="the command's files and options; see vocab-lint COMMAND --help")
    parsed = top.parse_args(argv)
    args = _command_parser(parsed.command).parse_intermixed_args(parsed.args)
    try:
        with collector_paused():
            code = COMMANDS[parsed.command](args)
    except (ConfigError, LintFatalError) as exc:
        _fail(str(exc))
    except Exception:
        import traceback  # only a failing run pays for this import

        traceback.print_exc()
        sys.exit(INTERNAL_EXIT)
    sys.exit(code)


if __name__ == "__main__":
    main()
