import copy
import dataclasses
import gc
import json
import pickle
import re
import sys
import tempfile
from fnmatch import fnmatchcase
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocab_lint import definitions, identity, lexical, model
from vocab_lint.catalog import RULES, SEVERITIES
from vocab_lint.engine import (
    CHECKS,
    CONFIG_KEYS,
    PHRASING,
    VOCABULARY,
    CheckContext,
    ConfigError,
    InputSummary,
    LintFatalError,
    Report,
    RuleConfig,
    _sort_key,
    build_lexicons,
    build_prefix_map,
    exit_code,
    infer_format,
    load_config,
    parse_input,
    read_text,
    render_report,
    run_lint,
)
from vocab_lint.health import _PARSERS, OntologyMetadata
from vocab_lint.ingest import TSV_COLUMNS, serialize_obo
from vocab_lint.lexical import Lexicons
from vocab_lint.model import (Finding, Iri, SourceLocation, Vocabulary, expand_iri,
                              merge_vocabularies, normalize_label)

from test_acceptance import corpus_inputs, scale_inputs
from test_vocabulary_oracles import TERMS as MODEL_TERMS

PREFIX_FILE = "EX\thttps://example.org/EX_\texternal\n"

OBO_PLASMA_A = """\
format-version: 1.2

[Term]
id: NCIT:C13356
name: plasma
def: "The liquid component of blood is a body fluid that carries cells." [PMID:1]
"""

OBO_PLASMA_B = """\
format-version: 1.2

[Term]
id: ENVO:01000798
name: plasma
def: "An environmental watery material is an aquatic substance that results from separation." [PMID:2]
"""

OBO_LFT = """\
format-version: 1.2

[Term]
id: EX:0000002
name: LFT
def: "A liver function test is a test battery that measures liver enzymes." [PMID:3]
"""

OBO_PARSE = """\
format-version: 1.2

[Term]
name: nameless
def: "Something unlabeled is a thing that exists." [PMID:4]

[Term]
id: EX:0000005
name: first
def: "An initial entry is a thing that exists." [PMID:5]

[Term]
id: EX:0000005
name: second
def: "A later entry is a thing that exists." [PMID:6]
"""

OBO_TAGS = """\
format-version: 1.2

[Term]
id: EX:0000010
name: sequencing run
def: "A nucleotide reading process is a procedure that reads strands." [PMID:7]
comment: no review needed
primer_check: yes
quality_note: fine baseline

[Term]
id: EX:0000011
name: obsolete assay panel
is_obsolete: true
"""

OBO_OBSOLETE_LEXICAL = """\
format-version: 1.2

[Term]
id: EX:0000012
name: obsolete LFT panel
is_obsolete: true
replaced_by: EX:0000013

[Term]
id: EX:0000013
name: liver panel
def: "A hepatic battery is a test battery that measures liver markers." [PMID:8]
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# The findings whose severity is not their rule's catalog default: a non-
# prefix note, a colloquial-synonym note, and a phrasing finding on an
# obsolete term.
OBO_SEVERITY_NOTES = """\
[Term]
id: EX:1
name: nonsmoker
synonym: "tummy" EXACT []

[Term]
id: EX:2
name: obsolete cats and dogs
is_obsolete: true
"""

# (rule id, message prefix) of the two info notes.
INFO_NOTES = (("R02-NEGATIVE", "label uses a negative prefix"),
              ("R03-COLLOQUIAL", "synonym "))


@pytest.fixture
def ex_config(tmp_path):
    return RuleConfig(prefix_map_path=write(tmp_path, "prefixes.tsv", PREFIX_FILE))


def rule_ids(report):
    return [f.rule_id for f in report.findings]


# Each malformed configuration and the message it is rejected with.
BAD_CONFIGS = [
    ('{"surprise": 1}', "config {path} has unknown keys: ['surprise']"),
    ('["list"]', "config {path} must be a JSON object"),
    ('not json', "config {path} is not valid JSON: Expecting value: line 1 column 1"),
    ('{"enabled_rules": []}', "enabled_rules must be a non-empty list of patterns"),
    ('{"enabled_rules": "R0*"}', "enabled_rules must be a non-empty list of patterns"),
    ('{"severity_overrides": ["R02-PLURAL"]}', "severity_overrides must be an object"),
    ('{"severity_overrides": {"NOPE": "info"}}', "severity override for unknown rule 'NOPE'"),
    ('{"severity_overrides": {"R02-PLURAL": "fatal"}}',
     "severity override for R02-PLURAL must be one of ('error', 'warning', 'info')"),
    ('{"suppressions": "R02-PLURAL"}', "suppressions must be a list"),
    ('{"suppressions": [["R02-PLURAL"]]}', "each suppression must be a [rule-id, subject] pair"),
    ('{"suppressions": [["NOPE", "x"]]}', "suppression for unknown rule 'NOPE'"),
    ('{"fail_threshold": "silent"}',
     "fail_threshold must be one of ('error', 'warning', 'info')"),
    ('{"prefix_map_path": 7}', "prefix_map_path must be a string"),
    ('{"lexicon_overrides": ["colloquial.txt"]}',
     "lexicon_overrides must map lexicon names to file paths"),
    ('{"lexicon_overrides": {"colloquial_map": 7}}',
     "lexicon_overrides must map lexicon names to file paths"),
    ('{"reference_paths": "refs.obo"}', "reference_paths must be a list of paths"),
    ('{"reference_paths": [7]}', "reference_paths must be a list of paths"),
    ('{"metadata_path": ["snapshot.txt"]}', "metadata_path must be a string"),
    ('{"health_weights": {"activity": "lots"}}',
     "health_weights must map subscore names to numbers"),
    ('{"health_weights": {"activity": true}}',
     "health_weights must map subscore names to numbers"),
    ('{"health_weights": {"activty": 1.0}}', "unknown subscore weights: ['activty']"),
    ('{"health_weights": {"activity": 0.5}}', "weights must sum to 1, got 0.5"),
    ('{"health_weights": {"activity": NaN}}', "weights must sum to 1, got nan"),
    ('{"health_weights": {"activity": 1e999}}', "weights must sum to 1, got inf"),
    ('{"health_weights": {"activity": 1%s}}' % ("0" * 400), "int too large to convert to float"),
    ('{"per_file": 1%s}' % ("0" * 5000),
     "config {path} is not valid JSON: Exceeds the limit (4300 digits)"),
    ("[" * 100_000, "config {path} is not valid JSON: maximum recursion depth exceeded"),
    ('{"concept_bomb_token_threshold": 1}', "complexity thresholds must be >= 2"),
    ('{"concept_bomb_token_threshold": "seven"}', "complexity thresholds must be integers"),
    ('{"concept_bomb_token_threshold": true}', "complexity thresholds must be integers"),
    ('{"word_bomb_min_group": 1}', "complexity thresholds must be >= 2"),
    ('{"word_bomb_min_group": 4.5}', "complexity thresholds must be integers"),
    ('{"word_bomb_min_group": false}', "complexity thresholds must be integers"),
    ('{"per_file": "yes"}', "per_file must be a boolean"),
]


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        write(tmp_path, "prefixes.tsv", PREFIX_FILE)
        path = write(tmp_path, "config.json", json.dumps({
            "enabled_rules": ["R0*", "C-*"],
            "severity_overrides": {"R02-PLURAL": "warning"},
            "suppressions": [["R05-ABBREV", "LFT"]],
            "fail_threshold": "error",
            "prefix_map_path": "prefixes.tsv",
            "lexicon_overrides": {"colloquial_map": "lex/colloquial.txt"},
            "reference_paths": ["refs/clinical.obo"],
            "metadata_path": "snapshot.txt",
            "health_weights": {"activity": 1},
            "concept_bomb_token_threshold": 9,
            "word_bomb_min_group": 4,
            "per_file": True,
        }))
        cfg = load_config(path)
        assert cfg.enabled_rules == ("R0*", "C-*")
        assert cfg.severity_overrides == {"R02-PLURAL": "warning"}
        assert cfg.suppressions == (("R05-ABBREV", "LFT"),)
        assert cfg.fail_threshold == "error"
        assert cfg.prefix_map_path == str(tmp_path / "prefixes.tsv")
        assert cfg.lexicon_overrides == {
            "colloquial_map": str(tmp_path / "lex" / "colloquial.txt")}
        assert cfg.reference_paths == (str(tmp_path / "refs" / "clinical.obo"),)
        assert cfg.metadata_path == str(tmp_path / "snapshot.txt")
        assert cfg.health_weights == {"activity": 1.0}
        assert cfg.concept_bomb_token_threshold == 9
        assert cfg.word_bomb_min_group == 4
        assert cfg.per_file is True

    def test_defaults_when_empty(self, tmp_path):
        cfg = load_config(write(tmp_path, "config.json", "{}"))
        assert cfg == RuleConfig()

    def test_null_paths_and_weights_load_as_the_defaults(self, tmp_path):
        path = write(tmp_path, "config.json", json.dumps(
            {"prefix_map_path": None, "metadata_path": None, "health_weights": None}))
        assert load_config(path) == RuleConfig()

    @pytest.mark.parametrize("payload, message", BAD_CONFIGS,
                             ids=[payload for payload, _ in BAD_CONFIGS])
    def test_bad_configs_rejected(self, tmp_path, payload, message):
        path = write(tmp_path, "config.json", payload)
        with pytest.raises(ConfigError, match=re.escape(message.replace("{path}", path))):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_absolute_paths_kept(self, tmp_path):
        path = write(tmp_path, "config.json",
                     json.dumps({"metadata_path": "/data/snapshot.txt"}))
        assert load_config(path).metadata_path == "/data/snapshot.txt"


# Strings a configuration's values may name: paths to the files of
# `reader_dir`, rule patterns and ids, severities, lexicon and subscore names.
_CONFIG_WORDS = st.sampled_from([
    "prefixes.tsv", "bad.tsv", "lexicon.txt", "terms.obo", ".", "", "a\x00b", "*", "R0*",
    "R02-PLURAL", "NOPE", "error", "info", "colloquial_map", "timeline_phrases", "activity"])
# No "/": a drawn path stays inside `reader_dir` or names its parent.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(10 ** 400)
    | _CONFIG_WORDS | st.text(st.characters(blacklist_characters="/"), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_CONFIG_WORDS | st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_CONFIG_TEXTS = st.one_of(
    st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS)), _JSON_VALUES, max_size=4),
    _JSON_VALUES).map(json.dumps)


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    """A directory with a good and a bad prefix map, a lexicon file and a term
    file, where a drawn configuration is written."""
    directory = tmp_path_factory.mktemp("reader")
    for name, text in (("prefixes.tsv", PREFIX_FILE), ("bad.tsv", "EX only\n"),
                       ("lexicon.txt", "icky -> gross\n"), ("terms.obo", OBO_LFT)):
        write(directory, name, text)
    return directory


@settings(max_examples=40, deadline=None)
@given(_CONFIG_TEXTS)
# An integer past the interpreter's digit limit, nesting past its recursion
# limit, and weights that are NaN, infinite or too large for a float.
@example('{"word_bomb_min_group": ' + "9" * 5000 + "}")
@example("[" * 100_000 + "]" * 100_000)
@example('{"health_weights": {"activity": NaN}}')
@example('{"health_weights": {"activity": 1e999}}')
@example('{"health_weights": {"activity": ' + "1" * 400 + "}}")
def test_a_config_loads_or_is_rejected_and_its_run_fails_only_as_documented(reader_dir, text):
    path = write(reader_dir, "config.json", text)
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert isinstance(config, RuleConfig)
    try:
        run_lint(config, [(str(reader_dir / "terms.obo"), None)])
    except (ConfigError, LintFatalError):
        pass


# Values a library caller could pass to RuleConfig, each once rejected only
# by load_config, and the message each is now rejected with when built.
BAD_FIELDS = [
    ({"severity_overrides": {"R02-NEGATIVE": "bogus"}},
     "severity override for R02-NEGATIVE must be one of ('error', 'warning', 'info')"),
    ({"fail_threshold": "bogus"}, "fail_threshold must be one of ('error', 'warning', 'info')"),
    ({"suppressions": (("NOPE", "x"),)}, "suppression for unknown rule 'NOPE'"),
    ({"enabled_rules": "R02-*"}, "enabled_rules must be a non-empty list of patterns"),
    ({"health_weights": {"activity": -1.0}}, "weights must be non-negative"),
    ({"prefix_map_path": 7}, "prefix_map_path must be a string"),
    ({"metadata_path": b"m.txt"}, "metadata_path must be a string"),
    ({"lexicon_overrides": None}, "lexicon_overrides must map lexicon names to file paths"),
    ({"lexicon_overrides": {7: "c.txt"}},
     "lexicon_overrides must map lexicon names to file paths"),
    ({"reference_paths": "ab"}, "reference_paths must be a list of paths"),
    ({"concept_bomb_token_threshold": 2.5}, "complexity thresholds must be integers"),
    ({"word_bomb_min_group": float("nan")}, "complexity thresholds must be integers"),
    ({"concept_bomb_token_threshold": "9"}, "complexity thresholds must be integers"),
    ({"word_bomb_min_group": True}, "complexity thresholds must be integers"),
    ({"concept_bomb_token_threshold": 1}, "complexity thresholds must be >= 2"),
    ({"word_bomb_min_group": 1}, "complexity thresholds must be >= 2"),
]

# Plausible and hostile values for each checked field of RuleConfig.
_FIELD_VALUES = {
    "enabled_rules": st.sampled_from([
        ("*",), ["R0*", "C-*"], ("PARSE",), ("R02-*", "R02-*"), (), [], "R02-*", ("R6-*",),
        ("*", 7), None, 3]),
    "severity_overrides": st.sampled_from([
        {}, {"R02-NEGATIVE": "info"}, {"R05-ABBREV": "error", "PARSE": "info"},
        {"R02-NEGATIVE": "bogus"}, {"NOPE": "error"}, {7: "info"}, [("R05-ABBREV", "info")],
        None, 3]),
    "suppressions": st.sampled_from([
        (), [["R05-ABBREV", "LFT"]], (("R05-ABBREV", "EX:0000002"), ("PARSE", "")),
        (("NOPE", "x"),), (("R05-ABBREV",),), ("R05-ABBREV", "LFT"), (("R05-ABBREV", 7),),
        "R05-ABBREV:LFT", None, 3]),
    "fail_threshold": st.sampled_from(SEVERITIES) | st.sampled_from(["bogus", "", None, 3]),
    "per_file": st.sampled_from([True, False, 0, 1, None, "yes"]),
    "concept_bomb_token_threshold": st.sampled_from([7, 2, 9, 2.5, float("nan"), True, "7",
                                                     None, 1]),
    "word_bomb_min_group": st.sampled_from([5, 2, 3, 2.5, float("nan"), True, "7", None, 1]),
    "health_weights": st.sampled_from([
        None, {"activity": 1.0}, {"activity": 1}, {"activity": 0.5, "reuse": 0.5},
        {"activity": -1.0}, {"activity": 2.0, "reuse": -1.0}, {"activity": float("nan")},
        {"activity": float("inf")}, {"activity": 10 ** 400}, {"activity": True},
        {"activty": 1.0}, {1: 1.0, "activity": 0.0}, {}, [("activity", 1.0)], 3]),
    "prefix_map_path": st.sampled_from([
        None, str(Path(__file__).parent / "fixtures" / "example_corpus" / "prefixes.tsv"),
        7, b"p.tsv", ["p.tsv"]]),
    "lexicon_overrides": st.sampled_from([
        {}, {"colloquial_map": 7}, {7: "c.txt"}, ["colloquial_map"], None, 3]),
    "reference_paths": st.sampled_from([(), ["r.obo"], ("r.obo", "s.tsv"), "ab", [7], None]),
    "metadata_path": st.sampled_from([None, "m.txt", 7, ["m.txt"]]),
}


class TestRuleConfig:
    @pytest.mark.parametrize("fields, message", BAD_FIELDS,
                             ids=[next(iter(fields)) for fields, _ in BAD_FIELDS])
    def test_a_bad_field_is_rejected_when_built(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RuleConfig(**fields)

    def test_fields_are_read_only(self):
        config = RuleConfig(severity_overrides={"R02-NEGATIVE": "info"},
                            lexicon_overrides={"colloquial_map": "colloquial.txt"},
                            health_weights={"activity": 1})
        for name in ("severity_overrides", "lexicon_overrides", "health_weights"):
            with pytest.raises(TypeError):
                getattr(config, name)["R02-NEGATIVE"] = "bogus"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.fail_threshold = "bogus"
        assert config.health_weights == {"activity": 1.0}

    def test_lists_are_stored_as_tuples(self):
        config = RuleConfig(enabled_rules=["R0*"], suppressions=[["R05-ABBREV", "LFT"]],
                            reference_paths=["r.obo"])
        assert config.enabled_rules == ("R0*",)
        assert config.suppressions == (("R05-ABBREV", "LFT"),)
        assert config.reference_paths == ("r.obo",)

    @pytest.mark.parametrize("copied", [copy.copy, copy.deepcopy,
                                        lambda value: pickle.loads(pickle.dumps(value))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_equal_the_original(self, copied):
        config = RuleConfig(enabled_rules=("R0*",), severity_overrides={"R02-PLURAL": "info"},
                            suppressions=(("R05-ABBREV", "LFT"),), fail_threshold="error",
                            prefix_map_path="p.tsv", lexicon_overrides={"colloquial_map": "c"},
                            reference_paths=("r.obo",), metadata_path="m.txt",
                            health_weights={"activity": 1.0},
                            concept_bomb_token_threshold=9, word_bomb_min_group=4,
                            per_file=True)
        for value in (config, RuleConfig()):
            twin = copied(value)
            assert twin == value
            assert type(twin.severity_overrides) is type(value.severity_overrides)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=_FIELD_VALUES))
def test_a_rule_config_is_rejected_or_its_run_raises_nothing(reader_dir, fields):
    try:
        config = RuleConfig(**fields)
    except ConfigError:
        return
    report = run_lint(config, [(str(reader_dir / "terms.obo"), None)])
    assert exit_code(report, config) in (0, 1)


FORMATS_DOC = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def documented_names(section):
    """The first column of the table in the `## section` part of docs/formats.md."""
    body = FORMATS_DOC.read_text(encoding="utf-8").split(f"\n## {section}\n")[1]
    rows = [line for line in body.split("\n## ")[0].splitlines() if line.startswith("|")]
    return sorted(row.split("|")[1].strip().strip("`") for row in rows[2:])


@pytest.mark.parametrize("section, code_names", [
    ("Tab-separated term table", [TSV_COLUMNS]),
    ("Lexicon override files", [[f.name for f in dataclasses.fields(Lexicons)]]),
    ("Metadata snapshot", [_PARSERS, [f.name for f in dataclasses.fields(OntologyMetadata)]]),
    ("Configuration JSON", [CONFIG_KEYS]),
], ids=["tsv-columns", "lexicons", "snapshot-keys", "config-keys"])
def test_formats_doc_tables_list_the_names_the_code_reads(section, code_names):
    for names in code_names:
        assert documented_names(section) == sorted(names)


class TestBuildHelpers:
    def test_lexicon_override_applied(self, tmp_path):
        lexfile = write(tmp_path, "colloquial.txt", "icky stuff -> contamination\n")
        cfg = RuleConfig(lexicon_overrides={"colloquial_map": lexfile})
        lex = build_lexicons(cfg)
        assert lex.colloquial_map["icky stuff"] == "contamination"

    def test_lexicon_file_missing(self, tmp_path):
        cfg = RuleConfig(lexicon_overrides={"colloquial_map": str(tmp_path / "nope")})
        with pytest.raises(ConfigError):
            build_lexicons(cfg)

    def test_lexicon_file_malformed(self, tmp_path):
        lexfile = write(tmp_path, "colloquial.txt", "no arrow\n")
        cfg = RuleConfig(lexicon_overrides={"colloquial_map": lexfile})
        with pytest.raises(ConfigError):
            build_lexicons(cfg)

    def test_prefix_map_default(self):
        assert "HP" in build_prefix_map(RuleConfig()).entries

    def test_prefix_map_from_file(self, ex_config):
        assert build_prefix_map(ex_config).entries["EX"] == "https://example.org/EX_"

    def test_prefix_map_missing(self, tmp_path):
        cfg = RuleConfig(prefix_map_path=str(tmp_path / "nope.tsv"))
        with pytest.raises(ConfigError):
            build_prefix_map(cfg)

    def test_prefix_map_malformed(self, tmp_path):
        cfg = RuleConfig(prefix_map_path=write(tmp_path, "bad.tsv", "EX only\n"))
        with pytest.raises(ConfigError):
            build_prefix_map(cfg)

    @pytest.mark.parametrize("name,fmt", [
        ("a.obo", "obo"), ("a.tsv", "tsv"), ("a.tab", "tsv"), ("A.OBO", "obo"),
    ])
    def test_infer_format(self, name, fmt):
        assert infer_format(name) == fmt

    def test_infer_format_unknown(self):
        with pytest.raises(LintFatalError):
            infer_format("terms.txt")

    def test_parse_input_format_override(self, tmp_path):
        path = write(tmp_path, "terms.txt", OBO_LFT)
        vocab, diags = parse_input(path, "obo")
        assert [t.label for t in vocab.terms] == ["LFT"] and diags == []

    def test_parse_input_unknown_format(self, tmp_path):
        path = write(tmp_path, "terms.obo", OBO_LFT)
        with pytest.raises(LintFatalError):
            parse_input(path, "xml")

    def test_parse_input_missing_file(self, tmp_path):
        with pytest.raises(LintFatalError):
            parse_input(str(tmp_path / "absent.obo"), "obo")

    def test_parse_input_fatal_table(self, tmp_path):
        path = write(tmp_path, "terms.tsv", "name\tiri\nx\tEX:1\n")
        with pytest.raises(LintFatalError):
            parse_input(path, "tsv")


class TestRunLint:
    def test_merged_vocabulary_sees_cross_file_noise(self, tmp_path):
        a = write(tmp_path, "a.obo", OBO_PLASMA_A)
        b = write(tmp_path, "b.obo", OBO_PLASMA_B)
        report = run_lint(RuleConfig(), [(a, None), (b, None)])
        assert rule_ids(report) == ["C-SEMANTIC-NOISE"]
        finding = report.findings[0]
        assert "ENVO_01000798" in finding.message
        assert finding.location.file == a

    def test_per_file_isolates_inputs(self, tmp_path):
        a = write(tmp_path, "a.obo", OBO_PLASMA_A)
        b = write(tmp_path, "b.obo", OBO_PLASMA_B)
        report = run_lint(RuleConfig(per_file=True), [(a, None), (b, None)])
        assert report.findings == ()
        assert report.counts == {"error": 0, "warning": 0, "info": 0}

    def test_input_summaries(self, tmp_path):
        a = write(tmp_path, "a.obo", OBO_PLASMA_A)
        report = run_lint(RuleConfig(), [(a, None)])
        summary, = report.inputs
        assert (summary.file, summary.format, summary.term_count) == (a, "obo", 1)

    def test_parse_diagnostics_become_findings(self, tmp_path, ex_config):
        path = write(tmp_path, "broken.obo", OBO_PARSE)
        report = run_lint(ex_config, [(path, None)])
        # The duplicate-id diagnostic points at the second id: line, which
        # sorts after the R06-DUP-IRI finding anchored to the first stanza.
        assert rule_ids(report) == ["PARSE", "R06-MISSING-IRI", "R06-DUP-IRI", "PARSE"]
        parse_findings = [f for f in report.findings if f.rule_id == "PARSE"]
        assert {f.severity for f in parse_findings} == {"warning", "error"}
        assert all(f.subject_label == "" for f in parse_findings)

    def test_enabled_rules_filter(self, tmp_path, ex_config):
        path = write(tmp_path, "broken.obo", OBO_PARSE)
        ex_config = dataclasses.replace(ex_config, enabled_rules=("R06-*",))
        report = run_lint(ex_config, [(path, None)])
        assert rule_ids(report) == ["R06-MISSING-IRI", "R06-DUP-IRI"]

    def test_rule_pattern_matching_no_rule_is_an_error(self, ex_config):
        with pytest.raises(ConfigError, match=r"^rule patterns match no rule: 'R6-\*', 'X'$"):
            dataclasses.replace(ex_config, enabled_rules=("R06-*", "R6-*", "X", "R6-*"))

    def test_no_rule_pattern_is_an_error(self, ex_config):
        with pytest.raises(ConfigError,
                           match=r"^enabled_rules must be a non-empty list of patterns$"):
            dataclasses.replace(ex_config, enabled_rules=())

    def test_enabled_rules_can_select_parse(self, tmp_path, ex_config):
        path = write(tmp_path, "broken.obo", OBO_PARSE)
        ex_config = dataclasses.replace(ex_config, enabled_rules=("PARSE",))
        report = run_lint(ex_config, [(path, None)])
        assert rule_ids(report) == ["PARSE", "PARSE"]

    def test_tag_values_checked_except_comment(self, tmp_path, ex_config):
        path = write(tmp_path, "tags.obo", OBO_TAGS)
        report = run_lint(ex_config, [(path, None)])
        booleans = [f for f in report.findings if f.rule_id == "R09-BOOLEAN"]
        assert len(booleans) == 1
        finding = booleans[0]
        assert finding.subject_label == "yes"
        assert finding.location == SourceLocation(file=path, line=3)
        assert [iri.value for iri in finding.subject_iris] == ["EX:0000010"]
        # The negative-phrased comment value never surfaces.
        assert not any(f.rule_id == "R09-NEGATIVE-TAG" for f in report.findings)

    def test_obsolete_terms_keep_lexical_findings_as_info(self, tmp_path, ex_config):
        path = write(tmp_path, "old.obo", OBO_OBSOLETE_LEXICAL)
        report = run_lint(ex_config, [(path, None)])
        abbrev, = [f for f in report.findings if f.rule_id == "R05-ABBREV"]
        assert abbrev.subject_label == "obsolete LFT panel"
        assert abbrev.severity == "info"

    def test_suppression_by_label(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(ex_config, suppressions=(("R05-ABBREV", "lft"),))
        report = run_lint(ex_config, [(path, None)])
        assert report.findings == ()

    def test_suppression_by_compact_iri(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(ex_config, suppressions=(("R05-ABBREV", "EX:0000002"),))
        assert run_lint(ex_config, [(path, None)]).findings == ()

    def test_suppression_by_expanded_iri(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(
            ex_config, suppressions=(("R05-ABBREV", "https://example.org/EX_0000002"),))
        assert run_lint(ex_config, [(path, None)]).findings == ()

    def test_suppression_requires_matching_rule(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(ex_config, suppressions=(("R02-NEGATIVE", "lft"),))
        assert rule_ids(run_lint(ex_config, [(path, None)])) == ["R05-ABBREV"]

    def test_severity_override(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(ex_config, severity_overrides={"R05-ABBREV": "error"})
        report = run_lint(ex_config, [(path, None)])
        assert report.findings[0].severity == "error"
        assert report.counts == {"error": 1, "warning": 0, "info": 0}

    def test_findings_sorted_by_location_then_rule(self, tmp_path, ex_config):
        a = write(tmp_path, "a.obo", OBO_PARSE)
        b = write(tmp_path, "b.obo", OBO_LFT)
        report = run_lint(ex_config, [(b, None), (a, None)])
        keys = [((f.location.file, f.location.line) if f.location else ("", 0),
                 f.rule_id) for f in report.findings]
        assert keys == sorted(keys)

    def test_input_order_does_not_change_report(self, tmp_path, ex_config):
        a = write(tmp_path, "a.obo", OBO_PLASMA_A)
        b = write(tmp_path, "b.obo", OBO_PLASMA_B)
        first = run_lint(ex_config, [(a, None), (b, None)])
        second = run_lint(ex_config, [(b, None), (a, None)])
        assert render_report(first, "json") == render_report(second, "json")

    def test_an_input_path_holding_a_nul_is_fatal(self):
        with pytest.raises(LintFatalError, match=re.escape("cannot read a\\x00.tsv: ")):
            run_lint(RuleConfig(), [("a\x00.tsv", None)])


# A missing file's name as the "cannot read" error shows it: non-printable
# characters escaped, printable ones (non-ASCII, quotes, backslashes) as given.
@pytest.mark.parametrize("name, shown", [
    ("tab\there.obo", "tab\\there.obo"),
    ("line\nbreak.obo", "line\\nbreak.obo"),
    ("sep\u2028arator.obo", "sep\\u2028arator.obo"),
    ("caf\u00e9 'x' \\ \U0001f600.obo", "caf\u00e9 'x' \\ \U0001f600.obo"),
])
def test_an_unreadable_path_is_shown_with_non_printables_escaped(name, shown, tmp_path):
    with pytest.raises(ConfigError) as raised:
        read_text("config ", str(tmp_path / name))
    assert str(raised.value).startswith(f"cannot read config {tmp_path}/{shown}: ")


# Every other message that names a file the run was given, each called on a
# file whose name holds a tab: the tab shows escaped there too.
NAMED_PATH_ERRORS = [
    ("not json", load_config, "config {path} is not valid JSON: "),
    ("[]", load_config, "config {path} must be a JSON object"),
    ('{"surprise": 1}', load_config, "config {path} has unknown keys: ['surprise']"),
    ("no arrow\n", lambda path: build_lexicons(
        RuleConfig(lexicon_overrides={"colloquial_map": path})), "lexicon file {path}: "),
    ("EX only\n", lambda path: build_prefix_map(RuleConfig(prefix_map_path=path)),
     "prefix map {path}: "),
    ("", infer_format, "cannot infer format of {path}; pass --format"),
]


@pytest.mark.parametrize("text, call, message", NAMED_PATH_ERRORS,
                         ids=["config-json", "config-object", "config-keys", "lexicon",
                              "prefix-map", "format"])
def test_a_named_path_is_shown_with_a_tab_escaped(text, call, message, tmp_path):
    path = write(tmp_path, "bad\tname.txt", text)
    with pytest.raises((ConfigError, LintFatalError)) as raised:
        call(path)
    assert str(raised.value).startswith(message.format(path=f"{tmp_path}/bad\\tname.txt"))


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collecting(request):
    """The collector state the caller set; the prior state comes back after
    the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


# A run that ends cleanly, on a ConfigError (a lexicon file that does not
# exist) and on a LintFatalError.
RUN_ENDINGS = {
    "clean": (RuleConfig(), None),
    "config-error": (RuleConfig(lexicon_overrides={
        "colloquial_map": str(Path(__file__).parent / "absent-lexicon.txt")}), ConfigError),
    "fatal-error": (RuleConfig(), LintFatalError),
}


@pytest.mark.parametrize("ending", RUN_ENDINGS)
def test_run_lint_pauses_the_collector_and_restores_it(ending, collecting, corpus_dir,
                                                       monkeypatch):
    config, error = RUN_ENDINGS[ending]
    inputs = corpus_inputs(corpus_dir)
    if error is LintFatalError:
        inputs.append((str(corpus_dir / "absent.obo"), None))
    during = []
    monkeypatch.setattr(lexical, "check_abbreviation",
                        lambda term, lex: during.append(gc.isenabled()) or [])
    if error is None:
        run_lint(config, inputs)
        assert during and not any(during)
    else:
        with pytest.raises(error):
            run_lint(config, inputs)
    assert gc.isenabled() == collecting


def test_a_lint_run_leaves_no_cyclic_garbage(corpus_dir):
    # run_lint pauses the collector on the premise that a run makes no
    # reference cycles, so that the pause holds no memory.
    config = load_config(str(corpus_dir / "config.json"))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = run_lint(config, corpus_inputs(corpus_dir))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert report.findings


def test_labels_are_normalized_a_few_times_per_term(corpus_dir, monkeypatch):
    # Checks compare terms on their cached key and tokens; a check that
    # normalizes labels again multiplies this count. The lexicon build and the
    # suppression matching are counted too.
    original = model.normalize_label
    calls = 0

    def counted(raw):
        nonlocal calls
        calls += 1
        return original(raw)

    for name, module in list(sys.modules.items()):
        if ((name == "vocab_lint" or name.startswith("vocab_lint."))
                and getattr(module, "normalize_label", None) is original):
            monkeypatch.setattr(module, "normalize_label", counted)
    report = run_lint(load_config(str(corpus_dir / "config.json")),
                      [(str(corpus_dir / "terms.obo"), None),
                       (str(corpus_dir / "picklist.tsv"), None)])
    terms = sum(summary.term_count for summary in report.inputs)
    assert report.findings and calls <= 5 * terms


# Every registered check, by the name the engine looks it up under at call time.
REGISTERED = {
    lexical: ("check_abbreviation", "check_negative_phrasing", "check_conjunction",
              "check_plural", "check_colloquial", "check_timeline", "check_concept_bomb",
              "check_tag_style", "detect_word_bombs", "check_redundant_narrowing"),
    definitions: ("check_definition_present", "check_genus_differentia",
                  "check_definition_uniqueness", "detect_circular_definitions"),
    identity: ("check_iri", "check_iri_uniqueness", "check_label_collisions",
               "check_synonym_collisions", "check_deprecation"),
}
ALL_CHECKS = {f"{module.__name__.rpartition('.')[2]}.{name}"
              for module, names in REGISTERED.items() for name in names}


class TestCheckRegistry:
    @pytest.mark.parametrize("patterns, expected", [
        (("*",), ALL_CHECKS),
        (("R06-*",), {"identity.check_iri", "identity.check_iri_uniqueness"}),
    ], ids=["all", "R06"])
    def test_checks_are_called_through_their_modules(self, corpus_dir, monkeypatch,
                                                     patterns, expected):
        # A profiler times checks by rebinding them on their modules, so the
        # engine must reach every check there, and only the selected ones.
        called = set()
        for module, names in REGISTERED.items():
            for name in names:
                def wrapper(*args, _check=getattr(module, name),
                            _name=f"{module.__name__.rpartition('.')[2]}.{name}"):
                    called.add(_name)
                    return _check(*args)
                monkeypatch.setattr(module, name, wrapper)
        config = load_config(str(corpus_dir / "config.json"))
        config = dataclasses.replace(config, enabled_rules=patterns)
        run_lint(config, corpus_inputs(corpus_dir))
        assert called == expected

    def test_declares_every_lint_rule_once(self):
        declared = [rule_id for rule_ids, _, _ in CHECKS for rule_id in rule_ids]
        assert len(declared) == len(set(declared))
        assert set(declared) == set(RULES) - {"R01-REUSE", "PARSE"}

    def test_findings_carry_their_catalog_severity(self, corpus_dir, tmp_path):
        # Under the default configuration, a finding's severity is its rule's
        # catalog default, bar the two info notes, PARSE warnings and
        # phrasing findings on obsolete terms.
        phrasing = {rule_id for rule_ids, scope, _ in CHECKS if scope == PHRASING
                    for rule_id in rule_ids}
        notes = [(write(tmp_path, "notes.obo", OBO_SEVERITY_NOTES), None)]
        exceptions = set()
        for inputs in (corpus_inputs(corpus_dir), scale_inputs(tmp_path), notes):
            obsolete = {t.location for path, fmt in inputs
                        for t in parse_input(path, fmt)[0].terms if t.obsolete}
            for f in run_lint(RuleConfig(), inputs).findings:
                if f.rule_id in phrasing and f.location in obsolete:
                    exception, severity = "obsolete", "info"
                elif f.rule_id == "PARSE" and f.severity == "warning":
                    exception, severity = "PARSE", "warning"
                elif any(f.rule_id == rule_id and f.message.startswith(prefix)
                         for rule_id, prefix in INFO_NOTES):
                    exception, severity = f.rule_id, "info"
                else:
                    assert f.severity == RULES[f.rule_id].default_severity, f
                    continue
                exceptions.add(exception)
                assert f.severity == severity, f
        assert exceptions == {"obsolete", "PARSE", "R02-NEGATIVE", "R03-COLLOQUIAL"}

    def test_checks_emit_only_their_declared_rules(self, corpus_dir, tmp_path):
        runs = [(load_config(str(corpus_dir / "config.json")), corpus_inputs(corpus_dir)),
                (RuleConfig(), scale_inputs(tmp_path))]
        for config, inputs in runs:
            prefixes = build_prefix_map(config)
            unit = merge_vocabularies([parse_input(path, fmt)[0] for path, fmt in inputs],
                                      prefixes.entries)
            ctx = CheckContext(unit, build_lexicons(config), prefixes, config)
            for rule_ids, scope, run in CHECKS:
                subjects = [unit] if scope == VOCABULARY else unit.terms
                emitted = {f.rule_id for subject in subjects for f in run(subject, ctx)}
                assert emitted <= set(rule_ids)


# Terms drawn so that bearers tie: labels from a small pool with "Wet" and
# "wet", four IRIs written as CURIEs or expanded, definitions and synonyms
# from the same words, and links among the same four IRIs.
_WORDS = st.lists(st.sampled_from(["Wet", "wet", "dry", "cough", "and"]), min_size=1,
                  max_size=3).map(" ".join)
_IRIS = st.sampled_from([f"{form}000000{n}" for n in range(1, 5)
                         for form in ("HP:", "http://purl.obolibrary.org/obo/HP_")])
TERMS = st.fixed_dictionaries({
    "label": _WORDS, "iri": st.none() | _IRIS, "definition": st.none() | _WORDS,
    "synonym": st.none() | _WORDS, "is_a": st.none() | _IRIS, "obsolete": st.booleans(),
    "replaced_by": st.none() | _IRIS})

_BARE = dict(iri=None, definition=None, synonym=None, is_a=None, obsolete=False,
             replaced_by=None)


def _obo_file(terms):
    stanzas = []
    for t in terms:
        lines = ["[Term]"]
        if t["iri"]:
            lines.append(f"id: {t['iri']}")
        lines.append(f"name: {t['label']}")
        if t["definition"]:
            lines.append(f'def: "{t["definition"]}." []')
        if t["synonym"]:
            lines.append(f'synonym: "{t["synonym"]}" EXACT []')
        if t["is_a"]:
            lines.append(f"is_a: {t['is_a']}")
        if t["obsolete"]:
            lines.append("is_obsolete: true")
        if t["replaced_by"]:
            lines.append(f"replaced_by: {t['replaced_by']}")
        stanzas.append("\n".join(lines) + "\n")
    return "\n".join(stanzas)


def _tsv_file(terms):
    rows = ["label\tiri\tdefinition\tsynonyms\tparents\tobsolete\treplaced_by"]
    for t in terms:
        definition = f"{t['definition']}." if t["definition"] else ""
        rows.append("\t".join([t["label"], t["iri"] or "", definition, t["synonym"] or "",
                               t["is_a"] or "", "true" if t["obsolete"] else "",
                               t["replaced_by"] or ""]))
    return "\n".join(rows) + "\n"


class TestReportOrder:
    def test_ties_on_location_rule_and_subject_sort_the_same_from_any_order(self):
        # All six tie on (file, line, rule_id, subject_label); message,
        # suggestion, subject IRIs and severity decide between them.
        shared = dict(rule_id="R06-DUP-IRI", subject_label="plasma",
                      location=SourceLocation(file="a.obo", line=3))
        findings = [
            Finding(severity="error", message="second message", **shared),
            Finding(severity="error", message="first message", suggestion="z", **shared),
            Finding(severity="error", message="first message", suggestion="y", **shared),
            Finding(severity="error", message="first message", suggestion="y",
                    subject_iris=(Iri("EX:2"),), **shared),
            Finding(severity="error", message="first message", suggestion="y",
                    subject_iris=(Iri("EX:1"),), **shared),
            Finding(severity="warning", message="first message", suggestion="y",
                    subject_iris=(Iri("EX:1"),), **shared),
        ]
        orders = {tuple(sorted(order, key=_sort_key)) for order in permutations(findings)}
        assert len(orders) == 1

    @settings(max_examples=30, deadline=None)
    # A counterexample this property found: the two bearers of HP:0000002
    # tie on identity in C-SYNONYM-CLASH, and only bearer order parts them.
    @example(files=[("obo", [{**_BARE, "label": "Wet"},
                             {**_BARE, "label": "Wet", "iri": "HP:0000002"}]),
                    ("obo", [{**_BARE, "label": "Wet Wet", "iri": "HP:0000002",
                              "synonym": "Wet"}])])
    @given(st.lists(st.tuples(st.sampled_from(["obo", "tsv"]), st.lists(TERMS, min_size=1,
                                                                         max_size=6)),
                    min_size=2, max_size=3))
    def test_report_bytes_do_not_depend_on_the_file_order(self, files):
        # A fresh directory per example: Hypothesis runs the body many times
        # under one function-scoped fixture.
        with tempfile.TemporaryDirectory() as directory:
            inputs = []
            for n, (fmt, terms) in enumerate(files):
                path = Path(directory) / f"f{n}.{fmt}"
                path.write_text((_obo_file if fmt == "obo" else _tsv_file)(terms),
                                encoding="utf-8")
                inputs.append((str(path), None))
            runs = (run_lint(RuleConfig(), order) for order in permutations(inputs))
            reports = {(render_report(r, "json"), render_report(r, "text")) for r in runs}
        assert len(reports) == 1


# The words and IRIs of MODEL_TERMS, each mapped to one that no term of it
# bears, so a renamed term shares no label word, phrase or IRI with another.
# Only the article of the definitions stays, and no label holds it.
_RENAMED = {"wet": "damp", "cough": "sneeze", "Cough": "Sneeze", "dry": "arid",
            "fever": "chill", "Fever": "Chill", "dry-cough": "arid-sneeze", "A": "A", "a": "a",
            "cough.": "sneeze.", "fever.": "chill.", "EX:1": "EX:11", "EX:2": "EX:12",
            "https://example.org/EX_1": "https://example.org/EX_11",
            "https://example.org/EX_2": "https://example.org/EX_12", "ZZ:1": "ZZ:11"}


def _renamed(term):
    def words(text):
        return " ".join(_RENAMED[word] for word in text.split(" "))

    def iri(value):
        return None if value is None else Iri(_RENAMED[value.value])

    return dataclasses.replace(
        term, label=words(term.label), iri=iri(term.iri),
        synonyms=tuple(dataclasses.replace(s, text=words(s.text)) for s in term.synonyms),
        definition=term.definition and dataclasses.replace(
            term.definition, text=words(term.definition.text)),
        parents=tuple(iri(parent) for parent in term.parents))


@settings(max_examples=40, deadline=None)
@given(st.lists(MODEL_TERMS, min_size=1, max_size=6),
       st.lists(MODEL_TERMS, max_size=6))
def test_per_file_equals_the_merged_run_on_files_that_share_nothing(first, second):
    # Linting each file alone and linting their merge differ only in what
    # one file's terms see of another's, so they must agree on one file, and
    # on two files that share no word and no IRI.
    with tempfile.TemporaryDirectory() as directory:
        config = RuleConfig(prefix_map_path=write(Path(directory), "prefixes.tsv",
                                                  PREFIX_FILE))
        a = write(Path(directory), "a.obo", serialize_obo(Vocabulary(tuple(first))))
        b = write(Path(directory), "b.obo",
                  serialize_obo(Vocabulary(tuple(_renamed(t) for t in second))))
        for inputs in ([(a, None)], [(a, None), (b, None)]):
            merged = run_lint(config, inputs)
            assert run_lint(dataclasses.replace(config, per_file=True), inputs) == merged


# Metamorphic relations: each property lints one file of MODEL_TERMS, then
# again under one more setting, and checks how the two reports relate.

def _one_file_run(directory, terms):
    """The config and inputs of a run over one OBO file of `terms`, written
    into `directory` with a prefix map for EX."""
    config = RuleConfig(prefix_map_path=write(directory, "prefixes.tsv", PREFIX_FILE))
    return config, [(write(directory, "a.obo", serialize_obo(Vocabulary(tuple(terms)))), None)]


def _with_findings(report, findings):
    """`report` holding `findings`, in report order, and their counts."""
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] += 1
    return dataclasses.replace(report, findings=tuple(sorted(findings, key=_sort_key)),
                               counts=counts)


def _fired_or_any_rule(report):
    """Mostly the rule id of one of the report's findings, sometimes any."""
    fired = sorted({f.rule_id for f in report.findings})
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(
        fired if i and fired else sorted(RULES)))


_GLOBS = ["*", "C-*", "R0?-*", "R07-*", "R08-*", "*BOMB", "R0[2-5]-*", "*-DUP-*"]


@settings(max_examples=50, deadline=None)
@given(st.lists(MODEL_TERMS, min_size=1, max_size=8), st.data())
def test_selection_keeps_the_selected_findings_of_the_full_run(terms, data):
    # run_lint skips each check that can emit no selected rule; that must
    # change nothing in what the selected rules report.
    with tempfile.TemporaryDirectory() as directory:
        config, inputs = _one_file_run(Path(directory), terms)
        full = run_lint(config, inputs)
        patterns = data.draw(st.lists(_fired_or_any_rule(full) | st.sampled_from(_GLOBS),
                                      min_size=1, max_size=3))
        selected = run_lint(dataclasses.replace(config, enabled_rules=tuple(patterns)), inputs)
    chosen = {rule_id for rule_id in RULES if any(fnmatchcase(rule_id, p) for p in patterns)}
    assert selected == _with_findings(full, [f for f in full.findings if f.rule_id in chosen])


@settings(max_examples=80, deadline=None)
@given(st.lists(MODEL_TERMS, min_size=1, max_size=8), st.data())
def test_suppressions_remove_exactly_the_findings_they_match(terms, data):
    with tempfile.TemporaryDirectory() as directory:
        config, inputs = _one_file_run(Path(directory), terms)
        full = run_lint(config, inputs)
        prefix_map = build_prefix_map(config).entries
        # A suppression names a finding's rule and its subject label in either
        # case or one of its IRIs in either form, or any rule and subject.
        named = sorted({(f.rule_id, form) for f in full.findings
                        for form in (f.subject_label, f.subject_label.upper(), *(
                            form for iri in f.subject_iris
                            for form in (iri.value, expand_iri(iri, prefix_map))))})
        other = st.tuples(st.sampled_from(sorted(RULES)), st.sampled_from(["cough", "EX:2"]))
        suppressions = data.draw(st.lists(st.sampled_from(named) | other if named else other,
                                          min_size=1, max_size=3))
        suppressed = run_lint(dataclasses.replace(config, suppressions=tuple(suppressions)),
                              inputs)

    def matches(f, subject):
        iris = {form for iri in f.subject_iris for form in (iri.value, expand_iri(iri, prefix_map))}
        return subject in iris or normalize_label(subject) == normalize_label(f.subject_label)

    assert suppressed == _with_findings(full, [
        f for f in full.findings
        if not any(rule == f.rule_id and matches(f, subject) for rule, subject in suppressions)])


@settings(max_examples=50, deadline=None)
@given(st.lists(MODEL_TERMS, min_size=1, max_size=8), st.data())
def test_a_severity_override_changes_only_severities_and_counts(terms, data):
    with tempfile.TemporaryDirectory() as directory:
        config, inputs = _one_file_run(Path(directory), terms)
        full = run_lint(config, inputs)
        overrides = data.draw(st.dictionaries(_fired_or_any_rule(full),
                                              st.sampled_from(SEVERITIES), max_size=4))
        overridden = run_lint(dataclasses.replace(config, severity_overrides=overrides), inputs)
    assert overridden == _with_findings(full, [
        dataclasses.replace(f, severity=overrides.get(f.rule_id, f.severity))
        for f in full.findings])


class TestExitCode:
    def test_clean_report(self, tmp_path):
        path = write(tmp_path, "a.obo", OBO_PLASMA_A)
        cfg = RuleConfig()
        assert exit_code(run_lint(cfg, [(path, None)]), cfg) == 0

    def test_warning_meets_default_threshold(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        assert exit_code(run_lint(ex_config, [(path, None)]), ex_config) == 1

    def test_error_threshold_ignores_warnings(self, tmp_path, ex_config):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        ex_config = dataclasses.replace(ex_config, fail_threshold="error")
        assert exit_code(run_lint(ex_config, [(path, None)]), ex_config) == 0

    def test_info_threshold_catches_notes(self, tmp_path, ex_config):
        path = write(tmp_path, "old.obo", OBO_OBSOLETE_LEXICAL)
        ex_config = dataclasses.replace(ex_config, fail_threshold="info")
        assert exit_code(run_lint(ex_config, [(path, None)]), ex_config) == 1


def sample_report():
    located = Finding(
        rule_id="R05-ABBREV", severity="warning", subject_label="LFT",
        subject_iris=(Iri("EX:0000002"),),
        message="label is an unexpanded abbreviation",
        location=SourceLocation(file="lft.obo", line=3),
        suggestion="liver function test")
    floating = Finding(
        rule_id="PARSE", severity="error", subject_label="",
        message="stanza has no id")
    return Report(findings=(located, floating),
                  counts={"error": 1, "warning": 1, "info": 0},
                  inputs=(), tool_version="0.0-test")


def reference_json(report):
    """The JSON report as json.dumps wrote it from a payload of dicts: the
    rendering that the one-pass writer replaced, kept as its byte oracle."""
    payload = {
        "tool": "vocab-lint",
        "version": report.tool_version,
        "inputs": [dataclasses.asdict(s) for s in report.inputs],
        "counts": dict(report.counts),
        "findings": [
            {
                "rule_id": f.rule_id,
                "severity": f.severity,
                "subject_label": f.subject_label,
                "subject_iris": [iri.value for iri in f.subject_iris],
                "message": f.message,
                "location": ({"file": f.location.file, "line": f.location.line}
                             if f.location else None),
                "suggestion": f.suggestion,
            }
            for f in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# Text over every code point but the surrogates, drawing often the ones JSON
# escapes and the ones an ASCII-only encoder would escape.
REPORT_TEXT = st.text(st.one_of(st.characters(exclude_categories=("Cs",)),
                                st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600')),
                      max_size=10)
SOME_TEXT = REPORT_TEXT.filter(bool)
FINDINGS = st.builds(
    Finding, rule_id=st.sampled_from(sorted(RULES)), severity=st.sampled_from(SEVERITIES),
    subject_label=REPORT_TEXT, message=SOME_TEXT,
    # An IRI holds no whitespace.
    subject_iris=st.lists(REPORT_TEXT.map(lambda s: Iri("".join(s.split()) or "x")),
                          max_size=3).map(tuple),
    location=st.none() | st.builds(SourceLocation, REPORT_TEXT, st.integers(1, 10**9)),
    suggestion=st.none() | REPORT_TEXT)
REPORTS = st.builds(
    Report, findings=st.lists(FINDINGS, max_size=5).map(tuple),
    counts=st.just({}) | st.fixed_dictionaries({s: st.integers(0, 10**9) for s in SEVERITIES}),
    inputs=st.lists(st.builds(InputSummary, REPORT_TEXT, REPORT_TEXT, st.integers(0, 10**9)),
                    max_size=3).map(tuple),
    tool_version=REPORT_TEXT)


class TestRenderReport:
    def test_text_lines(self):
        text = render_report(sample_report())
        assert text.splitlines() == [
            "lft.obo:3: warning R05-ABBREV LFT: label is an unexpanded "
            "abbreviation (suggestion: liver function test)",
            "-: error PARSE: stanza has no id",
            "1 error(s), 1 warning(s), 0 info note(s) in 0 input(s)",
        ]

    def test_color_wraps_severity_only(self):
        plain = render_report(sample_report())
        colored = render_report(sample_report(), color=True)
        assert "\x1b[33mwarning\x1b[0m" in colored
        assert "\x1b[31merror\x1b[0m" in colored
        stripped = colored.replace("\x1b[33m", "").replace("\x1b[31m", "")
        assert stripped.replace("\x1b[0m", "") == plain

    def test_json_payload(self):
        payload = json.loads(render_report(sample_report(), "json"))
        assert payload["tool"] == "vocab-lint"
        assert payload["version"] == "0.0-test"
        assert payload["counts"] == {"error": 1, "warning": 1, "info": 0}
        first, second = payload["findings"]
        assert first["location"] == {"file": "lft.obo", "line": 3}
        assert first["subject_iris"] == ["EX:0000002"]
        assert first["suggestion"] == "liver function test"
        assert second["location"] is None and second["suggestion"] is None

    def test_json_rendering_is_stable(self):
        assert (render_report(sample_report(), "json")
                == render_report(sample_report(), "json"))

    def test_non_ascii_survives(self):
        report = Report(findings=(Finding(rule_id="R05-ABBREV", severity="info",
                                          subject_label="Über-Term",
                                          message="non-ascii label"),),
                        counts={"error": 0, "warning": 0, "info": 1}, inputs=())
        assert "Über-Term" in render_report(report, "json")

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError):
            render_report(sample_report(), "yaml")

    @settings(max_examples=50, deadline=None)
    @given(REPORTS)
    @example(dataclasses.replace(sample_report(), counts={}))
    @example(dataclasses.replace(sample_report(), findings=()))
    @example(sample_report())  # no inputs; a finding without location or suggestion
    @example(dataclasses.replace(sample_report(), findings=(
        dataclasses.replace(sample_report().findings[0], subject_iris=()),),
        inputs=(InputSummary("a.obo", "obo", 0),)))
    def test_json_bytes_are_those_json_dumps_wrote(self, report):
        assert render_report(report, "json") == reference_json(report)
