import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vocab_lint
from vocab_lint import __version__, cli, reuse
from vocab_lint.catalog import RULES
from vocab_lint.cli import main

CLINICAL_OBO = str(Path(__file__).parent / "fixtures" / "reference" / "clinical.obo")

PREFIX_FILE = "EX\thttps://example.org/EX_\texternal\n"

OBO_LFT = """\
format-version: 1.2

[Term]
id: EX:0000002
name: LFT
def: "A liver function test is a test battery that measures liver enzymes." [PMID:3]
"""

OBO_CLEAN = """\
format-version: 1.2

[Term]
id: HP:0012735
name: cough
def: "A sudden expulsion of air is a reflex that clears the airways." [PMID:9]
"""

OBO_REFERENCE = """\
format-version: 1.2

[Term]
id: HP:0031352
name: productive cough
def: "An expectorating reflex is a reflex that yields sputum." [PMID:10]
synonym: "wet cough" EXACT []

[Term]
id: HP:0012735
name: cough
def: "A sudden expulsion of air is a reflex that clears the airways." [PMID:9]
"""

TSV_REFERENCE = """\
label\tiri\tsynonyms
cough\tHP:0012735\t
productive cough\tHP:0031352\twet cough
"""

SNAPSHOT = """\
name: well-tended
as_of: 2026-08-01
last_release: 2026-05-01
median_issue_response_days: 10
accepts_term_requests: true
definition_coverage: 0.95
terms_reused_elsewhere: 500
total_terms: 1000
has_permanent_iris: true

name: dusty
as_of: 2026-08-01
"""


# Two files that both label EX:1: "vessel" in one, "jar" in the other.
OBO_VESSEL = """\
[Term]
id: EX:1
name: vessel
def: "A vessel is a container that holds a vessel's contents." [PMID:1]
"""

OBO_JAR = """\
[Term]
id: EX:1
name: jar
def: "A jar is a container that keeps a jar's lid on." [PMID:2]

[Term]
id: EX:2
name: flask
def: "A flask is a vessel that has a narrow neck." [PMID:3]
is_a: EX:1

[Term]
id: EX:3
name: old holder
def: "An old holder is a container that was retired." [PMID:4]
is_obsolete: true
replaced_by: EX:4

[Term]
id: EX:4
name: older holder
def: "An older holder is a container that was retired." [PMID:5]
is_obsolete: true
replaced_by: EX:1
"""

# Bearers of HP:0000004 that tie on the sort keys of R06-DUP-IRI,
# C-SEMANTIC-NOISE and C-SYNONYM-CLASH: one label, one identity, two
# spellings of the IRI.
OBO_WET = """\
[Term]
id: HP:0000004
name: wet
"""

TSV_WET = """\
label\tiri\tsynonyms
wet\thttp://purl.obolibrary.org/obo/HP_0000004\t
moist\tHP:0000004\twet
wet\tHP:0000005\t
"""

# "dry wet" narrows a label that two bearers of HP:0000004 spell differently.
OBO_WET_NARROWED = """\
[Term]
id: HP:0000004
name: Wet

[Term]
id: HP:0000006
name: dry wet
"""

TSV_WET_EXPANDED = """\
label\tiri
wet\thttp://purl.obolibrary.org/obo/HP_0000004
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, args):
    """Run the CLI in this process: (exit code, stdout, stderr). An exception
    the CLI does not turn into an exit escapes and fails the calling test."""
    with pytest.raises(SystemExit) as exited:
        main(args)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


@pytest.fixture
def config_path(tmp_path):
    write(tmp_path, "prefixes.tsv", PREFIX_FILE)
    return write(tmp_path, "config.json",
                 json.dumps({"prefix_map_path": "prefixes.tsv"}))


class TestCheck:
    def test_clean_input_exits_zero(self, capsys, tmp_path):
        path = write(tmp_path, "clean.obo", OBO_CLEAN)
        code, out, _ = run_cli(capsys, ["check", path])
        assert code == 0
        assert "0 error(s), 0 warning(s), 0 info note(s) in 1 input(s)" in out

    def test_findings_exit_one(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, out, _ = run_cli(capsys, ["check", path, "--config", config_path])
        assert code == 1
        assert "R05-ABBREV" in out
        assert f"{path}:3: warning R05-ABBREV LFT:" in out

    def test_fail_on_error_tolerates_warnings(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, out, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                        "--fail-on", "error"])
        assert code == 0
        assert "R05-ABBREV" in out

    def test_rule_patterns(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, out, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                        "--rule", "R06-*"])
        assert code == 0
        assert "R05-ABBREV" not in out

    def test_rule_pattern_matching_no_rule_is_fatal(self, capsys, tmp_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, out, err = run_cli(capsys, ["check", path, "--rule", "R6-*",
                                          "--rule", "R06-*"])
        assert (code, out) == (2, "")
        assert err == "vocab-lint: error: rule patterns match no rule: 'R6-*'\n"

    def test_rule_and_suppress_repeat(self, capsys, tmp_path):
        # Without a prefix map, lft.obo has an R05 warning and an R06 error.
        path = write(tmp_path, "lft.obo", OBO_LFT)

        def rule_ids(*options):
            code, out, _ = run_cli(capsys, ["check", path, "--output", "json", *options])
            return code, sorted(f["rule_id"] for f in json.loads(out)["findings"])

        assert rule_ids("--rule", "R05-*") == (1, ["R05-ABBREV"])
        assert rule_ids("--rule", "R05-*", "--rule", "R06-*") == (
            1, ["R05-ABBREV", "R06-BAD-IRI"])
        assert rule_ids("--suppress", "R05-ABBREV:LFT") == (1, ["R06-BAD-IRI"])
        assert rule_ids("--suppress", "R05-ABBREV:LFT",
                        "--suppress", "R06-BAD-IRI:LFT") == (0, [])

    def test_options_may_come_between_files(self, capsys, tmp_path, config_path):
        a = write(tmp_path, "lft.obo", OBO_LFT)
        b = write(tmp_path, "clean.obo", OBO_CLEAN)
        before = run_cli(capsys, ["check", "--output", "json", a, b, "--config", config_path])
        between = run_cli(capsys, ["check", a, "--output", "json", b, "--config", config_path])
        assert between == before
        assert {i["file"] for i in json.loads(between[1])["inputs"]} == {a, b}

    def test_suppress_option(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, _, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                      "--suppress", "R05-ABBREV:LFT"])
        assert code == 0

    def test_suppress_subject_may_contain_colons(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, _, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                      "--suppress", "R05-ABBREV:EX:0000002"])
        assert code == 0

    def test_suppress_malformed(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, _, err = run_cli(capsys, ["check", path, "--config", config_path,
                                        "--suppress", "R05-ABBREV"])
        assert code == 2
        assert "RULE:SUBJECT" in err

    def test_suppress_unknown_rule(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        code, _, err = run_cli(capsys, ["check", path, "--config", config_path,
                                        "--suppress", "R99-NOPE:LFT"])
        assert code == 2
        assert err == "vocab-lint: error: suppression for unknown rule 'R99-NOPE'\n"

    def test_json_output(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        _, out, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                     "--output", "json"])
        payload = json.loads(out)
        assert payload["tool"] == "vocab-lint"
        assert [f["rule_id"] for f in payload["findings"]] == ["R05-ABBREV"]

    def test_format_override(self, capsys, tmp_path, config_path):
        path = write(tmp_path, "terms.txt", OBO_LFT)
        code, _, _ = run_cli(capsys, ["check", path, "--config", config_path,
                                      "--format", "obo"])
        assert code == 1

    def test_unknown_suffix_is_fatal(self, capsys, tmp_path):
        path = write(tmp_path, "terms.txt", OBO_LFT)
        code, _, err = run_cli(capsys, ["check", path])
        assert code == 2
        assert "cannot infer format" in err

    def test_missing_file_is_fatal(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["check", str(tmp_path / "absent.obo")])
        assert code == 2

    def test_table_without_label_column_names_its_file_once(self, tmp_path, capsys):
        path = write(tmp_path, "x.tsv", "name\tiri\ncough\tHP:0012735\n")
        code, out, err = run_cli(capsys, ["check", path])
        assert (code, out) == (2, "")
        assert err == f"vocab-lint: error: {path}: required label column 'label' not in header\n"

    def test_bad_config_is_fatal(self, capsys, tmp_path):
        path = write(tmp_path, "clean.obo", OBO_CLEAN)
        bad = write(tmp_path, "config.json", '{"surprise": true}')
        code, _, _ = run_cli(capsys, ["check", path, "--config", bad])
        assert code == 2

    def test_per_file_flag(self, capsys, tmp_path):
        a = write(tmp_path, "a.obo", OBO_CLEAN)
        b = write(tmp_path, "b.obo", OBO_CLEAN.replace("HP:0012735", "HP:0099999"))
        merged_code, merged, _ = run_cli(capsys, ["check", a, b])
        isolated_code, isolated, _ = run_cli(capsys, ["check", a, b, "--per-file"])
        assert "C-SEMANTIC-NOISE" in merged
        assert merged_code == 1
        assert "C-SEMANTIC-NOISE" not in isolated
        assert isolated_code == 0

    @pytest.mark.parametrize("first, second, expected", [
        (("a.obo", OBO_VESSEL), ("b.obo", OBO_JAR),
         {("R08-CHAIN", "old holder"): '"jar"', ("R07-SELF-REF", "vessel"): "",
          ("R07-SELF-REF", "jar"): "", ("R07-GENUS-MISMATCH", "flask"): ""}),
        (("a.obo", OBO_WET), ("b.tsv", TSV_WET),
         {("R06-DUP-IRI", "moist"): "(moist; wet; wet)",
          ("C-SEMANTIC-NOISE", "wet"): "",
          ("C-SYNONYM-CLASH", "moist"): '("moist", "wet", "wet", "wet")'}),
        (("a.obo", OBO_WET_NARROWED), ("b.tsv", TSV_WET_EXPANDED),
         {("R04-NARROW", "dry wet"): 'narrows "Wet" (the label of 2 terms)'}),
    ], ids=["definition-graph", "tied-bearers", "tied-narrowing"])
    def test_a_shared_iri_reports_alike_in_either_file_order(self, capsys, tmp_path,
                                                             first, second, expected):
        a, b = write(tmp_path, *first), write(tmp_path, *second)

        def findings(*files):
            code, out, _ = run_cli(capsys, ["check", "--output", "json", *files])
            payload = json.loads(out)
            return code, payload["counts"], payload["findings"]

        assert findings(a, b) == findings(b, a)
        _, _, found = findings(a, b)
        messages = {(f["rule_id"], f["subject_label"]): f["message"] for f in found}
        for subject, fragment in expected.items():
            assert fragment in messages[subject]

    def test_no_color_env_disables_ansi(self, capsys, tmp_path, config_path, monkeypatch):
        path = write(tmp_path, "lft.obo", OBO_LFT)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        assert "\x1b[" in run_cli(capsys, ["check", path, "--config", config_path])[1]
        monkeypatch.setenv("NO_COLOR", "1")
        assert "\x1b[" not in run_cli(capsys, ["check", path, "--config", config_path])[1]


class TestSuggest:
    def test_ranked_rows(self, capsys, tmp_path):
        ref = write(tmp_path, "ref.obo", OBO_REFERENCE)
        code, out, _ = run_cli(capsys, ["suggest", "wet cough", "--references", ref])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "query: wet cough"
        assert lines[1] == ("  1. productive cough  score 0.900  exact_synonym  "
                            "reused-in 1  HP:0031352")
        assert lines[2].startswith("  2. cough  score 0.350  token_overlap")

    def test_no_candidates(self, capsys, tmp_path):
        ref = write(tmp_path, "ref.obo", OBO_REFERENCE)
        _, out, _ = run_cli(capsys, ["suggest", "zzzz", "--references", ref])
        assert "(no candidates)" in out

    def test_json_output(self, capsys, tmp_path):
        ref = write(tmp_path, "ref.obo", OBO_REFERENCE)
        _, out, _ = run_cli(capsys, ["suggest", "wet cough", "--references", ref,
                                     "--output", "json", "-k", "1"])
        payload = json.loads(out)
        entry, = payload["queries"]
        assert entry["query"] == "wet cough"
        suggestion, = entry["suggestions"]
        assert suggestion["label"] == "productive cough"
        assert suggestion["score"] == 0.9
        assert suggestion["match_kind"] == "exact_synonym"

    def test_five_suggestions_by_default(self, capsys, tmp_path):
        rows = "".join(f"cough type {n}\tEX:{n}\t\n" for n in range(7))
        ref = write(tmp_path, "ref.tsv", "label\tiri\tsynonyms\n" + rows)
        _, out, _ = run_cli(capsys, ["suggest", "cough type", "--references", ref,
                                     "--output", "json"])
        entry, = json.loads(out)["queries"]
        assert len(entry["suggestions"]) == 5

    def test_output_does_not_depend_on_reference_order(self, capsys, tmp_path):
        # Both references carry HP:0001945, under different labels; the term
        # shown for it must not be whichever reference came first.
        a = write(tmp_path, "a.obo", "[Term]\nid: HP:0001945\nname: pyrexia\n")
        b = write(tmp_path, "b.obo", '[Term]\nid: HP:0001945\nname: fever\n'
                                     'synonym: "pyrexia" EXACT []\n')
        shown = {}
        for output in ("text", "json"):
            runs = [run_cli(capsys, ["suggest", "pyrexia", "--output", output,
                                     "--references", first, "--references", second])
                    for first, second in ((a, b), (b, a))]
            assert runs[0] == runs[1]
            shown[output] = runs[0]
        assert shown["text"][:2] == (0, "query: pyrexia\n  1. fever  score 1.000  exact_label"
                                        "  reused-in 2  HP:0001945\n")

    def test_references_from_config(self, capsys, tmp_path):
        write(tmp_path, "ref.obo", OBO_REFERENCE)
        config = write(tmp_path, "config.json",
                       json.dumps({"reference_paths": ["ref.obo"]}))
        code, out, _ = run_cli(capsys, ["suggest", "cough", "--config", config])
        assert code == 0 and "1. cough" in out

    def test_references_are_indexed_on_the_configured_prefixes(
            self, capsys, tmp_path, monkeypatch):
        # The TSV declares no prefixes; its HP: CURIEs expand only through the
        # built-in prefix map, which the indexed vocabulary must carry.
        ref = write(tmp_path, "ref.tsv", TSV_REFERENCE)
        seen = []
        real_build_index = reuse.build_index

        def capture(vocabs):
            seen.extend(vocabs)
            return real_build_index(vocabs)

        monkeypatch.setattr(reuse, "build_index", capture)
        code, out, _ = run_cli(capsys, ["suggest", "wet cough", "--references", ref])
        assert code == 0
        assert "productive cough" in out
        vocab, = seen
        assert len(vocab.terms) == 2
        for t in vocab.terms:
            assert vocab.term_for(t.iri) is t

    def test_reference_parse_problems_go_to_stderr(self, capsys, tmp_path):
        ref = write(tmp_path, "ref.obo", "[Term]\nid: not a curie\nname: fever\n")
        _, checked, _ = run_cli(capsys, ["check", ref])
        problems = "".join(line + "\n" for line in checked.splitlines() if " PARSE: " in line)
        assert problems == (f"{ref}:1: warning PARSE: [Term] stanza has no id\n"
                            f"{ref}:2: warning PARSE: invalid id value: 'not a curie'\n")
        code, out, err = run_cli(capsys, ["suggest", "fever", "--references", ref])
        assert (code, out, err) == (
            0, "query: fever\n  1. fever  score 1.000  exact_label  reused-in 1  (no iri)\n",
            problems)
        code, out, err = run_cli(capsys, ["suggest", "fever", "--references", ref,
                                          "--output", "json"])
        assert (code, err) == (0, problems)
        assert json.loads(out)["queries"][0]["suggestions"][0]["iri"] is None

    def test_no_references_is_fatal(self, capsys):
        code, _, err = run_cli(capsys, ["suggest", "cough"])
        assert code == 2
        assert "no reference vocabularies" in err

    def test_empty_query_is_fatal(self, capsys, tmp_path):
        ref = write(tmp_path, "ref.obo", OBO_REFERENCE)
        code, _, err = run_cli(capsys, ["suggest", "!!", "--references", ref])
        assert code == 2
        assert "empty after normalization" in err


class TestHealth:
    def test_verdicts_and_subscores(self, capsys, tmp_path):
        snap = write(tmp_path, "snapshot.txt", SNAPSHOT)
        code, out, _ = run_cli(capsys, ["health", "--metadata", snap])
        assert code == 0
        assert "well-tended: healthy (composite 0.99)" in out
        assert "dusty: stale (composite 0.00)" in out
        assert "does not mean the content is of poor quality" in out
        assert "activity" in out

    def test_metadata_from_config(self, capsys, tmp_path):
        write(tmp_path, "snapshot.txt", SNAPSHOT)
        config = write(tmp_path, "config.json",
                       json.dumps({"metadata_path": "snapshot.txt"}))
        code, out, _ = run_cli(capsys, ["health", "--config", config])
        assert code == 0 and "well-tended" in out

    def test_custom_weights_from_config(self, capsys, tmp_path):
        write(tmp_path, "snapshot.txt", SNAPSHOT)
        config = write(tmp_path, "config.json", json.dumps(
            {"metadata_path": "snapshot.txt",
             "health_weights": {"identifiers": 1.0}}))
        _, out, _ = run_cli(capsys, ["health", "--config", config])
        assert "well-tended: healthy (composite 1.00)" in out

    def test_bad_weights_fatal(self, capsys, tmp_path):
        snap = write(tmp_path, "snapshot.txt", SNAPSHOT)
        config = write(tmp_path, "config.json", json.dumps(
            {"health_weights": {"identifiers": 0.5}}))
        code, _, _ = run_cli(capsys, ["health", "--metadata", snap,
                                      "--config", config])
        assert code == 2

    def test_bad_weights_fatal_without_a_usable_record(self, capsys, tmp_path):
        # No record reaches scoring, so only the config load can reject the weights.
        snap = write(tmp_path, "snapshot.txt", "name: dusty\n")
        config = write(tmp_path, "config.json", json.dumps(
            {"health_weights": {"activty": 1.0}}))
        code, out, err = run_cli(capsys, ["health", "--metadata", snap,
                                          "--config", config])
        assert (code, out) == (2, "")
        assert err == "vocab-lint: error: unknown subscore weights: ['activty']\n"

    def test_no_usable_record(self, capsys, tmp_path):
        snap = write(tmp_path, "snapshot.txt", "name: dusty\n")
        code, out, _ = run_cli(capsys, ["health", "--metadata", snap])
        assert (code, out) == (0, "note: record at line 1: missing name or as_of; skipped\n"
                                  "no usable metadata records\n")

    def test_notes_surface(self, capsys, tmp_path):
        snap = write(tmp_path, "snapshot.txt", SNAPSHOT + "\nmascot: owl\n")
        _, out, _ = run_cli(capsys, ["health", "--metadata", snap])
        assert "note:" in out and "mascot" in out

    def test_json_output(self, capsys, tmp_path):
        snap = write(tmp_path, "snapshot.txt", SNAPSHOT)
        _, out, _ = run_cli(capsys, ["health", "--metadata", snap,
                                     "--output", "json"])
        payload = json.loads(out)
        assert [o["verdict"] for o in payload["ontologies"]] == ["healthy", "stale"]

    def test_no_snapshot_is_fatal(self, capsys):
        code, _, _ = run_cli(capsys, ["health"])
        assert code == 2

    def test_missing_snapshot_file_is_fatal(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["health", "--metadata",
                                      str(tmp_path / "absent.txt")])
        assert code == 2


def _lint_with(directory, **config):
    """A check of lft.obo under a config that maps the EX prefix."""
    config = {"prefix_map_path": str(directory / "prefixes.tsv"), **config}
    return ["check", write(directory, "lft.obo", OBO_LFT),
            "--config", write(directory, "run.json", json.dumps(config))]


# Every kind of file a run opens: its name, a usable text, how the file is
# named in a "cannot read" error, and a command line that reads it.
FILE_KINDS = {
    "config": ("config.json", json.dumps({"prefix_map_path": "prefixes.tsv"}), "config ",
               lambda d, path: ["check", write(d, "lft.obo", OBO_LFT), "--config", path]),
    "prefix map": ("ex.tsv", PREFIX_FILE, "prefix map ",
                   lambda d, path: _lint_with(d, prefix_map_path=path)),
    "lexicon override": ("abbreviations.txt", "LFT\n", "lexicon file ",
                         lambda d, path: _lint_with(d, lexicon_overrides={
                             "accepted_abbreviation_words": path})),
    "lint input": ("terms.obo", OBO_LFT, "", lambda d, path: ["check", path]),
    "suggest reference": ("ref.obo", OBO_REFERENCE, "",
                          lambda d, path: ["suggest", "wet cough", "--references", path]),
    "metadata snapshot": ("snapshot.txt", SNAPSHOT, "metadata ",
                          lambda d, path: ["health", "--metadata", path]),
}


@pytest.mark.parametrize("kind", FILE_KINDS)
@pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "not-utf-8"])
def test_unreadable_file_exits_two_and_names_it(kind, content, tmp_path, capsys):
    write(tmp_path, "prefixes.tsv", PREFIX_FILE)
    name, text, what, command = FILE_KINDS[kind]
    path = tmp_path / name
    if content is not None:
        path.write_bytes(text.encode("utf-8") + content)
    code, out, err = run_cli(capsys, command(tmp_path, str(path)))
    assert (code, out) == (2, "")
    assert err.startswith(f"vocab-lint: error: cannot read {what}{path}: ")
    assert "Traceback" not in err


# Every configuration key that names a file: its value as a path holding a
# NUL character, how the error names the file, and a command line that reads
# it. A reference path needs a known suffix to reach the read.
NUL_PATH_KEYS = {
    "prefix_map_path": ("\x00", "prefix map ", lambda d, config: _lint_with(d, **config)),
    "lexicon_overrides": ({"accepted_abbreviation_words": "\x00"}, "lexicon file ",
                          lambda d, config: _lint_with(d, **config)),
    "metadata_path": ("\x00", "metadata ", lambda d, config: [
        "health", "--config", write(d, "run.json", json.dumps(config))]),
    "reference_paths": (["\x00.obo"], "", lambda d, config: [
        "suggest", "cough", "--config", write(d, "run.json", json.dumps(config))]),
}


@pytest.mark.parametrize("key", NUL_PATH_KEYS)
def test_a_config_path_holding_a_nul_exits_two_and_names_it(key, tmp_path, capsys):
    write(tmp_path, "prefixes.tsv", PREFIX_FILE)
    value, what, command = NUL_PATH_KEYS[key]
    code, out, err = run_cli(capsys, command(tmp_path, {key: value}))
    # The config is written into tmp_path, and its relative paths resolve
    # there. The message shows the NUL escaped, as the four characters \x00.
    shown_name = "\\x00.obo" if key == "reference_paths" else "\\x00"
    assert (code, out) == (2, "")
    assert err.startswith(
        f"vocab-lint: error: cannot read {what}{tmp_path.resolve()}/{shown_name}: ")
    assert "\x00" not in err
    assert "Traceback" not in err


def test_an_internal_error_exits_three_with_its_traceback(tmp_path, capsys, monkeypatch):
    def broken(config, inputs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli, "run_lint", broken)
    code, out, err = run_cli(capsys, ["check", write(tmp_path, "lft.obo", OBO_LFT)])
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: planted fault\n")


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_leading_byte_order_mark_changes_nothing(kind, tmp_path, capsys):
    write(tmp_path, "prefixes.tsv", PREFIX_FILE)
    name, text, _, command = FILE_KINDS[kind]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    plain = run_cli(capsys, command(tmp_path, str(path)))
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert run_cli(capsys, command(tmp_path, str(path))) == plain


class TestRules:
    def test_lists_every_rule(self, capsys):
        code, out, _ = run_cli(capsys, ["rules"])
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == len(RULES)
        for rule_id in ("R01-REUSE", "R05-ABBREV", "C-WORD-BOMB", "PARSE"):
            assert any(line.startswith(rule_id) for line in lines)

    def test_version_flag(self, capsys):
        assert run_cli(capsys, ["--version"])[:2] == (0, f"vocab-lint, version {__version__}\n")


@pytest.mark.parametrize("args", [
    pytest.param(["check"], id="missing-files"),
    pytest.param(["check", "x.obo", "--bogus"], id="unknown-option"),
    pytest.param(["check", "x.obo", "--out", "json"], id="abbreviated-option"),
    pytest.param(["check", "x.obo", "--format", "xml"], id="bad-choice"),
    pytest.param(["suggest", "cough", "-k", "x"], id="non-integer-k"),
    pytest.param(["suggest", "cough", "--references", CLINICAL_OBO, "-k", "0"], id="zero-k"),
    pytest.param(["suggest", "cough", "--references", CLINICAL_OBO, "-k", "-3"],
                 id="negative-k"),
    pytest.param([], id="no-command"),
])
def test_usage_error_exits_two_with_empty_stdout(args, capsys):
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert err


# Files a command line may name: usable ones, and a missing file, a
# directory, an empty .obo, a wrong suffix and bytes that are no UTF-8.
_ARGV_FILES = ["terms.obo", "config.json", "snapshot.txt", "terms.xml", "empty.obo",
               "empty.json", "dir.obo", "bytes.obo", "bytes.txt", "missing.obo"]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "dir.obo").mkdir()
    config = {"prefix_map_path": "prefixes.tsv", "metadata_path": "snapshot.txt",
              "reference_paths": ["terms.obo"]}
    for name, text in [("empty.obo", ""), ("terms.xml", OBO_LFT), ("terms.obo", OBO_LFT),
                       ("snapshot.txt", SNAPSHOT), ("prefixes.tsv", PREFIX_FILE),
                       ("config.json", json.dumps(config)), ("empty.json", "{}")]:
        (d / name).write_text(text, encoding="utf-8")
    (d / "bytes.obo").write_bytes(OBO_LFT.encode() + b"\xff")
    (d / "bytes.txt").write_bytes(SNAPSHOT.encode() + b"\xff")
    return d


# Each command's options and the values each takes: a list of words, a file
# (the usable file's name; any file of the list above may come instead) or
# None for a flag.
_ARGV_OPTIONS = {
    "check": {"--format": ["obo", "tsv", "xml"], "--fail-on": ["info", "error", "fatal"],
              "--rule": ["R0*", "C-*", "NOPE"], "--per-file": None,
              "--suppress": ["R05-ABBREV:LFT", "R05-ABBREV", "NOPE:x"]},
    "suggest": {"--references": "terms.obo", "-k": ["1", "3", "0", "x"]},
    "health": {"--metadata": "snapshot.txt"},
    "rules": {},
}
_ARGV_SHARED = {"--config": "config.json", "--output": ["text", "json", "xml"]}
_ARGV_QUERIES = ["cough", "wet cough", "!!"]
_ARGV_WORDS = ["", "-", "--bogus", "--out", "--help", "--version", *_ARGV_OPTIONS, *_ARGV_QUERIES]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_command_line_exits_0_1_or_2_without_a_traceback(argv_dir, data):
    command = data.draw(st.sampled_from(list(_ARGV_OPTIONS)))
    options = _ARGV_OPTIONS[command] | _ARGV_SHARED

    def file(usable):
        names = st.just(usable) | st.sampled_from(_ARGV_FILES)
        return names.map(lambda name: str(argv_dir / name))

    def option(name):
        values = options[name]
        if values is None:
            return st.just([name])
        return st.tuples(st.just(name), file(values) if isinstance(values, str)
                         else st.sampled_from(values))

    own = [st.sampled_from(sorted(options)).flatmap(option)]
    if command in ("check", "suggest"):
        own.append((file("terms.obo") if command == "check" else st.sampled_from(_ARGV_QUERIES))
                   .map(lambda word: [word]))
    stray = st.sampled_from(_ARGV_WORDS).map(lambda word: [word])
    # One piece in five is any word at all.
    piece = st.integers(0, 4).flatmap(lambda i: stray if i == 0 else st.one_of(own))
    argv = [command] + [word for part in data.draw(st.lists(piece, max_size=6))
                        for word in part]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exited:
            main(argv)
    assert exited.value.code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("args", [
    pytest.param(["rules"], id="clean-exit"),
    pytest.param(["check", "missing.obo"], id="fatal-error"),
])
def test_the_collector_state_is_restored(args, collecting, capsys):
    # The CLI pauses the cyclic collector while it runs; a caller that runs
    # it in its own process gets its own setting back.
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        run_cli(capsys, args)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import vocab_lint.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def _package_env(**variables):
    """This process's environment, with the tested package first on the path."""
    src = str(Path(vocab_lint.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **variables)


def test_cli_import_loads_only_stdlib():
    # Every CLI call pays for what importing the CLI loads; a third-party
    # import creeping in shows up here before it shows up as start-up time.
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_package_env(),
                            capture_output=True, text=True, check=True, timeout=60)
    loaded = set(result.stdout.split())
    assert "vocab_lint" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"vocab_lint"}


_CHECK_PROBE = """
import contextlib, io, sys
import vocab_lint.cli
UNUSED = ("vocab_lint.health", "vocab_lint.reuse", "datetime")
print([name for name in UNUSED if name in sys.modules])
try:
    with contextlib.redirect_stdout(io.StringIO()):
        vocab_lint.cli.main(sys.argv[1:])
except SystemExit as stop:
    print(stop.code)
print([name for name in UNUSED if name in sys.modules])
"""


def test_check_loads_neither_health_nor_reuse(corpus_dir):
    # A check run calls neither module, so neither they nor health's
    # datetime may add to what each CLI call pays before it works.
    args = ["check", "--config", str(corpus_dir / "config.json"),
            str(corpus_dir / "terms.obo"), str(corpus_dir / "picklist.tsv")]
    result = subprocess.run([sys.executable, "-c", _CHECK_PROBE, *args], env=_package_env(),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.splitlines() == ["[]", "1", "[]"], result.stderr


def test_every_exported_name_is_its_defining_modules_object(monkeypatch):
    # The health and reuse names load their module on first access; drop the
    # values that earlier accesses cached, so this test takes that path.
    deferred = [name for name in vocab_lint.__all__
                if getattr(getattr(vocab_lint, name), "__module__", None)
                in ("vocab_lint.health", "vocab_lint.reuse")]
    assert len(deferred) == 8
    for name in deferred:
        monkeypatch.delitem(vars(vocab_lint), name, raising=False)
    star: dict[str, object] = {}
    exec("from vocab_lint import *", star)
    for name in vocab_lint.__all__:
        value = getattr(vocab_lint, name)
        assert star[name] is value
        assert vars(vocab_lint)[name] is value
        owner = getattr(value, "__module__", None)
        if owner is not None:
            assert getattr(sys.modules[owner], name) is value
    with pytest.raises(AttributeError, match="has no attribute 'reused'"):
        getattr(vocab_lint, "reused")


def test_report_bytes_do_not_depend_on_the_hash_seed(corpus_dir):
    # Set and dict iteration over strings follows PYTHONHASHSEED; no such order
    # may reach the report.
    args = [sys.executable, "-m", "vocab_lint.cli", "check", "--output", "json",
            "--config", str(corpus_dir / "config.json"),
            str(corpus_dir / "terms.obo"), str(corpus_dir / "picklist.tsv")]
    reports = set()
    for seed in ("0", "1", "2"):
        result = subprocess.run(args, env=_package_env(PYTHONHASHSEED=seed),
                                capture_output=True, timeout=60)
        assert result.returncode == 1, result.stderr
        reports.add(result.stdout)
    report, = reports
    assert json.loads(report)["findings"]
