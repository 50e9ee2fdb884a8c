"""The pinned CLI runs of tests/fixtures/runs.json, run in-process through
tools/fixture_runs.py, and a smoke test of that runner."""

import importlib.util
import json
import shutil
import warnings
from pathlib import Path

import pytest

from vocab_lint import __version__

from test_cli import run_cli

_spec = importlib.util.spec_from_file_location(
    "fixture_runs", Path(__file__).resolve().parent.parent / "tools" / "fixture_runs.py")
fixture_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixture_runs)
ROOT, FIXTURES = fixture_runs.ROOT, fixture_runs.FIXTURES
ENTRIES = {entry["name"]: entry for entry in fixture_runs.load(ROOT)}


@pytest.fixture
def in_process(monkeypatch, capsys):
    """The runner's invoker as a cli.main call, with warnings turned into errors."""
    def invoke(argv, cwd):
        monkeypatch.chdir(cwd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        return code, out.encode("utf-8"), err
    return invoke


@pytest.fixture(scope="module")
def crlf(tmp_path_factory):
    return fixture_runs.crlf_copy(ROOT, tmp_path_factory.mktemp("crlf"))


@pytest.mark.parametrize("name", ENTRIES)
def test_pinned_run(name, crlf, in_process):
    assert fixture_runs.mismatches(ENTRIES[name], ROOT, crlf, in_process) == []


def test_every_expected_file_is_pinned_and_every_named_path_exists():
    pinned = {entry["stdout"] for entry in ENTRIES.values()} - {None}
    assert {p.relative_to(ROOT).as_posix() for p in (ROOT / FIXTURES).rglob("expected*")} <= pinned
    named = pinned | {arg for entry in ENTRIES.values() for arg in entry["argv"] if "/" in arg}
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []


def test_the_runner_reports_each_tamper(tmp_path, in_process):
    shutil.copytree(ROOT / FIXTURES, tmp_path / FIXTURES)
    expected = tmp_path / ENTRIES["unicode-labels"]["stdout"]
    expected.write_bytes(expected.read_bytes().replace(b"{", b"[", 1))
    nul = ENTRIES["nul-path-config"]
    tampered = [ENTRIES["unicode-labels"], {**ENTRIES["version"], "exit": 1},
                {**nul, "stderr_has": [*nul["stderr_has"], "absent text"]}]
    (tmp_path / FIXTURES / "runs.json").write_text(json.dumps(tampered))
    assert fixture_runs.check(tmp_path, in_process) == [
        f"{name}{where}: {problem}" for name, problem in [
            ("unicode-labels", "stdout differs from tests/fixtures/unicode/expected.json"),
            ("version", "exit status 0, expected 1"),
            ("nul-path-config", "stderr lacks 'absent text'")] for where in ("", " (CRLF)")]


def test_the_default_invoker_runs_this_checkouts_package():
    version = f"vocab-lint, version {__version__}\n".encode()
    assert fixture_runs.run_module(["--version"], ROOT) == (0, version, "")
