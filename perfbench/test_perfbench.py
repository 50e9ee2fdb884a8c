"""Tests of the benchmark itself, at a small size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    """Shrink every workload; generate() reads the sizes at call time."""
    for name, value in {"BROAD_TERMS": 120, "CLUSTERED_GROUP": 24, "CLUSTERED_CHAIN": 10,
                        "CLUSTERED_FILLER": 12, "CLUSTERED_CYCLES": 3,
                        "SUGGEST_TERMS": 40, "SUGGEST_QUERIES": 10}.items():
        monkeypatch.setattr(workloads, name, value)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _files(_generate(workload, 7, tmp_path / "a"))
    assert first == _files(_generate(workload, 7, tmp_path / "b"))
    assert first != _files(_generate(workload, 8, tmp_path / "c"))


def _generate(workload: str, seed: int, out: Path) -> Path:
    workloads.generate(workload, seed, out)
    return out


def _ops(workdir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), str(workdir), "0.5", "0"],
        env=run.child_env(), capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("workload", ["lint-broad", "suggest"])
def test_corrupted_expected_value_counts_as_failed_op(tmp_path, workload):
    _generate(workload, 5, tmp_path)
    clean = _ops(tmp_path)
    assert clean["attempted"] >= 1 and clean["failed"] == 0, clean["failures"]

    spec_path = tmp_path / "expected.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if workload == "suggest":
        query = next(q for q in spec["queries"] if q["iri"] is not None)
        query["iri"] += "0"
        spec["queries"] = [query]
    else:
        spec["expected"].append(["R02-PLURAL", "never planted"])
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    corrupted = _ops(tmp_path)
    assert corrupted["attempted"] >= 1
    assert corrupted["failed"] == corrupted["attempted"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, trace):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in workloads.WORKLOADS:
        for metric in declared:
            printed = result["metrics"][f"{workload}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
    summary = "\n".join(lines[:-1])
    assert "error_rate" in summary and "suggest_p90_ms" in summary and "n=" in summary


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suggest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
