"""vocab-lint benchmark.

    python3 perfbench/run.py --workload lint-broad --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Generates the workload's inputs from the seed, then runs the workload's ops
in a fresh interpreter for the given number of seconds, checking every
output and timing set-up in more fresh interpreters along the way. The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1, named and
with units as in BENCHMARK.json. Lines before it are a readable summary.
Everything is written under .perfbench_work/ and .perfbench_out/ in the
checkout. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NETWORKX_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], stderr_out: bool = False) -> str:
    """Run a Python child in its own process group; on a timeout or any
    exit of this process (SIGTERM included), kill the group, so the worker's
    set-up probes go too, and reap the child."""
    with subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {args}") from exc
            raise
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {args}\n{stderr[-2000:]}")
    return stderr if stderr_out else stdout


def networkx_import_s() -> float:
    """Cumulative import time of networkx under -X importtime, which is how
    much of the CLI import the dependency costs."""
    text = run_child(["-X", "importtime", "-c", "import vocab_lint.cli"], stderr_out=True)
    for line in text.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*networkx\s*$", line)
        if m:
            return int(m.group(1)) / 1e6
    return 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        workloads.generate(workload, seed, work)
        spans = None
        if trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = str(out / f"spans-{workload}.tsv")
        result = json.loads(run_child(
            [str(HERE / "worker.py"), str(work), str(seconds), "1" if trace else "0"]
            + ([spans] if spans else [])))
        if trace:
            result["layers"]["setup.import_s"] = min(result["import_s"])
            result["layers"]["setup.import_networkx_s"] = min(
                networkx_import_s() for _ in range(NETWORKX_SAMPLES))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: dict) -> dict[str, float]:
    """Set-up and each op kind's latency are their best times in the run;
    p50 and p90 are taken across op kinds."""
    best_ms = [min(times) * 1000.0 for times in result["op_s"]]
    p90 = statistics.quantiles(best_ms, n=10, method="inclusive")[8] \
        if len(best_ms) > 1 else best_ms[0]
    return {
        "setup_s": min(result["setup_s"]),
        "op_p50_ms": statistics.median(best_ms),
        "op_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def summary(workload: str, seed: int, result: dict, metrics: dict[str, float]) -> list[str]:
    kinds = len(result["op_s"])
    n = sum(len(times) for times in result["op_s"])
    rate = result["failed"] / result["attempted"]
    lines = [f"{workload} seed {seed}: {result['terms']} terms, "
             f"{result['attempted']} ops, error_rate {rate:.4f} ratio "
             f"({result['failed']}/{result['attempted']})"]
    lines.append(f"  setup_s      {metrics['setup_s']:.4f} s  "
                 f"(best of {len(result['setup_s'])} fresh interpreters)")
    if workload == "suggest":
        lines.append(f"  suggest_p50_ms {metrics['op_p50_ms']:.2f} ms  "
                     f"suggest_p90_ms {metrics['op_p90_ms']:.2f} ms  "
                     f"(over {kinds} queries, best of n={n} timed in all)")
    else:
        lines.append(f"  lint_s       {metrics['op_p50_ms'] / 1000:.4f} s  "
                     f"(best per input order, n={n} ops)")
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, on which run_child kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "vocab_lint" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += result["attempted"]
            failed += result["failed"]
            e2e = end_to_end(result)
            print("\n".join(summary(name, args.seed, result, e2e)), flush=True)
            values = result["layers"] if args.trace else e2e
            prefix = f"{name}/" if args.workload == "all" else ""
            for key, unit in units.items():
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
