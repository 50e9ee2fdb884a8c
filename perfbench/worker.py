"""Runs a workload's ops in a fresh interpreter, started by run.py.

    worker.py WORKDIR SECONDS TRACE [SPANS_PATH]

Runs the ops until SECONDS have passed, checks every output and prints the
result as JSON. About once a second it pauses the ops to time set-up in a
fresh interpreter (setup_probe.py), so set-up samples spread over the run
as op samples do. The program under test is imported from the checkout's
src/ directory, which run.py puts on PYTHONPATH.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from setup_probe import load_references

EXACT_KINDS = ("exact_label", "exact_synonym", "other_synonym")
PROBE_EVERY_S = 1.0          # op time between two set-up samples
PROBE = str(Path(__file__).resolve().parent / "setup_probe.py")


def setup_sample(args: list[str]) -> tuple[float, float]:
    """(import_s, setup_s) of one fresh interpreter."""
    done = subprocess.run([sys.executable, PROBE] + args, capture_output=True,
                          text=True, timeout=60, check=True)
    import_s, setup_s = done.stdout.split()
    return float(import_s), float(setup_s)


class GcClock:
    """Collector pauses and collections, via gc.callbacks."""

    def __init__(self) -> None:
        self.pause = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause += time.perf_counter() - self._t0
            self.collections += 1

    def take(self) -> tuple[float, int]:
        out = (self.pause, self.collections)
        self.pause, self.collections = 0.0, 0
        return out


def lint_op(spec: dict, workdir: Path, config, reverse: bool):
    """One `check`: run_lint plus the JSON report, with the inputs in file
    order or reversed."""
    from vocab_lint.engine import render_report, run_lint

    inputs = [(str(workdir / name), None) for name in spec["inputs"]]
    if reverse:
        inputs.reverse()
    report = run_lint(config, inputs)
    return report, render_report(report, "json")


def check_lint(expected: Counter, report, digest: str, first_digest: str) -> str | None:
    found = Counter((f.rule_id, f.subject_label) for f in report.findings)
    if found != expected:
        missing = sorted((expected - found).elements())[:3]
        extra = sorted((found - expected).elements())[:3]
        return f"finding multiset differs: missing {missing}, unexpected {extra}"
    if digest != first_digest:
        return "report bytes differ from the first op of this run"
    return None


def check_suggest(query: dict, results) -> str | None:
    if query["iri"] is None:
        if any(s.match_kind in EXACT_KINDS for s in results):
            return f"miss {query['query']!r} got an exact hit"
        return None
    if not results:
        return f"{query['query']!r} got no suggestions"
    top = results[0]
    got = (top.term.iri.value if top.term.iri else None, top.match_kind)
    if got != (query["iri"], query["match_kind"]):
        return f"{query['query']!r}: top-1 {got}, expected {(query['iri'], query['match_kind'])}"
    return None


def ops(workdir: Path, seconds: float, trace: bool, spans_path: str | None) -> dict:
    spec = json.loads((workdir / "expected.json").read_text(encoding="utf-8"))
    import vocab_lint.cli  # noqa: F401
    from vocab_lint import reuse
    from vocab_lint.engine import load_config

    tracer = None
    if trace:
        from tracing import OP, Tracer, layer_metrics

        tracer = Tracer()
    gc_clock = GcClock()
    if trace:
        gc.callbacks.append(gc_clock)

    lint = spec["kind"] == "lint"
    probe_args = [] if lint else [str(workdir / name) for name in spec["references"]]
    setup_sample(probe_args)   # fills the bytecode cache; not counted
    if lint:
        config = load_config(str(workdir / spec["config"]))
        expected = Counter(tuple(e) for e in spec["expected"])
        terms = spec["terms"]
    else:
        if tracer is not None:
            tracer.begin_op(-1)
            tracer.install()
        index = load_references(probe_args)
        if tracer is not None:
            tracer.uninstall()
        queries = spec["queries"]
        terms = len(index.entries)

    # Op latencies by op kind: the input order of a lint, the query of a
    # suggest. Each kind repeats, so its best time filters out host noise.
    kinds = 2 if lint else len(queries)
    # Contention on a shared host comes and goes per CPU, so each round of
    # op kinds runs on the next CPU this process may use, and a kind's best
    # time can come from whichever CPU was quiet.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = None
    untraced: dict[object, list[float]] = {}
    traced: dict[object, list[float]] = {}
    recent: list[float] = []
    gc_rows: list[tuple[float, int]] = []
    setups: list[tuple[float, float]] = []
    failures: list[str] = []
    attempted = 0
    first_digest = None
    op_id = 0
    started = last_probe = time.perf_counter()
    while True:
        now = time.perf_counter()
        if not setups or now - last_probe >= PROBE_EVERY_S:
            setups.append(setup_sample(probe_args))
            now = last_probe = time.perf_counter()
        if attempted and now - started + statistics.median(recent[-5:]) > seconds:
            break
        traced_op = tracer is not None and attempted % 2 == 1
        # A traced run gives each traced op the same kind as the untraced
        # op before it.
        turn = attempted // 2 if tracer else attempted
        if cpus[turn // kinds % len(cpus)] != cpu:
            cpu = cpus[turn // kinds % len(cpus)]
            os.sched_setaffinity(0, {cpu})
        if traced_op:
            tracer.begin_op(op_id)
            tracer.install()
            span = tracer.open(tracer.name_id(OP))
        gc_clock.take()
        failure = None
        t0 = time.perf_counter()
        try:
            if lint:
                # Input order alternates so the determinism check compares
                # both orders.
                kind = "reversed" if turn % 2 else "forward"
                report, text = lint_op(spec, workdir, config, turn % 2 == 1)
            else:
                kind = turn % kinds
                query = queries[kind]
                # Looked up on the module, where the tracer rebinds it.
                results = reuse.suggest_terms(index, query["query"], k=5)
        except Exception as exc:  # a failing op is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        recent.append(t1 - t0)
        if traced_op:
            tracer.close(span)
            tracer.uninstall()
            traced.setdefault(kind, []).append(t1 - t0)
            op_id += 1
        else:
            untraced.setdefault(kind, []).append(t1 - t0)
            gc_rows.append(gc_clock.take())
        if failure is None:
            if lint:
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                first_digest = first_digest or digest
                failure = check_lint(expected, report, digest, first_digest)
            else:
                failure = check_suggest(query, results)
        attempted += 1
        if failure is not None:
            failures.append(f"op {attempted - 1}: {failure}")

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "op_s": list(untraced.values()),
        "import_s": [i for i, _ in setups],
        "setup_s": [s for _, s in setups],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "terms": terms,
    }
    if tracer is not None:
        gc.callbacks.remove(gc_clock)
        rows = tracer.per_op()
        setup_row = rows.pop(-1, {})
        layers = layer_metrics(list(rows.values()), terms)
        if not lint:
            # In suggest, parsing and indexing happen once, in set-up.
            layers["ingest.parse.s"] = setup_row.get("ingest.parse_obo", 0.0) \
                + setup_row.get("ingest.parse_term_table", 0.0)
            layers["ingest.terms"] = setup_row.get("ingest.terms", 0.0)
            layers["ingest.diagnostics"] = setup_row.get("ingest.diagnostics", 0.0)
        layers["reuse.build_index.s"] = setup_row.get("reuse.build_index", 0.0)
        layers["reuse.index_phrases"] = setup_row.get("reuse.index_phrases", 0.0)
        layers["runtime.gc_pause_s"] = statistics.median(p for p, _ in gc_rows)
        layers["runtime.gc_collections"] = statistics.median(c for _, c in gc_rows)
        layers["trace.untraced_op_s"] = statistics.median(min(t) for t in untraced.values())
        layers["trace.overhead_s"] = statistics.median(
            min(traced[k]) - min(untraced[k]) for k in traced if k in untraced) \
            if traced else 0.0
        result["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    workdir, seconds, trace = Path(argv[1]), float(argv[2]), argv[3] == "1"
    print(json.dumps(ops(workdir, seconds, trace, argv[4] if len(argv) > 4 else None)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
