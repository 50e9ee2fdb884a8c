"""Spans and counters around vocab-lint's public functions, installed from
outside the program.

`Tracer.install()` wraps every public function of the traced modules and
rebinds each name that refers to it in any vocab_lint module, because the
engine and the checks import functions by name. Functions called many times
per term only count calls; every other function records a span (name,
start, end, parent, op id). Spans stay in memory in flat arrays until the
run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("ingest", "model", "engine", "lexical", "definitions", "identity", "reuse")

# Called once or more per term or per indexed phrase: a span each would cost
# more than the work it measures, so these only count calls.
COUNTED_ONLY = frozenset({
    "model.normalize_label", "model.tokens_of", "model.expand_iri",
    "lexical.contains_phrase", "definitions.first_sentence",
    "definitions.parse_genus_differentia", "reuse.edit_distance",
})

TERM_LEXICAL = ("check_abbreviation", "check_negative_phrasing", "check_conjunction",
                "check_plural", "check_colloquial", "check_timeline",
                "check_concept_bomb", "check_tag_style")
TERM_CHECKS = tuple(f"lexical.{c}" for c in TERM_LEXICAL) + (
    "identity.check_iri", "definitions.check_definition_present",
    "definitions.check_genus_differentia")
VOCAB_CHECKS = ("lexical.detect_word_bombs", "lexical.check_redundant_narrowing",
                "definitions.check_definition_uniqueness",
                "definitions.detect_circular_definitions", "identity.check_iri_uniqueness",
                "identity.check_label_collisions", "identity.check_synonym_collisions",
                "identity.check_deprecation")
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[int, Counter] = {}
        self.cur: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.cur = self.counts.setdefault(op_id, Counter())

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # ------------------------------------------------------------------
    # Wrapping.

    def _spanned(self, qualname: str, fn):
        nid = self.name_id(qualname)
        hook = _RESULT_HOOKS.get(qualname) or (
            _count_findings if qualname.split(".")[1].startswith(("check_", "detect_"))
            else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self.cur, result)
            return result
        return wrapper

    def _counted(self, qualname: str, fn):
        key = qualname + ".calls"
        if qualname == "reuse.edit_distance":
            ceiling = sys.modules["vocab_lint.reuse"].FUZZY_DISTANCE_CEILING

            @functools.wraps(fn)
            def edit_wrapper(a, b):
                distance = fn(a, b)
                cur = self.cur
                cur[key] += 1
                longest = max(len(a), len(b))
                if longest and distance / longest <= ceiling:
                    cur["reuse.edit_distance.accepted"] += 1
                return distance
            return edit_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cur[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if not self._wrappers:
            for short in TRACED_MODULES:
                module = sys.modules[f"vocab_lint.{short}"]
                for name, obj in vars(module).items():
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module.__name__):
                        continue
                    qualname = f"{short}.{name}"
                    make = self._counted if qualname in COUNTED_ONLY else self._spanned
                    self._wrappers[id(obj)] = make(qualname, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "vocab_lint" and not modname.startswith("vocab_lint."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Analysis.

    def per_op(self) -> dict[int, dict[str, float]]:
        """Inclusive time per span name, self time of run_lint, and the
        counters, for each op."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, float]] = {}
        run_lint = self.name_ids.get("engine.run_lint")
        for i in range(n):
            row = out.setdefault(self.op[i], {})
            dur = self.end[i] - self.start[i]
            key = self.names[self.name[i]]
            row[key] = row.get(key, 0.0) + dur
            if self.name[i] == run_lint:
                row["engine.run_lint.self"] = row.get("engine.run_lint.self", 0.0) \
                    + dur - child[i]
        for op_id, counts in self.counts.items():
            out.setdefault(op_id, {}).update(counts)
        return out

    def write(self, path) -> None:
        """One span per line: op, span, parent, name, start, end (seconds)."""
        base = min(self.start, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i] - base:.9f}\t{self.end[i] - base:.9f}\n")


def _count_findings(cur: Counter, result) -> None:
    cur["engine.findings_emitted"] += len(result)


def _count_parse(cur: Counter, result) -> None:
    vocab, diags = result
    cur["ingest.terms"] += len(vocab.terms)
    cur["ingest.diagnostics"] += len(diags)
    cur["engine.findings_emitted"] += len(diags)


def _count_cycles(cur: Counter, result) -> None:
    _count_findings(cur, result)
    cur["definitions.cycles_reported"] += sum(f.rule_id == "R07-CIRCULAR" for f in result)


_RESULT_HOOKS = {
    "ingest.parse_obo": _count_parse,
    "ingest.parse_term_table": _count_parse,
    "definitions.build_definition_graph":
        lambda cur, graph: cur.update({"definitions.mention_edges": len(graph.edges)}),
    "definitions.detect_circular_definitions": _count_cycles,
    "engine.run_lint":
        lambda cur, report: cur.update({"engine.findings_kept": len(report.findings)}),
    "engine.render_report":
        lambda cur, text: cur.update({"engine.report_bytes": len(text.encode("utf-8"))}),
    "reuse.build_index":
        lambda cur, index: cur.update({"reuse.index_phrases": sum(
            len(phrases) for _, phrases in index.entries.values())}),
}


def layer_metrics(rows: list[dict[str, float]], terms: int) -> dict[str, float]:
    """Per-layer metrics: the median over traced ops of each op's value;
    ratios are taken over the sums of all traced ops."""
    def med(fn) -> float:
        return statistics.median(fn(r) for r in rows) if rows else 0.0

    def ratio(part: str, whole: str) -> float:
        denominator = sum(r.get(whole, 0.0) for r in rows)
        return sum(r.get(part, 0.0) for r in rows) / denominator if denominator else 0.0

    def total(*names):
        return lambda r: sum(r.get(n, 0.0) for n in names)

    def share(*names):
        return lambda r: sum(r.get(n, 0.0) for n in names) / r[OP] if r.get(OP) else 0.0

    m = {
        "ingest.parse.s": med(total("ingest.parse_obo", "ingest.parse_term_table")),
        "ingest.terms": med(total("ingest.terms")),
        "ingest.diagnostics": med(total("ingest.diagnostics")),
        "model.merge_vocabularies.s": med(total("model.merge_vocabularies")),
        "model.normalize_label.calls_per_term":
            med(total("model.normalize_label.calls")) / terms,
        "model.resolve_replacement.s": med(total("model.resolve_replacement")),
    }
    for check in TERM_LEXICAL:
        m[f"lexical.{check}.s"] = med(total(f"lexical.{check}"))
    m["lexical.term_checks.s"] = med(total(*(f"lexical.{c}" for c in TERM_LEXICAL)))
    for name in ("lexical.detect_word_bombs", "lexical.check_redundant_narrowing",
                 "definitions.check_definition_present",
                 "definitions.check_genus_differentia",
                 "definitions.check_definition_uniqueness",
                 "definitions.detect_circular_definitions",
                 "definitions.build_definition_graph", "identity.check_iri",
                 "identity.check_iri_uniqueness", "identity.check_label_collisions",
                 "identity.check_synonym_collisions", "identity.check_deprecation"):
        m[f"{name}.s"] = med(total(name))
    m["definitions.mention_edges"] = med(total("definitions.mention_edges"))
    m["definitions.cycles_reported"] = med(total("definitions.cycles_reported"))
    m["engine.run_lint.self_s"] = med(total("engine.run_lint.self"))
    m["engine.findings_emitted"] = med(total("engine.findings_emitted"))
    m["engine.findings_kept"] = med(total("engine.findings_kept"))
    m["engine.kept_ratio"] = ratio("engine.findings_kept", "engine.findings_emitted")
    m["engine.render_report.s"] = med(total("engine.render_report"))
    m["engine.report_bytes"] = med(total("engine.report_bytes"))
    m["reuse.suggest_terms.s"] = med(total("reuse.suggest_terms"))
    m["reuse.edit_distance.calls_per_query"] = med(total("reuse.edit_distance.calls"))
    m["reuse.fuzzy_accept_ratio"] = ratio("reuse.edit_distance.accepted",
                                          "reuse.edit_distance.calls")
    m["op.share.ingest"] = med(share("ingest.parse_obo", "ingest.parse_term_table"))
    m["op.share.term_checks"] = med(share(*TERM_CHECKS))
    m["op.share.vocab_checks"] = med(share(*VOCAB_CHECKS))
    m["op.share.engine_self"] = med(share("engine.run_lint.self"))
    m["op.share.reuse"] = med(share("reuse.suggest_terms"))
    return m
