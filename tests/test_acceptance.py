"""End-to-end acceptance checks. Each test covers one shipped guarantee and
prints a single PASS/FAIL line so a verbose run reads as a checklist."""

import random
import time
from contextlib import contextmanager
from datetime import date

import pytest

from vocab_lint.definitions import (
    MAX_REPORTED_CYCLES,
    build_definition_graph,
    detect_circular_definitions,
)
from vocab_lint.engine import (
    RuleConfig,
    load_config,
    parse_input,
    read_text,
    render_report,
    run_lint,
)
from vocab_lint.health import OntologyMetadata, assess_health, load_metadata
from vocab_lint.identity import check_deprecation, default_prefix_map
from vocab_lint.ingest import parse_obo, serialize_obo
from vocab_lint.lexical import detect_word_bombs
from vocab_lint.model import (
    Definition,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    build_vocabulary,
    expand_iri,
    normalize_label,
)
from vocab_lint.reuse import build_index, suggest_terms

from oracles import ReplacementCycleError, edit_distance, resolve_replacement


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {title}")
        raise
    print(f"criterion {number}: PASS  {title}")


def corpus_inputs(corpus_dir):
    return [(str(corpus_dir / "terms.obo"), None),
            (str(corpus_dir / "picklist.tsv"), None)]


def test_criterion_1_example_corpus_findings(corpus_dir):
    with criterion(1, "example corpus yields the exact finding multiset in under 1 s"):
        config = load_config(str(corpus_dir / "config.json"))
        started = time.perf_counter()
        report = run_lint(config, corpus_inputs(corpus_dir))
        elapsed = time.perf_counter() - started

        expected = sorted([
            ("R05-ABBREV", "LFT"),
            ("R05-EXPANSION-STYLE", "Bronchoalveolar lavage (BAL)"),
            ("R02-NEGATIVE", "not diagnostic testing"),
            ("R02-NEGATIVE", "all meat except lamb"),
            ("R02-CONJUNCTION", "chicken or turkey"),
            ("R03-COLLOQUIAL", "belly"),
            ("R03-COLLOQUIAL", "wet cough"),
            ("R04-NARROW", "wastewater purpose of sequencing"),
            ("C-SEMANTIC-NOISE", "plasma"),
            ("C-WORD-BOMB", "farm"),
            ("C-CONCEPT-BOMB",
             "previous SARS-CoV-2 infection in the last 6 months with treatment"),
            ("C-TIMELINE", "most recent test date"),
            ("R07-DUPLICATE-DEF", "dry cough"),
            ("R07-CIRCULAR", "harvest season -> growing season"),
            ("R08-LABEL", "Rapid Breathing"),
            ("R08-DANGLING", "obsolete specimen collection kit"),
            ("R09-BOOLEAN", "no"),
            ("R09-BOOLEAN", "yes"),
        ])
        found = sorted((f.rule_id, f.subject_label) for f in report.findings)
        assert found == expected

        by_key = {(f.rule_id, f.subject_label): f for f in report.findings}
        assert by_key[("R03-COLLOQUIAL", "belly")].suggestion == "abdomen"
        assert by_key[("R03-COLLOQUIAL", "wet cough")].suggestion == "productive cough"
        assert len(by_key[("C-WORD-BOMB", "farm")].subject_iris) == 6

        never_flagged = {"non-parametric test", "Fisheries and Oceans Canada",
                         "goggles", "primer specification deprecated"}
        assert not any(f.subject_label in never_flagged for f in report.findings)
        assert not any(f.rule_id == "R04-NARROW" and f.subject_label == "productive cough"
                       for f in report.findings)
        assert elapsed < 1.0, f"corpus lint took {elapsed:.3f} s"


def test_criterion_2_deterministic_reports(corpus_dir):
    with criterion(2, "repeated and order-reversed runs render byte-identical JSON"):
        config = load_config(str(corpus_dir / "config.json"))
        inputs = corpus_inputs(corpus_dir)
        first = render_report(run_lint(config, inputs), output="json")
        second = render_report(run_lint(config, inputs), output="json")
        reversed_order = render_report(run_lint(config, list(reversed(inputs))),
                                       output="json")
        assert first == second
        assert first == reversed_order


def brute_force_simple_cycles(nodes, edges):
    """Directed simple cycles of length >= 2, each as the rotation starting
    from its smallest node. Independent of the shipped detector."""
    adjacency = {}
    for tail, head in edges:
        if tail != head:
            adjacency.setdefault(tail, set()).add(head)
    found = set()

    def extend(start, node, path, on_path):
        for nxt in sorted(adjacency.get(node, ())):
            if nxt == start:
                if len(path) >= 2:
                    found.add(tuple(path))
            elif nxt > start and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                extend(start, nxt, path, on_path)
                path.pop()
                on_path.remove(nxt)

    for start in sorted(nodes):
        extend(start, start, [start], {start})
    return found


def test_criterion_3_cycle_detector_matches_oracle():
    with criterion(3, "cycle detection matches a brute-force enumerator on "
                      "100 random vocabularies in under 10 s"):
        rng = random.Random(20260814)
        prefix_map = {"EX": "https://example.org/check_"}
        started = time.perf_counter()
        for _ in range(100):
            node_count = rng.randint(1, 12)
            labels = [f"vertex{i:02d}" for i in range(node_count)]
            identities = [f"https://example.org/check_{i:02d}"
                          for i in range(node_count)]
            planted = {(i, j)
                       for i in range(node_count) for j in range(node_count)
                       if rng.random() < 0.12}
            terms = []
            for i, label in enumerate(labels):
                targets = sorted(j for (t, j) in planted if t == i)
                definition = None
                if targets:
                    mentions = " plus ".join(labels[j] for j in targets)
                    definition = Definition(text=f"Links {mentions} now.",
                                            sources=("SRC:1",))
                terms.append(Term(label=label, iri=Iri(f"EX:{i:02d}"),
                                  definition=definition))
            vocab = build_vocabulary(terms, prefix_map)

            graph = build_definition_graph(vocab)
            assert graph.edges == frozenset(
                (identities[i], identities[j]) for i, j in planted)

            expected_self = sorted(identities[i] for i, j in planted if i == j)
            expected_cycles = brute_force_simple_cycles(set(identities),
                                                        graph.edges)
            assert len(expected_cycles) <= MAX_REPORTED_CYCLES

            findings = detect_circular_definitions(vocab)
            label_to_identity = dict(zip(labels, identities))
            got_self = [label_to_identity[f.subject_label] for f in findings
                        if f.rule_id == "R07-SELF-REF"]
            got_cycles = {tuple(label_to_identity[lbl]
                                for lbl in f.subject_label.split(" -> "))
                          for f in findings if f.rule_id == "R07-CIRCULAR"}
            assert got_self == expected_self
            assert got_cycles == expected_cycles
            assert len([f for f in findings if f.rule_id == "R07-CIRCULAR"]) \
                == len(expected_cycles)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"100 oracle comparisons took {elapsed:.3f} s"


def brute_force_ranking(index, query):
    """Re-rank every indexed term with an independently written scorer."""
    normalized = normalize_label(query)
    query_tokens = frozenset(normalized.split())
    kind_rank = {"exact_label": 0, "exact_synonym": 1, "other_synonym": 2,
                 "token_overlap": 3, "fuzzy": 4}
    exact = {"label": (1.0, "exact_label"), "exact_synonym": (0.9, "exact_synonym"),
             "other_synonym": (0.8, "other_synonym")}
    best = {}
    for identity, (term, phrases) in index.entries.items():
        for phrase, phrase_kind in phrases.items():
            candidates = []
            if phrase == normalized:
                candidates.append(exact[phrase_kind])
            else:
                phrase_tokens = frozenset(phrase.split())
                overlap = len(query_tokens & phrase_tokens)
                if overlap:
                    candidates.append(
                        (0.7 * overlap / len(query_tokens | phrase_tokens),
                         "token_overlap"))
                longest = max(len(normalized), len(phrase))
                if longest:
                    ratio = edit_distance(normalized, phrase) / longest
                    if ratio <= 0.25:
                        candidates.append((0.6 * (1.0 - ratio), "fuzzy"))
            for score, kind in candidates:
                current = best.get(identity)
                if (current is None or score > current[0]
                        or (score == current[0]
                            and kind_rank[kind] < kind_rank[current[1]])):
                    best[identity] = (score, kind)
    rows = [(score, index.source_count.get(identity, 1), kind, identity)
            for identity, (score, kind) in best.items()]
    rows.sort(key=lambda row: (-row[0], -row[1], row[3]))
    return rows


def test_criterion_4_suggester_matches_oracle(reference_dir):
    with criterion(4, "suggestion ranking matches a brute-force scorer on 50 "
                      "random queries and scores wet cough at exactly 0.9"):
        prefixes = default_prefix_map()
        vocabs = []
        for name in ("clinical.obo", "surveillance.tsv"):
            vocab, _ = parse_input(str(reference_dir / name), None)
            vocabs.append(build_vocabulary(vocab.terms, prefixes.entries))
        fixture_index = build_index(vocabs)
        top = suggest_terms(fixture_index, "wet cough", k=3)
        assert top[0].term.label == "productive cough"
        assert top[0].score == 0.9
        assert top[0].match_kind == "exact_synonym"

        rng = random.Random(7)
        pool = ["cough", "fever", "sample", "swab", "assay", "panel", "wash",
                "filter", "probe", "lavage", "plasma", "serum", "tissue",
                "culture", "smear", "buffer", "reagent", "vial", "rack", "slide"]
        scopes = ("exact", "related", "broad")
        random_prefixes = {"EX": "https://example.org/EX_"}
        random_vocabs = []
        for _ in range(3):
            terms = []
            for _ in range(30):
                iri = Iri(f"EX:{rng.randint(0, 59):03d}")
                label = " ".join(rng.sample(pool, rng.randint(1, 3)))
                synonyms = tuple(
                    Synonym(" ".join(rng.sample(pool, rng.randint(1, 2))),
                            scope=rng.choice(scopes))
                    for _ in range(rng.randint(0, 2)))
                terms.append(Term(label=label, iri=iri, synonyms=synonyms))
            random_vocabs.append(build_vocabulary(terms, random_prefixes))
        index = build_index(random_vocabs)
        phrase_count = sum(len(phrases) for _, phrases in index.entries.values())
        assert phrase_count <= 200

        for _ in range(50):
            words = rng.sample(pool, rng.randint(1, 3))
            query = " ".join(words)
            if rng.random() < 0.4:
                pos = rng.randrange(len(query))
                query = query[:pos] + rng.choice("abcdefgh") + query[pos + 1:]
            expected = brute_force_ranking(index, query)
            got = suggest_terms(index, query, k=len(index.entries))
            got_rows = [(s.score, s.reuse_count, s.match_kind,
                         expand_iri(s.term.iri, random_prefixes)) for s in got]
            assert [row[3] for row in got_rows] == [row[3] for row in expected]
            assert [row[2] for row in got_rows] == [row[2] for row in expected]
            assert [row[1] for row in got_rows] == [row[1] for row in expected]
            for got_row, expected_row in zip(got_rows, expected):
                assert got_row[0] == pytest.approx(expected_row[0], abs=1e-9)


def test_criterion_5_replacement_chains():
    with criterion(5, "replacement chains of length 1-10 resolve to the "
                      "terminus and 2- and 3-cycles raise"):
        prefix_map = {"EX": "https://example.org/EX_"}
        for length in range(1, 11):
            terms = []
            for i in range(length):
                terms.append(Term(label=f"obsolete step {i:02d}",
                                  iri=Iri(f"EX:{i:02d}"), obsolete=True,
                                  replaced_by=Iri(f"EX:{i + 1:02d}")))
            terminus = Term(label="target anchor", iri=Iri(f"EX:{length:02d}"))
            terms.append(terminus)
            vocab = build_vocabulary(terms, prefix_map)

            final = resolve_replacement(vocab, Iri("EX:00"))
            assert vocab.term_for(final) is terminus

            chains = [f for f in check_deprecation(vocab)
                      if f.rule_id == "R08-CHAIN"]
            assert len(chains) == length - 1
            for finding in chains:
                assert finding.suggestion == "target anchor"
                assert '"target anchor"' in finding.message

        def cycle_vocab(size):
            members = [Term(label=f"obsolete loop {i}", iri=Iri(f"EX:{i}"),
                            obsolete=True,
                            replaced_by=Iri(f"EX:{(i + 1) % size}"))
                       for i in range(size)]
            return build_vocabulary(members, prefix_map)

        for size in (2, 3):
            vocab = cycle_vocab(size)
            with pytest.raises(ReplacementCycleError):
                resolve_replacement(vocab, Iri("EX:0"))
            cycle_findings = [f for f in check_deprecation(vocab)
                              if f.rule_id == "R08-CYCLE"]
            assert len(cycle_findings) == size


ROUND_TRIP_OBO = """\
format-version: 1.2

[Term]
id: HP:0012735
name: cough
def: "A reflex with a \\"sudden\\" burst of air." [PMID:1, ISBN:2]
synonym: "tussis" EXACT []
synonym: "hacking" RELATED []
synonym: "resp event" BROAD [ABBREVIATION]
is_a: HP:0000001
is_a: HP:0000002
source_note: curated by hand
source_note: checked twice

[Term]
id: HP:0099999
name: obsolete rapid breathing
is_obsolete: true
replaced_by: HP:0002789

[Term]
name: floating record
def: "An unidentified row." []
"""


def _fields(term):
    return (term.label, term.iri, term.definition, term.synonyms, term.parents,
            term.obsolete, term.replaced_by, tuple(sorted(term.annotations.items())))


def test_criterion_6_obo_round_trip():
    with criterion(6, "OBO subset round-trips field-identically with correct "
                      "line numbers"):
        vocab, diags = parse_obo(ROUND_TRIP_OBO, "fixture.obo")
        assert [t.location for t in vocab.terms] == [
            SourceLocation("fixture.obo", 3),
            SourceLocation("fixture.obo", 15),
            SourceLocation("fixture.obo", 21),
        ]
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert diags[0].location == SourceLocation("fixture.obo", 21)

        cough = vocab.terms[0]
        assert cough.definition.text == 'A reflex with a "sudden" burst of air.'
        assert cough.definition.sources == ("PMID:1", "ISBN:2")
        assert [s.scope for s in cough.synonyms] == ["exact", "related", "broad"]
        assert cough.synonyms[2].is_abbreviation
        assert cough.annotations["source_note"] == "curated by hand|checked twice"

        serialized = serialize_obo(vocab)
        reparsed, rediags = parse_obo(serialized, "round.obo")
        assert [_fields(t) for t in reparsed.terms] == [_fields(t) for t in vocab.terms]
        # The only diagnostic on reparse is the same missing-id stanza.
        assert [d.message for d in rediags] == [diags[0].message]

        twice, _ = parse_obo(serialize_obo(reparsed), "round2.obo")
        assert [_fields(t) for t in twice.terms] == [_fields(t) for t in reparsed.terms]


def test_criterion_7_health_scoring(health_snapshot):
    with criterion(7, "health scoring reproduces 0.99, 0.0/stale, and the "
                      "0.75/0.40 verdict boundaries"):
        records = {record.name: record for record
                   in load_metadata(read_text("metadata ", str(health_snapshot)))[0]}

        maximal = assess_health(records["well-tended-ontology"])
        assert maximal.composite == pytest.approx(0.99, abs=1e-9)
        assert maximal.verdict == "healthy"

        dusty = assess_health(records["dusty-legacy-vocab"])
        assert dusty.composite == 0.0
        assert dusty.verdict == "stale"
        assert any("does not mean the content is of poor quality" in note
                   for note in dusty.notes)

        active_only = OntologyMetadata(name="edge", as_of=date(2026, 8, 1),
                                       last_release=date(2026, 8, 1))
        at_healthy = assess_health(active_only,
                                   weights={"activity": 0.75, "identifiers": 0.25})
        assert at_healthy.composite == 0.75
        assert at_healthy.verdict == "healthy"

        at_caution = assess_health(active_only,
                                   weights={"activity": 0.4, "documentation": 0.6})
        assert at_caution.composite == 0.4
        assert at_caution.verdict == "caution"


SCALE_BASE = "https://example.org/vocab/T_"

SCALE_TAGS_OBO = """\
format-version: 1.2

[Term]
id: https://example.org/vocab/T_checkpoint
name: run checkpoint
def: "A pipeline gate is a control that blocks bad output." [SRC:1]
comment: yes please skip this one
primer_check: yes
site_note: no growth seen

[Term]
name: unnamed probe
def: "A floating record is an entry that lacks identity." [SRC:2]

[Term]
id: https://example.org/vocab/T_dupobo
name: dup alpha
def: "A first duplicate is an entry that collides early." [SRC:3]

[Term]
id: https://example.org/vocab/T_dupobo
name: dup beta
def: "A second duplicate is an entry that collides late." [SRC:4]
"""

# (rule id, exact subject) for every planted defect in the scale corpus.
SCALE_PLANTED = [
    ("R02-NEGATIVE", "not applicable plant"),
    ("R02-CONJUNCTION", "beaker or flask"),
    ("R02-PLURAL", "collected aliquots"),
    ("R03-COLLOQUIAL", "belly"),
    ("R04-NARROW", "roadside kiosk survey"),
    ("R05-ABBREV", "LFT"),
    ("R05-EXPANSION-STYLE", "Bronchoalveolar lavage (BAL)"),
    ("C-WORD-BOMB", "kiosk"),
    ("C-CONCEPT-BOMB", "courier dispatch relay case file audit stage"),
    ("C-TIMELINE", "most recent draw date"),
    ("C-SEMANTIC-NOISE", "plasma"),
    ("C-SYNONYM-CLASH", "tachypnea"),
    ("R06-MISSING-IRI", "ghost entry"),
    ("R06-MISSING-IRI", "unnamed probe"),
    ("R06-BAD-IRI", "curie probe"),
    ("R06-NONPURL", "phenotype mirror"),
    ("R06-DUP-IRI", "dup first"),
    ("R06-DUP-IRI", "dup alpha"),
    ("R07-MISSING-DEF", "undocumented widget"),
    ("R07-MISSING-SOURCE", "unsourced widget"),
    ("R07-FORM", "freeform widget"),
    ("R07-GENUS-MISMATCH", "mismatch case"),
    ("R07-DUPLICATE-DEF", "twin copy one"),
    ("R07-SELF-REF", "ouroboros"),
    ("R07-CIRCULAR", "harvest window -> growing window"),
    ("R08-LABEL", "Rapid Flow"),
    ("R08-NO-REPLACEMENT", "obsolete dusty gauge"),
    ("R08-DANGLING", "obsolete torn filter"),
    ("R08-CHAIN", "obsolete chain head"),
    ("R08-CYCLE", "obsolete loop one"),
    ("R08-CYCLE", "obsolete loop two"),
    ("R08-LIVE-REPLACED", "eager pointer"),
    ("R08-OBSOLETE-PARENT", "orphan holder"),
    ("R09-BOOLEAN", "yes"),
    ("R09-NEGATIVE-TAG", "no growth seen"),
    ("PARSE", ""),
]


def _scale_rows(filler_count):
    rows = []

    def row(label, iri="", definition="", source="", parents="", synonyms="",
            obsolete="", replaced_by=""):
        rows.append("\t".join([label, iri, definition, source, parents,
                               synonyms, obsolete, replaced_by]))

    for i in range(filler_count):
        row(f"specimen factor {i:05d}", f"{SCALE_BASE}{i:05d}",
            f"A sample attribute is a quality that identifies batch number {i:05d}.",
            "SRC:f")

    row("not applicable plant", f"{SCALE_BASE}negative",
        "A placeholder response is an entry that marks missing data.", "SRC:p")
    row("beaker or flask", f"{SCALE_BASE}conjunction",
        "A glass vessel is a container that holds liquid.", "SRC:p")
    row("collected aliquots", f"{SCALE_BASE}plural",
        "A divided portion set is a batch that comes from one source.", "SRC:p")
    row("belly", f"{SCALE_BASE}colloquial",
        "A ventral region is a zone that sits below the ribs.", "SRC:p")
    row("kiosk survey", f"{SCALE_BASE}survey",
        "A booth questionnaire is a poll that asks visitors.", "SRC:p")
    row("roadside kiosk survey", f"{SCALE_BASE}narrow",
        "A street intercept questionnaire is a poll that asks passersby.", "SRC:p")
    row("LFT", f"{SCALE_BASE}abbrev",
        "A liver function screen is a panel that measures enzymes.", "SRC:p")
    row("Bronchoalveolar lavage (BAL)", f"{SCALE_BASE}expansion",
        "A lung rinse sample is a wash that collects fluid.", "SRC:p")
    row("kiosk", f"{SCALE_BASE}kiosk",
        "A roadside booth is a station that sells items.", "SRC:p")
    for color in ("red", "blue", "green", "tan", "gray"):
        row(f"{color} kiosk", f"{SCALE_BASE}kiosk{color}",
            f"A {color} painted booth is a kiosk that shows {color} paint.",
            "SRC:p", parents=f"{SCALE_BASE}kiosk")
    row("courier dispatch relay case file audit stage", f"{SCALE_BASE}bomb",
        "A bundled logistics record is an entry that mixes several steps.", "SRC:p")
    row("most recent draw date", f"{SCALE_BASE}timeline",
        "A sampling timestamp is a value that shifts with new records.", "SRC:p")
    row("plasma", f"{SCALE_BASE}noise1",
        "The yellow component of blood is a fluid that carries cells.", "SRC:p")
    row("plasma", f"{SCALE_BASE}noise2",
        "An ionized gas phase is a state that conducts current.", "SRC:p")
    row("tachypnea", f"{SCALE_BASE}syn1",
        "An accelerated breathing pattern is a sign that exceeds normal rates.",
        "SRC:p", synonyms="rapid breathing")
    row("rapid breathing", f"{SCALE_BASE}syn2",
        "A quickened respiratory rhythm is a sign that accompanies distress.",
        "SRC:p")
    row("ghost entry", "",
        "A vanished record is an item that left nothing behind.", "SRC:p")
    row("curie probe", "XYZ:77",
        "A compact identifier sample is an entry that tests prefixes.", "SRC:p")
    row("phenotype mirror", "https://hp.example.org/HP_0099",
        "A reflected trait record is an entry that copies another source.", "SRC:p")
    row("dup first", f"{SCALE_BASE}duptsv",
        "A doubled identifier case is an entry that shares its first form.", "SRC:p")
    row("dup second", f"{SCALE_BASE}duptsv",
        "A doubled identifier case is an entry that shares its second form.", "SRC:p")
    row("undocumented widget", f"{SCALE_BASE}nodef")
    row("unsourced widget", f"{SCALE_BASE}nosource",
        "A citation free gadget is a device that lacks references.")
    row("freeform widget", f"{SCALE_BASE}freeform",
        "Collected material from roadside stops.", "SRC:p")
    row("mismatch case", f"{SCALE_BASE}mismatch",
        "A divergent record is a quality that differs from its parent.",
        "SRC:p", parents=f"{SCALE_BASE}00001")
    row("twin copy one", f"{SCALE_BASE}twin1",
        "A cloned text sample is an entry that repeats verbatim.", "SRC:p")
    row("twin copy two", f"{SCALE_BASE}twin2",
        "A cloned text sample is an entry that repeats verbatim.", "SRC:p")
    row("ouroboros", f"{SCALE_BASE}self",
        "The ouroboros is a symbol that eats itself.", "SRC:p")
    row("harvest window", f"{SCALE_BASE}cyc1",
        "A reaping span is a period that precedes the growing window.", "SRC:p")
    row("growing window", f"{SCALE_BASE}cyc2",
        "A sprouting span is a period that follows the harvest window.", "SRC:p")
    row("Rapid Flow", f"{SCALE_BASE}badlabel", obsolete="true",
        replaced_by=f"{SCALE_BASE}chainend")
    row("obsolete dusty gauge", f"{SCALE_BASE}gauge", obsolete="true")
    row("obsolete torn filter", f"{SCALE_BASE}torn", obsolete="true",
        replaced_by=f"{SCALE_BASE}missing")
    row("obsolete chain head", f"{SCALE_BASE}chainhead", obsolete="true",
        replaced_by=f"{SCALE_BASE}chainmid")
    row("obsolete chain middle", f"{SCALE_BASE}chainmid", obsolete="true",
        replaced_by=f"{SCALE_BASE}chainend")
    row("chain end", f"{SCALE_BASE}chainend",
        "A terminal anchor is a marker that ends sequences.", "SRC:p")
    row("obsolete loop one", f"{SCALE_BASE}loop1", obsolete="true",
        replaced_by=f"{SCALE_BASE}loop2")
    row("obsolete loop two", f"{SCALE_BASE}loop2", obsolete="true",
        replaced_by=f"{SCALE_BASE}loop1")
    row("eager pointer", f"{SCALE_BASE}eager",
        "A hasty reference is a note that moves early.", "SRC:p",
        replaced_by=f"{SCALE_BASE}chainend")
    row("orphan holder", f"{SCALE_BASE}orphan",
        "A legacy container is an obsolete dusty gauge that persists.",
        "SRC:p", parents=f"{SCALE_BASE}gauge")
    return rows


def scale_inputs(tmp_path):
    """Write criterion 8's 10,000-term vocabulary and return the run inputs."""
    planted_tsv_terms = len(_scale_rows(0))
    obo_terms = 4
    filler_count = 10000 - planted_tsv_terms - obo_terms

    header = "label\tiri\tdefinition\tdefinition_source\tparents\tsynonyms" \
             "\tobsolete\treplaced_by"
    table = "\n".join([header] + _scale_rows(filler_count)) + "\n"
    table_path = tmp_path / "scale.tsv"
    table_path.write_text(table, encoding="utf-8")
    obo_path = tmp_path / "tags.obo"
    obo_path.write_text(SCALE_TAGS_OBO, encoding="utf-8")
    return [(str(table_path), None), (str(obo_path), None)]


def test_criterion_8_scale_smoke(tmp_path):
    with criterion(8, "a generated 10,000-term vocabulary lints in under 5 s, "
                      "finding all planted defects and nothing else"):
        inputs = scale_inputs(tmp_path)
        config = RuleConfig()
        started = time.perf_counter()
        report = run_lint(config, inputs)
        elapsed = time.perf_counter() - started

        assert sum(s.term_count for s in report.inputs) == 10000

        found_pairs = {(f.rule_id, f.subject_label) for f in report.findings}
        missing = [pair for pair in SCALE_PLANTED if pair not in found_pairs]
        assert not missing, f"planted defects not found: {missing}"

        planted_rules = {rule for rule, _ in SCALE_PLANTED}
        assert {f.rule_id for f in report.findings} == planted_rules

        parse_severities = {f.severity for f in report.findings
                            if f.rule_id == "PARSE"}
        assert parse_severities == {"warning", "error"}

        assert not any("specimen factor" in f.subject_label
                       for f in report.findings)
        assert elapsed < 5.0, f"scale lint took {elapsed:.3f} s"


def brute_force_word_bombs(labels, min_group):
    """Word bombs among (label, obsolete) pairs of lowercase words: each
    qualifying head noun with its live labels, sorted. A head's family
    qualifies when it has at least min_group labels and one of them holds
    "and" or "or", or when at least min_group labels extend one of its labels
    with leading words. Independent of the shipped check."""
    families = {}
    for label, obsolete in labels:
        if not obsolete:
            families.setdefault(label.split()[-1], []).append(label)
    bombs = {}
    for head, family in families.items():
        if len(family) < min_group:
            continue
        conjunction = any(word in ("and", "or") for label in family for word in label.split())
        extended = any(sum(other.endswith(" " + base) for other in family) >= min_group
                       for base in family)
        if conjunction or extended:
            bombs[head] = sorted(family)
    return bombs


def test_criterion_9_word_bombs_match_oracle():
    with criterion(9, "word-bomb detection matches a brute-force grouping on "
                      "600 random vocabularies in under 10 s"):
        rng = random.Random(20261018)
        modifiers = ["red", "blue", "old", "new", "wet"]
        heads = ["farm", "kiosk", "site", "dusty kiosk"]
        started = time.perf_counter()
        for _ in range(600):
            min_group = rng.randint(2, 6)
            labels = []
            for _ in range(rng.randint(1, 40)):
                words = rng.choices(modifiers, k=rng.choice([0, 1, 1, 2, 3]))
                # Rare enough that most families must qualify by extension.
                if rng.random() < 0.02:
                    words.insert(rng.randint(0, len(words)), rng.choice(["and", "or"]))
                labels.append((" ".join(words + [rng.choice(heads)]), rng.random() < 0.1))
            terms = [Term(label=label, iri=Iri(f"EX:{i}"), obsolete=obsolete)
                     for i, (label, obsolete) in enumerate(labels)]
            vocab = build_vocabulary(terms, {"EX": "https://example.org/EX_"})

            findings = detect_word_bombs(vocab, min_group)
            got = {f.subject_label: sorted(labels[int(iri.value[3:])][0]
                                           for iri in f.subject_iris)
                   for f in findings}
            assert len(got) == len(findings)
            assert got == brute_force_word_bombs(labels, min_group)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"600 oracle comparisons took {elapsed:.3f} s"
