"""A naive reference for every per-term entry of `engine.CHECKS`, written
from docs/formats.md and the rule catalog: each one computes everything it
needs from the raw label, synonyms, annotations, definition and IRI, with no
early exit. A property holds each registered call equal to its reference on
terms drawn from a pool of trigger words and clean words.

A reference yields (rule id, severity, subject label, suggestion, fragment)
per finding, in the check's order; the fragment is the part of the message
that carries what the check found.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocab_lint.catalog import ERROR, INFO, WARNING
from vocab_lint.engine import CHECKS, PHRASING, TERM, CheckContext, RuleConfig
from vocab_lint.identity import DEFAULT_PREFIXES, PrefixMap, default_prefix_map, load_prefix_map
from vocab_lint.lexical import default_lexicons
from vocab_lint.model import (
    Definition,
    Iri,
    SourceLocation,
    Synonym,
    Term,
    Vocabulary,
    bearer_order,
    expand_iri,
    normalize_label,
)

from oracles import parse_genus_differentia

LEX = default_lexicons()
ASCII_ALNUM = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")


def _tokens(text):
    return normalize_label(text).split()


def _runs(tokens, phrase):
    """Every start at which `phrase` (a token list) is a contiguous run."""
    n = len(phrase)
    return [i for i in range(len(tokens) - n + 1) if n and tokens[i:i + n] == phrase]


def _listed(words):
    return ", ".join(f'"{w}"' for w in words)


def _is_capital(ch):
    return "A" <= ch <= "Z"


def _without_parentheticals(label):
    """Each "(...)" holding no other parenthesis becomes a space, left to right."""
    out, i = [], 0
    while i < len(label):
        j = i + 1
        while label[i] == "(" and j < len(label) and label[j] not in "()":
            j += 1
        if label[i] == "(" and j < len(label) and label[j] == ")":
            out.append(" ")
            i = j + 1
        else:
            out.append(label[i])
            i += 1
    return "".join(out)


def abbreviation(term, ctx):
    found = []
    offenders = [tok for tok in _without_parentheticals(term.label).split()
                 if 2 <= len(tok) <= 5 and all(ch.isdigit() or _is_capital(ch) for ch in tok)
                 and any(_is_capital(ch) for ch in tok)
                 and tok.lower() not in ctx.lex.accepted_abbreviation_words]
    if offenders:
        found.append(("R05-ABBREV", WARNING, term.label,
                      "expand the abbreviation and keep the short form as an abbreviation "
                      "synonym", f"unexpanded abbreviation {_listed(offenders)}"))
    text = term.label.rstrip()
    if text.endswith(")") and "(" in text:
        cut = text.rindex("(")
        abbr, words = text[cut + 1:-1], text[:cut].strip()
        if (words and 2 <= len(abbr) <= 5 and any(_is_capital(ch) for ch in abbr)
                and all(_is_capital(ch) or ch in "0123456789" for ch in abbr)):
            found.append(("R05-EXPANSION-STYLE", INFO, term.label,
                          f'keep the label "{words}" and record "{abbr}" as a synonym with '
                          "is_abbreviation=true", f'abbreviation "{abbr}" in parentheses'))
    return found


def negative_phrasing(term, ctx):
    tokens = _tokens(term.label)
    determiners = sorted({tok for tok in tokens if tok in ctx.lex.negative_determiners})
    covered = set()
    for phrase in ctx.lex.negative_prefix_allowlist:
        for start in _runs(tokens, phrase.split()):
            covered.update(range(start, start + len(phrase.split())))
    prefixed = sorted({tok for i, tok in enumerate(tokens)
                       if tok.startswith("non") and i not in covered})
    if determiners:
        return [("R02-NEGATIVE", WARNING, term.label, None,
                 f"negative determiner {_listed(determiners)}")]
    if prefixed:
        return [("R02-NEGATIVE", INFO, term.label, None,
                 f"negative prefix ({_listed(prefixed)})")]
    return []


def conjunction(term, ctx):
    tokens = _tokens(term.label)
    words = term.label.split()
    at = [i for i, w in enumerate(words) if normalize_label(w) in ("and", "or")]
    neighbours = [words[j] for i in at for j in (i - 1, i + 1) if 0 <= j < len(words)]
    proper = (normalize_label(term.label) in ctx.lex.proper_noun_allowlist
              or (neighbours and all(w[:1].isupper() for w in neighbours)))
    if proper or not ({"and", "or"} & set(tokens)):
        return []
    word = "or" if "or" in tokens else "and"
    return [("R02-CONJUNCTION", WARNING, term.label, None, f'with "{word}"')]


def plural(term, ctx):
    tokens = _tokens(term.label)
    final = tokens[-1] if tokens else ""
    if (final.endswith("s") and not final.endswith(("ss", "us", "is"))
            and final not in ctx.lex.plural_by_nature):
        return [("R02-PLURAL", INFO, term.label, None, f'plural "{final}"')]
    return []


def colloquial(term, ctx):
    cmap = ctx.lex.colloquial_map
    key = normalize_label(term.label)
    on_synonyms = [("R03-COLLOQUIAL", INFO, term.label, cmap[phrase],
                    f'synonym "{phrase}" is colloquial')
                   for phrase in sorted({normalize_label(s.text) for s in term.synonyms})
                   if phrase in cmap]
    if key in cmap:
        return [("R03-COLLOQUIAL", WARNING, term.label, cmap[key],
                 f'label "{term.label}" is colloquial')]
    return on_synonyms


def _timeline_phrases(tokens, ctx):
    return [p for p in ctx.lex.timeline_phrases if _runs(tokens, p.split())]


def timeline(term, ctx):
    hits = _timeline_phrases(_tokens(term.label), ctx)
    if not hits:
        return []
    best = min(hits, key=lambda p: (-len(p.split()), p))
    return [("C-TIMELINE", WARNING, term.label, None, f'("{best}")')]


def concept_bomb(term, ctx):
    tokens = _tokens(term.label)
    threshold = ctx.config.concept_bomb_token_threshold
    temporal = any(tok.isdigit() for tok in tokens) and bool(_timeline_phrases(tokens, ctx))
    if len(tokens) >= threshold:
        reason = f"{len(tokens)} tokens >= threshold {threshold}"
    elif temporal:
        reason = "combines a relative-time phrase with a numeric quantity"
    else:
        return []
    return [("C-CONCEPT-BOMB", WARNING, term.label, None, f"({reason})")]


def tag_style(term, ctx):
    found = []
    for key in [] if term.obsolete else sorted(set(term.annotations) - {"comment"}):
        value = term.annotations[key]
        words = _tokens(value)
        if " ".join(words) in ("true", "false", "yes", "no", "y", "n"):
            found.append(("R09-BOOLEAN", WARNING, value, None,
                          f'tag value "{value}" is a bare boolean'))
        elif words and words[0] in ctx.lex.negative_determiners:
            found.append(("R09-NEGATIVE-TAG", INFO, value, None,
                          f'"{value}" records an absence'))
    return found


PURL = "://purl.obolibrary.org/obo/"


def iri(term, ctx):
    pm = ctx.prefixes
    if term.iri is None:
        return [("R06-MISSING-IRI", WARNING, term.label, None, "no IRI")]
    value = term.iri.value
    if "://" not in value:
        prefix, sep, _ = value.partition(":")
        if sep and prefix in pm.entries:
            return []
        return [("R06-BAD-IRI", ERROR, term.label, None,
                 f'"{value}" uses an unregistered prefix')]
    scheme, purl, rest = value.partition(PURL)
    prefix, sep, local = rest.partition("_")
    if (scheme in ("http", "https") and purl and sep and local and prefix
            and set(prefix) <= ASCII_ALNUM and prefix in pm.obo_prefixes):
        return []
    mentioned = [p for p in pm.obo_prefixes
                 if f"/{p}_" in value or f"#{p}_" in value or f"/{p}/" in value]
    if mentioned:
        return [("R06-NONPURL", INFO, term.label, None, f'prefix "{min(mentioned)}"')]
    return []


def definition_present(term, ctx):
    if term.definition is None:
        if term.obsolete:
            return []
        return [("R07-MISSING-DEF", WARNING, term.label, None, "no definition")]
    if not term.definition.sources:
        return [("R07-MISSING-SOURCE", INFO, term.label, None, "cites no source")]
    return []


def reference_parse(tokens):
    """The genus parse as a plain loop over the tokens: (subject, genus,
    differentia), or None."""
    copula = None
    for i in range(len(tokens) - 1):
        if tokens[i] == "is" and tokens[i + 1] in ("a", "an"):
            copula = i
            break
    if copula is None:
        return None
    subject = tokens[:copula]
    if subject and subject[0] in ("a", "an"):
        subject = subject[1:]
    if not subject:
        return None
    rest = tokens[copula + 2:]
    connective = next((j for j, tok in enumerate(rest) if tok in ("that", "which")), None)
    if connective is None or connective == 0:
        return None
    differentia = rest[connective + 1:]
    if not differentia:
        return None
    return tuple(subject), tuple(rest[:connective]), tuple(differentia)


def _term_for(unit, target):
    """The least bearer, by bearer order, of the target's expanded IRI."""
    key = expand_iri(target, unit.prefix_map)
    bearers = [t for t in unit.terms
               if t.iri is not None and expand_iri(t.iri, unit.prefix_map) == key]
    return min(bearers, key=bearer_order, default=None)


def genus_differentia(term, ctx):
    if term.definition is None:
        return []
    text = term.definition.text
    end = next((i for i, ch in enumerate(text)
                if ch == "." and (i + 1 == len(text) or text[i + 1].isspace())), len(text))
    parsed = reference_parse(_tokens(text[:end]))
    if parsed is None:
        return [("R07-FORM", INFO, term.label, None, "does not follow")]
    genus = list(parsed[1])
    parents = [p for p in (_term_for(ctx.unit, parent) for parent in term.parents)
               if p is not None]
    if not parents or any(_runs(genus, _tokens(p.label)) for p in parents):
        return []
    return [("R07-GENUS-MISMATCH", INFO, term.label, None, f'genus "{" ".join(genus)}"')]


ORACLES = {
    ("R05-ABBREV", "R05-EXPANSION-STYLE"): abbreviation,
    ("R02-NEGATIVE",): negative_phrasing,
    ("R02-CONJUNCTION",): conjunction,
    ("R02-PLURAL",): plural,
    ("R03-COLLOQUIAL",): colloquial,
    ("C-TIMELINE",): timeline,
    ("C-CONCEPT-BOMB",): concept_bomb,
    ("R09-BOOLEAN", "R09-NEGATIVE-TAG"): tag_style,
    ("R06-MISSING-IRI", "R06-BAD-IRI", "R06-NONPURL"): iri,
    ("R07-MISSING-DEF", "R07-MISSING-SOURCE"): definition_present,
    ("R07-FORM", "R07-GENUS-MISMATCH"): genus_differentia,
}


def test_every_term_check_has_an_oracle():
    assert set(ORACLES) == {rule_ids for rule_ids, scope, _ in CHECKS
                            if scope in (PHRASING, TERM)}


WORDS = ["cough", "fever", "Wet", "swab", "glasses", "virus", "stress", "basis", "cells",
         "no", "not", "none", "nonlinear", "non-linear", "nonsmoker", "canon",
         "and", "or", "Or", "Fisheries", "Oceans", "Canada",
         "LFT", "(BAL)", "(BAL", "ALT2", "2B", "laser", "LASER", "x(AB)",
         "12", "last", "to", "date", "most", "recent", "belly", "Belly", "throwing", "up"]
DEFINITION_WORDS = ["A", "a", "an", "is", "that", "which", "cough", "Wet", "fever", "x",
                    ".", "x.", "2.5"]
IRIS = ["HP:0000001", "HP:0000002", "http://purl.obolibrary.org/obo/HP_0000001", "EX:1",
        "https://example.org/HP/UBERON_0000948", "https://example.org/terms#GO_1",
        "https://example.org/GO/0000001",
        "https://purl.obolibrary.org/obo/HP_1", "http://purl.obolibrary.org/obo/EX_1",
        "https://example.org/x", "XYZ:1", "bare"]
PREFIX_MAPS = [default_prefix_map(),
               load_prefix_map("EX\thttps://example.org/EX_\texternal\n"),
               PrefixMap(entries=dict(DEFAULT_PREFIXES))]

TERMS = st.builds(
    Term,
    label=st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
    iri=st.none() | st.sampled_from(IRIS).map(Iri),
    synonyms=st.lists(st.sampled_from(["belly", "Tummy", "wet cough", "throwing-up", "fever",
                                       "(BAL)"]).map(Synonym), max_size=2).map(tuple),
    definition=st.none() | st.builds(
        Definition,
        text=st.lists(st.sampled_from(DEFINITION_WORDS), min_size=1, max_size=10).map(" ".join),
        sources=st.sampled_from([(), ("PMID:1",)])),
    parents=st.lists(st.sampled_from(IRIS[:4]).map(Iri), max_size=2).map(tuple),
    obsolete=st.booleans(),
    annotations=st.dictionaries(
        st.sampled_from(["comment", "status", "smoker"]),
        st.sampled_from(["yes", "No", "TRUE", "y", "no smoking", "None found", "present",
                         "-", "not-applicable"]), max_size=2),
    location=st.none() | st.builds(SourceLocation, st.just("f.obo"),
                                   st.integers(min_value=1, max_value=3)),
)

# One term for each trigger, so every rule is reached whatever is drawn.
TRIGGERS = [Term(label=label, iri=Iri("HP:0000001"), parents=(Iri("HP:0000002"),),
                 definition=Definition("A x is a fever that is wet."))
            for label in ("LFT", "Cough (BAL)", "no cough", "nonlinear nonsmoker",
                          "Fisheries and Oceans Canada", "cough and fever", "cough or fever",
                          "cells", "belly", "last 12 swab", "to date", "most recent fever")]
TRIGGERS += [Term(label="cough", iri=Iri("HP:0000002"), synonyms=(Synonym("Tummy"),),
                  annotations={"status": "yes", "smoker": "none found"}),
             Term(label="Wet", iri=Iri("https://example.org/HP/UBERON_0000948")),
             Term(label="Wet", iri=Iri("https://example.org/GO/0000001"))]


@settings(max_examples=200, deadline=None)
@given(st.lists(TERMS, min_size=1, max_size=4), st.sampled_from(PREFIX_MAPS),
       st.sampled_from([3, 7]))
@example(TRIGGERS, PREFIX_MAPS[0], 7)
def test_each_term_check_equals_its_oracle(terms, prefixes, threshold):
    unit = Vocabulary(tuple(terms), dict(prefixes.entries))
    ctx = CheckContext(unit, LEX, prefixes, RuleConfig(concept_bomb_token_threshold=threshold))
    for rule_ids, scope, run in CHECKS:
        if scope not in (PHRASING, TERM):
            continue
        for term in terms:
            found = run(term, ctx)
            expected = ORACLES[rule_ids](term, ctx)
            assert [(f.rule_id, f.severity, f.subject_label, f.suggestion)
                    for f in found] == [e[:4] for e in expected], term
            for f, e in zip(found, expected):
                assert e[4] in f.message
                assert f.subject_iris == ((term.iri,) if term.iri else ())
                assert f.location == term.location


@given(st.lists(st.sampled_from(["a", "an", "is", "that", "which", "cough", "x"]),
                max_size=10))
@example(["cough", "is"])
@example(["a", "x", "is", "a", "cough", "that", "is"])
@example(["x", "is", "a", "cough", "that"])
@example(["an", "is", "an", "cough", "which", "x"])
@example(["x", "is", "x", "is", "an", "which", "x"])
@example(["x", "is", "is", "a", "cough", "that", "x"])  # the copula right after an "is"
def test_genus_parse_matches_the_reference_loop(tokens):
    for seq in (tokens, tuple(tokens)):
        parsed = parse_genus_differentia(seq)
        assert (None if parsed is None else (parsed.subject, parsed.genus, parsed.differentia)
                ) == reference_parse(tokens)
