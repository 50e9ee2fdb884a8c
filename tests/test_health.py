import datetime as dt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocab_lint.engine import read_text
from vocab_lint.health import (
    _PARSERS,
    DEFAULT_WEIGHTS,
    SUBSCORE_NAMES,
    MetadataError,
    OntologyMetadata,
    assess_health,
    load_metadata,
    months_before,
    validate_weights,
)

AS_OF = dt.date(2026, 8, 1)


def meta(**kwargs):
    base = dict(name="vocab", as_of=AS_OF)
    base.update(kwargs)
    return OntologyMetadata(**base)


class TestMonthsBefore:
    @pytest.mark.parametrize("day,months,expected", [
        (dt.date(2026, 8, 1), 12, dt.date(2025, 8, 1)),
        (dt.date(2026, 8, 1), 24, dt.date(2024, 8, 1)),
        (dt.date(2026, 3, 31), 1, dt.date(2026, 2, 28)),
        (dt.date(2024, 3, 31), 1, dt.date(2024, 2, 29)),   # leap year
        (dt.date(2026, 1, 15), 13, dt.date(2024, 12, 15)),
        (dt.date(2026, 5, 31), 6, dt.date(2025, 11, 30)),
    ])
    def test_clamped_arithmetic(self, day, months, expected):
        assert months_before(day, months) == expected

    @given(st.dates(), st.integers(min_value=0, max_value=48))
    def test_result_day_never_exceeds_source_day(self, day, months):
        out = months_before(day, months)
        assert out.day <= day.day
        assert out <= day


class TestMetadataValidation:
    def test_empty_name(self):
        with pytest.raises(MetadataError):
            meta(name="")

    def test_coverage_bounds(self):
        with pytest.raises(MetadataError):
            meta(definition_coverage=1.5)
        with pytest.raises(MetadataError):
            meta(definition_coverage=-0.1)

    def test_total_terms_minimum(self):
        with pytest.raises(MetadataError):
            meta(total_terms=0)

    def test_release_after_snapshot(self):
        with pytest.raises(MetadataError):
            meta(last_release=dt.date(2026, 9, 1))


class TestSubscores:
    def test_activity_recent(self):
        r = assess_health(meta(last_release=dt.date(2025, 8, 1)))
        assert r.subscores["activity"] == 1.0

    def test_activity_between_12_and_24(self):
        r = assess_health(meta(last_release=dt.date(2025, 7, 31)))
        assert r.subscores["activity"] == 0.5
        r = assess_health(meta(last_release=dt.date(2024, 8, 1)))
        assert r.subscores["activity"] == 0.5

    # No release can precede the first day a date can hold, so a window that
    # reaches back past it covers every release.
    @pytest.mark.parametrize("as_of, activity", [
        (dt.date(1, 6, 1), 1.0), (dt.date(2, 6, 1), 0.5)])
    def test_activity_window_reaching_before_year_one(self, as_of, activity):
        r = assess_health(meta(as_of=as_of, last_release=dt.date(1, 1, 1)))
        assert r.subscores["activity"] == activity

    def test_activity_old_or_absent(self):
        assert assess_health(meta(last_release=dt.date(2024, 7, 31))).subscores["activity"] == 0.0
        assert assess_health(meta()).subscores["activity"] == 0.0

    def test_responsiveness_fast(self):
        for days in (0, 30):
            r = assess_health(meta(accepts_term_requests=True,
                                   median_issue_response_days=days))
            assert r.subscores["responsiveness"] == 1.0

    def test_responsiveness_slow_or_unknown(self):
        for days in (31, 180):
            assert assess_health(meta(accepts_term_requests=True,
                                      median_issue_response_days=days)
                                 ).subscores["responsiveness"] == 0.5
        assert assess_health(meta(accepts_term_requests=True)
                             ).subscores["responsiveness"] == 0.5

    def test_responsiveness_closed_or_glacial(self):
        assert assess_health(meta()).subscores["responsiveness"] == 0.0
        assert assess_health(meta(accepts_term_requests=True,
                                  median_issue_response_days=181)
                             ).subscores["responsiveness"] == 0.0

    def test_documentation_is_coverage(self):
        assert assess_health(meta(definition_coverage=0.95)
                             ).subscores["documentation"] == 0.95

    def test_reuse_scaling_and_cap(self):
        assert assess_health(meta(terms_reused_elsewhere=50, total_terms=1000)
                             ).subscores["reuse"] == pytest.approx(0.5)
        assert assess_health(meta(terms_reused_elsewhere=500, total_terms=1000)
                             ).subscores["reuse"] == 1.0

    def test_identifiers_binary(self):
        assert assess_health(meta(has_permanent_iris=True)).subscores["identifiers"] == 1.0
        assert assess_health(meta()).subscores["identifiers"] == 0.0


class TestCompositeAndVerdict:
    def test_perfect_snapshot(self):
        r = assess_health(meta(last_release=dt.date(2026, 5, 1),
                               accepts_term_requests=True,
                               median_issue_response_days=10,
                               definition_coverage=0.95,
                               terms_reused_elsewhere=500, total_terms=1000,
                               has_permanent_iris=True))
        assert r.composite == pytest.approx(0.99)
        assert r.verdict == "healthy" and r.notes == ()

    def test_zero_snapshot_is_stale_with_caveat(self):
        r = assess_health(meta())
        assert r.composite == 0.0 and r.verdict == "stale"
        assert any("does not mean the content is of poor quality" in n
                   for n in r.notes)

    def test_healthy_boundary(self):
        # Exact binary floats: 0.75*1.0 + 0.25*0.0 == 0.75 precisely.
        r = assess_health(meta(last_release=AS_OF),
                          weights={"activity": 0.75, "identifiers": 0.25})
        assert r.composite == 0.75 and r.verdict == "healthy"

    def test_caution_boundary(self):
        r = assess_health(meta(last_release=AS_OF),
                          weights={"activity": 0.4, "documentation": 0.6})
        assert r.composite == 0.4 and r.verdict == "caution"

    def test_just_below_caution_is_stale(self):
        r = assess_health(meta(definition_coverage=0.39),
                          weights={"documentation": 1.0})
        assert r.verdict == "stale"

    def test_partial_weights_zero_out_missing(self):
        r = assess_health(meta(has_permanent_iris=True, definition_coverage=1.0),
                          weights={"activity": 1.0})
        assert r.composite == 0.0

    @given(st.dictionaries(st.sampled_from(SUBSCORE_NAMES),
                           st.floats(min_value=0, max_value=1), min_size=1))
    def test_property_composite_in_unit_interval(self, raw):
        total = sum(raw.values())
        if total == 0:
            raw[next(iter(raw))] = 1.0
            total = sum(raw.values())
        weights = {k: v / total for k, v in raw.items()}
        if abs(sum(weights.values()) - 1.0) > 1e-9:
            return
        r = assess_health(meta(last_release=AS_OF, accepts_term_requests=True,
                               definition_coverage=0.5,
                               terms_reused_elsewhere=3, total_terms=100,
                               has_permanent_iris=True), weights=weights)
        assert 0.0 <= r.composite <= 1.0 + 1e-12
        assert r.verdict in ("healthy", "caution", "stale")


class TestWeights:
    def test_defaults_cover_all_subscores(self):
        assert set(DEFAULT_WEIGHTS) == set(SUBSCORE_NAMES)
        assert sum(DEFAULT_WEIGHTS.values()) == pytest.approx(1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            validate_weights({"activity": 0.5, "sparkle": 0.5})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_weights({"activity": 1.5, "reuse": -0.5})

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            validate_weights({"activity": 0.5})

    def test_fifths_accepted(self):
        validate_weights({name: 0.2 for name in SUBSCORE_NAMES})


SNAPSHOT = """\
# fleet snapshot
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


class TestLoadMetadata:
    def test_two_records(self):
        records, notes = load_metadata(SNAPSHOT)
        assert [r.name for r in records] == ["well-tended", "dusty"]
        assert notes == []
        assert records[0].definition_coverage == 0.95
        assert records[0].accepts_term_requests is True

    def test_unknown_key_noted_and_ignored(self):
        records, notes = load_metadata("name: x\nas_of: 2026-01-01\nmascot: owl\n")
        assert len(records) == 1
        assert any("mascot" in n for n in notes)

    def test_bad_value_skips_record(self):
        text = "name: x\nas_of: not-a-date\n\nname: y\nas_of: 2026-01-01\n"
        records, notes = load_metadata(text)
        assert [r.name for r in records] == ["y"]
        assert any("as_of" in n for n in notes)

    def test_bad_boolean_skips_record(self):
        records, notes = load_metadata("name: x\nas_of: 2026-01-01\nhas_permanent_iris: maybe\n")
        assert records == []
        assert notes == ["line 3: bad value for 'has_permanent_iris' "
                         "(expected true/false, got 'maybe'); record skipped"]

    def test_missing_required_keys_skips_record(self):
        records, notes = load_metadata("name: beta\n")
        assert records == []
        assert any("missing name or as_of" in n for n in notes)

    def test_line_without_colon_skips_record(self):
        records, notes = load_metadata("name: x\nas_of 2026-01-01\n")
        assert records == []
        assert any("not a key: value pair" in n for n in notes)

    @pytest.mark.parametrize("key", ["terms_reused_elsewhere"])
    def test_negative_count_skips_record(self, key):
        records, notes = load_metadata(f"name: x\nas_of: 2026-01-01\n{key}: -1\n")
        assert records == []
        assert notes == [f"record at line 1: {key} must be non-negative; skipped"]

    @pytest.mark.parametrize("days", ["-5", "-inf", "nan"])
    def test_negative_or_nan_response_days_skips_record(self, days):
        text = f"name: x\nas_of: 2026-01-01\nmedian_issue_response_days: {days}\n"
        records, notes = load_metadata(text)
        assert records == []
        assert notes == ["record at line 1: median_issue_response_days must be non-negative; "
                         "skipped"]

    def test_unbounded_response_days_is_glacial(self):
        records, notes = load_metadata("name: x\nas_of: 2026-01-01\naccepts_term_requests: yes\n"
                                       "median_issue_response_days: inf\n")
        assert notes == []
        assert assess_health(records[0]).subscores["responsiveness"] == 0.0

    def test_semantic_error_skips_record(self):
        text = "name: x\nas_of: 2026-01-01\nlast_release: 2027-01-01\n"
        records, notes = load_metadata(text)
        assert records == []
        assert any("postdate" in n for n in notes)

    def test_comment_lines_inside_and_between_records(self):
        # A record starts at its first line that is not a comment; a block
        # of comments alone is no record.
        text = ("# header\n\n# lead\nname: x\n# inside\nas_of: 2026-01-01\n"
                "# between\n\n  # only\n# comments\n\n#\nname: y\n")
        records, notes = load_metadata(text)
        assert [r.name for r in records] == ["x"]
        assert notes == ["record at line 13: missing name or as_of; skipped"]

    def test_empty_text(self):
        assert load_metadata("") == ([], [])

    def test_lone_cr_ends_a_line_and_a_form_feed_does_not(self):
        records, notes = load_metadata("name: a\fb\ras_of: 2026-01-01\r")
        assert [r.name for r in records] == ["a\fb"] and notes == []

    # Lines of a snapshot: blank, comments, pairs of a known or unknown key
    # with a value of a fitting shape or of any text, and lines of any text.
    _LINES = st.one_of(
        st.sampled_from(["", "#", "  "]),
        st.tuples(st.sampled_from(sorted(_PARSERS)) | st.text(max_size=3),
                  st.sampled_from(["2026-01-01", "2027-02-30", "0", "-1", "1" * 5000, "0.5",
                                   "nan", "inf", "1e999", "true", "maybe", ""])
                  | st.text(max_size=6)).map(": ".join),
        st.text(max_size=8))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_LINES, max_size=12).map("\n".join) | st.text())
    @example("name: x\nas_of: 2026-01-01\ntotal_terms: " + "9" * 5000)
    @example("name: x\nas_of: 2026-01-01\ndefinition_coverage: nan\n"
             "median_issue_response_days: -inf")
    def test_any_text_gives_records_and_notes(self, text):
        records, notes = load_metadata(text)
        assert all(isinstance(r, OntologyMetadata) for r in records)
        assert all(isinstance(n, str) for n in notes)

    def test_snapshot_provider(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(SNAPSHOT + "\nname: broken\n", encoding="utf-8")
        records, notes = load_metadata(read_text("metadata ", str(path)))
        assert [r.name for r in records] == ["well-tended", "dusty"]
        assert any("missing name or as_of" in n for n in notes)
