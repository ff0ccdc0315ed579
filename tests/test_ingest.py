"""Record parsing, timestamps, tokenization, and offset soundness."""

from __future__ import annotations

from datetime import date, datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from headex.ingest import (
    MENTION,
    NUMBER,
    PUNCT,
    WORD,
    RecordError,
    normalize,
    parse_record,
    parse_timestamp,
    read_records,
    record_date,
    serialize_record,
)


class TestTimestamps:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("26/2/16", datetime(2016, 2, 26, tzinfo=timezone.utc)),
            ("5/2/16", datetime(2016, 2, 5, tzinfo=timezone.utc)),
            ("26/2/2016", datetime(2016, 2, 26, tzinfo=timezone.utc)),
            ("2016-02-26", datetime(2016, 2, 26, tzinfo=timezone.utc)),
            ("2016-02-26T14:30:00Z", datetime(2016, 2, 26, 14, 30, tzinfo=timezone.utc)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_timestamp(text) == expected

    @pytest.mark.parametrize("bad", ["31/31/16", "not-a-date", "26/2", ""])
    def test_rejected_forms(self, bad):
        with pytest.raises(RecordError):
            parse_timestamp(bad)


class TestRecords:
    LINE = 'no2\tCNN\t26/2/16\tInstagram CEO meets with @Pontifex to discuss "the power of images to unite people"'

    def test_parse_four_fields(self):
        r = parse_record(self.LINE)
        assert (r.id, r.publisher) == ("no2", "CNN")
        assert record_date(r) == date(2016, 2, 26)

    @pytest.mark.parametrize("bad", ["a\tb\tc", "a\tb\tc\td\te", ""])
    def test_wrong_field_count(self, bad):
        with pytest.raises(RecordError):
            parse_record(bad)

    def test_escaped_tab_round_trips(self):
        line = "x1\tBBC\t2016-01-02\tcolumn one\\tcolumn two"
        r = parse_record(line)
        assert "\t" in r.text
        assert serialize_record(r) == line

    def test_serialize_date_only_at_midnight(self):
        r = parse_record("x1\tBBC\t26/2/16\thello world")
        assert serialize_record(r).split("\t")[2] == "2016-02-26"

    def test_read_records_fixture(self, fixtures_dir):
        records, failures = read_records(fixtures_dir / "headlines9.tsv")
        assert [r.id for r in records] == [f"no{i}" for i in range(1, 10)]
        assert failures == []

    def test_read_records_reports_bad_lines_and_duplicates(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "a1\tCNN\t26/2/16\tfine headline\n"
            "broken line without tabs\n"
            "a1\tBBC\t27/2/16\tduplicate id\n",
            encoding="utf-8",
        )
        records, failures = read_records(path)
        assert [r.id for r in records] == ["a1"]
        # Malformed lines are labeled by line; duplicates by the clashing id.
        labels = [label for label, _ in failures]
        assert labels == ["line2", "a1"]
        assert "duplicate" in failures[1][1] and "line 3" in failures[1][1]

    @pytest.mark.parametrize("bad_id", ["a b", "a<b", 'a"b', "a{b}", "a|b", "a^b", "a`b", "a\\b"])
    def test_id_not_valid_in_an_iri_rejected(self, bad_id):
        with pytest.raises(RecordError, match="record id"):
            parse_record(f"{bad_id}\tCNN\t26/2/16\tPope Francis visits Cuba")

    def test_read_records_skips_id_not_valid_in_an_iri(self, tmp_path):
        path = tmp_path / "ids.tsv"
        path.write_text(
            "a b\tCNN\t26/2/16\tPope Francis visits Cuba\n"
            " a1 \tBBC\t27/2/16\tPope Francis visits Mexico\n",
            encoding="utf-8",
        )
        records, failures = read_records(path)
        assert [r.id for r in records] == ["a1"]  # surrounding spaces are stripped
        assert [label for label, _ in failures] == ["line1"]


class TestTokenizer:
    def test_kinds_for_running_example(self):
        toks = normalize(
            'Instagram CEO meets with @Pontifex to discuss "the power of images to unite people"'
        )
        kinds = {t.surface: t.kind for t in toks.tokens}
        assert kinds["Instagram"] == WORD
        assert kinds["@Pontifex"] == MENTION
        assert kinds['"'] == PUNCT
        assert len(toks.quoted_spans) == 1
        span = toks.quoted_spans[0]
        assert span.inner_text(toks.raw) == "the power of images to unite people"
        inner = toks.tokens[span.first_token : span.last_token + 1]
        assert all(t.quoted for t in inner)

    def test_number_words_and_digits(self):
        toks = normalize("Storms kill at least three in Virginia, 2 hurt")
        kinds = {t.surface: t.kind for t in toks.tokens}
        assert kinds["three"] == NUMBER
        assert kinds["2"] == NUMBER
        assert kinds["Storms"] == WORD

    def test_urls_removed_but_recorded(self):
        toks = normalize("Pope visits Cuba http://t.co/abc123 today")
        assert all("http" not in t.surface for t in toks.tokens)
        assert len(toks.urls) == 1
        start, end = toks.urls[0]
        assert toks.raw[start:end] == "http://t.co/abc123"

    def test_unbalanced_quote_disables_spans(self):
        toks = normalize('He said "never mind the rest')
        assert toks.quoted_spans == ()
        assert not any(t.quoted for t in toks.tokens)

    def test_offsets_sound_on_fixture(self, nine_records):
        for record in nine_records:
            toks = normalize(record.text)
            for token in toks.tokens:
                assert toks.raw[token.start : token.end] == token.surface

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            normalize("   ")


@given(st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["C"]), min_size=1, max_size=60))
def test_property_offsets_sound(text):
    try:
        toks = normalize(text)
    except ValueError:
        return  # nothing tokenizable
    for token in toks.tokens:
        assert toks.raw[token.start : token.end] == token.surface
