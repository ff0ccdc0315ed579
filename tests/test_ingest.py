"""Record parsing, timestamps, tokenization, and offset soundness."""

from __future__ import annotations

import copy
import pickle
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex.ingest import (
    MENTION,
    NUMBER,
    NUMBER_WORDS,
    PUNCT,
    QUOTE_CHARS,
    WORD,
    QuotedSpan,
    RecordError,
    Token,
    _unescape_text,
    normalize,
    parse_date,
    parse_record,
    parse_timestamp,
    read_records,
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

    @pytest.mark.parametrize(
        "bad",
        ["31/31/16", "not-a-date", "26/2", "", "20160301", "2016-W09-2", "2016-03-01T0900"]
        + ["2016-03-01x09:00", "2016-03-01T09:00+05", "2016-03-01T09:00:00.1", "1/1/016"]
        + ["\u0661/3/16", "2016-03-01T09:00+05:60", "0001-01-01T00:00+00:01"],
    )
    def test_rejected_forms(self, bad):
        with pytest.raises(RecordError):
            parse_timestamp(bad)

    def test_zone_on_a_bare_date_leaves_the_day(self):
        assert parse_timestamp("2016-03-01+05:00") == datetime(2016, 3, 1, tzinfo=timezone.utc)
        assert parse_date("2016-03-01-05:00") == parse_date("2016-03-01Z") == date(2016, 3, 1)

    def test_zone_on_a_datetime_converts_to_utc(self):
        stamp = parse_timestamp("2016-03-01T02:30:00.250+05:30")
        assert stamp == datetime(2016, 2, 29, 21, 0, 0, 250000, tzinfo=timezone.utc)

    @pytest.mark.parametrize(
        "bad",
        ["26/2/16", "2016-03-01T00:00", " 2016-03-01", "2016-02-30", "2016-W09-2", "20160301"],
    )
    def test_parse_date_takes_only_iso_dates(self, bad):
        with pytest.raises(ValueError):
            parse_date(bad)


# At most one fault per drawn date: a field out of range, which the calendar
# refuses, or a form outside the grammar, which some Python versions accept.
_DAY_FIRST_FAULTS = {"3-digit year", "dashes for slashes"}
_TIME_FAULTS = {"hour 24", "minute 60", "separator x", "separator t"}
_SECONDS_FAULTS = {"second 60", "fraction not 3 or 6 digits"}
_ZONE_FAULTS = {"zone hour 24", "zone minute 60", "zone +HH", "zone +HHMM", "zone z"}
_EDGE = "UTC instant outside years 1-9999"
_ISO_FAULTS = {"year 0", "basic format", "week date", "1-digit ISO month", _EDGE}
_ISO_FAULTS |= _TIME_FAULTS | _SECONDS_FAULTS | _ZONE_FAULTS
_FORM_FAULTS = {"basic format", "week date", "1-digit ISO month", "3-digit year"}
_FORM_FAULTS |= {"dashes for slashes", "separator x", "separator t", "fraction not 3 or 6 digits"}
_FORM_FAULTS |= {"zone +HH", "zone +HHMM", "zone z", "Arabic-Indic digit"}
_FAULTS = sorted(_DAY_FIRST_FAULTS | _ISO_FAULTS | _FORM_FAULTS | {"month 13", "padding"})


@st.composite
def date_texts(draw) -> tuple[str, datetime | None, date | None]:
    """A date string built from the grammar's pieces with at most one fault,
    and what ``parse_timestamp`` and ``parse_date`` must make of it (None:
    rejected), worked out from the pieces without the grammar's regex."""
    fault = draw(st.sampled_from([None] * 12 + _FAULTS))
    month = 13 if fault == "month 13" else draw(st.integers(1, 12))
    day = draw(st.integers(1, 31))  # 29-31 also name days some months lack
    zone: timezone | None = timezone.utc
    bare = True
    iso = fault in _ISO_FAULTS or (fault not in _DAY_FIRST_FAULTS and draw(st.booleans()))
    if not iso:
        width = 3 if fault == "3-digit year" else draw(st.sampled_from([2, 4]))
        written = draw(st.integers(0, 10**width - 1))
        sep = "-" if fault == "dashes for slashes" else "/"
        text = sep.join([str(day), str(month), f"{written:0{width}d}"])
        parts = (written + (2000 if width == 2 else 0), month, day)
    else:
        year = 0 if fault == "year 0" else draw(st.integers(1, 9999) | st.sampled_from([1, 9999]))
        if fault == "1-digit ISO month":
            month = min(month, 9)
        text = {
            "basic format": f"{year:04d}{month:02d}{day:02d}",
            "week date": f"{year:04d}-W{month:02d}-{day % 7 + 1}",
            "1-digit ISO month": f"{year:04d}-{month}-{day:02d}",
        }.get(fault, f"{year:04d}-{month:02d}-{day:02d}")
        if fault == _EDGE:
            year, month, day = draw(st.sampled_from([(1, 1, 1), (9999, 12, 31)]))
            text = f"{year:04d}-{month:02d}-{day:02d}"
        parts = (year, month, day)
        if fault in _TIME_FAULTS | _SECONDS_FAULTS | {_EDGE} or draw(st.booleans()):
            bare = False
            hour = 24 if fault == "hour 24" else draw(st.integers(0, 23))
            minute = 60 if fault == "minute 60" else draw(st.integers(0, 59))
            if fault == _EDGE:  # a zone then moves the instant out of the calendar
                hour, minute = (0, 0) if year == 1 else (23, 59)
            sep = {"separator x": "x", "separator t": "t"}.get(fault) or draw(st.sampled_from("T "))
            text += f"{sep}{hour:02d}:{minute:02d}"
            second = micro = 0
            if fault in _SECONDS_FAULTS or draw(st.booleans()):
                second = 60 if fault == "second 60" else draw(st.integers(0, 59))
                text += f":{second:02d}"
                odd = fault == "fraction not 3 or 6 digits"
                digits = draw(st.sampled_from([1, 2, 4, 5, 7, 9] if odd else [0, 3, 6]))
                if digits:
                    fraction = draw(st.text("0123456789", min_size=digits, max_size=digits))
                    text += "." + fraction
                    micro = int(fraction[:6].ljust(6, "0"))
            parts += (hour, minute, second, micro)
        kind = draw(st.sampled_from(["+", "-"] if fault in _ZONE_FAULTS else ["", "Z", "+", "-"]))
        if fault == _EDGE:
            kind = "+" if year == 1 else "-"
        if fault == "zone z":
            text += "z"
        elif kind == "Z":
            text += "Z"
        elif kind:
            hours = 24 if fault == "zone hour 24" else draw(st.integers(0, 23))
            minutes = 60 if fault == "zone minute 60" else draw(st.integers(0, 59))
            if fault == _EDGE and hours == minutes == 0:
                minutes = 1
            text += kind + {
                "zone +HH": f"{hours:02d}",
                "zone +HHMM": f"{hours:02d}{minutes:02d}",
            }.get(fault, f"{hours:02d}:{minutes:02d}")
            if hours > 23 or minutes > 59:
                zone = None
            elif not bare:  # a zone on a bare date leaves the day as written
                offset = timedelta(hours=hours, minutes=minutes)
                zone = timezone(offset if kind == "+" else -offset)
    if fault == "Arabic-Indic digit":
        index = next(i for i, ch in enumerate(text) if ch.isdigit())
        text = text[:index] + chr(0x0660 + int(text[index])) + text[index + 1 :]
    if fault == "padding":
        text = f" {text}\t"
    stamp = None
    if fault not in _FORM_FAULTS and zone is not None:
        try:
            stamp = datetime(*parts, tzinfo=zone).astimezone(timezone.utc)
        except (ValueError, OverflowError):  # no such day, or no such UTC instant
            pass
    day_only = stamp.date() if stamp and iso and bare and fault != "padding" else None
    return text, stamp, day_only


@settings(max_examples=1500, deadline=None)
@given(date_texts())
def test_one_date_grammar(case):
    """``parse_timestamp`` accepts exactly the strings that fit the record-date
    grammar and name a real instant, giving that instant in UTC;
    ``parse_date`` accepts exactly the ISO dates, zone or not."""
    text, stamp, day = case
    if stamp is None:
        with pytest.raises(RecordError, match="date"):
            parse_timestamp(text)
    else:
        got = parse_timestamp(text)
        assert got == stamp and got.utcoffset() == timedelta(0)
    if day is None:
        with pytest.raises(ValueError):
            parse_date(text)
    else:
        assert parse_date(text) == day


class TestRecords:
    LINE = 'no2\tCNN\t26/2/16\tInstagram CEO meets with @Pontifex to discuss "the power of images to unite people"'

    def test_parse_four_fields(self):
        r = parse_record(self.LINE)
        assert (r.id, r.publisher) == ("no2", "CNN")
        assert r.timestamp.date() == date(2016, 2, 26)

    @pytest.mark.parametrize("bad", ["a\tb\tc", "a\tb\tc\td\te", ""])
    def test_wrong_field_count(self, bad):
        with pytest.raises(RecordError):
            parse_record(bad)

    def test_escaped_tab_round_trips(self):
        line = "x1\tBBC\t2016-01-02\tcolumn one\\tcolumn two"
        r = parse_record(line)
        assert r.text == "column one\tcolumn two"

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

    def test_leading_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(
            b"\xef\xbb\xbfno1\tCNN\t26/2/16\tPope Francis visits Cuba\n"
            b"no1\tBBC\t27/2/16\tPope Francis visits Mexico\n"
        )
        records, failures = read_records(path)
        assert [r.id for r in records] == ["no1"]
        assert failures == [("no1", "line 2: duplicate record id")]

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
        assert toks.raw[span.start + 1 : span.end - 1] == "the power of images to unite people"
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


class TestTokenValue:
    def test_token_is_the_tuple_of_its_six_fields(self):
        token = Token("Meets", WORD, 4, 9, quoted=True)
        assert token == ("Meets", WORD, 4, 9, True, "meets")
        assert hash(token) == hash(("Meets", WORD, 4, 9, True, "meets"))
        fields = (token.surface, token.kind, token.start, token.end, token.quoted, token.lower)
        assert fields == tuple(token)
        assert Token("x", PUNCT, 0, 1).quoted is False

    @pytest.mark.parametrize("surface", ["Meets", "ΣΑΣ", "İstanbul", "STRAẞE", "@Pontifex", "2,000"])
    def test_lower_is_the_surface_lowered(self, surface):
        assert Token(surface, WORD, 0, len(surface)).lower == surface.lower()

    def test_repr_names_the_constructor_fields(self):
        assert repr(Token("to", WORD, 3, 5)) == (
            "Token(surface='to', kind='word', start=3, end=5, quoted=False)"
        )

    @pytest.mark.parametrize("name", ["surface", "kind", "start", "quoted", "lower", "extra"])
    def test_fields_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(Token("to", WORD, 3, 5), name, "x")

    @pytest.mark.parametrize(
        "token", [Token("Meets", WORD, 4, 9), Token('"', PUNCT, 0, 1, quoted=True)], ids=repr
    )
    def test_pickle_and_copy_round_trip(self, token):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(token, protocol)) for protocol in protocols]
        for twin in [*copies, copy.deepcopy(token), copy.copy(token)]:
            assert twin == token and type(twin) is Token

    def test_rebuilding_recomputes_lower(self):
        stale = tuple.__new__(Token, ("Meets", WORD, 4, 9, False, "stale"))
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(stale, protocol)) for protocol in protocols]
        rebuilt = [copy.deepcopy(stale), copy.copy(stale), stale._replace(), Token._make(stale)]
        for twin in [*copies, *rebuilt]:
            assert twin.lower == "meets"
        assert Token("Meets", WORD, 0, 5)._replace(surface="Met").lower == "met"


# The tokenizer and unescaper as they were before each token was built once:
# kept as the oracles that ``normalize`` and ``_unescape_text`` must match.


@dataclass(frozen=True)
class OldToken:
    surface: str
    kind: str
    start: int
    end: int
    quoted: bool = False


_OLD_TOKEN_RE = re.compile(
    r"""(?P<url>https?://[^\s]+)
      | (?P<mention>@\w+)
      | (?P<hashtag>\#\w+)
      | (?P<number>\d+(?:[.,]\d+)*)
      | (?P<word>[^\W\d_][\w'’\-]*)
      | (?P<punct>[^\w\s])
    """,
    re.VERBOSE | re.UNICODE,
)


def old_normalize(text: str):
    """``normalize`` building each quoted headline's tokens twice, kept as the oracle."""
    if not text or not text.strip():
        raise ValueError("cannot tokenize empty text")
    tokens = []
    urls = []
    for match in _OLD_TOKEN_RE.finditer(text):
        kind = match.lastgroup or PUNCT
        surface = match.group()
        if kind == "url":
            urls.append((match.start(), match.end()))
            continue
        if kind == WORD and surface.lower() in NUMBER_WORDS:
            kind = NUMBER
        tokens.append(OldToken(surface, kind, match.start(), match.end()))

    quote_positions = [i for i, t in enumerate(tokens) if t.surface in QUOTE_CHARS]
    spans = []
    if len(quote_positions) % 2 == 0:
        quoted_token_indexes = set()
        for open_idx, close_idx in zip(quote_positions[::2], quote_positions[1::2]):
            spans.append(
                QuotedSpan(
                    start=tokens[open_idx].start,
                    end=tokens[close_idx].end,
                    first_token=open_idx + 1,
                    last_token=close_idx - 1,
                )
            )
            quoted_token_indexes.update(range(open_idx, close_idx + 1))
        if quoted_token_indexes:
            tokens = [
                OldToken(t.surface, t.kind, t.start, t.end, quoted=(i in quoted_token_indexes))
                for i, t in enumerate(tokens)
            ]
    return tokens, spans, urls


def old_unescape_text(text: str, line_no: int) -> str:
    """``_unescape_text`` without the no-backslash shortcut, kept as the oracle."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise RecordError(line_no, "dangling backslash in text field")
        nxt = text[i + 1]
        if nxt == "t":
            out.append("\t")
        elif nxt == "\\":
            out.append("\\")
        else:
            out.append(ch)
            out.append(nxt)
        i += 2
    return "".join(out)


_PIECES = st.sampled_from(
    (
        '"', "\u201c", "\u201d", "'", "“hi”", '"a b"', "http://t.co/x1", "https://a.b/c?d=e\"f",
        "http:/no", "@Pontifex", "@_", "#SXSW", "#", "2", "2,000.5", "three", "Three", "DOZENS",
        "threefold", "Meets", "ΣΑΣ", "İstanbul", "STRAẞE", "don't", "co-op", "_x", "x_", "é",
        ":", ",", "-", "!", "\u2026", "\u00a0", "\t", "9a", "a9",
        # No token starts at a lone "_", so a match must give back the
        # whitespace it took before it.
        " _ ",
    )
)
# Every kind of whitespace the token pattern's leading ``\s*`` takes.
_SEPARATORS = st.sampled_from(
    ("", " ", "  ", "\u00a0", "\n", "\r", "\x0b", "\x1c", "\u2028", "\u3000")
)
_HEADLINES = st.one_of(
    st.lists(st.tuples(_PIECES, _SEPARATORS).map("".join), min_size=1, max_size=12).map("".join),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=40),
)


@settings(max_examples=500, deadline=None)
@given(_HEADLINES)
def test_property_normalize_matches_the_old_tokenizer(text):
    try:
        expected = old_normalize(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            normalize(text)
        return
    toks = normalize(text)
    old_tokens, old_spans, old_urls = expected
    assert [t[:5] for t in toks.tokens] == [
        (t.surface, t.kind, t.start, t.end, t.quoted) for t in old_tokens
    ]
    assert all(type(t) is Token and t.lower == t.surface.lower() for t in toks.tokens)
    assert list(toks.quoted_spans) == old_spans
    assert list(toks.urls) == old_urls
    assert toks.raw == text


_ESCAPE_PIECES = st.sampled_from(("\\", "t", "\\t", "\\\\", "a", "é", "\t", " ", "\\n"))


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.lists(_ESCAPE_PIECES, max_size=10).map("".join), st.text(max_size=30)),
    st.integers(0, 99),
)
def test_property_unescape_text_matches_the_old_loop(text, line_no):
    try:
        expected = old_unescape_text(text, line_no)
    except RecordError as exc:
        with pytest.raises(RecordError) as raised:
            _unescape_text(text, line_no)
        assert str(raised.value) == str(exc)
        return
    assert _unescape_text(text, line_no) == expected
