"""Input parsing and headline tokenization.

Every file headex is given is read by ``read_text`` or ``read_json``, which
raise ``InputError`` (or the subclass a loader passes) naming the file once:
``cannot read <path>: ...`` or, for bad content, ``<path>: ...``.

Record format: UTF-8, newline-delimited, four tab-separated fields per line:

    id<TAB>publisher<TAB>date<TAB>text

The text field is last and may contain any character except newlines; literal
tabs and backslashes inside it are escaped as ``\\t`` and ``\\\\``.

Every date headex reads fits one grammar, ``_DATE``.  A record date
(``parse_timestamp``) is day-first ``D/M/YY`` or ``D/M/YYYY``, two-digit years
landing in 2000-2099, or ``YYYY-MM-DD``, optionally followed by ``T`` or a
space and ``HH:MM[:SS[.fff|.ffffff]]``, then optionally by ``Z`` or ``±HH:MM``.
Every other date (``parse_date``: catalog positions, ``extractedOn``, ``query``
filters) is ``YYYY-MM-DD`` with an optional zone, as ``xsd:date`` allows.  A
zone on a bare date leaves the day as written; on a datetime it converts to UTC.

Tokenization is offset-sound: each token records the half-open character span
it was cut from, tokens never overlap, and every non-space character outside a
stripped URL belongs to exactly one token.  A ``Token`` is an immutable tuple
of its surface, kind, span, quoted flag and lowercase form; ``normalize``
builds each one once, with its final kind and flag, unless a quote is left
open: the headline then marks no quoted span and its marked tokens are
built again.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable
from datetime import date, datetime, timezone
from pathlib import Path

from .model import HeadlineRecord, ModelError
from .rdf import Checked

WORD = "word"
MENTION = "mention"
HASHTAG = "hashtag"
NUMBER = "number"
PUNCT = "punct"

NUMBER_WORDS = frozenset(
    """one two three four five six seven eight nine ten eleven twelve thirteen
    fourteen fifteen sixteen seventeen eighteen nineteen twenty thirty forty
    fifty sixty seventy eighty ninety hundred thousand million billion dozen
    dozens""".split()
)

QUOTE_CHARS = frozenset('"“”')


class InputError(ValueError):
    """Raised for an input file that cannot be read or parsed; names the file."""


def read_text(path: str | Path, error: type[ValueError] = InputError) -> str:
    """The file's text: UTF-8, a leading byte-order mark dropped, with universal newlines."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise error(f"cannot read {path}: not UTF-8 ({exc.reason}: {bad!r})") from exc


def read_json(path: str | Path, error: type[ValueError] = InputError) -> object:
    """The JSON value a file holds."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def bad_field(raw: dict, key: str, what: str) -> InputError:
    """The error for a JSON object whose ``key`` is missing or not ``what``."""
    if key not in raw:
        return InputError(f"missing field {key!r}")
    return InputError(f"{key!r} must be {what}, got {raw[key]!r}")


def list_field(raw: dict, key: str, kind: type) -> list:
    """``raw[key]`` (empty when absent), which must be a list of ``kind``."""
    values = raw.get(key, [])
    if not isinstance(values, list):
        raise bad_field(raw, key, "a list of strings" if kind is str else "a list of objects")
    for value in values:
        if not isinstance(value, kind):
            noun = "strings" if kind is str else "objects"
            raise InputError(f"{key!r} must hold only {noun}, got {value!r}")
    return values


class RecordError(ValueError):
    """Raised for records that cannot be parsed; carries the input line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Only the matched ISO text reaches the standard library's calendar check,
# which reads that subset alike on every supported Python.  Groups: day,
# month, year of a day-first date; ISO date, time, zone.
_DATE = re.compile(
    r"(\d\d?)/(\d\d?)/(\d\d|\d{4})"
    r"|(\d{4}-\d\d-\d\d)"
    r"([T ](?:[01]\d|2[0-3]):[0-5]\d(?::[0-5]\d(?:\.\d{3}|\.\d{6})?)?)?"
    r"(Z|[+-](?:[01]\d|2[0-3]):[0-5]\d)?",
    re.ASCII,
)


def parse_timestamp(text: str, line_no: int = 0) -> datetime:
    """Parse a record date (see the module docstring) into a UTC datetime."""
    text = text.strip()
    match = _DATE.fullmatch(text)
    if match is None:
        raise RecordError(line_no, f"unparseable date {text!r}")
    day, month, year, iso, time, zone = match.groups()
    if iso is None:
        century = 2000 if len(year) == 2 else 0
        try:
            return datetime(century + int(year), int(month), int(day), tzinfo=timezone.utc)
        except ValueError as exc:
            raise RecordError(line_no, f"invalid calendar date {text!r}") from exc
    try:
        if time is None:
            return datetime.fromisoformat(iso).replace(tzinfo=timezone.utc)
        offset = "+00:00" if zone in (None, "Z") else zone
        return datetime.fromisoformat(iso + time + offset).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:  # no such day, or no such UTC instant
        raise RecordError(line_no, f"unparseable date {text!r}") from exc


def parse_date(text: str) -> date:
    """Parse an ISO ``YYYY-MM-DD`` date; a zone after it leaves the day as written."""
    match = _DATE.fullmatch(text)
    if match is None or match[4] is None or match[5] is not None:
        raise ValueError(f"not an ISO date: {text!r}")
    try:
        return date.fromisoformat(match[4])
    except ValueError as exc:  # no such day in that month
        raise ValueError(f"not a calendar date: {text!r}") from exc


_TEXT_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape_text(text: str, line_no: int) -> str:
    if "\\" not in text:
        return text

    def unescape(match: re.Match[str]) -> str:
        if not match[1]:
            raise RecordError(line_no, "dangling backslash in text field")
        # Unknown escapes pass through untouched; headline text is noisy.
        return {"t": "\t", "\\": "\\"}.get(match[1], match[0])

    return _TEXT_ESCAPE.sub(unescape, text)


def parse_record(line: str, line_no: int = 0) -> HeadlineRecord:
    """Parse one input line into a HeadlineRecord.

    Raises RecordError on wrong field count, bad dates, empty fields, or an
    id holding a character that IRIs forbid.
    """
    stripped = line.rstrip("\n").rstrip("\r")
    fields = stripped.split("\t")
    if len(fields) != 4:
        raise RecordError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
    record_id, publisher, date_text, text = fields
    timestamp = parse_timestamp(date_text, line_no)
    text = _unescape_text(text, line_no).strip()
    try:  # the input boundary: every check of HeadlineRecord runs
        return HeadlineRecord(record_id.strip(), publisher.strip(), timestamp, text)
    except ModelError as exc:
        raise RecordError(line_no, str(exc)) from exc


def read_records(path: str | Path) -> tuple[list[HeadlineRecord], list[tuple[str, str]]]:
    """Read all records from a file.

    Returns (records, failures) where failures are (line label, reason) pairs;
    malformed lines and duplicate ids are reported, never raised, so one bad
    row cannot abort a batch.  A file that cannot be read raises InputError.
    """
    records: list[HeadlineRecord] = []
    failures: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = parse_record(line, line_no)
        except RecordError as exc:
            failures.append((f"line{line_no}", str(exc)))
            continue
        if record.id in seen_ids:
            failures.append((record.id, f"line {line_no}: duplicate record id"))
            continue
        seen_ids.add(record.id)
        records.append(record)
    return records, failures


class Token(Checked, namedtuple("_TokenFields", "surface kind start end quoted lower")):
    """One token: its surface, kind, half-open character span, whether it
    lies inside a quoted span, and its lowercase form, computed once.

    An immutable tuple of those six fields, and equal to it; built as
    ``Token(surface, kind, start, end, quoted=False)``.
    """

    __slots__ = ()

    def __new__(cls, surface: str, kind: str, start: int, end: int, quoted: bool = False) -> Token:
        return tuple.__new__(cls, (surface, kind, start, end, quoted, surface.lower()))

    def __getnewargs__(self) -> tuple[str, str, int, int, bool]:
        return self[:5]

    @classmethod
    def _make(cls, iterable: Iterable) -> Token:
        return cls(*tuple(iterable)[:5])  # ``lower`` is recomputed

    def __repr__(self) -> str:
        return (
            f"Token(surface={self[0]!r}, kind={self[1]!r}, start={self[2]!r}, "
            f"end={self[3]!r}, quoted={self[4]!r})"
        )


# A double-quoted stretch of text, quote marks included in the char span; its
# inner tokens are ``first_token`` to ``last_token``, none if first > last.
QuotedSpan = namedtuple("QuotedSpan", "start end first_token last_token")


class TokenSequence(
    namedtuple("_TokenSequenceFields", "raw tokens quoted_spans urls", defaults=((), ()))
):
    """A headline, its tokens and quoted spans, and the URL spans stripped from it."""

    __slots__ = ()


# Each match also takes the whitespace before its token, so ``finditer``
# resumes at the next token instead of failing once per space; the token is
# the span of the one group that matched, and that group's number is its kind.
_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<url>https?://[^\s]+)
      | (?P<mention>@\w+)
      | (?P<hashtag>\#\w+)
      | (?P<number>\d+(?:[.,]\d+)*)
      | (?P<word>[^\W\d_][\w'’\-]*)
      | (?P<punct>[^\w\s]))
    """,
    re.VERBOSE | re.UNICODE,
)
_KINDS = (None, "url", MENTION, HASHTAG, NUMBER, WORD, PUNCT)  # by group number


def normalize(text: str) -> TokenSequence:
    """Tokenize one headline.

    URLs are stripped (spans recorded), @mentions and #hashtags are single
    tokens, digit strings and spelled-out cardinals are number tokens, and
    double-quoted spans are marked (inner tokens carry ``quoted=True``).  An
    unbalanced quote disables quoted-span marking for the whole headline.
    Raises ValueError on empty input.
    """
    if not text or not text.strip():
        raise ValueError("cannot tokenize empty text")
    # Tokens are built as Token.__new__ would; a TokenSequence has no checks.
    # A token is marked quoted as soon as a quote opens, and a headline whose
    # last quote stays open unmarks its tokens at the end.
    new = tuple.__new__
    tokens: list[Token] = []
    urls: list[tuple[int, int]] = []
    spans: list[QuotedSpan] = []
    opened = None  # the index of an open quote's token
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        start, end = match.span(group)
        kind = _KINDS[group]
        if kind == "url":
            urls.append((start, end))
            continue
        surface = text[start:end]
        lower = surface.lower()
        quoted = opened is not None
        if kind == WORD:
            if lower in NUMBER_WORDS:
                kind = NUMBER
        elif kind == PUNCT and surface in QUOTE_CHARS:
            if opened is None:
                opened, quoted = len(tokens), True
            else:
                spans.append(QuotedSpan(tokens[opened].start, end, opened + 1, len(tokens) - 1))
                opened = None
        tokens.append(new(Token, (surface, kind, start, end, quoted, lower)))
    if opened is not None:
        spans = []
        tokens = [new(Token, (*t[:4], False, t[5])) if t[4] else t for t in tokens]
    return new(TokenSequence, (text, tuple(tokens), tuple(spans), tuple(urls)))
