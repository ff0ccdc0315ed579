"""Triple store core: term validation, set semantics, N-Triples round-trip."""

from __future__ import annotations

import copy
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headex import rdf
from headex.rdf import (
    RDF_TYPE,
    XSD_DATE,
    XSD_INTEGER,
    Literal,
    NTriplesParseError,
    RdfError,
    Triple,
    TripleSet,
    _check_iri,
    _line,
    escape_literal,
    is_absolute_iri,
    local_name,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
    unescape_literal,
)

EX = "http://example.org/"


def t(s: str, p: str, o) -> Triple:
    return Triple(EX + s, EX + p, EX + o if isinstance(o, str) else o)


class TestTerms:
    def test_absolute_iri_accepts_schemes(self):
        assert is_absolute_iri("http://example.org/x")
        assert is_absolute_iri("urn:uuid:1234")

    @pytest.mark.parametrize("bad", ["", "no-scheme", "/relative/path", "http://a b", "has<angle>:x"])
    def test_absolute_iri_rejects(self, bad):
        assert not is_absolute_iri(bad)

    def test_local_name(self):
        assert local_name("http://example.org/vocab#Meet") == "Meet"
        assert local_name("http://example.org/vocab/Meet") == "Meet"

    def test_literal_datatype_and_language_exclusive(self):
        with pytest.raises(RdfError):
            Literal("x", datatype=XSD_DATE, language="en")

    def test_literal_equality(self):
        assert Literal("a") == Literal("a")
        assert Literal("a", datatype=XSD_DATE) != Literal("a")

    def test_triple_requires_absolute_iris(self):
        with pytest.raises(RdfError):
            Triple("relative", EX + "p", EX + "o")
        with pytest.raises(RdfError):
            Triple(EX + "s", "p", EX + "o")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Triple(Literal("s"), EX + "p", EX + "o"), "subject is not an absolute IRI: Literal("),
            (lambda: Triple(EX + "s", None, EX + "o"), "predicate is not an absolute IRI: None"),
            (lambda: Triple(EX + "s", EX + "p", 7), "object is not an absolute IRI: 7"),
            (lambda: Literal("x", datatype=7), "datatype is not an absolute IRI: 7"),
            (lambda: Literal("x", language=7), "not a language tag: 7"),
            (lambda: Literal(5), "lexical form is not a string: 5"),
        ],
        ids=["subject", "predicate", "object", "datatype", "language", "lexical"],
    )
    def test_term_that_is_no_string_is_an_rdf_error(self, build, message):
        with pytest.raises(RdfError) as raised:
            build()
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("tag", ["", "en us", "en-", "-en", "e\x1f", "en_GB"])
    def test_literal_language_must_be_a_tag(self, tag):
        with pytest.raises(RdfError):
            Literal("x", language=tag)

    def test_literal_object_allowed_subject_not(self):
        triple = Triple(EX + "s", EX + "p", Literal("hello"))
        assert isinstance(triple.object, Literal)

    def test_terms_are_tuples_of_their_parts(self):
        date = Literal("2016-02-26", datatype=XSD_DATE)
        triple = Triple(EX + "s", EX + "p", date)
        assert date == ("2016-02-26", XSD_DATE, None) and hash(date) == hash(tuple(date))
        assert triple == (EX + "s", EX + "p", ("2016-02-26", XSD_DATE, None))
        assert (triple.subject, triple.predicate, triple.object) == tuple(triple)
        assert (date.lexical, date.datatype, date.language) == tuple(date)
        assert repr(Literal("hi", language="en")) == "Literal(lexical='hi', datatype=None, language='en')"
        assert repr(Triple(EX + "s", EX + "p", EX + "o")) == (
            "Triple(subject='http://example.org/s', predicate='http://example.org/p', "
            "object='http://example.org/o')"
        )

    @pytest.mark.parametrize("name", ["subject", "object", "lexical", "extra"])
    def test_terms_are_immutable(self, name):
        for value in (Triple(EX + "s", EX + "p", EX + "o"), Literal("x")):
            with pytest.raises(AttributeError):
                setattr(value, name, EX + "t")

    @pytest.mark.parametrize(
        "value",
        [
            Literal("plain"),
            Literal("2", datatype=XSD_INTEGER),
            Literal("hi", language="en-gb"),
            Triple(EX + "s", EX + "p", EX + "o"),
            Triple(EX + "s", EX + "p", Literal("hi", language="en")),
            TripleSet([Triple(EX + "s", EX + "p", EX + "o"), Triple(EX + "s", EX + "q", Literal("x"))]),
        ],
        ids=repr,
    )
    def test_pickle_and_deepcopy_round_trip(self, value):
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*copies, copy.deepcopy(value), copy.copy(value)]:
            assert twin == value and type(twin) is type(value)


class TestTripleSet:
    def test_duplicates_collapse(self):
        g = TripleSet([t("s", "p", "o"), t("s", "p", "o")])
        assert len(g) == 1
        g.update([t("s", "p", "o")])
        g.update(TripleSet([t("s", "p", "o")]))
        assert len(g) == 1

    def test_iteration_preserves_insertion_order(self):
        g = TripleSet([t("b", "p", "x"), t("a", "p", "x")])
        assert [x.subject for x in g] == [EX + "b", EX + "a"]

    def test_equality_is_order_free(self):
        g1 = TripleSet([t("a", "p", "x"), t("b", "p", "x")])
        g2 = TripleSet([t("b", "p", "x"), t("a", "p", "x")])
        assert g1 == g2


class TestEscaping:
    @pytest.mark.parametrize(
        "text", ['plain', 'with "quotes"', "tab\there", "new\nline", "back\\slash", "unicode é €"]
    )
    def test_escape_unescape_round_trip(self, text):
        assert unescape_literal(escape_literal(text)) == text

    def test_escaped_output_is_single_line(self):
        assert "\n" not in escape_literal("a\nb")

    def test_unicode_escapes(self):
        assert unescape_literal("\\u00e9\\u00E9\\U0001F600") == "éé\U0001F600"

    @pytest.mark.parametrize(
        "escaped",
        ["\\uZZZZ", "\\u12G4", "\\U0000ZZZZ", "\\u+0FF", "\\u0_FF", "\\u 0FF", "\\u12", "\\U0001F6"],
    )
    def test_non_hex_or_short_unicode_escape_rejected(self, escaped):
        with pytest.raises(NTriplesParseError):
            unescape_literal(escaped)

    @pytest.mark.parametrize("escaped", ["\\uD800", "\\uDFFF", "\\U0000DC00", "\\U00110000"])
    def test_escape_of_no_character_rejected(self, escaped):
        # Surrogates and values past U+10FFFF could not be written as UTF-8.
        with pytest.raises(NTriplesParseError):
            unescape_literal(escaped)

    def test_relative_datatype_in_graph_carries_line_number(self):
        text = '<http://e/s> <http://e/p> "ok" .\n<http://e/s> <http://e/p> "x"^^<rel> .\n'
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(text)
        assert err.value.line_no == 2
        assert str(err.value) == "line 2: datatype is not an absolute IRI: 'rel'"

    @pytest.mark.parametrize(
        ("position", "later", "expected"),
        [
            (0, "", "line 2: subject is not an absolute IRI: 'rel'"),
            (1, "", "line 2: predicate is not an absolute IRI: 'rel'"),
            (2, "", "line 2: object is not an absolute IRI: 'rel'"),
            # The bad token again on later lines, in other positions: the
            # first line that holds it is reported.
            (
                2,
                "<rel> <http://e/p> <http://e/o> .\n<http://e/s> <rel> <http://e/o> .\n",
                "line 2: object is not an absolute IRI: 'rel'",
            ),
        ],
        ids=["0", "1", "2", "repeated"],
    )
    def test_relative_iri_in_graph_carries_line_number(self, position, later, expected):
        terms = ["<http://e/s>", "<http://e/p>", "<http://e/o>"]
        terms[position] = "<rel>"
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples("<http://e/s> <http://e/p> <http://e/o> .\n" + " ".join(terms) + " .\n" + later)
        assert err.value.line_no == 2 and str(err.value) == expected

    def test_repeated_terms_are_shared(self):
        text = (
            '<http://e/s> <http://e/p> "d"^^<http://e/t> .\n'
            '<http://e/o> <http://e/p> "d"^^<http://e/t> .\n'
            "<http://e/s> <http://e/q> <http://e/o> .\n"
        )
        a, b, c = parse_ntriples(text)
        assert a.predicate is b.predicate and a.object is b.object
        assert a.subject is c.subject and b.subject is c.object

    def test_bad_escape_in_graph_carries_line_number(self):
        text = '<http://e/s> <http://e/p> "ok" .\n<http://e/s> <http://e/p> "\\uD800" .\n'
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(text)
        assert err.value.line_no == 2


class TestSerialization:
    def graph(self) -> TripleSet:
        return TripleSet(
            [
                t("s", "p", "o"),
                Triple(EX + "s", EX + "label", Literal("hi there", language="en")),
                Triple(EX + "s", EX + "date", Literal("2016-02-26", datatype=XSD_DATE)),
                Triple(EX + "s", RDF_TYPE, EX + "Thing"),
            ]
        )

    def test_lines_are_sorted(self):
        lines = serialize_ntriples(self.graph()).splitlines()
        assert lines == sorted(lines)

    def test_round_trip_identity(self):
        g = self.graph()
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_parse_skips_comments_and_blanks(self):
        text = '# comment\n\n<http://e/s> <http://e/p> <http://e/o> .\n'
        assert len(parse_ntriples(text)) == 1

    @pytest.mark.parametrize("obj", ["<http://e/o>", '"x"', '"x # y"@en'])
    @pytest.mark.parametrize("ending", [" . # note", " .# note", ". #", " .\t#\t. #"])
    def test_parse_skips_a_comment_after_the_final_dot(self, obj, ending):
        line = f"<http://e/s> <http://e/p> {obj}"
        assert parse_ntriples(f"{line}{ending}\n") == parse_ntriples(f"{line} .\n")
        assert len(parse_ntriples(f"{line} .\n")) == 1

    @pytest.mark.parametrize("obj", ["<http://e/o>", '"x"'])
    def test_comment_without_a_final_dot_is_malformed(self, obj):
        line = f"<http://e/s> <http://e/p> {obj} # note"
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(f"<http://e/s> <http://e/p> <http://e/o> .\n{line}\n")
        assert str(err.value) == f"line 2: malformed triple: {line!r}"

    def test_a_stored_line_tail_is_no_object_token(self):
        # The token table and the line-tail table stay apart: looking up the
        # object `"a" .` among the tokens must not find line 1's tail.
        line = '<http://e/s> <http://e/q> "a" . .'
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(f'<http://e/s> <http://e/p> "a" .\n{line}\n')
        assert str(err.value) == f"line 2: malformed triple: {line!r}"

    def test_parse_error_carries_line_number(self):
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples('<http://e/s> <http://e/p> .\n')
        assert err.value.line_no == 1

    def test_parse_rejects_garbage_line(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples("not a triple at all\n")

    def test_turtle_has_prefixes_and_a_shortcut(self):
        text = serialize_turtle(self.graph(), base_iri=EX)
        assert "@prefix" in text
        assert " a " in text  # rdf:type contracted
        assert '"hi there"@en' in text


iris = st.sampled_from([EX + name for name in "abcdefgh"])
literals = st.one_of(
    st.text(max_size=12).map(Literal),
    st.text(max_size=6).map(lambda s: Literal(s, language="en")),
    st.text(max_size=6).map(lambda s: Literal(s, datatype=XSD_DATE)),
)
triples = st.builds(Triple, iris, iris, st.one_of(iris, literals))


@settings(max_examples=200)
@given(st.lists(triples, max_size=10))
def test_property_round_trip(triple_list):
    g = TripleSet(triple_list)
    assert parse_ntriples(serialize_ntriples(g)) == g


@given(st.lists(triples, max_size=10))
def test_property_serialization_is_canonical(triple_list):
    # Same triples in any insertion order serialize to identical bytes.
    g1 = TripleSet(triple_list)
    g2 = TripleSet(reversed(triple_list))
    assert serialize_ntriples(g1) == serialize_ntriples(g2)


# The codec as it was before each term was checked and rendered once, kept as
# the oracle for the faster code: two regexes per IRI check, per-character
# escape loops, and a sort on the tuple of the three rendered terms.

_OLD_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_OLD_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_OLD_HEX = re.compile(r"[0-9A-Fa-f]+")
_OLD_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def old_is_absolute_iri(value: str) -> bool:
    return bool(_OLD_SCHEME.match(value)) and not _OLD_FORBIDDEN.search(value)


def old_escape_literal(text: str) -> str:
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def old_unescape_literal(text: str, line_no: int = 0) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise NTriplesParseError(line_no, "dangling escape at end of literal")
        nxt = text[i + 1]
        if nxt in _OLD_ESCAPES:
            out.append(_OLD_ESCAPES[nxt])
            i += 2
        elif nxt in "uU":
            end = i + (6 if nxt == "u" else 10)
            if end > len(text) or not _OLD_HEX.fullmatch(text, i + 2, end):
                raise NTriplesParseError(line_no, f"bad \\{nxt} escape {text[i:end]!r}")
            code = int(text[i + 2 : end], 16)
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise NTriplesParseError(line_no, f"escape {text[i:end]!r} is not a character")
            out.append(chr(code))
            i = end
        else:
            raise NTriplesParseError(line_no, f"unknown escape \\{nxt}")
    return "".join(out)


def old_term(value) -> str:
    if isinstance(value, Literal):
        out = f'"{old_escape_literal(value.lexical)}"'
        if value.datatype is not None:
            out += f"^^<{value.datatype}>"
        elif value.language is not None:
            out += f"@{value.language}"
        return out
    return f"<{value}>"


def old_sorted(graph: TripleSet) -> list[Triple]:
    return sorted(graph, key=lambda t: (old_term(t.subject), old_term(t.predicate), old_term(t.object)))


def old_serialize_ntriples(graph: TripleSet) -> str:
    lines = [f"{old_term(t.subject)} {old_term(t.predicate)} {old_term(t.object)} ." for t in old_sorted(graph)]
    return "".join(line + "\n" for line in lines)


# Characters at which the old and new code could part: the IRI delimiters and
# forbidden characters, the space and the controls around it, quotes,
# backslashes, escape letters, hex digits, tag letters and a few non-ASCII.
_EDGE = " \x00\x01\x08\x09\x0a\x0b\x0c\x0d\x1f\x7f\x85\u2028<>\"'{}|^`\\/:#@-_.+~%aAzZuUtbnrf09Fé€\U0001F600"
edge_text = st.text(alphabet=st.sampled_from(_EDGE), max_size=16) | st.text(max_size=16)


def test_is_absolute_iri_matches_old_on_every_ascii_character():
    chars = [chr(code) for code in range(0x80)] + ["\x85", "\u00a0", "é", "\U0001F600"]
    for template in ("{}", "{}:x", "a{}:x", "a{}", "a:{}", "http://e/{}", "http://e/{}x"):
        for char in chars:
            value = template.format(char)
            assert is_absolute_iri(value) == old_is_absolute_iri(value), value


iri_like = st.builds(
    lambda scheme, head, char, tail: scheme + head + char + tail,
    st.sampled_from(["", "a", "http:", "a-b.c+d:", "1a:", "-a:", "a_b:", ":"]),
    st.text(alphabet="aZ9/:#-.+", max_size=4),
    st.characters(max_codepoint=0x7F) | st.sampled_from(_EDGE),
    st.text(alphabet="aZ9/:#-.+", max_size=4),
)


@settings(max_examples=500)
@given(st.one_of(edge_text, edge_text.map(lambda s: "http://e/" + s), iri_like))
def test_property_is_absolute_iri_matches_old(value):
    assert is_absolute_iri(value) == old_is_absolute_iri(value)


@settings(max_examples=500)
@given(edge_text)
def test_property_escape_literal_matches_old(text):
    assert escape_literal(text) == old_escape_literal(text)


def outcome(function, text):
    try:
        return function(text, 7)
    except NTriplesParseError as exc:
        return ("error", str(exc), exc.line_no)


_ESCAPE_PIECES = ["\\", "\\u", "\\U", "\\u00", "\\U0001F6", "\\uD8", "\\U0011", "00E9", "Z", "\\x", "\\t", "a"]
escaped_text = st.one_of(
    edge_text,
    edge_text.map(escape_literal),
    st.lists(st.sampled_from(_ESCAPE_PIECES) | edge_text, max_size=6).map("".join),
)


@settings(max_examples=500)
@given(escaped_text)
def test_property_unescape_literal_matches_old(text):
    assert outcome(unescape_literal, text) == outcome(old_unescape_literal, text)


# Terms built to be prefixes of one another: short lexical forms over a small
# alphabet, bare and tagged and typed, with tags that extend one another.
prefix_iris = st.sampled_from(["http://e/a", "http://e/a/b", "http://e/a-", "http://e/ab", "urn:x"])
prefix_literals = st.builds(
    Literal,
    st.text(alphabet=st.sampled_from(' "\\\t\x01\x1fab@^-é'), max_size=4),
    st.none() | st.sampled_from([XSD_DATE, "http://e/a", "http://e/ab"]),
) | st.builds(
    lambda lexical, language: Literal(lexical, language=language),
    st.text(alphabet=st.sampled_from(' "ab'), max_size=3),
    st.sampled_from(["e", "en", "en-gb", "en-g", "EN", "en-1"]),
)
prefix_triples = st.builds(Triple, prefix_iris, prefix_iris, st.one_of(prefix_iris, prefix_literals, literals))


@settings(max_examples=500)
@given(st.lists(prefix_triples, max_size=12))
def test_property_serialization_matches_old_tuple_sort(triple_list):
    g = TripleSet(triple_list)
    assert serialize_ntriples(g) == old_serialize_ntriples(g)
    assert sorted(g, key=_line) == old_sorted(g)


@settings(max_examples=300)
@given(st.lists(prefix_triples, max_size=12))
def test_property_round_trip_with_prefix_terms(triple_list):
    g = TripleSet(triple_list)
    assert parse_ntriples(serialize_ntriples(g)) == g


def test_line_order_on_terms_that_are_prefixes():
    # "x" is a prefix of the next three terms and "x"@en of "x"@en-gb; the
    # tuple order and the line order must both put the shorter first.
    objects = [
        Literal("x"),
        Literal("x", language="en"),
        Literal("x", language="en-gb"),
        Literal("x", datatype="http://e/d"),
        Literal("x y"),
    ]
    g = TripleSet(Triple(EX + "s", EX + "p", o) for o in objects)
    assert serialize_ntriples(g) == old_serialize_ntriples(g)
    assert [t.object for t in sorted(g, key=_line)] == [objects[4]] + objects[:4]


# The parse boundary: whatever the text, parsing gives a TripleSet or an
# NTriplesParseError, never another exception.


def parses_or_reports(text: str) -> None:
    try:
        result = parse_ntriples(text)
    except NTriplesParseError:
        return
    assert isinstance(result, TripleSet)


@settings(max_examples=500)
@given(st.one_of(st.text(), edge_text, st.lists(edge_text, max_size=6).map("\n".join)))
def test_property_parse_arbitrary_text(text):
    parses_or_reports(text)


@pytest.fixture(scope="module")
def events_lines(nine_result) -> list[str]:
    return serialize_ntriples(nine_result.graph).splitlines()


mutation = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0, max_value=400),
    st.sampled_from(_EDGE) | st.characters(),
)


def mutated(line: str, mutations) -> str:
    for kind, position, char in mutations:
        position %= len(line) + 1
        if kind == "insert":
            line = line[:position] + char + line[position:]
        elif kind == "delete":
            line = line[:position] + line[position + 1 :]
        else:
            line = line[:position] + char + line[position + 1 :]
    return line


@settings(max_examples=500)
@given(line_index=st.integers(min_value=0), mutations=st.lists(mutation, min_size=1, max_size=4))
def test_property_parse_mutated_events_lines(events_lines, line_index, mutations):
    line = mutated(events_lines[line_index % len(events_lines)], mutations)
    parses_or_reports(line)
    parses_or_reports("\n".join(events_lines[:3] + [line]))


# The pattern path's term checks as they were before both parse paths shared
# one, kept for the oracles below.


def _parse_iri(token: str, position: str, line_no: int) -> str:
    try:
        return _check_iri(position, token[1:-1])
    except RdfError as exc:
        raise NTriplesParseError(line_no, str(exc)) from exc


def _parse_literal(match: re.Match[str], line_no: int) -> Literal:
    lexical = unescape_literal(match[4], line_no)
    try:
        return Literal(lexical, datatype=match[5], language=match[6])
    except RdfError as exc:
        raise NTriplesParseError(line_no, str(exc)) from exc


def old_parse_ntriples(text: str) -> TripleSet:
    """The parser as it was when the public ``Triple`` checked every IRI of
    every line, kept as the oracle for the check made once per token."""
    triples = []
    terms: dict = {}
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = rdf._LINE_RE.fullmatch(line)
        if match is None:
            raise NTriplesParseError(line_no, f"malformed triple: {line!r}")
        s, p, o = match.group(1, 2, 3)
        obj = terms.get(o)
        if obj is None:
            obj = terms[o] = o[1:-1] if o[0] == "<" else _parse_literal(match, line_no)
        try:
            triple = Triple(terms.setdefault(s, s[1:-1]), terms.setdefault(p, p[1:-1]), obj)
        except RdfError as exc:
            raise NTriplesParseError(line_no, str(exc)) from exc
        triples.append(triple)
    return TripleSet(triples)


def parse_outcome(parse, text: str):
    try:
        return serialize_ntriples(parse(text))
    except NTriplesParseError as exc:
        return ("error", str(exc), exc.line_no)


def scheme_dropped(line: str, which: list[int]) -> str:
    """``line`` with the colon of its ``which``-th ``<http:`` IRIs removed."""
    for k in which:
        head, sep, tail = line.partition("<http:")
        for _ in range(k):
            if not sep:
                break
            more, sep, tail = tail.partition("<http:")
            head += "<http:" + more
        if sep:
            line = head + "<http" + tail
    return line


@settings(max_examples=500)
@given(
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.lists(st.integers(min_value=0, max_value=3), max_size=2),
            st.lists(mutation, max_size=2),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_parse_matches_checking_every_triple(events_lines, picks):
    # Lines of a real graph, some repeated, with IRIs made relative in any
    # position (the datatype too) and characters changed: checking each
    # token once gives the graph or the first error that checking every
    # triple gave.
    lines = [
        mutated(scheme_dropped(events_lines[i % len(events_lines)], which), mutations)
        for i, which, mutations in picks
    ]
    text = "\n".join(lines)
    assert parse_outcome(parse_ntriples, text) == parse_outcome(old_parse_ntriples, text)


def pattern_parse_ntriples(text: str) -> TripleSet:
    """The parser as it was before well-formed lines were split into tokens:
    every line goes through the whole-line pattern.  Kept as the oracle for
    the token path."""
    graph = TripleSet()
    triples = graph._triples
    terms: dict = {}
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = rdf._LINE_RE.fullmatch(line)
        if match is None:
            raise NTriplesParseError(line_no, f"malformed triple: {line!r}")
        s, p, o = match.group(1, 2, 3)
        obj = terms.get(o)
        if obj is None and o[0] == '"':
            obj = terms[o] = _parse_literal(match, line_no)
        subject = terms.get(s)
        if subject is None:
            subject = terms[s] = _parse_iri(s, "subject", line_no)
        predicate = terms.get(p)
        if predicate is None:
            predicate = terms[p] = _parse_iri(p, "predicate", line_no)
        if obj is None:
            obj = terms[o] = _parse_iri(o, "object", line_no)
        triples[tuple.__new__(Triple, (subject, predicate, obj))] = None
    return graph


# Tokens drawn from small pools, so that lines repeat them, in any position:
# good IRIs, relative ones, ones that hold a space or a '>' and ones that lack
# a '<' or '>'; literals whose text holds spaces, ' .', good and bad escapes
# or a quote, bare, typed (by an absolute or a relative IRI, or one with a
# space) or tagged.
GOOD_IRIS = ["<http://e/a>", "<http://e/b>", "<urn:x>", "<http://e/é>"]
BAD_IRIS = ["<rel>", "<>", "<http://e/a b>", "<http://e/a>b>", "http://e/a", "<http://e/a", "urn:x>"]
GOOD_PIECES = ["x", " ", "a b", " . ", "x .", ".", "é"]
GOOD_PIECES += ["\\n", "\\t", "\\u00E9", "\\U0001F600", '\\"']  # good escapes
BAD_PIECES = ["\\uZZZZ", "\\uD800", "\\q", "\\", '"', "\r"]
GOOD_SUFFIXES = ["", f"^^<{XSD_DATE}>", "@en", "@en-gb"]
BAD_SUFFIXES = ["^^<rel>", "^^<http://e/a b>", "@", "@en-"]
# Line parts other than the token path's: a leading space or tab, two spaces
# or a tab between tokens, and endings other than ' .'.
OTHER_LEADS = [" ", "\t"]
OTHER_SEPARATORS = ["  ", "\t"]
OTHER_ENDINGS = [".", " . ", " .\r", "\r", "\t.", "  ."]
OTHER_LINES = ["", " ", "\r", "# a comment", "# <urn:x> <urn:x> <urn:x> .", "<urn:x> ."]


def literal_token(pieces, suffixes):
    return st.builds(
        lambda text, suffix: f'"{"".join(text)}"{suffix}',
        st.lists(st.sampled_from(pieces), max_size=3),
        st.sampled_from(suffixes),
    )


good_iri = st.sampled_from(GOOD_IRIS)
good_literal = literal_token(GOOD_PIECES, GOOD_SUFFIXES)
other_token = st.sampled_from(BAD_IRIS) | literal_token(
    GOOD_PIECES + BAD_PIECES, GOOD_SUFFIXES + BAD_SUFFIXES
)
any_token = st.one_of(good_iri, good_iri, other_token)
# The parts of a line the token path takes: lead, subject, separator,
# predicate, separator, object, ending.
good_parts = st.tuples(
    st.just(""),
    good_iri,
    st.just(" "),
    good_iri,
    st.just(" "),
    good_iri | good_literal,
    st.just(" ."),
)
other_separator = st.sampled_from(OTHER_SEPARATORS)
other_parts = [
    st.sampled_from(OTHER_LEADS),
    other_token,
    other_separator,
    other_token,
    other_separator,
    other_token,
    st.sampled_from(OTHER_ENDINGS),
]
good_line = good_parts.map("".join)


def changed(parts: tuple, change: tuple) -> str:
    """A good line with one part changed."""
    i, value = change
    return "".join(parts[:i] + (value,) + parts[i + 1 :])


part_change = st.integers(0, len(other_parts) - 1).flatmap(
    lambda i: st.tuples(st.just(i), other_parts[i])
)
changed_line = st.builds(changed, good_parts, part_change)
# A line whose parts may all differ from the token path's.
any_line = st.tuples(
    st.sampled_from(["", "", ""] + OTHER_LEADS),
    any_token,
    st.sampled_from([" ", " ", " "] + OTHER_SEPARATORS),
    any_token,
    st.sampled_from([" ", " ", " "] + OTHER_SEPARATORS),
    any_token,
    st.sampled_from([" .", " .", " ."] + OTHER_ENDINGS),
).map("".join)
other_line = st.sampled_from(OTHER_LINES)
# Most lines parse, so that the first error often comes late in the text.
ntriples_lines = st.lists(
    st.one_of(good_line, good_line, good_line, changed_line, changed_line, any_line, other_line),
    max_size=8,
)
# Lines that end in one of a few tails `O .` and differ before it: a good
# subject and predicate, a bad subject, a literal predicate, or a doubled
# space.  A tail seen before lets no line skip a check of what precedes it.
tail_lead = st.one_of(
    st.builds("{} {} ".format, good_iri, good_iri),
    st.builds("{} {} ".format, other_token, good_iri),
    st.builds("{} {} ".format, good_iri, good_literal),
    st.builds("{}  ".format, good_iri),
    st.builds(" {} ".format, good_iri),
)
tail_sharing_lines = st.builds(
    lambda tails, leads: [lead + tails[k % len(tails)] + " ." for lead, k in leads],
    st.lists(good_iri | good_literal, min_size=1, max_size=2),
    st.lists(st.tuples(tail_lead, st.integers(0, 1)), max_size=8),
)


@settings(max_examples=1000)
@given(ntriples_lines | tail_sharing_lines)
# A tag that runs into the dot, an IRI token with no '>', and a literal seen
# as an object and then as a subject.
@example(['<urn:x> <urn:x> "x"@en-gb.'])
@example(["<http://e/a <urn:x> <urn:x> ."])
@example(['<urn:x> <urn:x> "x" .', '"x" <urn:x> <urn:x> .'])
# A tail seen before, after a bad subject, a literal predicate and a doubled space.
@example(['<urn:x> <urn:x> "x" .', '<rel> <urn:x> "x" .'])
@example(['<urn:x> <urn:x> <urn:x> .', '<urn:x> "p" <urn:x> .'])
@example(['<urn:x> <urn:x> <urn:x> .', '<urn:x>  <urn:x> .', ' <urn:x> <urn:x> .'])
def test_property_token_path_agrees_with_pattern_path(lines):
    text = "\n".join(lines)
    assert parse_outcome(parse_ntriples, text) == parse_outcome(pattern_parse_ntriples, text)



# Objects at the edges of the plain-literal reading that skips the pattern:
# too short, a quote or backslash inside, no opening quote (with one or two
# quotes in all), a tag or a datatype (absolute or relative) after the
# closing quote, a raw CR inside.
@pytest.mark.parametrize(
    "token",
    ['"', '""', '"a"b"', '"a\\"', '"a\\\\"', 'a"', 'a"b"', '"x"@en', '"x"^^<http://x/t>', '"x"^^<t>']
    + ['"a\rb"', '"é"']
    # Typed literals at the edges of the reading by slices: a quote or backslash in the text,
    # a '>' in the datatype or none at its end, an empty or unbracketed datatype.
    + ['"a"b"^^<urn:d>', '"a\\"^^<urn:d>', '"x"^^<urn:d>>', '"x"^^<urn:d', '"x"^^<>', '"x"^^urn:d']
    + ['"é"^^<urn:d>', '"a>b"^^<urn:d>'],
)
def test_plain_literal_reading_agrees_with_pattern_path(token):
    text = f"<urn:x> <urn:x> {token} .\n<urn:x> <urn:y> {token} ."
    assert parse_outcome(parse_ntriples, text) == parse_outcome(pattern_parse_ntriples, text)


# A datatype shared by two literals: checked once and then read from the term
# table, also as a subject; a bad one fails where it is first seen, each time.
@pytest.mark.parametrize(
    "lines",
    [
        ['<urn:x> <urn:x> "a"^^<urn:d> .', '<urn:x> <urn:x> "b"^^<urn:d> .', "<urn:d> <urn:x> <urn:x> ."],
        ['<urn:x> <urn:x> "a"^^<rel> .', '<urn:x> <urn:x> "b"^^<rel> .'],
        ['<urn:x> <urn:x> "a"^^<urn:d> .', '<urn:x> <urn:x> "b"^^<rel> .', '<urn:x> <urn:y> "c"^^<rel> .'],
    ],
)
def test_shared_datatype_agrees_with_pattern_path(lines):
    text = "\n".join(lines)
    assert parse_outcome(parse_ntriples, text) == parse_outcome(pattern_parse_ntriples, text)


# Fixed texts at the edges of checking a parse's new IRIs together: a failed
# check of them all makes the parser read the text again, checking each IRI
# when it is first seen, and that reading decides.
@pytest.mark.parametrize(
    "lines, outcome",
    [
        # An IRI-shaped predicate token that holds tabs: the pattern path reads
        # the line as another triple, and a comment.
        (["<urn:x> <urn:x>\t<urn:y>\t.#> <urn:z> ."], [("urn:x", "urn:x", "urn:y")]),
        # The only bad IRI, on the last line.
        (
            ["<urn:a> <urn:p> <urn:b> .", "<urn:b> <urn:p> <urn:c> .", "<urn:c> <rel> <urn:a> ."],
            ("error", "line 3: predicate is not an absolute IRI: 'rel'", 3),
        ),
        # A bad IRI, then a line that only the pattern path reads, with a bad IRI of its own.
        (
            ["<urn:a> <urn:p> <urn:b> .", "<rel> <urn:p> <urn:c> .", "<urn:c> <urn:p> <rel2> . # c"],
            ("error", "line 2: subject is not an absolute IRI: 'rel'", 2),
        ),
        # A bad IRI seen first as a subject, then as a datatype.
        (
            ["<rel> <urn:p> <urn:o> .", '<urn:s> <urn:p> "x"^^<rel> .'],
            ("error", "line 1: subject is not an absolute IRI: 'rel'", 1),
        ),
    ],
    ids=["tab-carried-predicate", "bad-last-line", "bad-then-pattern-line", "subject-then-datatype"],
)
def test_iris_checked_together_give_what_checking_each_gives(lines, outcome):
    text = "\n".join(lines)
    if isinstance(outcome, list):
        outcome = serialize_ntriples(TripleSet(Triple(*parts) for parts in outcome))
    assert parse_outcome(parse_ntriples, text) == outcome
    assert parse_outcome(pattern_parse_ntriples, text) == outcome
