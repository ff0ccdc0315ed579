"""Triple store core: term validation, set semantics, N-Triples round-trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex.rdf import (
    RDF_TYPE,
    XSD_DATE,
    Literal,
    NTriplesParseError,
    RdfError,
    Triple,
    TripleSet,
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

    def test_literal_object_allowed_subject_not(self):
        triple = Triple(EX + "s", EX + "p", Literal("hello"))
        assert isinstance(triple.object, Literal)


class TestTripleSet:
    def test_duplicates_collapse(self):
        g = TripleSet()
        assert g.add(t("s", "p", "o"))
        assert not g.add(t("s", "p", "o"))
        assert len(g) == 1

    def test_iteration_preserves_insertion_order(self):
        g = TripleSet([t("b", "p", "x"), t("a", "p", "x")])
        assert [x.subject for x in g] == [EX + "b", EX + "a"]

    def test_equality_is_order_free(self):
        g1 = TripleSet([t("a", "p", "x"), t("b", "p", "x")])
        g2 = TripleSet([t("b", "p", "x"), t("a", "p", "x")])
        assert g1 == g2

    def test_union_leaves_inputs_alone(self):
        g1 = TripleSet([t("a", "p", "x")])
        g2 = TripleSet([t("b", "p", "x")])
        merged = g1.union(g2)
        assert len(merged) == 2 and len(g1) == 1 and len(g2) == 1


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
