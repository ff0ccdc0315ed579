"""IRI policy and triple emission for event instances."""

from __future__ import annotations

import json
import re
import sys
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headex.catalog import default_catalog_path
from headex.events import recognize_event
from headex.ingest import normalize, parse_record
from headex.model import FRAMES, EntityRef, EventClass, EventInstance, Provenance, TextFiller
from headex.pipeline import process_record
from headex.rdf import (
    IRI_FORBIDDEN,
    RDF_TYPE,
    XSD_DATE,
    XSD_INTEGER,
    Literal,
    Triple,
    parse_ntriples,
    serialize_ntriples,
)
from headex.triplify import (
    EmissionError,
    IriPolicy,
    PolicyError,
    emit_event_triples,
    slugify,
)

BASE = "http://example.org/news/"


def predicates(graph, predicate):
    return [t for t in graph if t.predicate == predicate]


def loop_slugify(text: str) -> str:
    """The character loop ``slugify`` once was, kept as its oracle."""
    out = []
    last_sep = True
    for ch in text.casefold():
        if ch.isalnum():
            out.append(ch)
            last_sep = False
        elif not last_sep:
            out.append("_")
            last_sep = True
    slug = "".join(out).strip("_")
    if not slug:
        raise PolicyError(f"cannot derive an IRI slug from {text!r}")
    return slug


# ASCII, "_" and spaces, combining marks, digits of other scripts, and
# characters whose casefold is longer than they are ("ß" -> "ss", "İ" ->
# "i" + a combining dot, "ﬁ" -> "fi"); text of "_", spaces and marks alone
# has no slug.
SLUG_CHARACTERS = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.sampled_from("_ \t\u00a0\u3000"),
    st.characters(categories=["Mn", "Mc", "Me"]),
    st.sampled_from("\u0663\u0967\u0e53\uff13\u2462\u216b\U0001d7d9"),
    st.sampled_from("ßİﬁŉΐẞ"),
)


class TestSlugify:
    def test_basic(self):
        assert slugify("The New York Times") == "the_new_york_times"
        assert slugify("BBC") == "bbc"
        assert slugify("Al-Jazeera (English)") == "al_jazeera_english"

    def test_unsluggable_raises(self):
        with pytest.raises(PolicyError):
            slugify("!!!")

    def test_the_pattern_drops_exactly_what_isalnum_refuses(self):
        # Every code point but the surrogates, under this Python's Unicode
        # tables: ``[\W_]`` matches a character exactly when ``str.isalnum``
        # is false, so the pattern and the loop it replaced keep the same ones.
        text = "".join(map(chr, (*range(0xD800), *range(0xE000, sys.maxunicode + 1))))
        assert re.findall(r"[\W_]", text) == [ch for ch in text if not ch.isalnum()]

    @settings(max_examples=500, deadline=None)
    @given(st.text(SLUG_CHARACTERS, max_size=16))
    @example("_\u0301 _")
    @example("ßİﬁ__\u0663")
    def test_property_equals_the_character_loop(self, text):
        try:
            expected = loop_slugify(text)
        except PolicyError as exc:
            with pytest.raises(PolicyError) as err:
                slugify(text)
            assert str(err.value) == str(exc)
        else:
            assert slugify(text) == expected


class TestIriPolicy:
    def test_naming_scheme(self, policy):
        assert policy.instance_iri("Meet", "no2") == f"{BASE}Meet_no2"
        assert policy.term_iri("Meet") == f"{BASE}Meet"
        assert policy.role_property_iri("Giver") == f"{BASE}giver"
        assert policy.role_property_iri("Topic") == f"{BASE}about"
        assert policy.entity_iri("pontifex") == f"{BASE}entity/pontifex"
        assert policy.source_iri("CNN") == f"{BASE}source/cnn"
        assert policy.role_node_iri("Message", "no4", 1) == f"{BASE}message/no4"
        assert policy.role_node_iri("involved", "no8", 2) == f"{BASE}involved/no8_2"
        assert policy.role_type_iri("involved") == f"{BASE}Involved"

    def test_base_must_be_absolute_with_separator(self):
        with pytest.raises(PolicyError):
            IriPolicy("example.org/news/")
        with pytest.raises(PolicyError):
            IriPolicy("http://example.org/news")
        IriPolicy("https://kg.example/x#")  # hash namespaces are fine


class TestRunningExampleShape:
    def test_exact_seven_triples(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no2"], policy)
        sp = f"{BASE}Meet_no2"
        topic = f"{BASE}topic/no2"
        expected = {
            Triple(sp, f"{BASE}singletonPropertyOf", f"{BASE}Meet"),
            Triple("http://dbpedia.org/resource/Kevin_Systrom", sp, f"{BASE}entity/pontifex"),
            Triple(sp, f"{BASE}about", topic),
            Triple(topic, RDF_TYPE, f"{BASE}Topic"),
            Triple(topic, f"{BASE}body", Literal("to discuss the power of images to unite people")),
            Triple(sp, f"{BASE}hasSource", f"{BASE}source/cnn"),
            Triple(sp, f"{BASE}extractedOn", Literal("2016-02-26", datatype=XSD_DATE)),
        }
        assert set(graph) == expected
        assert len(graph) == 7


def built_instance(class_name: str, *roles) -> EventInstance:
    return EventInstance(
        instance_id="e1",
        event_class=EventClass(class_name),
        mention=None,
        roles=roles,
        provenance=Provenance(publisher="BBC", extracted_on=date(2016, 3, 11)),
    )


def main_triples(graph, class_name: str) -> list[Triple]:
    return predicates(graph, f"{BASE}{class_name}_e1")


class TestMainTripleSelection:
    def test_communication_giver_to_message_node(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no4"], policy)
        sp = f"{BASE}Communication_no4"
        message = f"{BASE}message/no4"
        assert Triple("http://dbpedia.org/resource/Angela_Merkel", sp, message) in graph
        # Both main operands are consumed: no per-role triple repeats them.
        assert predicates(graph, f"{BASE}giver") == []
        assert predicates(graph, f"{BASE}message") == []
        assert Triple(message, f"{BASE}body", Literal("difficult day,")) in graph

    def test_murder_cause_to_count_node(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no3"], policy)
        sp = f"{BASE}Murder_no3"
        assert Triple(f"{BASE}cause/no3", sp, f"{BASE}count/no3") in graph
        # Spelled-out counts stay plain literals.
        assert Triple(f"{BASE}count/no3", f"{BASE}body", Literal("eight")) in graph

    def test_digit_count_is_integer_typed(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no9"], policy)
        count = f"{BASE}count/no9"
        assert Triple(count, f"{BASE}body", Literal("2", datatype=XSD_INTEGER)) in graph

    def test_meet_pairs_first_two_entity_participants(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no5"], policy)
        sp = f"{BASE}Meet_no5"
        assert (
            Triple(
                "http://dbpedia.org/resource/Pope_Francis",
                sp,
                "http://dbpedia.org/resource/Cuba",
            )
            in graph
        )
        # The third participant still hangs off the statement directly.
        assert (
            Triple(sp, f"{BASE}participant", "http://dbpedia.org/resource/Mexico") in graph
        )

    def test_single_participant_meet_has_no_main_triple(self, lexicon, catalog, policy):
        record = parse_record("x1\tBBC\t11/3/16\tPope Francis meets critics in Rome")
        instance, graph, _ = process_record(record, lexicon, catalog, policy)
        sp = f"{BASE}Meet_x1"
        assert not [t for t in graph if t.predicate == sp]
        assert Triple(sp, f"{BASE}participant", "http://dbpedia.org/resource/Pope_Francis") in graph

    def test_object_never_repeats_the_subject_iri(self, lexicon, catalog, policy):
        # Three participants link to one entity: no self-loop main triple,
        # and the entity hangs off the statement once.
        record = parse_record("x1\tBBC\t11/3/16\t@US meets #US and US")
        _, graph, _ = process_record(record, lexicon, catalog, policy)
        sp = f"{BASE}Meet_x1"
        us = "http://dbpedia.org/resource/United_States"
        assert not [t for t in graph if t.predicate == sp]
        assert predicates(graph, f"{BASE}participant") == [Triple(sp, f"{BASE}participant", us)]

    def test_entity_recipient_beats_message(self, policy):
        instance = built_instance(
            "Communication",
            ("Giver", EntityRef("http://e/giver")),
            ("Message", TextFiller("talks went well")),
            ("Recipient", EntityRef("http://e/recipient")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Communication_e1"
        assert main_triples(graph, "Communication") == [Triple("http://e/giver", sp, "http://e/recipient")]
        assert Triple(sp, f"{BASE}message", f"{BASE}message/e1") in graph

    def test_text_recipient_falls_back_to_message(self, policy):
        instance = built_instance(
            "Communication",
            ("Giver", EntityRef("http://e/giver")),
            ("Recipient", TextFiller("reporters")),
            ("Message", TextFiller("talks went well")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Communication_e1"
        assert main_triples(graph, "Communication") == [Triple("http://e/giver", sp, f"{BASE}message/e1")]
        assert Triple(sp, f"{BASE}recipient", f"{BASE}recipient/e1") in graph

    def test_entity_perpetrator_beats_cause_and_victim_beats_count(self, policy):
        instance = built_instance(
            "Murder",
            ("Cause", TextFiller("Gunfire")),
            ("Count", TextFiller("2")),
            ("Perpetrator", EntityRef("http://e/perpetrator")),
            ("Victim", EntityRef("http://e/victim")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Murder_e1"
        assert main_triples(graph, "Murder") == [Triple("http://e/perpetrator", sp, "http://e/victim")]
        assert Triple(sp, f"{BASE}cause", f"{BASE}cause/e1") in graph
        assert Triple(sp, f"{BASE}count", f"{BASE}count/e1") in graph

    def test_text_perpetrator_falls_back_to_cause(self, policy):
        instance = built_instance(
            "Murder",
            ("Perpetrator", TextFiller("gunmen")),
            ("Cause", TextFiller("Gunfire")),
            ("Victim", TextFiller("two guards")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Murder_e1"
        assert main_triples(graph, "Murder") == [Triple(f"{BASE}cause/e1", sp, f"{BASE}victim/e1")]

    def test_text_giver_is_never_main_subject(self, policy):
        instance = built_instance(
            "Communication",
            ("Giver", TextFiller("officials")),
            ("Recipient", EntityRef("http://e/recipient")),
            ("Message", TextFiller("talks went well")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Communication_e1"
        assert main_triples(graph, "Communication") == []
        assert Triple(sp, f"{BASE}giver", f"{BASE}giver/e1") in graph
        assert Triple(sp, f"{BASE}recipient", "http://e/recipient") in graph

    def test_unknown_class_has_no_main_triple(self, policy):
        instance = built_instance(
            "Worship",
            ("involved", EntityRef("http://e/a")),
            ("involved", EntityRef("http://e/b")),
            ("location", EntityRef("http://e/place")),
        )
        graph = emit_event_triples(instance, policy)
        sp = f"{BASE}Worship_e1"
        assert main_triples(graph, "Worship") == []
        assert Triple(sp, f"{BASE}singletonPropertyOf", f"{BASE}Worship") in graph
        assert {t.object for t in predicates(graph, f"{BASE}involved")} == {"http://e/a", "http://e/b"}
        assert Triple(sp, f"{BASE}location", "http://e/place") in graph

    def test_repeated_role_nodes_get_ordinals(self, instance_by_id, policy):
        graph = emit_event_triples(instance_by_id["no8"], policy)
        sp = f"{BASE}Meet_no8"
        involved = {t.object for t in predicates(graph, f"{BASE}involved")}
        assert involved == {f"{BASE}involved/no8", f"{BASE}involved/no8_2"}
        assert Triple(f"{BASE}involved/no8", RDF_TYPE, f"{BASE}Involved") in graph
        assert Triple(f"{BASE}involved/no8_2", RDF_TYPE, f"{BASE}Involved") in graph


class TestEmissionInvariants:
    def test_no_roles_is_an_error(self, lexicon):
        mention = recognize_event(normalize("Pope meets critics"), lexicon)
        empty = EventInstance(
            instance_id="void",
            event_class=EventClass("Meet"),
            mention=mention,
            roles=(),
            provenance=Provenance(publisher="BBC", extracted_on=date(2016, 3, 11)),
        )
        with pytest.raises(EmissionError):
            emit_event_triples(empty, IriPolicy())

    def test_each_instance_declared_and_provenanced_once(self, nine_result):
        graph = nine_result.graph
        sp_of = f"{BASE}singletonPropertyOf"
        statements = [t.subject for t in predicates(graph, sp_of)]
        assert len(statements) == len(set(statements)) == 9
        for sp in statements:
            sources = [t for t in graph if t.subject == sp and t.predicate == f"{BASE}hasSource"]
            dates = [t for t in graph if t.subject == sp and t.predicate == f"{BASE}extractedOn"]
            assert len(sources) == 1 and len(dates) == 1
            assert isinstance(dates[0].object, Literal)
            assert dates[0].object.datatype == XSD_DATE

    def test_every_text_node_is_typed(self, nine_result):
        graph = nine_result.graph
        body = f"{BASE}body"
        for node in {t.subject for t in predicates(graph, body)}:
            types = [t for t in graph if t.subject == node and t.predicate == RDF_TYPE]
            assert len(types) == 1

    def test_emission_is_deterministic(self, instance_by_id, policy):
        once = emit_event_triples(instance_by_id["no7"], policy)
        twice = emit_event_triples(instance_by_id["no7"], policy)
        assert once == twice
        assert serialize_ntriples(once) == serialize_ntriples(twice)


# Built instances, as the model admits them: record ids and Other:<Label>
# class names free of the characters IRIs forbid, entity IRIs from the
# bundled catalog, minted from slugs or any other absolute IRI, and text,
# count and topic fillers of any text.
_CATALOG_IRIS = sorted(e["iri"] for e in json.loads(default_catalog_path().read_text("utf-8"))["entities"])
_IRI_SAFE = st.text(min_size=1, max_size=8).filter(lambda text: not IRI_FORBIDDEN.search(text))
_TEXT = st.text(min_size=1, max_size=12).filter(str.strip)
_POLICIES = st.sampled_from([IriPolicy(), IriPolicy("https://kg.example/x#"), IriPolicy("urn:kg/")])


@st.composite
def built_instances(draw) -> tuple[EventInstance, IriPolicy]:
    policy = draw(_POLICIES)
    name = draw(st.sampled_from(sorted(FRAMES)) | _IRI_SAFE)
    minted = _TEXT.filter(lambda text: any(ch.isalnum() for ch in text)).map(
        lambda text: policy.entity_iri(slugify(text))
    )
    entities = st.sampled_from(_CATALOG_IRIS) | minted | _IRI_SAFE.map("http://kb.example/".__add__)
    counts = st.from_regex(r"[0-9]{1,3}", fullmatch=True)
    fillers = st.one_of(entities.map(EntityRef), _TEXT.map(TextFiller), counts.map(TextFiller))
    roles = draw(
        st.lists(
            st.tuples(st.sampled_from(EventClass(name).frame.role_names), fillers), min_size=1, max_size=6
        )
    )
    instance = EventInstance(
        instance_id=draw(_IRI_SAFE),
        event_class=EventClass(name),
        mention=None,
        roles=tuple(roles),
        provenance=Provenance(publisher=draw(_TEXT), extracted_on=draw(st.dates())),
    )
    return instance, policy


@settings(max_examples=300)
@given(built_instances())
def test_property_emitted_triples_pass_the_public_checks(built):
    instance, policy = built
    try:
        graph = emit_event_triples(instance, policy)
    except PolicyError:  # a publisher with no letter or digit has no source IRI
        assert not any(ch.isalnum() for ch in instance.provenance.publisher.casefold())
        return
    for triple in graph:
        assert Triple(*triple) == triple
    assert parse_ntriples(serialize_ntriples(graph)) == graph
