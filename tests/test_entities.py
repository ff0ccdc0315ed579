"""Chunking, entity mentions, linking/disambiguation, role assignment."""

from __future__ import annotations

import itertools
from dataclasses import replace
from datetime import date

import pytest

from headex.catalog import AGENT, PERSON, CatalogEntity, EntityCatalog
from headex.entities import (
    KIND_MENTION,
    KIND_NAMED,
    KIND_NUMBER,
    KIND_OTHER,
    KIND_QUOTED,
    LINKED,
    MINTED,
    EntityMention,
    LinkingError,
    assign_roles,
    chunk,
    context_words,
    disambiguate,
    link_entity,
    recognize_entities,
    resolve_implicit,
)
from headex.events import recognize_event
from headex.ingest import normalize
from headex.model import TextFiller
from headex.triplify import slugify


def chunks_for(text: str, lexicon):
    toks = normalize(text)
    mention = recognize_event(toks, lexicon)
    assert mention is not None
    return toks, mention, chunk(toks, mention)


def pipeline_roles(text: str, lexicon, catalog, policy, at=date(2016, 3, 1)):
    """Chunk, recognize, link, and assign roles the way the pipeline does."""
    toks, mention, chunks = chunks_for(text, lexicon)
    resolved = []
    for m in recognize_entities(chunks, catalog):
        if m.implicit:
            holder = resolve_implicit(m, catalog, at)
            if holder is not None:
                m = replace(m, status=LINKED, iri=holder.iri, entity_type=holder.entity_type)
        elif m.kind in (KIND_NAMED, KIND_MENTION):
            m, _ = link_entity(m, catalog, context_words(toks), policy.entity_iri, at=at)
        resolved.append(m)
    return assign_roles(resolved, mention.event_class.frame, head=mention)


def _role_map(roles):
    out: dict[str, list] = {}
    for role, filler in roles:
        out.setdefault(role, []).append(filler)
    return out


def _implicit_mention(text: str) -> EntityMention:
    return EntityMention(
        text=text,
        span=(0, len(text)),
        kind=KIND_OTHER,
        chunk_index=0,
        chunk_position="subject",
        chunk_intro=None,
        chunk_intro_kind=None,
        chunk_text=text,
        implicit=True,
    )


class TestChunking:
    def test_running_example_boundaries(self, record_by_id, lexicon):
        _, _, chunks = chunks_for(record_by_id["no2"].text, lexicon)
        shapes = [(c.position, c.intro_kind, c.text) for c in chunks]
        assert shapes == [
            ("subject", None, "Instagram CEO"),
            ("post", "prep", "@Pontifex"),
            ("post", "to_infinitive", 'discuss "the power of images to unite people"'),
        ]
        assert chunks[2].full_text == 'to discuss "the power of images to unite people"'

    def test_at_least_guard(self, record_by_id, lexicon):
        _, _, chunks = chunks_for(record_by_id["no6"].text, lexicon)
        assert [(c.position, c.text) for c in chunks] == [
            ("subject", "Storms"),
            ("post", "at least three"),
            ("post", "Virginia"),
        ]

    def test_closing_quote_splits_subject_out(self, record_by_id, lexicon):
        _, _, chunks = chunks_for(record_by_id["no4"].text, lexicon)
        assert [(c.position, c.intro_kind) for c in chunks] == [("pre", None), ("subject", None)]
        assert chunks[1].text == "German Chancellor Angela Merkel"
        assert chunks[0].has_quote and not chunks[1].has_quote

    def test_colon_swallows_rest(self, record_by_id, lexicon):
        _, _, chunks = chunks_for(record_by_id["no1"].text, lexicon)
        colon = [c for c in chunks if c.intro_kind == "colon"]
        assert len(colon) == 1
        assert colon[0].text == "I will not run for president"  # "for" not split
        assert colon[0].full_text == ": I will not run for president"

    def test_infinitive_head_keeps_to_out_of_subject(self, record_by_id, lexicon):
        _, _, chunks = chunks_for(record_by_id["no8"].text, lexicon)
        assert chunks[0].position == "subject" and chunks[0].text == "Pope"
        assert chunks[1].text == "leader of Russian Orthodox Church"  # "of" not split
        assert [c.text for c in chunks[2:]] == ["first time", "nearly"]

    def test_headline_initial_head_has_no_subject(self, lexicon):
        _, _, chunks = chunks_for("Meet the new chancellor in Berlin", lexicon)
        assert all(c.position == "post" for c in chunks)

    def test_quoted_material_is_opaque(self, record_by_id, lexicon):
        # The "to" inside the quotation must not open a segment.
        _, _, chunks = chunks_for(record_by_id["no2"].text, lexicon)
        assert sum(c.intro_kind == "to_infinitive" for c in chunks) == 1


class TestRecognition:
    def test_running_example_mentions(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no2"].text, lexicon)
        mentions = recognize_entities(chunks, catalog)
        assert [(m.kind, m.text) for m in mentions] == [
            (KIND_OTHER, "Instagram CEO"),
            (KIND_MENTION, "@Pontifex"),
            (KIND_QUOTED, "the power of images to unite people"),
        ]
        assert [m.implicit for m in mentions] == [True, False, False]

    def test_count_pattern_with_person_word(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no9"].text, lexicon)
        mentions = recognize_entities(chunks, catalog)
        counts = [m for m in mentions if m.kind == KIND_NUMBER]
        assert len(counts) == 1
        assert counts[0].text == "2 air force pilots" and counts[0].count_value == "2"
        named = [m.text for m in mentions if m.kind == KIND_NAMED]
        assert named == ["United Arab Emirates", "Yemen"]

    def test_spelled_count(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no6"].text, lexicon)
        counts = [m for m in recognize_entities(chunks, catalog) if m.kind == KIND_NUMBER]
        assert counts[0].text == "three" and counts[0].count_value == "three"

    def test_fallback_mention_covers_unmatched_chunk(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no3"].text, lexicon)
        mentions = recognize_entities(chunks, catalog)
        assert "Chemical accident" in [m.text for m in mentions if m.kind == KIND_OTHER]

    def test_apposition_resolves_to_trailing_name(self, record_by_id, lexicon, catalog):
        # "German Chancellor" is consumed as a descriptor of the name that
        # follows, so the subject yields one mention and it is not Germany.
        _, _, chunks = chunks_for(record_by_id["no4"].text, lexicon)
        mentions = recognize_entities(chunks, catalog)
        subject = [m for m in mentions if m.chunk_position == "subject"]
        assert [(m.kind, m.text) for m in subject] == [(KIND_NAMED, "Angela Merkel")]

    def test_quoted_mention_keeps_inner_punctuation(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no4"].text, lexicon)
        quoted = [m for m in recognize_entities(chunks, catalog) if m.kind == KIND_QUOTED]
        assert quoted[0].text == "difficult day,"

    def test_position_reference_without_name_is_implicit(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no8"].text, lexicon)
        implicit = [m for m in recognize_entities(chunks, catalog) if m.implicit]
        assert [m.text for m in implicit] == ["leader of Russian Orthodox Church"]


class TestLinking:
    def test_unique_candidate_links(self, lexicon, catalog, policy):
        toks, _, chunks = chunks_for("Trudeau visits Cuba", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.text == "Trudeau"][0]
        linked, audit = link_entity(mention, catalog, context_words(toks), policy.entity_iri)
        assert audit is None
        assert linked.status == LINKED
        assert linked.iri == "http://dbpedia.org/resource/Justin_Trudeau"
        assert linked.entity_type == PERSON

    def test_mint_slug(self):
        assert slugify("@Pontifex") == "pontifex"
        assert slugify("John Q. Public") == "john_q_public"
        assert slugify("#SXSW") == "sxsw"

    def test_unknown_handle_is_minted_as_agent(self, lexicon, catalog, policy):
        toks, _, chunks = chunks_for("Pope meets @jqd today", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.kind == KIND_MENTION][0]
        handle, audit = link_entity(mention, catalog, context_words(toks), policy.entity_iri)
        assert audit is None
        assert handle.status == MINTED
        assert handle.iri == policy.entity_iri("jqd")
        assert handle.entity_type == AGENT

    def test_title_case_surface_is_minted_as_person(self, lexicon, catalog, policy):
        _, _, chunks = chunks_for("Pope meets John Dalton", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.text == "John Dalton"][0]
        minted, _ = link_entity(mention, catalog, frozenset(), policy.entity_iri)
        assert minted.status == MINTED
        assert minted.iri == policy.entity_iri("john_dalton")
        assert minted.entity_type == PERSON

    def test_minted_collision_rejected(self, lexicon, policy):
        # An entity already owns the IRI the mint would produce, but under a
        # surface that does not match, so linking cannot fall back to it.
        colliding = EntityCatalog(
            [
                CatalogEntity(
                    iri=policy.entity_iri("carter"),
                    label="Someone Else",
                    entity_type=PERSON,
                    aliases=(),
                )
            ]
        )
        _, _, chunks = chunks_for("Pope meets @Carter today", lexicon)
        mention = [m for m in recognize_entities(chunks, colliding) if m.kind == KIND_MENTION][0]
        with pytest.raises(LinkingError):
            link_entity(mention, colliding, frozenset(), policy.entity_iri)


class TestDisambiguation:
    def test_context_picks_barack(self, record_by_id, lexicon, catalog, policy):
        toks, _, chunks = chunks_for(record_by_id["no7"].text, lexicon)
        obama = [m for m in recognize_entities(chunks, catalog) if m.text == "Obama"][0]
        linked, audit = link_entity(
            obama, catalog, context_words(toks), policy.entity_iri, at=date(2016, 3, 10)
        )
        assert linked.iri == "http://dbpedia.org/resource/Barack_Obama"
        assert audit is not None
        assert audit.runner_up_iri == "http://dbpedia.org/resource/Michelle_Obama"
        assert audit.scores[0][0] == linked.iri

    def test_order_invariance(self, lexicon, catalog):
        extra = CatalogEntity(
            iri="http://dbpedia.org/resource/Obama_Bay",
            label="Obama Bay",
            entity_type="Place",
            aliases=("Obama",),
        )
        candidates = (*catalog.candidates("Obama"), extra)
        _, _, chunks = chunks_for("Obama announce climate plan", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.text == "Obama"][0]
        picks = set()
        for perm in itertools.permutations(candidates):
            chosen, _ = disambiguate(
                mention, perm, frozenset({"climate", "plan"}), at=date(2016, 3, 10)
            )
            picks.add(chosen.iri)
        assert picks == {"http://dbpedia.org/resource/Barack_Obama"}

    def test_tie_breaks_to_smallest_iri(self, lexicon):
        a = CatalogEntity(iri="http://e/a", label="Twin", entity_type=PERSON, aliases=())
        b = CatalogEntity(iri="http://e/b", label="Twin", entity_type=PERSON, aliases=())
        _, _, chunks = chunks_for("Twin says hello", lexicon)
        mention = [
            m for m in recognize_entities(chunks, EntityCatalog([a, b])) if m.text == "Twin"
        ][0]
        chosen, audit = disambiguate(mention, (b, a), frozenset())
        assert chosen.iri == "http://e/a"
        assert [s[0] for s in audit.scores] == ["http://e/a", "http://e/b"]


class TestImplicitResolution:
    def test_title_of_org_pattern(self, catalog):
        holder = resolve_implicit(
            _implicit_mention("leader of Russian Orthodox Church"), catalog, date(2016, 3, 10)
        )
        assert holder is not None
        assert holder.iri.endswith("Patriarch_Kirill_of_Moscow")

    def test_org_prefix_pattern_is_time_scoped(self, catalog):
        mention = _implicit_mention("Instagram CEO")
        early = resolve_implicit(mention, catalog, date(2016, 2, 26))
        assert early is not None and early.iri.endswith("Kevin_Systrom")
        assert resolve_implicit(mention, catalog, date(2009, 6, 1)) is None

    def test_descriptor_without_name(self, catalog):
        holder = resolve_implicit(_implicit_mention("German Chancellor"), catalog, date(2016, 3, 14))
        assert holder is not None and holder.iri.endswith("Angela_Merkel")

    def test_unknown_pattern_is_none(self, catalog):
        assert resolve_implicit(_implicit_mention("brave new world"), catalog, date(2016, 1, 1)) is None


class TestRoles:
    def test_murder_cause_count_location(self, record_by_id, lexicon, catalog, policy):
        roles, warnings = pipeline_roles(record_by_id["no3"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Cause"] == [TextFiller("Chemical accident")]
        assert as_dict["Count"] == [TextFiller("eight")]
        assert [r.iri for r in as_dict["location"]] == ["http://dbpedia.org/resource/Bangkok"]
        assert warnings == []

    def test_murder_passive_subject_count(self, record_by_id, lexicon, catalog, policy):
        roles, _ = pipeline_roles(record_by_id["no9"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Count"] == [TextFiller("2")]
        assert "Perpetrator" not in as_dict and "Cause" not in as_dict
        assert any(r.iri.endswith("Yemen") for r in as_dict["location"])

    def test_murder_active_person_subject_is_perpetrator(self, lexicon, catalog, policy):
        roles, _ = pipeline_roles("Trudeau kills controversial bill in Ottawa", lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Perpetrator"][0].iri.endswith("Justin_Trudeau")
        assert "Cause" not in as_dict

    def test_murder_active_cause_and_victim(self, lexicon, catalog, policy):
        roles, _ = pipeline_roles("Gunman kills Patriarch Kirill in Moscow", lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Cause"] == [TextFiller("Gunman")]
        assert as_dict["Victim"][0].iri.endswith("Patriarch_Kirill_of_Moscow")

    def test_communication_colon_message(self, record_by_id, lexicon, catalog, policy):
        roles, warnings = pipeline_roles(record_by_id["no1"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Giver"][0].iri.endswith("Michelle_Obama")
        assert as_dict["Message"] == [TextFiller("I will not run for president")]
        assert as_dict["involved"] == [TextFiller("#SXSW crowd")]
        assert warnings == []

    def test_communication_quoted_message(self, record_by_id, lexicon, catalog, policy):
        roles, _ = pipeline_roles(record_by_id["no4"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Giver"][0].iri.endswith("Angela_Merkel")
        assert as_dict["Message"] == [TextFiller("difficult day,")]

    def test_communication_message_fallback_joins_post_chunks(
        self, record_by_id, lexicon, catalog, policy
    ):
        roles, _ = pipeline_roles(record_by_id["no7"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Message"] == [TextFiller("efforts to fight climate change")]
        assert len(as_dict["Giver"]) == 2
        assert "involved" not in as_dict  # post text is covered by the Message

    def test_communication_recipient(self, lexicon, catalog, policy):
        roles, _ = pipeline_roles(
            "Merkel says to Pope Francis that talks continue", lexicon, catalog, policy
        )
        as_dict = _role_map(roles)
        assert as_dict["Giver"][0].iri.endswith("Angela_Merkel")
        assert as_dict["Recipient"][0].iri.endswith("Pope_Francis")

    def test_communication_missing_message_warns(self, lexicon, catalog, policy):
        roles, warnings = pipeline_roles("Angela Merkel says", lexicon, catalog, policy)
        assert "Message" not in _role_map(roles)
        assert any("Message" in w for w in warnings)

    def test_communication_missing_giver_warns(self, lexicon, catalog, policy):
        roles, warnings = pipeline_roles("Says it will rain", lexicon, catalog, policy)
        assert _role_map(roles)["Message"] == [TextFiller("it will rain")]
        assert any("Giver" in w for w in warnings)

    def test_meet_topic_from_infinitive_chunk(self, record_by_id, lexicon, catalog, policy):
        roles, _ = pipeline_roles(record_by_id["no2"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert as_dict["Topic"] == [TextFiller("to discuss the power of images to unite people")]
        assert [p.iri for p in as_dict["Participant"]] == [
            "http://dbpedia.org/resource/Kevin_Systrom",
            policy.entity_iri("pontifex"),
        ]

    def test_meet_participants_from_subject_and_posts(self, record_by_id, lexicon, catalog, policy):
        roles, _ = pipeline_roles(record_by_id["no5"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        iris = [p.iri for p in as_dict["Participant"]]
        assert [i.rsplit("/", 1)[1] for i in iris] == ["Pope_Francis", "Cuba", "Mexico"]

    def test_meet_leftovers_become_involved(self, record_by_id, lexicon, catalog, policy):
        roles, _ = pipeline_roles(record_by_id["no8"].text, lexicon, catalog, policy)
        as_dict = _role_map(roles)
        assert TextFiller("first time") in as_dict["involved"]
        assert TextFiller("nearly") in as_dict["involved"]
        participants = {p.iri.rsplit("/", 1)[1] for p in as_dict["Participant"]}
        assert participants == {"Pope_Francis", "Patriarch_Kirill_of_Moscow"}
