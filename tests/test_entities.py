"""Chunking, entity mentions, linking/disambiguation, role assignment."""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex.catalog import CatalogEntity, EntityCatalog, PositionRecord
from headex.entities import (
    _MULTIWORD_GUARD,
    LINKED,
    LOCATIVE_PREPOSITIONS,
    MINTED,
    PERSON_WORDS,
    SPLIT_PREPOSITIONS,
    UNRESOLVED,
    Chunk,
    EntityMention,
    LinkingError,
    _alias_match_length,
    _filler,
    _looks_infinitive,
    _parse_position_reference,
    _quoted_runs,
    assign_roles,
    chunk,
    disambiguate,
    link_entity,
    recognize_entities,
    resolve_implicit,
    strip_quotes,
)
from headex.events import recognize_event
from headex.ingest import HASHTAG, MENTION, NUMBER, PUNCT, QUOTE_CHARS, WORD, Token, normalize
from headex.model import (
    _SUBORDINATORS,
    AGENT,
    COMMUNICATION,
    FRAMES,
    GENERIC_ROLES,
    KIND_MENTION,
    KIND_NAMED,
    KIND_NUMBER,
    KIND_OTHER,
    KIND_QUOTED,
    MEET,
    MURDER,
    PERSON,
    PLACE,
    POST,
    PRE,
    ROLE_CAUSE,
    ROLE_COUNT,
    ROLE_GIVER,
    ROLE_MESSAGE,
    ROLE_PARTICIPANT,
    ROLE_PERPETRATOR,
    ROLE_RECIPIENT,
    ROLE_TOPIC,
    ROLE_VICTIM,
    SUBJECT,
    EventClass,
    RoleFiller,
    TextFiller,
)
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
                m = m._replace(status=LINKED, iri=holder.iri, entity_type=holder.entity_type)
        elif m.kind in (KIND_NAMED, KIND_MENTION):
            m, _ = link_entity(m, catalog, toks, policy.entity_iri, at=at)
        resolved.append(m)
    return assign_roles(resolved, mention.event_class.frame, head=mention)


def _role_map(roles):
    out: dict[str, list] = {}
    for role, filler in roles:
        out.setdefault(role, []).append(filler)
    return out


def _implicit_mention(text: str, catalog) -> EntityMention | None:
    """The position reference that ``text``, read as one subject chunk, yields, if any."""
    tokens = normalize(text).tokens
    chunks = [Chunk(0, SUBJECT, None, None, tokens, text, text)]
    return next((m for m in recognize_entities(chunks, catalog) if m.implicit), None)


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
        assert any(t.quoted for t in chunks[0].tokens)
        assert not any(t.quoted for t in chunks[1].tokens)

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


class TestStripQuotes:
    def test_deletes_the_three_quote_characters_then_strips(self):
        assert strip_quotes(' “Peace” talks "now" ') == "Peace talks now"
        assert strip_quotes('"“”"') == ""

    def test_keeps_every_other_character(self):
        text = "it's «fine» ‘so’ „far‟"
        assert strip_quotes(f"\t{text}\n") == text


class TestRecognition:
    def test_running_example_mentions(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no2"].text, lexicon)
        mentions = recognize_entities(chunks, catalog)
        assert [(m.kind, m.text) for m in mentions] == [
            (KIND_OTHER, "Instagram CEO"),
            (KIND_MENTION, "@Pontifex"),
            (KIND_QUOTED, "the power of images to unite people"),
        ]
        assert [bool(m.implicit) for m in mentions] == [True, False, False]
        assert mentions[0].implicit == ("CEO", {"http://dbpedia.org/resource/Instagram"})

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
        subject = [m for m in mentions if m.chunk.position == "subject"]
        assert [(m.kind, m.text) for m in subject] == [(KIND_NAMED, "Angela Merkel")]

    def test_quoted_mention_keeps_inner_punctuation(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no4"].text, lexicon)
        quoted = [m for m in recognize_entities(chunks, catalog) if m.kind == KIND_QUOTED]
        assert quoted[0].text == "difficult day,"

    def test_position_reference_without_name_is_implicit(self, record_by_id, lexicon, catalog):
        _, _, chunks = chunks_for(record_by_id["no8"].text, lexicon)
        implicit = [m for m in recognize_entities(chunks, catalog) if m.implicit]
        assert [m.text for m in implicit] == ["leader of Russian Orthodox Church"]

    def test_word_runs_are_planned_by_surface_and_kind(self, catalog):
        # ``normalize`` gives each surface one kind, but tokens built by hand
        # need not: two chunks of one call that differ only in a word's kind
        # must not share a plan.
        chunks = [
            Chunk(i, SUBJECT, None, None, (Token("Pope", kind, 0, 4),), "Pope", "Pope")
            for i, kind in enumerate((MENTION, WORD, MENTION))
        ]
        mentions = recognize_entities(chunks, catalog)
        assert [m.kind for m in mentions] == [KIND_MENTION, KIND_NAMED, KIND_MENTION]
        assert mentions == [m for ch in chunks for m in recognize_entities([ch], catalog)]


class TestLinking:
    def test_unique_candidate_links(self, lexicon, catalog, policy):
        toks, _, chunks = chunks_for("Trudeau visits Cuba", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.text == "Trudeau"][0]
        linked, audit = link_entity(mention, catalog, toks, policy.entity_iri)
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
        handle, audit = link_entity(mention, catalog, toks, policy.entity_iri)
        assert audit is None
        assert handle.status == MINTED
        assert handle.iri == policy.entity_iri("jqd")
        assert handle.entity_type == AGENT

    def test_title_case_surface_is_minted_as_an_agent(self, lexicon, catalog, policy):
        toks, _, chunks = chunks_for("Pope meets John Dalton", lexicon)
        mention = [m for m in recognize_entities(chunks, catalog) if m.text == "John Dalton"][0]
        minted, _ = link_entity(mention, catalog, toks, policy.entity_iri)
        assert minted.status == MINTED
        assert minted.iri == policy.entity_iri("john_dalton")
        assert minted.entity_type == AGENT

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
        toks, _, chunks = chunks_for("Pope meets @Carter today", lexicon)
        mention = [m for m in recognize_entities(chunks, colliding) if m.kind == KIND_MENTION][0]
        with pytest.raises(LinkingError):
            link_entity(mention, colliding, toks, policy.entity_iri)


class TestDisambiguation:
    def test_context_picks_barack(self, record_by_id, lexicon, catalog, policy):
        toks, _, chunks = chunks_for(record_by_id["no7"].text, lexicon)
        obama = [m for m in recognize_entities(chunks, catalog) if m.text == "Obama"][0]
        linked, audit = link_entity(
            obama, catalog, toks, policy.entity_iri, at=date(2016, 3, 10)
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
        mention = _implicit_mention("leader of Russian Orthodox Church", catalog)
        holder = resolve_implicit(mention, catalog, date(2016, 3, 10))
        assert holder is not None
        assert holder.iri.endswith("Patriarch_Kirill_of_Moscow")
        assert holder == mention._replace(status=LINKED, iri=holder.iri, entity_type=PERSON)

    def test_org_prefix_pattern_is_time_scoped(self, catalog):
        mention = _implicit_mention("Instagram CEO", catalog)
        early = resolve_implicit(mention, catalog, date(2016, 2, 26))
        assert early is not None and early.iri.endswith("Kevin_Systrom")
        assert resolve_implicit(mention, catalog, date(2009, 6, 1)) is None

    def test_descriptor_without_name(self, catalog):
        mention = _implicit_mention("German Chancellor", catalog)
        holder = resolve_implicit(mention, catalog, date(2016, 3, 14))
        assert holder is not None and holder.iri.endswith("Angela_Merkel")

    def test_unknown_pattern_is_none(self, catalog):
        assert _implicit_mention("brave new world", catalog) is None


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


# The entity stage as it was before each mention pointed at its chunk, with
# the alias look-ups as they were before ``EntityCatalog.alias_words`` capped
# them: kept as the oracle that the rewritten chunk, recognize_entities,
# assign_roles and the two look-ups must match on every headline.


def old_parse_position_reference(words: tuple[str, ...], catalog):
    """``_parse_position_reference`` trying every org length, kept as the oracle."""
    lowered = [w.lower() for w in words]
    if "of" in lowered:
        cut = lowered.index("of")
        title = " ".join(words[:cut])
        org = words[cut + 1 :]
        if title and org and catalog.is_position_title(title) and catalog.is_alias(" ".join(org)):
            return title, tuple(org), len(words)
    for org_len in range(len(words) - 1, 0, -1):
        org = words[:org_len]
        if not catalog.is_alias(" ".join(org)):
            continue
        for title_len in range(len(words) - org_len, 0, -1):
            title = " ".join(words[org_len : org_len + title_len])
            if catalog.is_position_title(title):
                return title, tuple(org), org_len + title_len
    return None


def old_resolve_implicit(mention, catalog, at: date):
    """``resolve_implicit`` parsing the mention's text again, kept as the oracle."""
    parsed = old_parse_position_reference(tuple(mention.text.split()), catalog)
    if parsed is None:
        return None
    title, org_words, _ = parsed
    org_iris = {e.iri for e in catalog.candidates(" ".join(org_words))}
    if not org_iris:
        return None
    holders = catalog.holders(title, org_iris, at)
    return holders[0] if holders else None


def old_alias_match_length(words: tuple[Token, ...], start: int, catalog) -> int:
    """``_alias_match_length`` trying every n-gram, kept as the oracle."""
    for n in range(len(words) - start, 0, -1):
        span = words[start : start + n]
        if any(t.kind not in (WORD, NUMBER, HASHTAG) for t in span):
            continue
        if catalog.is_alias(" ".join(t.surface for t in span)):
            return n
    return 0


def old_chunk(tokens, mention) -> list[Chunk]:
    """``chunk`` with dict segments and closures, kept as the oracle."""
    head = mention.head_index
    closing_quotes = {span.last_token + 1 for span in tokens.quoted_spans}

    pre_end = head
    if mention.infinitive_head and head > 0 and tokens.tokens[head - 1].lower == "to":
        pre_end = head - 1

    def segment(indexes: range, position: str) -> list[dict]:
        segments: list[dict] = []
        current: dict | None = None
        colon_mode = False

        def open_segment(intro: Token | None, intro_kind: str | None) -> dict:
            seg = {"intro": intro, "intro_kind": intro_kind, "tokens": []}
            segments.append(seg)
            return seg

        i = indexes.start
        while i < indexes.stop:
            token = tokens.tokens[i]
            if not colon_mode and not token.quoted:
                if token.kind == WORD and token.lower in SPLIT_PREPOSITIONS:
                    nxt = tokens.tokens[i + 1] if i + 1 < indexes.stop else None
                    guarded = (
                        token.lower == "at" and nxt is not None and nxt.lower in _MULTIWORD_GUARD
                    )
                    if not guarded:
                        current = open_segment(token, "prep")
                        i += 1
                        continue
                elif token.kind == WORD and token.lower == "to":
                    nxt = tokens.tokens[i + 1] if i + 1 < indexes.stop else None
                    kind = "to_infinitive" if _looks_infinitive(nxt) else "to_plain"
                    current = open_segment(token, kind)
                    i += 1
                    continue
                elif token.kind == PUNCT and token.surface == ":":
                    current = open_segment(token, "colon")
                    colon_mode = True
                    i += 1
                    continue
            if current is None:
                current = open_segment(None, None)
            current["tokens"].append(token)
            if i in closing_quotes and not colon_mode:
                current = None  # material after a closing quote starts fresh
            i += 1
        return [s for s in segments if s["tokens"]]

    raw = tokens.raw
    built: list[Chunk] = []

    def build(seg: dict, position: str) -> None:
        content = seg["tokens"]
        start, end = content[0].start, content[-1].end
        intro_token = seg["intro"]
        full_start = intro_token.start if intro_token is not None else start
        built.append(
            Chunk(
                index=len(built),
                position=position,
                intro=intro_token.lower if intro_token is not None else None,
                intro_kind=seg["intro_kind"],
                tokens=tuple(content),
                text=raw[start:end],
                full_text=raw[full_start:end],
            )
        )

    pre_segments = segment(range(0, pre_end), PRE)
    subject_pick = None
    for seg in pre_segments:
        if seg["intro_kind"] is None:
            subject_pick = seg  # the last plain pre-verbal segment
    for seg in pre_segments:
        build(seg, SUBJECT if seg is subject_pick else PRE)
    for seg in segment(range(head + 1, len(tokens.tokens)), POST):
        build(seg, POST)
    return built


@dataclass(frozen=True)
class OldMention:
    """``EntityMention`` with five fields copied from its chunk."""

    text: str
    span: tuple[int, int]
    kind: str
    chunk_index: int
    chunk_position: str
    chunk_intro: str | None
    chunk_intro_kind: str | None
    chunk_text: str
    status: str = UNRESOLVED
    iri: str | None = None
    entity_type: str | None = None
    implicit: bool = False
    count_value: str | None = None

    @property
    def is_entity(self) -> bool:
        return self.status in (LINKED, MINTED)

    def _replace(self, **changes) -> OldMention:
        return replace(self, **changes)


def old_recognize_entities(chunks: list[Chunk], catalog) -> list[OldMention]:
    """``recognize_entities`` with five mention blocks, kept as the oracle."""
    mentions: list[OldMention] = []
    for ch in chunks:
        base = dict(
            chunk_index=ch.index,
            chunk_position=ch.position,
            chunk_intro=ch.intro,
            chunk_intro_kind=ch.intro_kind,
            chunk_text=ch.full_text,
        )
        found_any = False

        chunk_start = ch.tokens[0].start
        for run in _quoted_runs(ch.tokens):
            inner = [t for t in run if t.kind != PUNCT or t.surface not in QUOTE_CHARS]
            if not inner:
                continue
            mentions.append(
                OldMention(
                    text=ch.text[inner[0].start - chunk_start : inner[-1].end - chunk_start],
                    span=(inner[0].start, inner[-1].end),
                    kind=KIND_QUOTED,
                    **base,
                )
            )
            found_any = True

        words = ch.free_words
        consumed = [False] * len(words)

        reference = old_parse_position_reference(tuple(t.surface for t in words), catalog)
        if reference is not None:
            title, org_words, used = reference
            if used == len(words):
                mentions.append(
                    OldMention(
                        text=" ".join(t.surface for t in words),
                        span=(words[0].start, words[-1].end),
                        kind=KIND_OTHER,
                        implicit=True,
                        **base,
                    )
                )
                found_any = True
                consumed = [True] * len(words)
            else:
                # Apposition: the trailing words must name the same referent.
                remainder = words[used:]
                if old_alias_match_length(remainder, 0, catalog) == len(remainder):
                    consumed[:used] = [True] * used

        i = 0
        while i < len(words):
            if consumed[i]:
                i += 1
                continue
            token = words[i]
            if token.kind == MENTION:
                mentions.append(
                    OldMention(
                        text=token.surface, span=(token.start, token.end), kind=KIND_MENTION, **base
                    )
                )
                found_any = True
                consumed[i] = True
                i += 1
                continue
            matched = old_alias_match_length(words, i, catalog)
            if matched:
                span_tokens = words[i : i + matched]
                mentions.append(
                    OldMention(
                        text=" ".join(t.surface for t in span_tokens),
                        span=(span_tokens[0].start, span_tokens[-1].end),
                        kind=KIND_NAMED,
                        **base,
                    )
                )
                found_any = True
                for j in range(i, i + matched):
                    consumed[j] = True
                i += matched
                continue
            if token.kind == NUMBER:
                last = i
                for j in range(i + 1, min(i + 4, len(words))):
                    if words[j].lower in PERSON_WORDS:
                        last = j
                        break
                span_tokens = words[i : last + 1]
                mentions.append(
                    OldMention(
                        text=" ".join(t.surface for t in span_tokens),
                        span=(span_tokens[0].start, span_tokens[-1].end),
                        kind=KIND_NUMBER,
                        count_value=token.surface,
                        **base,
                    )
                )
                found_any = True
                for j in range(i, last + 1):
                    consumed[j] = True
                i = last + 1
                continue
            i += 1

        if not found_any and words:
            mentions.append(
                OldMention(
                    text=ch.text,
                    span=(words[0].start, words[-1].end),
                    kind=KIND_OTHER,
                    **base,
                )
            )
    return mentions


def _old_is_passive(head, mentions: list[OldMention]) -> bool:
    if head is None or not head.surface.lower().endswith(("ed", "en", "ain")):
        return False
    post = [m for m in mentions if m.chunk_position == POST]
    if not post:
        return True
    first = min(post, key=lambda m: m.chunk_index)
    if first.chunk_intro_kind == "prep":
        return True
    leading = first.chunk_text.split()
    return bool(leading) and leading[0].lower() in _SUBORDINATORS


def old_assign_roles(mentions: list[OldMention], frame, head=None):
    """``assign_roles`` with nine claimed-mention checks, kept as the oracle."""
    roles: list[tuple[str, RoleFiller]] = []
    done: set[int] = set()

    def take(idx: int, role: str, filler: RoleFiller | None = None) -> None:
        roles.append((role, filler if filler is not None else _filler(mentions[idx])))
        done.add(idx)

    def drop(idx: int) -> None:
        done.add(idx)

    # Generic rule first: place entities inside locative prepositional chunks.
    for i, m in enumerate(mentions):
        if i in done:
            continue
        if (
            m.is_entity
            and m.entity_type == PLACE
            and m.chunk_intro_kind == "prep"
            and m.chunk_intro in LOCATIVE_PREPOSITIONS
        ):
            take(i, "location")

    subject_ids = [i for i, m in enumerate(mentions) if m.chunk_position == SUBJECT]

    if frame is FRAMES[MEET]:
        for i in subject_ids:
            if i not in done:
                take(i, ROLE_PARTICIPANT)
        topic_chunks: set[int] = set()
        for i, m in enumerate(mentions):
            if i in done:
                continue
            if m.chunk_intro_kind == "to_infinitive":
                if m.chunk_index not in topic_chunks:
                    topic_chunks.add(m.chunk_index)
                    roles.append((ROLE_TOPIC, TextFiller(strip_quotes(m.chunk_text))))
                if m.is_entity:
                    take(i, ROLE_PARTICIPANT)
                else:
                    drop(i)  # covered by the Topic text
        for i, m in enumerate(mentions):
            if i in done:
                continue
            if m.kind == KIND_QUOTED:
                take(i, ROLE_TOPIC)
            elif m.is_entity or m.kind == KIND_MENTION:
                take(i, ROLE_PARTICIPANT)

    elif frame is FRAMES[COMMUNICATION]:
        for i in subject_ids:
            if i not in done:
                take(i, ROLE_GIVER)
        message_found = False
        for i, m in enumerate(mentions):
            if i in done or not (m.is_entity or m.kind == KIND_MENTION):
                continue
            recipient_intro = m.chunk_intro_kind == "to_plain" or m.chunk_intro == "with"
            if recipient_intro and m.entity_type in (PERSON, AGENT):
                take(i, ROLE_RECIPIENT)
                break
        for i, m in enumerate(mentions):
            if i in done:
                continue
            if m.chunk_intro_kind == "colon":
                if not message_found:
                    roles.append((ROLE_MESSAGE, TextFiller(strip_quotes(m.chunk_text.lstrip(": ")))))
                    message_found = True
                drop(i)
        if not message_found:
            for i, m in enumerate(mentions):
                if i in done:
                    continue
                if m.kind == KIND_QUOTED:
                    take(i, ROLE_MESSAGE)
                    message_found = True
                    break
        if not message_found:
            post_chunks: dict[int, str] = {}
            for m in mentions:
                if m.chunk_position == POST:
                    post_chunks.setdefault(m.chunk_index, m.chunk_text)
            if post_chunks:
                text = strip_quotes(" ".join(post_chunks[k] for k in sorted(post_chunks)))
                roles.append((ROLE_MESSAGE, TextFiller(text)))
                for i, m in enumerate(mentions):
                    if i in done or m.chunk_position != POST:
                        continue
                    if not m.is_entity:
                        drop(i)  # covered by the Message text

    elif frame is FRAMES[MURDER]:
        passive = _old_is_passive(head, mentions)
        if passive:
            for i in subject_ids:
                if i in done:
                    continue
                m = mentions[i]
                if m.kind == KIND_NUMBER:
                    take(i, ROLE_COUNT)
                elif m.is_entity and m.entity_type == PERSON:
                    take(i, ROLE_VICTIM)
                elif not m.is_entity and m.kind == KIND_OTHER:
                    take(i, ROLE_VICTIM)
        else:
            for i in subject_ids:
                if i in done:
                    continue
                m = mentions[i]
                if m.is_entity and m.entity_type == PERSON:
                    take(i, ROLE_PERPETRATOR)
                else:
                    take(i, ROLE_CAUSE)
                break
            for i, m in enumerate(mentions):
                if i in done or m.chunk_position != POST:
                    continue
                if m.kind == KIND_NUMBER:
                    take(i, ROLE_COUNT)
                elif m.is_entity and m.entity_type == PERSON:
                    take(i, ROLE_VICTIM)
        for i, m in enumerate(mentions):
            if i in done or m.kind != KIND_NUMBER:
                continue
            take(i, ROLE_COUNT)

    for i, m in enumerate(mentions):
        if i not in done:
            take(i, "involved")

    warnings = [
        f"required role {required} is unfilled"
        for required in frame.required_roles
        if not any(r == required for r, _ in roles)
    ]
    return roles, warnings


def _headlines(catalog: EntityCatalog):
    """Headlines built from the catalog's names and positions, @handles,
    numbers, quotes, colons, "to", "at least" and the split prepositions
    around a head verb."""
    entities = catalog._by_iri.values()  # the catalog has no public enumeration
    names = sorted({n for e in entities for n in (e.label, *e.aliases)})
    titles = sorted({p.title for e in entities for p in e.positions})
    orgs = sorted({p.org for e in entities for p in e.positions})
    inner = st.one_of(st.sampled_from(names), st.sampled_from(("to", "for", ":", "unite")))
    quoted = st.tuples(
        st.sampled_from(('"', "\u201c")),
        st.lists(inner, min_size=1, max_size=3).map(" ".join),
        st.sampled_from(('"', "\u201d", '",')),
    ).map("".join)
    piece = st.one_of(
        quoted,
        st.sampled_from(names),
        st.sampled_from(titles),
        st.tuples(st.sampled_from(orgs), st.sampled_from(titles)).map(" ".join),
        st.tuples(st.sampled_from(titles), st.sampled_from(orgs)).map(" of ".join),
        st.tuples(
            st.sampled_from(("2", "eight", "110")),
            st.sampled_from(("", "air force", "more than")),
            st.sampled_from(("people", "pilots", "dead")),
        ).map(lambda count: " ".join(word for word in count if word)),
        st.sampled_from(("@Pontifex", "@jqd", "@_", "#SXSW", "2", "eight", "110", "people")),
        st.sampled_from(('"', "\u201c", "\u201d", ":", ",", "to", "at least", "at most", "of")),
        st.sampled_from(sorted(SPLIT_PREPOSITIONS | _SUBORDINATORS)),
        st.sampled_from(("discuss", "reporters", "first time", "John Dalton", "Storms", "crowd")),
    )
    verbs = st.sampled_from(
        ("meets", "met", "to meet", "visits", "says", "said", "tells", "kills", "killed", "slain")
    )
    return st.tuples(st.lists(piece, max_size=5), verbs, st.lists(piece, max_size=7)).map(
        lambda parts: " ".join([*parts[0], parts[1], *parts[2]])
    )


def _new_shape(m: EntityMention) -> tuple:
    ch = m.chunk
    return (m.text, m.span, m.kind, bool(m.implicit), m.count_value) + (
        ch.index, ch.position, ch.intro, ch.intro_kind, ch.full_text
    )


def _old_shape(m: OldMention) -> tuple:
    return (m.text, m.span, m.kind, m.implicit, m.count_value) + (
        m.chunk_index, m.chunk_position, m.chunk_intro, m.chunk_intro_kind, m.chunk_text
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_entity_stage_matches_the_old_one(data, lexicon, catalog, policy):
    text = data.draw(_headlines(catalog), label="headline")
    at = data.draw(st.sampled_from((date(2009, 6, 1), date(2016, 3, 1))), label="at")
    toks = normalize(text)
    head = recognize_event(toks, lexicon)
    if head is None:
        return
    chunks = chunk(toks, head)
    assert chunks == old_chunk(toks, head)
    new = recognize_entities(chunks, catalog)
    old = old_recognize_entities(chunks, catalog)
    assert [_new_shape(m) for m in new] == [_old_shape(m) for m in old]

    def link(m, resolve):
        if m.implicit:
            holder = resolve(m, catalog, at)
            if holder is None:
                return m
            return m._replace(status=LINKED, iri=holder.iri, entity_type=holder.entity_type)
        if m.kind in (KIND_NAMED, KIND_MENTION):
            return link_entity(m, catalog, toks, policy.entity_iri, at=at)[0]
        return m

    frame = head.event_class.frame
    linked = [link(m, resolve_implicit) for m in new]
    roles, warnings = assign_roles(linked, frame, head=head)
    # ``link_entity`` builds an ``EntityMention``, so each old named or @handle
    # mention takes the outcome of the new mention at its index, whose shape
    # is asserted equal above.
    old_linked = [
        o._replace(status=n.status, iri=n.iri, entity_type=n.entity_type)
        if o.kind in (KIND_NAMED, KIND_MENTION) and not o.implicit
        else link(o, old_resolve_implicit)
        for o, n in zip(old, linked)
    ]
    assert (roles, warnings) == old_assign_roles(old_linked, frame, head=head)
    # ``pipeline._extract_block`` builds each EventInstance without its checks,
    # so the roles must be the frame's: a class without rules fills only the
    # generic ones.
    assert {role for role, _ in roles} <= set(frame.role_names)
    extension_roles, _ = assign_roles(linked, EventClass("Banquet").frame, head=head)
    assert {role for role, _ in extension_roles} <= set(GENERIC_ROLES)


# Single surfaces (no whitespace, as every token surface) whose case folds
# meet: ß/ẞ/ss, İ/i̇, final and medial sigma, hashtags and numbers.
_SURFACES = (
    "Acme", "acme", "ACME", "New", "York", "City", "Straße", "STRAẞE", "strasse", "İstanbul",
    "i̇stanbul", "istanbul", "ΣΑΣ", "σας", "σασ", "#SXSW", "#sxsw", "2", "110", "of", "CEO",
    "Chief", "chief", "Head",
)


@st.composite
def alias_catalogs(draw):
    """Catalogs whose labels, aliases, titles and orgs come from a few
    phrases that join surfaces with one or two spaces, some with a leading
    or trailing space."""
    phrase = st.tuples(
        st.sampled_from(("", "", " ")),
        st.lists(st.sampled_from(_SURFACES), min_size=1, max_size=5),
        st.sampled_from((" ", " ", "  ")),
        st.sampled_from(("", "", " ")),
    ).map(lambda parts: parts[0] + parts[2].join(parts[1]) + parts[3])
    phrases = st.sampled_from(draw(st.lists(phrase, min_size=1, max_size=5)))
    entities = []
    for index in range(draw(st.integers(1, 5))):
        positions = tuple(
            PositionRecord(draw(phrases), draw(phrases), date(2010, 1, 1))
            for _ in range(draw(st.integers(0, 2)))
        )
        aliases = tuple(draw(st.lists(phrases, max_size=2)))
        iri = f"http://kb.example/e{index}"
        entities.append(CatalogEntity(iri, draw(phrases), AGENT, aliases, positions=positions))
    return EntityCatalog(entities)


def _catalog_words(catalog: EntityCatalog):
    """Word lists mixing single surfaces and "of" with the words of the
    catalog's aliases and titles, as a headline would hold them."""
    entities = catalog._by_iri.values()  # the catalog has no public enumeration
    phrases = sorted(
        {n for e in entities for n in (e.label, *e.aliases)}
        | {p.title for e in entities for p in e.positions}
    )
    piece = st.one_of(
        st.sampled_from((*_SURFACES, "of")).map(lambda surface: [surface]),
        st.sampled_from(phrases).map(str.split),
        st.sampled_from(phrases).map(str.split),  # twice: phrases make the matches
        st.sampled_from(phrases).map(lambda phrase: phrase.upper().split()),
    )
    return st.lists(piece, max_size=4).map(lambda pieces: [w for p in pieces for w in p][:10])


IUPAC = "International Union of Pure and Applied Chemistry"


def test_casefold_never_turns_a_character_into_whitespace():
    # What the alias cap's exactness rests on, besides surfaces holding no
    # whitespace (see ``_alias_match_length``).
    assert [
        code
        for code in range(sys.maxunicode + 1)
        if not chr(code).isspace() and any(c.isspace() for c in chr(code).casefold())
    ] == []


@given(st.text(st.one_of(st.sampled_from("ΑΣσςẞßİIi "), st.characters()), max_size=20))
def test_casefold_maps_each_code_point_on_its_own(text):
    assert "".join(c.casefold() for c in text) == text.casefold()


def test_alias_match_length_takes_an_alias_of_any_length():
    # The longest alias wins even past five words, where a shorter alias
    # lies inside it.
    catalog = EntityCatalog(
        [
            CatalogEntity("http://kb.example/iupac", IUPAC, AGENT, ()),
            CatalogEntity("http://kb.example/upa", "Union of Pure and Applied", AGENT, ()),
        ]
    )
    words = tuple(Token(w, WORD, 0, len(w)) for w in f"meets {IUPAC}".split())
    lengths = [_alias_match_length(words, start, catalog) for start in range(len(words))]
    assert lengths == [0, 7, 5, 0, 0, 0, 0, 0]


@settings(max_examples=500, deadline=None)
@given(catalog=alias_catalogs(), data=st.data())
def test_property_alias_match_length_matches_trying_every_ngram(catalog, data):
    surfaces = data.draw(_catalog_words(catalog), label="surfaces")
    kinds = data.draw(
        st.lists(
            st.sampled_from((WORD, WORD, WORD, NUMBER, HASHTAG, MENTION, PUNCT)),
            min_size=len(surfaces),
            max_size=len(surfaces),
        ),
        label="kinds",
    )
    words = tuple(Token(w, kind, 0, len(w)) for w, kind in zip(surfaces, kinds))
    for start in range(len(words)):
        assert _alias_match_length(words, start, catalog) == old_alias_match_length(
            words, start, catalog
        )


@settings(max_examples=500, deadline=None)
@given(catalog=alias_catalogs(), data=st.data())
def test_property_position_reference_matches_trying_every_org_length(catalog, data):
    words = tuple(data.draw(_catalog_words(catalog), label="words"))
    assert _parse_position_reference(words, catalog) == old_parse_position_reference(
        words, catalog
    )


class TestTitleBound:
    """``_parse_position_reference`` tries no title of more words than
    ``catalog.title_words``, the most of any catalog title: the words hold no
    whitespace, so a longer n-gram is no title."""

    @staticmethod
    def catalog(title: str | None) -> EntityCatalog:
        positions = () if title is None else (PositionRecord(title, "Vela", date(2015, 1, 1)),)
        return EntityCatalog(
            [
                CatalogEntity("http://kb.example/vela", "Vela", AGENT, ("Vela Corp",)),
                CatalogEntity("http://kb.example/kim", "Kim Tori", PERSON, (), (), positions),
            ]
        )

    @staticmethod
    def counted(catalog: EntityCatalog) -> Counter:
        """Count ``catalog``'s title look-ups and the org aliases it finds."""
        calls: Counter[str] = Counter()
        is_alias, is_position_title = catalog.is_alias, catalog.is_position_title

        def alias(surface: str) -> bool:
            found = is_alias(surface)
            calls["org matches"] += found
            return found

        def title(surface: str) -> bool:
            calls["title look-ups"] += 1
            return is_position_title(surface)

        catalog.is_alias, catalog.is_position_title = alias, title
        return calls

    @pytest.mark.parametrize("text", ["Vela Prime Minister", "Prime Minister of Vela"])
    def test_a_two_word_title_resolves_in_both_forms(self, text):
        catalog = self.catalog("Prime Minister")
        assert catalog.title_words == 2
        mention = _implicit_mention(text, catalog)
        assert mention is not None and mention.text == text
        holder = resolve_implicit(mention, catalog, date(2016, 3, 1))
        assert holder is not None and holder.iri == "http://kb.example/kim"

    @pytest.mark.parametrize("text", ["Vela Prime Minister", "Prime Minister of Vela"])
    def test_a_title_with_a_double_space_matches_nothing(self, text):
        catalog = self.catalog("Prime  Minister")
        assert _implicit_mention(text, catalog) is None
        words = tuple(text.split())
        assert _parse_position_reference(words, catalog) is None
        assert old_parse_position_reference(words, catalog) is None

    def test_a_catalog_without_positions_looks_up_no_title(self):
        catalog = self.catalog(None)
        assert catalog.title_words == 0
        calls = self.counted(catalog)
        for text in ("Vela CEO", "Vela Corp Prime Minister", "CEO of Vela", "Prime Minister of Vela"):
            assert _parse_position_reference(tuple(text.split()), catalog) is None
        assert calls["title look-ups"] == 0
        assert calls["org matches"] > 0

    @pytest.mark.parametrize("title", ["CEO", "Prime Minister"])
    def test_each_org_match_looks_up_at_most_title_words_titles(self, title):
        catalog = self.catalog(title)
        calls = self.counted(catalog)
        # "Vela Corp" and "Vela" both match as orgs; no title follows either.
        words = ("Vela", "Corp", *(f"w{i}" for i in range(18)))
        assert _parse_position_reference(words, catalog) is None
        assert calls["org matches"] == 2
        assert 0 < calls["title look-ups"] <= catalog.title_words * calls["org matches"]
