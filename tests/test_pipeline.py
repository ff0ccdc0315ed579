"""The extract boundary: every record read becomes exactly one event or one
skip, the whole pipeline builds no reference cycles, each stage is reached
through its ``pipeline`` module global, and running the stages a block at a
time gives what running them one record at a time gave."""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex import cli, entities, pipeline
from headex.catalog import (
    CatalogEntity,
    EntityCatalog,
    PositionRecord,
    default_catalog_path,
    load_catalog,
)
from headex.entities import (
    LINKED,
    DisambiguationAudit,
    LinkingError,
    assign_roles,
    chunk,
    link_entity,
    recognize_entities,
    resolve_implicit,
)
from headex.events import recognize_event
from headex.ingest import normalize, parse_record, read_records
from headex.interlink import build_event_index, interlink_graph
from headex.lexicon import default_lexicon_path, load_lexicon, load_lexicon_file
from headex.model import KIND_MENTION, KIND_NAMED, EntityRef, EventInstance, Provenance
from headex.pipeline import (
    BLOCK_SIZE,
    ExtractResult,
    SkippedRecord,
    SkipRecord,
    extract_corpus,
    process_record,
)
from headex.rdf import Literal, Triple, parse_ntriples, serialize_ntriples
from headex.triplify import EmissionError, IriPolicy, PolicyError, emit_event_triples

BASE = IriPolicy().base_iri

# Some entities own the IRI that minting "@zork" or "Kim" would produce,
# under a label that surface does not match.
_IRIS = st.sampled_from(("zork", "vela", "kim")).flatmap(
    lambda slug: st.sampled_from((f"{BASE}entity/{slug}", f"http://kb.example/{slug}"))
)
_ENTITIES = st.lists(
    st.fixed_dictionaries(
        {
            "iri": _IRIS,
            "label": st.sampled_from(("Zorkington", "Vela", "Kim Tori", "Obama")),
            "type": st.sampled_from(("Person", "Place", "Organisation", "Agent")),
        },
        optional={
            "aliases": st.lists(st.sampled_from(("Zork", "Kim", "Obama")), max_size=2),
            "roles": st.lists(
                st.fixed_dictionaries(
                    {
                        "title": st.just("CEO"),
                        "org": st.sampled_from(("Vela", "Zorkington")),
                        "from": st.sampled_from(("2015-01-01", "2017-01-01")),
                    }
                ),
                max_size=1,
            ),
        },
    ),
    max_size=4,
    unique_by=lambda entity: entity["iri"],
)
_WORDS = st.sampled_from(
    (
        "meets", "says", "kills", "visits", "@zork", "@vela", "@kim", "@_", "Zork", "Kim",
        "Kim Tori", "Obama", "Vela CEO", "CEO of Zorkington", "3", "people", '"', ":",
        "to", "at least", "with", "in", "#tag", "!!!",
    )
)
_LINES = st.one_of(
    st.tuples(
        st.sampled_from(("r1", "r2", "r3", "r 4")),
        st.sampled_from(("CNN", "!!!")),
        st.sampled_from(("16/3/16", "2016-03-16", "31/31/16")),
        st.lists(_WORDS, max_size=8).map(" ".join),
    ).map("\t".join),
    st.sampled_from(("a\tb\tc", "broken line", "")),
)


@settings(max_examples=300, deadline=None)
@given(entities=_ENTITIES, lines=st.lists(_LINES, max_size=6))
def test_every_record_becomes_one_event_or_one_skip(lexicon, entities, lines):
    with tempfile.TemporaryDirectory() as tmp:
        catalog_path = Path(tmp) / "catalog.json"
        catalog_path.write_text(json.dumps({"entities": entities}), encoding="utf-8")
        records_path = Path(tmp) / "records.tsv"
        records_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        catalog = load_catalog(catalog_path)
        records, malformed = read_records(records_path)
    # extract_corpus declares no error: any exception fails the property.
    result = extract_corpus(records, lexicon, catalog, IriPolicy())
    assert len(records) + len(malformed) == sum(1 for line in lines if line.strip())
    outcomes = [i.instance_id for i in result.instances] + [s.record_id for s in result.skipped]
    assert sorted(outcomes) == sorted(r.id for r in records)


class TestNoReferenceCycles:
    """``headex.cli.main`` runs each command with the cyclic collector
    paused, which is sound only while the pipeline frees everything it makes
    by reference counting.  A cycle built per record would grow a command's
    memory with its input, so none may be built."""

    ROWS = (
        "c1\tBBC\t11/3/16\tPope Francis meets Patriarch Kirill in Havana",
        "c2\tNYT\t11/3/16\tPope meets Patriarch Kirill in historic visit",
        "c3\tCNN\t12/3/16\tPope Francis says meeting with Patriarch Kirill was a breakthrough",
        "c4\tCNN\t26/2/16\tInstagram CEO meets with @Pontifex to discuss plans",
        "c5\tNYT\t10/3/16\tObama and Justin Trudeau announce efforts to fight climate change",
        "c6\tCNN\t12/3/16\t@zorkblat meets Patriarch Kirill",
        "c7\tCNN\t12/3/16\tWeather in Havana",
        "c8\tCNN\t12/3/16",
        "c9\tCNN\t31/31/16\tPope meets Kirill",
        "c1\tCNN\t12/3/16\tPope meets Kirill",
        "c10\tCNN\t12/3/16\t ",
    )

    def run_pipeline(self, path: Path) -> None:
        policy = IriPolicy()
        lexicon = load_lexicon_file(default_lexicon_path())
        catalog = load_catalog(default_catalog_path())
        records, failures = read_records(path)
        result = extract_corpus(records, lexicon, catalog, policy)
        graph = parse_ntriples(serialize_ntriples(result.graph))
        links, same, related = interlink_graph(graph, policy)
        entries = build_event_index(graph, policy)

        # The corpus reaches every skip reason, a minted handle, a
        # disambiguation, a position reference and both kinds of link.
        reasons = [reason for _, reason in failures] + [s.reason for s in result.skipped]
        for expected in (
            "expected 4 tab-separated fields",
            "invalid calendar date",
            "duplicate record id",
            "text must be nonempty",
            "no event verb recognized",
        ):
            assert sum(expected in reason for reason in reasons) == 1, (expected, reasons)
        subjects = {subject for subject, _, _ in graph}
        assert f"{BASE}entity/zorkblat" in subjects
        assert "http://dbpedia.org/resource/Kevin_Systrom" in subjects
        assert [audit.surface for audit in result.audits] == ["Obama"]
        assert same > 0 and related > 0 and len(links) == same + related
        assert len(entries) == len(result.instances) == 6

    def test_pipeline_leaves_no_cyclic_garbage(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text("".join(row + "\n" for row in self.ROWS), encoding="utf-8")
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            self.run_pipeline(path)
            assert gc.collect() == 0
        finally:
            if collecting:
                gc.enable()


class TestExtractLayersCalledThroughModuleGlobals:
    """Tracing wraps the ``pipeline`` module globals of the eight stages it
    times (``bench/spans.py``'s ``PIPELINE_NAMES``); a stage reached another
    way would be timed and counted as zero."""

    STAGES = (
        "normalize",
        "recognize_event",
        "chunk",
        "recognize_entities",
        "link_entity",
        "resolve_implicit",
        "assign_roles",
        "emit_event_triples",
    )

    def test_extract_reaches_each_stage_through_its_global(self, monkeypatch, tmp_path, capsys):
        calls: Counter[str] = Counter()

        def wrap(name):
            function = getattr(pipeline, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)

        for name in self.STAGES:
            wrap(name)
        # Each repeat of the rows reads 8 records (3 rows fail to parse), so
        # the corpus spans more than two blocks.
        repeats = 2 * BLOCK_SIZE // 8 + 1
        rows = [
            f"r{k}-{j}\t{rest}"
            for k in range(repeats)
            for j, (_, rest) in enumerate(row.split("\t", 1) for row in TestNoReferenceCycles.ROWS)
        ]
        path = tmp_path / "records.tsv"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        records, _ = read_records(path)
        assert len(records) > 2 * BLOCK_SIZE

        code = cli.main(["extract", str(path), "--out", str(tmp_path / "out")])
        assert code == 2  # rows that fail to parse
        events = int(re.search(r"events=(\d+)", capsys.readouterr().out)[1])
        assert set(calls) == set(self.STAGES)
        assert calls["normalize"] == len(records)
        assert calls["emit_event_triples"] == events
        # Per repeat: 13 named or @handle mentions, one position reference.
        assert (calls["link_entity"], calls["resolve_implicit"]) == (13 * repeats, repeats)


def oracle_process_record(record, lexicon, catalog, policy):
    """The one-record-at-a-time pipeline that block extraction replaced,
    kept verbatim as the reference."""
    try:
        tokens = normalize(record.text)
    except ValueError as exc:
        raise SkipRecord(str(exc)) from exc

    head = recognize_event(tokens, lexicon)
    if head is None:
        raise SkipRecord("no event verb recognized")

    chunks = chunk(tokens, head)
    mentions = recognize_entities(chunks, catalog)
    at = record.timestamp.date()

    audits: list[DisambiguationAudit] = []
    warnings: list[str] = []
    resolved = []
    for mention in mentions:
        if mention.implicit:
            holder = resolve_implicit(mention, catalog, at)
            if holder is None:
                warnings.append(f"position reference {mention.text!r} resolved to nobody")
                resolved.append(mention)
            else:
                resolved.append(
                    mention._replace(status=LINKED, iri=holder.iri, entity_type=holder.entity_type)
                )
            continue
        if mention.kind in (KIND_NAMED, KIND_MENTION):
            try:
                linked, audit = link_entity(mention, catalog, tokens, policy.entity_iri, at=at)
            except LinkingError as exc:
                raise SkipRecord(str(exc)) from exc
            resolved.append(linked)
            if audit is not None:
                audits.append(audit._replace(record_id=record.id))
            continue
        resolved.append(mention)

    roles, role_warnings = assign_roles(resolved, head.event_class.frame, head=head)
    warnings.extend(role_warnings)

    instance = EventInstance(
        instance_id=record.id,
        event_class=head.event_class,
        mention=head,
        roles=tuple(roles),
        provenance=Provenance(publisher=record.publisher, extracted_on=at),
        warnings=tuple(warnings),
    )
    try:
        triples = emit_event_triples(instance, policy)
    except (EmissionError, PolicyError) as exc:
        raise SkipRecord(str(exc)) from exc
    return instance, triples, audits


def oracle_extract_corpus(records, lexicon, catalog, policy):
    result = ExtractResult()
    for record in records:
        try:
            instance, triples, audits = oracle_process_record(record, lexicon, catalog, policy)
        except SkipRecord as skip:
            result.skipped.append(SkippedRecord(record_id=record.id, reason=skip.reason))
            continue
        result.instances.append(instance)
        result.graph.update(triples)
        result.audits.extend(audits)
    return result


class TestBlocksMatchOneRecordAtATime:
    """A record's outcome depends on nothing but the record, so where the
    block boundaries fall changes no output."""

    # (publisher, text) of records that become events: a plain link, a
    # disambiguation with an audit, a position reference that resolves, one
    # that resolves to nobody, a minted handle.
    EVENTS = (
        ("BBC", "Pope Francis meets Patriarch Kirill in Havana"),
        ("NYT", "Obama and Justin Trudeau announce efforts to fight climate change"),
        ("CNN", "Instagram CEO meets with @Pontifex to discuss plans"),
        ("CNN", "CEO of Zorkington meets Patriarch Kirill"),
        ("CNN", "@zorkblat meets Patriarch Kirill"),
    )
    # One of each skip that a record can reach past ``normalize``.
    SKIPS = {
        ("CNN", "Weather in Havana"): "no event verb recognized",
        ("CNN", "@zork meets Patriarch Kirill"): "minted IRI collides with catalog entity",
        ("!!!", "Pope Francis meets Patriarch Kirill in Havana"): "cannot derive an IRI slug",
    }

    @pytest.fixture(scope="class")
    def colliding_catalog(self, tmp_path_factory):
        """The bundled catalog plus an entity that owns the IRI minted for
        ``@zork`` under a label that surface does not match."""
        payload = json.loads(default_catalog_path().read_text(encoding="utf-8"))
        zork = {"iri": f"{BASE}entity/zork", "label": "Zorkington", "type": "Agent"}
        payload["entities"].append(zork)
        path = tmp_path_factory.mktemp("catalog") / "catalog.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_catalog(path)

    @staticmethod
    def records(kinds):
        return [
            parse_record(f"r{i}\t{publisher}\t{11 + i % 3}/3/16\t{text}")
            for i, (publisher, text) in enumerate(kinds)
        ]

    def test_the_kinds_reach_every_outcome(self, lexicon, colliding_catalog):
        records = self.records(self.EVENTS + tuple(self.SKIPS))
        result = extract_corpus(records, lexicon, colliding_catalog, IriPolicy())
        assert len(result.instances) == len(self.EVENTS)
        reasons = [s.reason for s in result.skipped]
        assert len(reasons) == len(self.SKIPS)
        assert all(want in got for want, got in zip(self.SKIPS.values(), reasons)), reasons
        assert result.audits and result.warnings

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_extract_corpus_and_process_record_match_the_oracle(
        self, lexicon, colliding_catalog, data
    ):
        # From no records to more than two blocks; the size is drawn on its
        # own so that long corpora are as likely as short ones.
        size = data.draw(st.integers(0, 2 * BLOCK_SIZE + 8))
        kind = st.sampled_from(self.EVENTS + tuple(self.SKIPS))
        kinds = data.draw(st.lists(kind, min_size=size, max_size=size))
        # A skip at the first and at the last record of every block.
        skips = st.sampled_from(tuple(self.SKIPS))
        for i in range(len(kinds)):
            if i % BLOCK_SIZE in (0, BLOCK_SIZE - 1):
                kinds[i] = data.draw(skips)
        records = self.records(kinds)
        policy = IriPolicy()

        got = extract_corpus(records, lexicon, colliding_catalog, policy)
        want = oracle_extract_corpus(records, lexicon, colliding_catalog, policy)
        assert list(got.graph) == list(want.graph)
        assert got.instances == want.instances
        assert got.skipped == want.skipped
        assert got.audits == want.audits
        assert got.warnings == want.warnings

        for record in records:
            try:
                expected = oracle_process_record(record, lexicon, colliding_catalog, policy)
            except SkipRecord as skip:
                with pytest.raises(SkipRecord) as raised:
                    process_record(record, lexicon, colliding_catalog, policy)
                assert raised.value.reason == skip.reason
                continue
            instance, triples, audits = process_record(record, lexicon, colliding_catalog, policy)
            assert instance == expected[0]
            assert list(triples) == list(expected[1])
            assert audits == expected[2]


class TestUncheckedBuildsPassTheChecks:
    """Extraction builds its values by position from parts checked where they
    entered, skipping the public constructors' checks; every value it returns
    equals its rebuild through the public constructor, which raises on a bad
    part."""

    # The kinds of TestBlocksMatchOneRecordAtATime, plus count literals, a
    # colon message and several text nodes of one role.
    KINDS = (
        *TestBlocksMatchOneRecordAtATime.EVENTS,
        *TestBlocksMatchOneRecordAtATime.SKIPS,
        ("BBC", "Storm kills 20 people in Havana"),
        ("AP", 'Gunman kills eight people at "Pulse" club'),
        ("Reuters", 'Pope Francis says: "we must act"'),
    )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_value_equals_its_checked_rebuild(self, lexicon, catalog, data):
        size = data.draw(st.integers(0, 2 * BLOCK_SIZE + 8))
        kinds = data.draw(st.lists(st.sampled_from(self.KINDS), min_size=size, max_size=size))
        # Ids that end like a role-node suffix (r_0) or hold non-ASCII letters.
        sep = data.draw(st.sampled_from(("", "_", "é-", ".~")))
        records = [
            record._replace(id=f"r{sep}{i}")
            for i, record in enumerate(TestBlocksMatchOneRecordAtATime.records(kinds))
        ]
        result = extract_corpus(records, lexicon, catalog, IriPolicy())
        for instance in result.instances:
            assert EventInstance(*instance) == instance
            assert Provenance(*instance.provenance) == instance.provenance
            for _, filler in instance.roles:
                assert type(filler)(*filler) == filler
        for triple in result.graph:
            assert Triple(*triple) == triple
            if isinstance(triple.object, Literal):
                assert Literal(*triple.object) == triple.object


def _catalog(*extra):
    """Two people called Kim, told apart by context; Kim Tori is CEO of Vela
    from 12 March 2016; an entity owns the IRI minted for ``@zork``."""
    kim_tori = CatalogEntity(
        "http://kb.example/kim_tori", "Kim Tori", "Person", ("Kim",), ("football",),
        (PositionRecord("CEO", "Vela", date(2016, 3, 12)),),
    )
    kim_vale = CatalogEntity(
        "http://kb.example/kim_vale", "Kim Vale", "Person", ("Kim",), ("havana",)
    )
    return EntityCatalog(
        (
            kim_tori,
            kim_vale,
            CatalogEntity("http://kb.example/vela", "Vela", "Organisation", ()),
            CatalogEntity("http://kb.example/havana", "Havana", "Place", ()),
            CatalogEntity(f"{BASE}entity/zork", "Zorkington", "Agent", ()),
            *extra,
        )
    )


class TestRunTablesMatchTheOracle:
    """A run reads each repeated word surface, free-word run and emission term
    once and reuses it (``pipeline``'s per-run tables).  Headlines built from
    a few pieces repeat across records and blocks, in copies that differ in
    what a table must not hide: quote balance, a publisher with no IRI slug,
    the day (Vela's CEO takes office on the 12th) and the context words that
    tell the two Kims apart.  Each example also draws the catalog, lexicon
    and policy, so a table kept from an earlier run gives wrong answers."""

    CATALOGS = (_catalog(), _catalog(CatalogEntity("http://kb.example/tori", "Tori", "Agent", ())))
    LEXICONS = (
        "meet\tMeet\nvisit\tMeet\nsay\tCommunication\nkill\tMurder\n",
        "meet\tMeet\nsay\tCommunication\nkill\tMurder\nreport\tCommunication\n",
    )
    POLICIES = (IriPolicy(), IriPolicy("http://example.org/other/"))
    SUBJECTS = ("Kim", "Kim Tori", "Tori", "@zork", "@Kim", "Vela CEO", "CEO of Vela", "3 people")
    VERBS = ("meets", "visits", "says", "kills", "report", "reports")
    OBJECTS = ('"Kim Tori"', "Kim Tori", '"Kim Tori', "Tori", "Vela", "in Havana", "with @zork")
    TAILS = ("", "about football", "in Havana", '"', "to discuss Kim")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_repeated_inputs_match_the_oracle(self, data):
        catalog = data.draw(st.sampled_from(self.CATALOGS))
        lexicon = load_lexicon(data.draw(st.sampled_from(self.LEXICONS)))
        policy = data.draw(st.sampled_from(self.POLICIES))
        pieces = (self.SUBJECTS, self.VERBS, self.OBJECTS, self.TAILS)
        text = st.tuples(*map(st.sampled_from, pieces))
        row = st.tuples(
            st.sampled_from(("BBC", "CNN", "!!!")),
            st.sampled_from(("11/3/16", "12/3/16")),
            text.map(" ".join).map(str.strip),
        )
        size = data.draw(st.integers(0, 2 * BLOCK_SIZE + 8))
        rows = data.draw(st.lists(row, min_size=size, max_size=size))
        records = [parse_record(f"r{i}\t{p}\t{day}\t{t}") for i, (p, day, t) in enumerate(rows)]

        got = extract_corpus(records, lexicon, catalog, policy)
        want = oracle_extract_corpus(records, lexicon, catalog, policy)
        assert list(got.graph) == list(want.graph)
        assert got.instances == want.instances
        assert got.skipped == want.skipped
        assert got.audits == want.audits
        assert got.warnings == want.warnings


class TestRunIsolation:
    """Each ``extract_corpus`` call reads into tables of its own, so what one
    run read under its catalog and lexicon never answers for another."""

    TEXTS = ("Tori visits Havana", "Kim Tori reports Tori", "Vela CEO meets Tori about football")
    RECORDS = [parse_record(f"r{i}\tCNN\t12/3/16\t{text}") for i, text in enumerate(TEXTS)]

    @staticmethod
    def outcome(result):
        return list(result.graph), result.instances, result.skipped, result.audits

    @pytest.mark.parametrize("vary", ["catalog", "lexicon"])
    def test_two_runs_in_one_process_each_give_their_own_answer(self, vary):
        catalogs = TestRunTablesMatchTheOracle.CATALOGS
        lexicons = [load_lexicon(text) for text in TestRunTablesMatchTheOracle.LEXICONS]
        if vary == "catalog":
            runs = zip(catalogs, lexicons[:1] * 2)
        else:
            runs = zip(catalogs[:1] * 2, lexicons)
        policy = IriPolicy()
        answers = []
        for catalog, lexicon in runs:
            got = extract_corpus(self.RECORDS, lexicon, catalog, policy)
            want = oracle_extract_corpus(self.RECORDS, lexicon, catalog, policy)
            assert self.outcome(got) == self.outcome(want)
            answers.append(self.outcome(got))
        assert answers[0] != answers[1]

    def test_process_record_after_a_large_run_equals_it_alone(self):
        catalogs = TestRunTablesMatchTheOracle.CATALOGS
        lexicons = [load_lexicon(text) for text in TestRunTablesMatchTheOracle.LEXICONS]
        policy = IriPolicy()
        large = [
            parse_record(f"x{i}\tBBC\t{11 + i % 2}/3/16\t{self.TEXTS[i % 3]}")
            for i in range(3 * BLOCK_SIZE)
        ]
        extract_corpus(large, lexicons[0], catalogs[1], policy)
        for record in self.RECORDS[1:]:
            instance, triples, audits = process_record(record, lexicons[1], catalogs[0], policy)
            alone = oracle_process_record(record, lexicons[1], catalogs[0], policy)
            assert (instance, list(triples), audits) == (alone[0], list(alone[1]), alone[2])


class TestPositionReferenceParsedOnce:
    """``_plan`` parses a chunk's position reference once per run, and the
    parse travels with the mention to ``resolve_implicit``, which reads it
    instead of parsing the mention's text again."""

    OBJECTS = ("Pope Francis", "@Pontifex", "Patriarch Kirill")

    def test_one_parse_per_distinct_chunk(self, monkeypatch, lexicon, catalog, policy):
        calls: Counter[str] = Counter()
        for name in ("_plan", "_parse_position_reference"):
            function = getattr(entities, name)

            def counted(*args, _name=name, _function=function):
                calls[_name] += 1
                return _function(*args)

            monkeypatch.setattr(entities, name, counted)
        # One implicit chunk in every record, across more than two blocks.
        records = [
            parse_record(f"r{i}\tCNN\t26/2/16\tInstagram CEO meets {self.OBJECTS[i % 3]}")
            for i in range(2 * BLOCK_SIZE + 1)
        ]
        result = extract_corpus(records, lexicon, catalog, policy)
        systrom = "http://dbpedia.org/resource/Kevin_Systrom"
        assert len(result.instances) == len(records)
        participants = [next(f for r, f in i.roles if r == "Participant") for i in result.instances]
        assert all(filler.iri == systrom for filler in participants)
        # The chunk keys: "Instagram CEO" and each object.
        assert calls["_plan"] == 1 + len(self.OBJECTS)
        assert calls["_parse_position_reference"] == calls["_plan"]


class TestLinkTable:
    """``link_entity`` reads a surface's candidates, or mints its IRI, once
    per run (``pipeline``'s ``links`` table); what depends on the record, the
    choice among several candidates and its audit, is made for each record,
    and a collision is never stored."""

    @staticmethod
    def records(texts):
        return [parse_record(f"r{i}\tCNN\t12/3/16\t{text}") for i, text in enumerate(texts)]

    def test_a_colliding_mint_skips_every_record_that_meets_it(self, lexicon):
        # More than two blocks, the colliding handle in every third record.
        texts = [
            "@zork meets Vela" if i % 3 == 0 else "@vela_fan meets Kim Tori"
            for i in range(2 * BLOCK_SIZE + 5)
        ]
        result = extract_corpus(self.records(texts), lexicon, _catalog(), IriPolicy())
        reason = f"minted IRI collides with catalog entity: {BASE}entity/zork"
        assert result.skipped == [
            SkippedRecord(f"r{i}", reason) for i, text in enumerate(texts) if "@zork" in text
        ]
        assert len(result.instances) == len(texts) - len(result.skipped)

    def test_a_collision_is_raised_each_time_and_never_stored(self, lexicon):
        catalog, links = _catalog(), {}
        (record,) = self.records(["@zork meets Vela"])
        tokens = normalize(record.text)
        chunks = chunk(tokens, recognize_event(tokens, lexicon))
        (handle,) = [m for m in recognize_entities(chunks, catalog) if m.kind == KIND_MENTION]
        for _ in range(2):
            with pytest.raises(LinkingError, match="collides"):
                link_entity(handle, catalog, tokens, IriPolicy().entity_iri, links=links)
        assert links == {}

    def test_two_candidates_are_chosen_between_for_each_record(self, lexicon):
        # Kim Tori's keyword is "football", Kim Vale's "havana".
        texts = ["Kim visits Havana", "Kim meets Vela about football"] * 2
        result = extract_corpus(self.records(texts), lexicon, _catalog(), IriPolicy())
        tori, vale = "http://kb.example/kim_tori", "http://kb.example/kim_vale"
        picks = [(a.record_id, a.surface, a.chosen_iri) for a in result.audits]
        assert picks == [
            ("r0", "Kim", vale), ("r1", "Kim", tori), ("r2", "Kim", vale), ("r3", "Kim", tori)
        ]
        participants = [
            {f.iri for _, f in i.roles if isinstance(f, EntityRef)} for i in result.instances
        ]
        assert [vale in p for p in participants] == [True, False, True, False]
        assert [tori in p for p in participants] == [False, True, False, True]

    @pytest.mark.parametrize("workload", ["archive", "breaking", "noisy-feed"])
    def test_the_shared_table_gives_what_a_fresh_one_per_call_gives(
        self, monkeypatch, tmp_path, bench_gen, lexicon, workload
    ):
        settings = dataclasses.replace(
            bench_gen.WORKLOADS[workload], records=160, catalog_size=300, pool=200
        )
        bench_gen.generate(settings, 1, tmp_path)
        records, _ = read_records(tmp_path / "records.tsv")
        catalog, policy = load_catalog(tmp_path / "catalog.json"), IriPolicy()
        calls: Counter[str] = Counter()

        def fresh_table(*args, links, **kwargs):
            calls["link_entity"] += 1
            return link_entity(*args, links={}, **kwargs)

        shared = extract_corpus(records, lexicon, catalog, policy)
        monkeypatch.setattr(pipeline, "link_entity", fresh_table)
        fresh = extract_corpus(records, lexicon, catalog, policy)
        assert calls["link_entity"] > 0
        assert list(shared.graph) == list(fresh.graph)
        assert shared.instances == fresh.instances
        assert shared.skipped == fresh.skipped
        assert shared.audits == fresh.audits

    @pytest.mark.parametrize("workload", ["archive", "breaking", "noisy-feed"])
    def test_context_words_are_built_once_per_choice_and_never_otherwise(
        self, monkeypatch, tmp_path, bench_gen, lexicon, workload
    ):
        # A record with two choices builds its words twice, a record with
        # none never; each choice leaves one audit row.  At 400 records every
        # workload has choices, and archive has records with two.
        settings = dataclasses.replace(
            bench_gen.WORKLOADS[workload], records=400, catalog_size=300, pool=200
        )
        bench_gen.generate(settings, 1, tmp_path)
        records, _ = read_records(tmp_path / "records.tsv")
        catalog = load_catalog(tmp_path / "catalog.json")
        calls: Counter[str] = Counter()
        context_words = entities.context_words

        def counted(tokens):
            calls["context_words"] += 1
            return context_words(tokens)

        monkeypatch.setattr(entities, "context_words", counted)
        result = extract_corpus(records, lexicon, catalog, IriPolicy())
        assert result.audits
        assert calls["context_words"] == len(result.audits)

