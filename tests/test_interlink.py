"""Event index construction and same-event / related-event linking."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex import cli, interlink
from headex.ingest import parse_date, read_records
from headex.interlink import (
    EventIndexEntry,
    InterlinkError,
    build_event_index,
    find_related_events,
    find_same_events,
    interlink_graph,
    jaccard,
)
from headex.model import FRAMES
from headex.pipeline import extract_corpus
from headex.rdf import (
    OWL_SAME_AS,
    RDF_TYPE,
    SKOS_RELATED,
    XSD_DATE,
    XSD_INTEGER,
    Literal,
    Triple,
    TripleSet,
    _term,
    local_name,
    serialize_ntriples,
)
from headex.triplify import BODY, EXTRACTED_ON, HAS_SOURCE, SINGLETON_PROPERTY_OF, IriPolicy

BASE = "http://example.org/news/"
UTC = timezone.utc


def entry(
    iri: str,
    *,
    class_iri: str = "http://x/Meet",
    participants: frozenset[str] = frozenset(),
    hours: float = 0.0,
    publisher: str = "alpha",
) -> EventIndexEntry:
    return EventIndexEntry(
        instance_iri=iri,
        class_iri=class_iri,
        participants=participants,
        timestamp=datetime(2016, 3, 1, tzinfo=UTC) + timedelta(hours=hours),
        publisher=publisher,
    )


def brute_same(entries, window_hours=48.0, jaccard_min=0.5):
    window = timedelta(hours=window_hours)
    out = set()
    for a, b in itertools.combinations(entries, 2):
        if a.class_iri != b.class_iri or a.publisher == b.publisher:
            continue
        if abs(a.timestamp - b.timestamp) > window:
            continue
        if jaccard(a.participants, b.participants) < jaccard_min:
            continue
        out.add(tuple(sorted((a.instance_iri, b.instance_iri))))
    return sorted(out)


def brute_related(entries, horizon_days=7.0, exclude=()):
    horizon = timedelta(days=horizon_days)
    excluded = {tuple(sorted(p)) for p in exclude}
    out = []
    for a, b in itertools.permutations(entries, 2):
        if not a.timestamp < b.timestamp:
            continue
        if b.timestamp - a.timestamp > horizon:
            continue
        if not (a.participants & b.participants):
            continue
        if tuple(sorted((a.instance_iri, b.instance_iri))) in excluded:
            continue
        out.append((a.instance_iri, b.instance_iri))
    return sorted(out)


def random_entries(rng: random.Random, size: int) -> list[EventIndexEntry]:
    classes = [f"http://x/C{k}" for k in range(3)]
    publishers = ("alpha", "beta", "gamma")
    pool = [f"http://x/e{k}" for k in range(8)]
    out = []
    for i in range(size):
        out.append(
            EventIndexEntry(
                instance_iri=f"http://x/E{i}",
                class_iri=rng.choice(classes),
                participants=frozenset(rng.sample(pool, rng.randint(0, 4))),
                timestamp=datetime(2016, 3, 1, tzinfo=UTC)
                + timedelta(hours=rng.randrange(0, 24 * 12)),
                publisher=rng.choice(publishers),
            )
        )
    return out


class TestJaccard:
    @given(st.frozensets(st.integers(0, 9)), st.frozensets(st.integers(0, 9)))
    def test_equals_shared_over_union(self, a, b):
        union = a | b
        assert jaccard(a, b) == (len(a & b) / len(union) if union else 0.0)

    def test_cases(self):
        a = frozenset({"x", "y"})
        assert jaccard(frozenset(), frozenset()) == 0.0
        assert jaccard(a, frozenset()) == 0.0
        assert jaccard(a, a) == 1.0
        assert jaccard(a, frozenset({"y", "z"})) == pytest.approx(1 / 3)


class TestEventIndex:
    def test_nine_corpus_index(self, nine_result, policy):
        entries = build_event_index(nine_result.graph, policy)
        assert len(entries) == 9
        assert [e.timestamp for e in entries] == sorted(e.timestamp for e in entries)
        by_iri = {e.instance_iri: e for e in entries}

        no2 = by_iri[f"{BASE}Meet_no2"]
        assert no2.class_iri == f"{BASE}Meet"
        assert no2.publisher == "cnn"
        assert no2.timestamp == datetime(2016, 2, 26, tzinfo=UTC)
        assert no2.participants == frozenset(
            {"http://dbpedia.org/resource/Kevin_Systrom", f"{BASE}entity/pontifex"}
        )

    def test_text_nodes_are_not_participants(self, nine_result, policy):
        by_iri = {e.instance_iri: e for e in build_event_index(nine_result.graph, policy)}
        # no3's cause and count live in text nodes; only the location remains.
        assert by_iri[f"{BASE}Murder_no3"].participants == frozenset(
            {"http://dbpedia.org/resource/Bangkok"}
        )
        # no4's only IRI argument is the main-triple subject.
        assert by_iri[f"{BASE}Communication_no4"].participants == frozenset(
            {"http://dbpedia.org/resource/Angela_Merkel"}
        )

    def test_location_and_involved_entities_count(self, nine_result, policy):
        by_iri = {e.instance_iri: e for e in build_event_index(nine_result.graph, policy)}
        assert by_iri[f"{BASE}Murder_no9"].participants == frozenset(
            {
                "http://dbpedia.org/resource/Yemen",
                "http://dbpedia.org/resource/United_Arab_Emirates",
            }
        )

    def test_missing_provenance_is_an_error(self, policy):
        graph = TripleSet([Triple(f"{BASE}Meet_x", f"{BASE}singletonPropertyOf", f"{BASE}Meet")])
        with pytest.raises(InterlinkError):
            build_event_index(graph, policy)

    def test_every_value_of_a_clash_is_named_in_any_order(self, policy):
        statement = f"{BASE}Meet_x"
        provenance = [
            Triple(statement, f"{BASE}singletonPropertyOf", f"{BASE}Meet"),
            Triple(statement, f"{BASE}extractedOn", Literal("2016-03-01", XSD_DATE)),
        ]
        sources = [Triple(statement, f"{BASE}hasSource", f"{BASE}source/{p}") for p in "abc"]
        for order in itertools.permutations(sources):
            with pytest.raises(InterlinkError) as err:
                build_event_index(TripleSet(provenance + list(order)), policy)
            assert str(err.value) == f"statement {statement} has 3 publishers: a, b, c"


class TestSameEvents:
    def test_requires_all_four_conditions(self):
        people = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=people, publisher="alpha")
        same = entry("http://x/b", participants=people, publisher="beta", hours=24)
        same_pub = entry("http://x/c", participants=people, publisher="alpha", hours=24)
        other_class = entry(
            "http://x/d", class_iri="http://x/Murder", participants=people, publisher="beta"
        )
        low_overlap = entry(
            "http://x/e",
            participants=frozenset({"http://x/p", "http://x/q", "http://x/r"}),
            publisher="beta",
            hours=24,
        )
        late = entry("http://x/f", participants=people, publisher="beta", hours=49)
        # Each decoy breaks exactly one condition against `a`.
        assert find_same_events([a, same]) == [("http://x/a", "http://x/b")]
        assert find_same_events([a, same_pub]) == []
        assert find_same_events([a, other_class]) == []
        assert find_same_events([a, low_overlap]) == []
        assert find_same_events([a, late]) == []

    def test_window_boundary_is_inclusive(self):
        people = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=people, publisher="alpha")
        b = entry("http://x/b", participants=people, publisher="beta", hours=48)
        assert find_same_events([a, b]) == [("http://x/a", "http://x/b")]
        c = entry("http://x/c", participants=people, publisher="beta", hours=48.5)
        assert find_same_events([a, c]) == []

    def test_pair_reported_once_and_sorted(self):
        people = frozenset({"http://x/p"})
        b = entry("http://x/b", participants=people, publisher="beta")
        a = entry("http://x/a", participants=people, publisher="alpha", hours=1)
        assert find_same_events([b, a]) == [("http://x/a", "http://x/b")]


class TestRelatedEvents:
    def test_directed_earlier_to_later(self):
        shared = frozenset({"http://x/p"})
        early = entry("http://x/later-name", participants=shared, hours=0)
        late = entry("http://x/earlier-name", participants=shared, hours=24)
        assert find_related_events([late, early]) == [
            ("http://x/later-name", "http://x/earlier-name")
        ]

    def test_simultaneous_events_not_related(self):
        shared = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=shared)
        b = entry("http://x/b", participants=shared, publisher="beta")
        assert find_related_events([a, b]) == []

    # Letter, participants and day of each entry.  Candidates from the first
    # entry at an entry's time on are simultaneous with it, whether or not
    # that first entry shared a participant with anything earlier.
    @pytest.mark.parametrize(
        "rows",
        [
            [("a", "p", 0), ("b", "p", 0), ("c", "p", 1)],
            [("a", "p", 0), ("b", "q", 1), ("c", "pq", 1), ("d", "q", 2)],
            [("a", "p", 0), ("b", "q", 7), ("c", "pq", 7), ("d", "p", 7), ("e", "q", 8)],
        ],
        ids=["tie at position 0", "tie led by an entry that yields nothing", "tie at the horizon"],
    )
    def test_simultaneous_entries_equal_brute_force(self, rows):
        entries = [
            entry(f"http://x/{name}", participants=frozenset(people), hours=24 * day)
            for name, people, day in rows
        ]
        assert find_related_events(entries) == brute_related(entries)

    def test_excluded_pairs_skipped(self):
        shared = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=shared)
        b = entry("http://x/b", participants=shared, hours=24)
        assert find_related_events([a, b]) == [("http://x/a", "http://x/b")]
        assert find_related_events([a, b], exclude=[("http://x/b", "http://x/a")]) == []

    def test_horizon_boundary_is_inclusive(self):
        shared = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=shared)
        b = entry("http://x/b", participants=shared, hours=7 * 24)
        c = entry("http://x/c", participants=shared, hours=7 * 24 + 1)
        assert find_related_events([a, b, c]) == [
            ("http://x/a", "http://x/b"),
            ("http://x/b", "http://x/c"),
        ]

    def test_empty_participants_never_link(self):
        bare = [entry(f"http://x/{i}", hours=i, publisher=p) for i, p in enumerate("abcd")]
        assert find_same_events(bare) == []
        assert find_related_events(bare) == []


class TestWindowedEqualsBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_corpora(self, seed):
        rng = random.Random(seed)
        entries = random_entries(rng, rng.randint(0, 60))
        same = find_same_events(entries)
        assert same == brute_same(entries)
        assert find_related_events(entries, exclude=same) == brute_related(
            entries, exclude=same
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_links_are_distinct_triples_one_per_pair(self, monkeypatch, seed):
        # interlink_graph returns its links as a list, with no set to drop a
        # duplicate: they must be distinct as built.
        rng = random.Random(seed)
        entries = random_entries(rng, rng.randint(0, 60))
        monkeypatch.setattr(interlink, "build_event_index", lambda graph, policy: entries)
        links, same, related = interlink_graph(TripleSet(), IriPolicy())
        assert all(type(link) is Triple for link in links)
        assert len(set(links)) == len(links) == same + related
        pairs = brute_same(entries)
        expected = [Triple(a, OWL_SAME_AS, b) for a, b in pairs]
        expected += [Triple(a, SKOS_RELATED, b) for a, b in brute_related(entries, exclude=pairs)]
        assert set(links) == set(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_growing_a_corpus_never_drops_links(self, seed):
        # Both link predicates are pairwise, so new events only ever add.
        rng = random.Random(1000 + seed)
        entries = random_entries(rng, 40)
        for cut in range(len(entries)):
            smaller, bigger = entries[:cut], entries[: cut + 1]
            assert set(find_same_events(smaller)) <= set(find_same_events(bigger))
            small_same = find_same_events(smaller)
            big_same = find_same_events(bigger)
            small_related = set(find_related_events(smaller, exclude=small_same))
            big_related = set(find_related_events(bigger, exclude=big_same))
            assert small_related <= big_related


WINDOWS_HOURS = (0.0, 24.0, 1e4)
JACCARD_MINS = (1e-9, 0.5, 1.0)
HORIZONS_DAYS = (0.0, 1.0, 1e6)


class TestParametersEqualBruteForce:
    @pytest.mark.parametrize("jaccard_min", JACCARD_MINS)
    @pytest.mark.parametrize("window_hours", WINDOWS_HOURS)
    def test_same_events(self, window_hours, jaccard_min):
        rng = random.Random(f"same-{window_hours}-{jaccard_min}")
        for _ in range(8):
            entries = random_entries(rng, rng.randint(0, 60))
            assert find_same_events(
                entries, window_hours=window_hours, jaccard_min=jaccard_min
            ) == brute_same(entries, window_hours=window_hours, jaccard_min=jaccard_min)

    @pytest.mark.parametrize("horizon_days", HORIZONS_DAYS)
    def test_related_events(self, horizon_days):
        rng = random.Random(f"related-{horizon_days}")
        for _ in range(8):
            entries = random_entries(rng, rng.randint(0, 60))
            same = find_same_events(entries)
            assert find_related_events(
                entries, horizon_days=horizon_days, exclude=same
            ) == brute_related(entries, horizon_days=horizon_days, exclude=same)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2),  # class
                st.frozensets(st.integers(0, 5), max_size=4),  # participants
                st.integers(0, 24 * 4),  # hours after the first day
                st.integers(0, 2),  # publisher
            ),
            max_size=25,
        ),
        window_hours=st.sampled_from(WINDOWS_HOURS),
        jaccard_min=st.sampled_from(JACCARD_MINS),
        horizon_days=st.sampled_from(HORIZONS_DAYS),
    )
    def test_property(self, rows, window_hours, jaccard_min, horizon_days):
        entries = [
            entry(
                f"http://x/E{i}",
                class_iri=f"http://x/C{cls}",
                participants=frozenset(f"http://x/e{k}" for k in people),
                hours=hours,
                publisher=f"p{publisher}",
            )
            for i, (cls, people, hours, publisher) in enumerate(rows)
        ]
        same = find_same_events(entries, window_hours=window_hours, jaccard_min=jaccard_min)
        assert same == brute_same(entries, window_hours=window_hours, jaccard_min=jaccard_min)
        related = find_related_events(entries, horizon_days=horizon_days, exclude=same)
        assert related == brute_related(entries, horizon_days=horizon_days, exclude=same)

    def test_bounds_are_exact_to_the_microsecond(self):
        people = frozenset({"http://x/p"})
        a = entry("http://x/a", participants=people, publisher="alpha")
        day, tick = timedelta(days=1), timedelta(microseconds=1)
        b = a._replace(instance_iri="http://x/b", publisher="beta", timestamp=a.timestamp + day)
        c = b._replace(instance_iri="http://x/c", publisher="gamma", timestamp=b.timestamp + tick)
        assert find_same_events([a, b, c], window_hours=24) == [
            ("http://x/a", "http://x/b"),
            ("http://x/b", "http://x/c"),
        ]
        assert find_related_events([a, b, c], horizon_days=1) == [
            ("http://x/a", "http://x/b"),
            ("http://x/b", "http://x/c"),
        ]

    @pytest.mark.parametrize("simultaneous", [False, True], ids=["spread", "one-moment"])
    @pytest.mark.parametrize("reach", [-1.0, -1e-9, 0.0, 1e6])
    def test_reach_edges(self, reach, simultaneous):
        # Entries in reach sit from a moving lower bound on; a negative reach
        # must leave it at the entry itself, so nothing pairs.
        rng = random.Random(f"edges-{reach}-{simultaneous}")
        for _ in range(8):
            entries = random_entries(rng, rng.randint(0, 60))
            if simultaneous:
                entries = [e._replace(timestamp=entries[0].timestamp) for e in entries]
            same = find_same_events(entries, window_hours=reach, jaccard_min=1e-9)
            assert same == brute_same(entries, window_hours=reach, jaccard_min=1e-9)
            related = find_related_events(entries, horizon_days=reach, exclude=same)
            assert related == brute_related(entries, horizon_days=reach, exclude=same)
            if reach < 0:
                assert same == related == []

    # Prefixes of each other, a capital, a non-ASCII and an astral letter:
    # pairs sort by the codepoints of their IRIs, not by a rank or a time.
    RANK_POOL = (
        "http://x/a",
        "http://x/a/b",
        "http://x/ab",
        "http://x/A",
        "http://x/\u00e9",
        "http://x/\U0001d49c",
    )
    OUTSIDE = ("http://x/", "http://x/a/c")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, len(RANK_POOL) - 1),  # IRI: the pool repeats
                st.integers(0, 1),  # class
                st.frozensets(st.integers(0, 3), max_size=3),  # participants
                st.integers(0, 72),  # hours after the first day
                st.integers(0, 2),  # publisher
            ),
            max_size=12,
        ),
        exclude=st.lists(st.tuples(*[st.sampled_from(RANK_POOL + OUTSIDE)] * 2), max_size=6),
    )
    def test_pair_order_and_multiplicity_under_ranks(self, rows, exclude):
        entries = [
            entry(
                self.RANK_POOL[iri],
                class_iri=f"http://x/C{cls}",
                participants=frozenset(f"http://x/e{k}" for k in people),
                hours=hours,
                publisher=f"p{publisher}",
            )
            for iri, cls, people, hours, publisher in rows
        ]
        same = find_same_events(entries, window_hours=24)
        assert same == brute_same(entries, window_hours=24)
        for pairs in (exclude, same):
            related = find_related_events(entries, horizon_days=2, exclude=pairs)
            assert related == brute_related(entries, horizon_days=2, exclude=pairs)

    @pytest.mark.parametrize("jaccard_min", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, jaccard_min):
        people = frozenset({"http://x/p"})
        entries = [entry("http://x/a", participants=people), entry("http://x/b", publisher="beta")]
        with pytest.raises(ValueError):
            find_same_events(entries, jaccard_min=jaccard_min)


class TestEndToEnd:
    def test_duplicates_fixture(self, fixtures_dir, lexicon, catalog, policy):
        records, failures = read_records(fixtures_dir / "duplicates.tsv")
        assert not failures
        result = extract_corpus(records, lexicon, catalog, policy)
        assert not result.skipped
        links, same_count, related_count = interlink_graph(result.graph, policy)
        assert (same_count, related_count) == (1, 2)
        assert Triple(f"{BASE}Meet_d1", OWL_SAME_AS, f"{BASE}Meet_d2") in links
        assert Triple(f"{BASE}Meet_d1", SKOS_RELATED, f"{BASE}Communication_d3") in links
        assert Triple(f"{BASE}Meet_d2", SKOS_RELATED, f"{BASE}Communication_d3") in links
        assert len(links) == 3

    def test_nine_corpus_produces_no_links(self, nine_result, policy):
        # Shared participants exist (no5/no8 share the Pope) but same-day
        # publication blocks "related" and participant overlap stays below
        # the same-event threshold.
        links, same_count, related_count = interlink_graph(nine_result.graph, policy)
        assert (same_count, related_count) == (0, 0)
        assert len(links) == 0


FOREIGN_PREDICATES = (RDF_TYPE, OWL_SAME_AS, "http://x/knows")


class TestPublishedGraphIsAFixedPoint:
    """The published graph is the events plus their links; interlinking it
    gives those same links, so a link never makes the statement it points
    to a participant.  Nor does any other predicate that is no role:
    foreign triples on the statements leave the links as they were."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2),  # class
                st.frozensets(st.integers(0, 5), max_size=4),  # participants
                st.integers(0, 9),  # days after the first
                st.integers(0, 2),  # publisher
                st.booleans(),  # the first two participants form a main triple
                st.lists(  # foreign triples: (predicate, entity)
                    st.tuples(st.sampled_from(FOREIGN_PREDICATES), st.integers(0, 5)), max_size=2
                ),
            ),
            max_size=25,
        ),
        window_hours=st.sampled_from(WINDOWS_HOURS),
        jaccard_min=st.sampled_from(JACCARD_MINS),
        horizon_days=st.sampled_from(HORIZONS_DAYS),
    )
    def test_interlinking_the_graph_and_its_links_gives_the_links(
        self, rows, window_hours, jaccard_min, horizon_days
    ):
        triples, foreign = [], []
        for i, (cls, people, day, publisher, main, others) in enumerate(rows):
            statement = f"{BASE}C{cls}_{i}"
            triples += [
                Triple(statement, f"{BASE}singletonPropertyOf", f"{BASE}C{cls}"),
                Triple(statement, f"{BASE}hasSource", f"{BASE}source/p{publisher}"),
                Triple(statement, f"{BASE}extractedOn", Literal(f"2016-03-{day + 1:02d}", XSD_DATE)),
            ]
            people = [f"{BASE}entity/e{k}" for k in sorted(people)]
            if main and len(people) >= 2:
                triples.append(Triple(people.pop(0), statement, people.pop(0)))
            triples += [Triple(statement, f"{BASE}participant", person) for person in people]
            foreign += [Triple(statement, p, f"{BASE}entity/e{k}") for p, k in others]
        graph = TripleSet(triples)
        options = dict(window_hours=window_hours, jaccard_min=jaccard_min, horizon_days=horizon_days)
        links, same, related = interlink_graph(graph, IriPolicy(), **options)
        graph.update(links)
        graph.update(foreign)
        again, same_again, related_again = interlink_graph(graph, IriPolicy(), **options)
        assert (same_again, related_again) == (same, related)
        assert serialize_ntriples(again) == serialize_ntriples(links)


class TestLayersCalledThroughModuleGlobals:
    """Tracing wraps the module globals ``cli.parse_ntriples``,
    ``cli.serialize_ntriples`` (``rdf.serialize_links_s`` when ``interlink``
    calls it), ``interlink.build_event_index``, ``find_same_events``,
    ``find_related_events`` and ``jaccard``; a layer reached another way
    would be timed and counted as zero."""

    def graph_text(self, seed: int) -> str:
        rng = random.Random(seed)
        lines = []
        for k in range(40):
            statement = f"<{BASE}Meet_{k}>"
            event_class, publisher = rng.choice(["Meet", "Murder"]), rng.choice("abc")
            day = f"2016-03-{rng.randint(1, 9):02d}"
            lines += [
                f"{statement} <{BASE}singletonPropertyOf> <{BASE}{event_class}> .",
                f"{statement} <{BASE}hasSource> <{BASE}source/{publisher}> .",
                f'{statement} <{BASE}extractedOn> "{day}"^^<{XSD_DATE}> .',
            ]
            for participant in rng.sample(range(6), rng.randint(1, 3)):
                lines.append(f"{statement} <{BASE}participant> <{BASE}entity/e{participant}> .")
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("seed", range(3))
    def test_interlink_reaches_each_layer_through_its_global(
        self, monkeypatch, tmp_path, capsys, seed
    ):
        calls: Counter[str] = Counter()
        indexes = []

        def wrap(module, name, after=None):
            function = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = function(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

            monkeypatch.setattr(module, name, counted)

        wrap(cli, "parse_ntriples")
        wrap(cli, "serialize_ntriples")
        wrap(interlink, "build_event_index", indexes.append)
        for name in ("find_same_events", "find_related_events", "jaccard"):
            wrap(interlink, name)
        graph = tmp_path / "events.nt"
        graph.write_text(self.graph_text(seed), encoding="utf-8")
        code = cli.main(["interlink", str(graph), "--out", str(tmp_path / "links.nt")])
        assert code == 0, capsys.readouterr().err

        (entries,) = indexes
        same = brute_same(entries)
        related = brute_related(entries, exclude=same)
        assert capsys.readouterr().out == f"sameas={len(same)} related={len(related)}\n"
        # One comparison per pair in the window that shares a participant
        # and passed the class and publisher checks.
        compared = sum(
            1
            for a, b in itertools.combinations(entries, 2)
            if a.class_iri == b.class_iri
            and a.publisher != b.publisher
            and a.participants & b.participants
            and abs(a.timestamp - b.timestamp) <= timedelta(hours=48)
        )
        assert compared > len(same) > 0
        assert calls == {
            "parse_ntriples": 1,
            "serialize_ntriples": 1,
            "build_event_index": 1,
            "find_same_events": 1,
            "find_related_events": 1,
            "jaccard": compared,
        }


def expected_links(entries, window_hours=48.0, jaccard_min=0.5, horizon_days=7.0):
    """The links, same count and related count that the brute-force oracles give."""
    same = brute_same(entries, window_hours=window_hours, jaccard_min=jaccard_min)
    related = brute_related(entries, horizon_days=horizon_days, exclude=same)
    links = [Triple(a, OWL_SAME_AS, b) for a, b in same]
    links += [Triple(a, SKOS_RELATED, b) for a, b in related]
    return links, len(same), len(related)


# Window hours and horizon days: the grid of the parameter tests, a window
# longer than the horizon, and negative reaches on either side or both.
REACHES = list(itertools.product(WINDOWS_HOURS, HORIZONS_DAYS)) + [
    (200.0, 1.0),
    (-1.0, 7.0),
    (48.0, -1.0),
    (-1e-9, -1.0),
]


class TestOnePreparedIndex:
    """``interlink_graph`` sorts, ranks and walks the postings once, at the
    longer of the window and the horizon, and each pass narrows that walk to
    its own reach; a pass handed anything else prepares its own index."""

    graph_text = TestLayersCalledThroughModuleGlobals.graph_text

    @staticmethod
    def count_walks(monkeypatch) -> Counter[str]:
        walks: Counter[str] = Counter()
        walk = interlink._sharing_pairs

        def counted(*args):
            walks["walk"] += 1
            return walk(*args)

        monkeypatch.setattr(interlink, "_sharing_pairs", counted)
        return walks

    @pytest.mark.parametrize("window_hours, horizon_days", REACHES)
    def test_interlink_graph_equals_brute_force(self, monkeypatch, window_hours, horizon_days):
        rng = random.Random(f"graph-{window_hours}-{horizon_days}")
        walks = self.count_walks(monkeypatch)
        for k in range(8):
            entries = random_entries(rng, rng.randint(0, 60))
            if k % 4 == 3:  # one moment: every pair is simultaneous
                entries = [e._replace(timestamp=entries[0].timestamp) for e in entries]
            options = dict(
                window_hours=window_hours,
                jaccard_min=JACCARD_MINS[k % len(JACCARD_MINS)],
                horizon_days=horizon_days,
            )
            monkeypatch.setattr(interlink, "build_event_index", lambda graph, policy: entries)
            walks.clear()
            got = interlink_graph(TripleSet(), IriPolicy(), **options)
            assert got == expected_links(entries, **options)
            assert walks["walk"] == 1

    def test_bounds_are_exact_to_the_microsecond(self, monkeypatch):
        people = frozenset({"http://x/p"})
        tick = timedelta(microseconds=1)
        a, b, d = (
            entry(f"http://x/{name}", participants=people, publisher=name, hours=hours)
            for name, hours in (("a", 0), ("b", 24), ("d", 48))
        )
        c = b._replace(instance_iri="http://x/c", publisher="c", timestamp=b.timestamp + tick)
        e = d._replace(instance_iri="http://x/e", publisher="e", timestamp=d.timestamp + tick)
        entries = [e, d, c, b, a]
        monkeypatch.setattr(interlink, "build_event_index", lambda graph, policy: entries)
        options = dict(window_hours=24, horizon_days=2)
        links, same, related = interlink_graph(TripleSet(), IriPolicy(), **options)
        assert (links, same, related) == expected_links(entries, **options)
        assert Triple("http://x/a", OWL_SAME_AS, "http://x/b") in links  # 24 h
        assert Triple("http://x/a", SKOS_RELATED, "http://x/c") in links  # 24 h and 1 us
        assert Triple("http://x/a", SKOS_RELATED, "http://x/d") in links  # 2 days
        assert [link for link in links if link[::2] == ("http://x/a", "http://x/e")] == []

    @pytest.mark.parametrize("seed", range(3))
    def test_cli_with_a_window_longer_than_the_horizon(
        self, monkeypatch, tmp_path, capsys, seed
    ):
        indexes = []
        build = interlink.build_event_index

        def recorded(graph, policy):
            indexes.append(build(graph, policy))
            return indexes[-1]

        monkeypatch.setattr(interlink, "build_event_index", recorded)
        walks = self.count_walks(monkeypatch)
        graph, out = tmp_path / "events.nt", tmp_path / "links.nt"
        graph.write_text(self.graph_text(seed), encoding="utf-8")
        options = ["--same-window-hours", "200", "--related-horizon-days", "1"]
        code = cli.main(["interlink", str(graph), "--out", str(out), *options])
        assert code == 0, capsys.readouterr().err

        (entries,) = indexes
        links, same, related = expected_links(entries, window_hours=200, horizon_days=1)
        assert capsys.readouterr().out == f"sameas={same} related={related}\n"
        assert out.read_text(encoding="utf-8") == serialize_ntriples(links)
        assert walks["walk"] == 1
        # Some same pair lies beyond the horizon: only the longer walk finds it.
        times = {e.instance_iri: e.timestamp for e in entries}
        assert any(
            abs(times[link.object] - times[link.subject]) > timedelta(days=1)
            for link in links
            if link.predicate == OWL_SAME_AS
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_a_pass_on_an_index_walked_too_short_walks_again(self, monkeypatch, seed):
        rng = random.Random(f"short-{seed}")
        entries = random_entries(rng, rng.randint(0, 60))
        walks = self.count_walks(monkeypatch)
        for reach in (-1, 0, 3600 * 10**6):  # microseconds: all shorter than the passes'
            index = interlink._Prepared(entries, reach)
            walks.clear()
            same = find_same_events(index, window_hours=1e4, jaccard_min=1e-9)
            assert same == brute_same(entries, window_hours=1e4, jaccard_min=1e-9)
            related = find_related_events(index, horizon_days=1e6, exclude=same)
            assert related == brute_related(entries, horizon_days=1e6, exclude=same)
            assert walks["walk"] == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_a_pass_reads_the_index_as_its_entries_in_any_order(self, monkeypatch, seed):
        rng = random.Random(f"reversed-{seed}")
        entries = random_entries(rng, rng.randint(0, 60))
        index = interlink._Prepared(entries, timedelta(days=7) // timedelta(microseconds=1))
        walks = self.count_walks(monkeypatch)
        same = find_same_events(index, window_hours=24)
        related = find_related_events(index, horizon_days=2, exclude=same)
        assert walks["walk"] == 0  # both passes read the index's own walk
        backwards = index[::-1]
        assert type(backwards) is list
        assert same == find_same_events(backwards, window_hours=24) == brute_same(
            entries, window_hours=24
        )
        assert related == find_related_events(backwards, horizon_days=2, exclude=same)
        assert related == brute_related(entries, horizon_days=2, exclude=same)


# The event index as it was when it read the graph twice, through an
# if/elif chain on each triple's predicate; kept as the oracle for the index
# that reads the graph once into groups by predicate.


def old_midnight(day: Literal) -> datetime | str:
    if day.datatype not in (None, XSD_DATE) or day.language is not None:
        return _term(day)
    try:
        parsed = parse_date(day.lexical)
    except ValueError:
        return day.lexical
    return datetime(parsed.year, parsed.month, parsed.day, tzinfo=timezone.utc)


def old_build_event_index(graph: TripleSet, policy: IriPolicy) -> list[EventIndexEntry]:
    sp_of = policy.term_iri(SINGLETON_PROPERTY_OF)
    has_source = policy.term_iri(HAS_SOURCE)
    extracted_on = policy.term_iri(EXTRACTED_ON)
    body = policy.term_iri(BODY)

    # (statement, what) -> every value given, once a second one turns up.
    clashes: dict[tuple[str, str], set] = {}
    classes: dict[str, str] = {}
    text_nodes: set[str] = set()
    for subject, predicate, obj in graph:
        if predicate == sp_of and isinstance(obj, str):
            if classes.setdefault(subject, obj) != obj:
                clashes.setdefault((subject, "classes"), {classes[subject]}).add(obj)
        elif predicate == body:
            text_nodes.add(subject)
    if not classes and len(graph):
        raise InterlinkError(
            f"graph holds {len(graph):,} triples but no statement under base {policy.base_iri}"
        )

    sources: dict[str, str] = {}
    times: dict[str, datetime] = {}
    # extractedOn literal -> its midnight (or its error text), read once per call
    midnights: dict[Literal, datetime | str] = {}
    bad_days: list[tuple[str, str]] = []
    participants: dict[str, set[str]] = {iri: set() for iri in classes}
    roles = {policy.role_property_iri(r) for frame in FRAMES.values() for r in frame.role_names}

    source_prefix = f"{policy.base_iri}source/"
    for subject, predicate, obj in graph:
        if subject in classes:
            if predicate == has_source and isinstance(obj, str):
                publisher = (
                    obj[len(source_prefix) :] if obj.startswith(source_prefix) else local_name(obj)
                )
                if sources.setdefault(subject, publisher) != publisher:
                    clashes.setdefault((subject, "publishers"), {sources[subject]}).add(publisher)
            elif predicate == extracted_on and isinstance(obj, Literal):
                if obj not in midnights:
                    midnights[obj] = old_midnight(obj)
                at = midnights[obj]
                if at.__class__ is str:
                    bad_days.append((subject, at))
                elif times.setdefault(subject, at) != at:
                    days = clashes.setdefault((subject, "extraction days"), {times[subject].date()})
                    days.add(at.date())
            elif predicate in roles and isinstance(obj, str) and obj not in text_nodes:
                participants[subject].add(obj)
        if predicate in classes:
            bucket = participants[predicate]
            if subject not in text_nodes:
                bucket.add(subject)
            if isinstance(obj, str) and obj not in text_nodes:
                bucket.add(obj)

    if bad_days:
        statement, shown = min(bad_days)
        raise InterlinkError(
            f"statement {statement}: extraction date must be an ISO date, got {shown!r}"
        )
    if clashes:
        (statement, what), values = min(clashes.items())
        shown = ", ".join(str(value) for value in sorted(values))
        raise InterlinkError(f"statement {statement} has {len(values)} {what}: {shown}")
    entries = []
    lacking = []
    for iri, class_iri in classes.items():
        publisher = sources.get(iri)
        at = times.get(iri)
        if publisher is None or at is None:
            lacking.append(iri)
        else:
            entry = EventIndexEntry(iri, class_iri, frozenset(participants[iri]), at, publisher)
            entries.append(entry)
    if lacking:
        raise InterlinkError(f"statement {min(lacking)} lacks source or extraction date")
    entries.sort(key=interlink._time_order)
    return entries


CUSTOM_BASE = "http://other.example/kb#"
ROLE_NAMES = sorted({r for frame in FRAMES.values() for r in frame.role_names})
DAYS = [
    Literal("2016-03-01", XSD_DATE),
    Literal("2016-03-02", XSD_DATE),
    Literal("2016-03-01"),  # plain: the same day as the first
    Literal("2016-02-30", XSD_DATE),  # no such day
    Literal("2016-03-01T10:00", XSD_DATE),  # not a date alone
    Literal("soon"),
    Literal("2016-03-01", XSD_INTEGER),  # another datatype
    Literal("2016-03-01", language="en"),
    "http://x/day",  # no literal at all: not a day
]


def index_outcome(build, graph: TripleSet, policy: IriPolicy):
    try:
        return [tuple(e) for e in build(graph, policy)]
    except InterlinkError as exc:
        return ("error", str(exc))


@st.composite
def index_graphs(draw):
    """A graph drawn around a few statements under the default or a custom
    base: each with no, one or two classes, publishers and days (bad ones
    too), role objects among entities, text nodes and other statements, a
    main triple whose ends may be text nodes or a literal, and foreign or
    misplaced triples on any of those; and publishers of no statement."""
    policy = IriPolicy(draw(st.sampled_from([BASE, CUSTOM_BASE])))
    # A graph under one base read under the other holds no statement.
    under = IriPolicy(BASE) if draw(st.integers(0, 9)) == 0 else policy
    term = under.term_iri
    statements = [f"{under.base_iri}Meet_{i}" for i in range(4)]
    entities = [under.entity_iri(f"e{k}") for k in range(4)]
    text_nodes = [f"{under.base_iri}Meet_0_message", f"{under.base_iri}Meet_1_cause"]
    objects = entities + text_nodes + statements
    classes = [term("Meet"), term("Attack")]
    publishers = [under.source_iri("alpha"), under.source_iri("beta"), "http://press.example/feeds/alpha"]
    roles = [under.role_property_iri(r) for r in ROLE_NAMES]
    triples = []
    for statement in statements[: draw(st.integers(1, len(statements)))]:
        # Most statements carry one class, publisher and good day each; the
        # others none, one or two of each, and days of every kind.
        count, days = (st.integers(0, 2), DAYS[:3] + DAYS) if draw(st.integers(0, 2)) == 0 else (st.just(1), DAYS[:3])
        for name, values in ((SINGLETON_PROPERTY_OF, classes), (HAS_SOURCE, publishers), (EXTRACTED_ON, days)):
            for value in draw(st.lists(st.sampled_from(values), min_size=2, max_size=2))[: draw(count)]:
                triples.append(Triple(statement, term(name), value))
        for role, obj in draw(st.lists(st.tuples(st.sampled_from(roles), st.sampled_from(objects)), max_size=3)):
            triples.append(Triple(statement, role, obj))
        ends = st.sampled_from(entities + text_nodes), st.sampled_from(entities + text_nodes + [Literal("x")])
        for subject, obj in draw(st.lists(st.tuples(*ends), max_size=2)):
            triples.append(Triple(subject, statement, obj))
    for node in text_nodes:
        if draw(st.booleans()):
            triples.append(Triple(node, term(BODY), Literal("a text")))
    # Provenance, even clashing, on a subject with no class: no statement, no entry.
    for publisher in draw(st.lists(st.sampled_from(publishers), max_size=2)):
        triples.append(Triple(f"{under.base_iri}Meet_none", term(HAS_SOURCE), publisher))
    # Foreign predicates on anything, and vocabulary terms on subjects that are no statements.
    foreign = [RDF_TYPE, OWL_SAME_AS, "http://x/knows", term(BODY), term(SINGLETON_PROPERTY_OF)]
    foreign += [term(HAS_SOURCE), term(EXTRACTED_ON), roles[0]]
    every_object = objects + classes + publishers + DAYS[:3] + [Literal("a text")]
    for subject, predicate, obj in draw(
        st.lists(
            st.tuples(st.sampled_from(objects), st.sampled_from(foreign), st.sampled_from(every_object)),
            max_size=3,
        )
    ):
        triples.append(Triple(subject, predicate, obj))
    return TripleSet(triples), policy


class TestOnePassIndex:
    @settings(max_examples=400, deadline=None)
    @given(index_graphs())
    def test_equals_the_two_pass_index(self, drawn):
        graph, policy = drawn
        assert index_outcome(build_event_index, graph, policy) == index_outcome(
            old_build_event_index, graph, policy
        )

    @pytest.mark.parametrize("base", [BASE, CUSTOM_BASE])
    def test_no_role_property_is_a_vocabulary_term(self, base):
        # Each triple of the graph lands in one group, and each group is read
        # for what its predicate names; a role property that was also one of
        # the four terms the index reads would be read both ways.
        policy = IriPolicy(base)
        roles = {policy.role_property_iri(r) for r in ROLE_NAMES}
        terms = {policy.term_iri(name) for name in (SINGLETON_PROPERTY_OF, BODY, HAS_SOURCE, EXTRACTED_ON)}
        assert len(roles) == len(ROLE_NAMES)
        assert not roles & terms
