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
from headex.ingest import read_records
from headex.interlink import (
    EventIndexEntry,
    InterlinkError,
    build_event_index,
    find_related_events,
    find_same_events,
    interlink_graph,
    jaccard,
)
from headex.pipeline import extract_corpus
from headex.rdf import (
    OWL_SAME_AS,
    RDF_TYPE,
    SKOS_RELATED,
    XSD_DATE,
    Literal,
    Triple,
    TripleSet,
    serialize_ntriples,
)
from headex.triplify import IriPolicy

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
