"""Cross-source and cross-time links between extracted events.

Two events describe the same happening when they share the event class, come
from different publishers, lie within a configurable time window of each
other, and their participant sets agree by Jaccard similarity.  A weaker,
directed "related" link connects an earlier event to a later one that shares
at least one participant within a horizon, unless the pair is already a
same-event pair.

Both rules need a shared participant (a positive Jaccard threshold implies a
non-empty intersection), so candidates come from participant postings, the
inverted-index candidate generation of Bayardo, Ma and Srikant, "Scaling Up
All Pairs Similarity Search" (WWW 2007): entries are visited once each, in
time order, with the set of earlier entries in reach that already posted one
of its participants.  Comparisons grow with the pairs that share a
participant, not with how many events fall in the window, and the result is
exactly the set of pairs a quadratic scan would produce, each link once.

Both passes work on integers.  Postings hold positions in time order, and
the entries in reach of one start at a bound that only moves forward.  A
pair is the key ``rank_a * n + rank_b`` over the ``n`` distinct IRIs ranked
in codepoint order: the keys sort as the IRI pairs do, and turn back into
pairs once, at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from datetime import datetime, timedelta, timezone
from typing import Iterable, Iterator

from .ingest import parse_date
from .model import FRAMES
from .rdf import OWL_SAME_AS, SKOS_RELATED, Literal, Triple, TripleSet, local_name
from .triplify import BODY, EXTRACTED_ON, HAS_SOURCE, SINGLETON_PROPERTY_OF, IriPolicy


class InterlinkError(ValueError):
    """Raised when the graph holds no statement under the base, or a
    statement lacks or doubles the provenance needed for linking."""


class EventIndexEntry(
    namedtuple("_EventIndexEntryFields", "instance_iri class_iri participants timestamp publisher")
):
    """One statement: IRI, class IRI, participant IRI frozenset, date, publisher."""

    __slots__ = ()


_MICROSECOND = timedelta(microseconds=1)


def _time_order(entry: EventIndexEntry) -> tuple[datetime, str]:
    return entry.timestamp, entry.instance_iri


def _midnight(lexical: str) -> datetime | None:
    """Midnight UTC of an ``extractedOn`` date, so that windows are
    well-defined; None if the form is no ISO date."""
    try:
        day = parse_date(lexical)
    except ValueError:
        return None
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc)


def build_event_index(graph: TripleSet, policy: IriPolicy) -> list[EventIndexEntry]:
    """Collect one entry per statement IRI, sorted by (time, IRI).

    Participants are the IRI-valued arguments of the statement: objects of
    the role properties of ``FRAMES`` plus both ends of its main triple,
    minus text-role nodes (recognized by their body literal).  No other
    predicate names one, so links and foreign triples leave the index as it
    was.  A graph that holds triples but no statement under the policy's
    base is an error naming the base.  So is a statement given two classes,
    publishers or extraction days, one with no publisher or day, or a day
    that is no ISO date; that error names the smallest statement IRI of the
    first of these kinds that occurs: bad day, two values, none.
    """
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
    # extractedOn lexical form -> its midnight, parsed once per call
    midnights: dict[str, datetime | None] = {}
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
                lexical = obj.lexical
                if lexical not in midnights:
                    midnights[lexical] = _midnight(lexical)
                at = midnights[lexical]
                if at is None:
                    bad_days.append((subject, lexical))
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
        statement, lexical = min(bad_days)
        raise InterlinkError(
            f"statement {statement}: extraction date must be an ISO date, got {lexical!r}"
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
    entries.sort(key=_time_order)
    return entries


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def _sharing_pairs(
    ordered: list[EventIndexEntry], reach: timedelta
) -> Iterator[tuple[int, EventIndexEntry, set[int]]]:
    """Yield (position, entry, candidates) for each entry of ``ordered``, sorted by (time, IRI),
    that has candidates: the positions at most ``reach`` earlier that share a participant."""
    if not ordered:
        return
    # Integer microseconds: exact inclusive bounds, and no datetime
    # arithmetic that could leave the representable range for a huge reach.
    origin = ordered[0].timestamp
    reach_us = reach // _MICROSECOND
    times = [(entry.timestamp - origin) // _MICROSECOND for entry in ordered]
    # participant -> ascending positions of the entries visited so far, less those shed behind lo.
    postings: dict[str, list[int]] = {}
    # Times ascend, so the entries in reach of position j are those from lo
    # on; lo only moves forward, and never past j, whatever the reach.
    lo = 0
    for j, later in enumerate(ordered):
        earliest = times[j] - reach_us
        while lo < j and times[lo] < earliest:
            lo += 1
        candidates: set[int] = set()
        for participant in later.participants:
            positions = postings.get(participant)
            if positions is None:  # first seen: no earlier entry to pair with
                postings[participant] = [j]
                continue
            if positions[-1] < lo:  # all out of reach, now and for every later entry
                positions.clear()
            else:
                if positions[0] < lo:
                    del positions[: bisect_left(positions, lo)]
                candidates.update(positions)
            positions.append(j)
        if candidates:
            yield j, later, candidates


def _ranks(ordered: list[EventIndexEntry]) -> tuple[list[str], dict[str, int], list[int]]:
    """The distinct IRIs of ``ordered`` in codepoint order, each one's rank, each position's."""
    iris = [entry.instance_iri for entry in ordered]
    distinct = sorted(dict.fromkeys(iris))  # time order is near IRI order: long runs
    rank_of = dict(zip(distinct, range(len(distinct))))
    return distinct, rank_of, [rank_of[iri] for iri in iris]


def find_same_events(
    entries: Iterable[EventIndexEntry],
    window_hours: float = 48.0,
    jaccard_min: float = 0.5,
) -> list[tuple[str, str]]:
    """Unordered same-event pairs, each returned once as (smaller, larger IRI).

    ``jaccard_min`` must lie in (0, 1]: candidates come from shared
    participants, so a threshold that admits disjoint sets cannot be served.
    """
    if not 0 < jaccard_min <= 1:
        raise ValueError(f"jaccard_min must lie in (0, 1], got {jaccard_min!r}")
    ordered = sorted(entries, key=_time_order)
    iris, _, ranks = _ranks(ordered)
    n = len(iris)
    classes = [entry.class_iri for entry in ordered]
    publishers = [entry.publisher for entry in ordered]
    # (smaller rank) * n + (larger rank): sorting the keys sorts the pairs.
    keys: set[int] = set()
    for j, later, candidates in _sharing_pairs(ordered, timedelta(hours=window_hours)):
        _, class_iri, participants, _, publisher = later
        b = ranks[j]
        for i in candidates:
            if classes[i] != class_iri or publishers[i] == publisher:
                continue
            if jaccard(ordered[i].participants, participants) < jaccard_min:
                continue
            a = ranks[i]
            keys.add(a * n + b if a < b else b * n + a)
    return [(iris[key // n], iris[key % n]) for key in sorted(keys)]


def find_related_events(
    entries: Iterable[EventIndexEntry],
    horizon_days: float = 7.0,
    exclude: Iterable[tuple[str, str]] = (),
) -> list[tuple[str, str]]:
    """Directed (earlier, later) pairs sharing a participant within the horizon.

    Simultaneous events are never related (the direction would be arbitrary),
    and pairs listed in ``exclude`` (same-event links, in any order) are
    skipped.
    """
    excluded = [(a, b) for a, b in exclude]  # unpacked here: a malformed item fails at once
    ordered = sorted(entries, key=_time_order)
    iris, rank_of, ranks = _ranks(ordered)
    n = len(iris)
    # A pair naming an IRI outside the entries cannot turn up: it is dropped.
    known = [(rank_of[a], rank_of[b]) for a, b in excluded if a in rank_of and b in rank_of]
    skip = {x * n + y for a, b in known for x, y in ((a, b), (b, a))}
    # (earlier rank) * n + (later rank): sorting the keys sorts the pairs.
    keys: list[int] = []
    # Equal times sit together: candidates from ``first`` on are simultaneous.
    moment, first = None, 0
    for j, later, candidates in _sharing_pairs(ordered, timedelta(days=horizon_days)):
        if later.timestamp != moment:
            moment, first = later.timestamp, j
            while first and ordered[first - 1].timestamp == moment:
                first -= 1
        b = ranks[j]
        for i in candidates:
            if i < first:
                key = ranks[i] * n + b
                if key not in skip:
                    keys.append(key)
    keys.sort()
    return [(iris[key // n], iris[key % n]) for key in keys]


def interlink_graph(
    graph: TripleSet,
    policy: IriPolicy,
    window_hours: float = 48.0,
    jaccard_min: float = 0.5,
    horizon_days: float = 7.0,
) -> tuple[list[Triple], int, int]:
    """Run both passes over a graph; returns (list of links, same count, related count)."""
    entries = build_event_index(graph, policy)
    same = find_same_events(entries, window_hours=window_hours, jaccard_min=jaccard_min)
    related = find_related_events(entries, horizon_days=horizon_days, exclude=same)
    # Every IRI here is a statement IRI of the input graph, checked on its
    # way in, so the link triples are built unchecked, as ``_triple`` does;
    # no pair repeats and no related pair is a same pair, so they are distinct.
    new = tuple.__new__
    links = [new(Triple, (a, OWL_SAME_AS, b)) for a, b in same]
    links += [new(Triple, (earlier, SKOS_RELATED, later)) for earlier, later in related]
    return links, len(same), len(related)
