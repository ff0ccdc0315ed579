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

Both passes read one prepared index: the entries sorted once by (time, IRI),
their IRIs ranked in codepoint order, their times in microseconds and one
postings walk at the longer reach, which each pass narrows to its own.  The
entries in reach start at a bound that only moves forward.  A pair is the
key ``rank_a * n + rank_b``: the keys sort as the IRI pairs do.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, namedtuple
from datetime import datetime, time, timedelta, timezone
from operator import attrgetter
from typing import Iterable, Iterator

from .ingest import parse_date
from .model import FRAMES
from .rdf import OWL_SAME_AS, SKOS_RELATED, XSD_DATE, Literal, Triple, TripleSet, _term, local_name
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
_UTC_MIDNIGHT = time(tzinfo=timezone.utc)
_time_order = attrgetter("timestamp", "instance_iri")


def _midnight(day: Literal) -> datetime | str:
    """Midnight UTC of an ``extractedOn`` day, so that windows are well-defined; for no ISO
    date, what its error shows: a plain or ``xsd:date`` literal's lexical form, else as written."""
    lexical, datatype, language = day
    if datatype not in (None, XSD_DATE) or language is not None:
        return _term(day)
    try:
        return datetime.combine(parse_date(lexical), _UTC_MIDNIGHT)
    except ValueError:
        return lexical


def build_event_index(graph: TripleSet, policy: IriPolicy) -> list[EventIndexEntry]:
    """Collect one entry per statement IRI, sorted by (time, IRI).

    Participants are the IRI-valued arguments of the statement: objects of
    the role properties of ``FRAMES`` plus both ends of its main triple,
    minus text-role nodes (recognized by their body literal).  No other
    predicate names one, so links and foreign triples leave the index as it
    was.  A graph that holds triples but no statement under the policy's
    base is an error naming the base.  So is a statement given two classes,
    publishers or extraction days, one with no publisher or day, or a day
    not a plain or ``xsd:date`` literal of an ISO date; the error names the
    smallest statement IRI of the first kind found: bad day, two values, none.

    The graph is read once, its triples grouped by predicate; then only the groups of the
    class, body and provenance terms, the role properties and each statement IRI are read.
    """
    # predicate -> its triples, in graph order
    groups: defaultdict[str, list[Triple]] = defaultdict(list)
    for triple in graph:
        groups[triple[1]].append(triple)
    vocabulary = (SINGLETON_PROPERTY_OF, BODY, HAS_SOURCE, EXTRACTED_ON)
    sp_of, body, has_source, extracted_on = (groups.get(policy.term_iri(name), ()) for name in vocabulary)

    # (statement, what) -> every value given, once a second one turns up.
    clashes: dict[tuple[str, str], set] = {}
    classes: dict[str, str] = {}
    for subject, _, obj in sp_of:
        if isinstance(obj, str) and classes.setdefault(subject, obj) != obj:
            clashes.setdefault((subject, "classes"), {classes[subject]}).add(obj)
    if not classes and len(graph):
        raise InterlinkError(
            f"graph holds {len(graph):,} triples but no statement under base {policy.base_iri}"
        )
    text_nodes = {subject for subject, _, _ in body}

    sources: dict[str, str] = {}
    source_prefix = f"{policy.base_iri}source/"
    for subject, _, obj in has_source:
        if subject in classes and isinstance(obj, str):
            publisher = obj[len(source_prefix) :] if obj.startswith(source_prefix) else local_name(obj)
            if sources.setdefault(subject, publisher) != publisher:
                clashes.setdefault((subject, "publishers"), {sources[subject]}).add(publisher)
    times: dict[str, datetime] = {}
    # extractedOn literal -> its midnight (or its error text), read once per call
    midnights: dict[Literal, datetime | str] = {}
    bad_days: list[tuple[str, str]] = []
    for subject, _, obj in extracted_on:
        if subject in classes and isinstance(obj, Literal):
            at = midnights.get(obj) or midnights.setdefault(obj, _midnight(obj))
            if at.__class__ is str:
                bad_days.append((subject, at))
            elif times.setdefault(subject, at) != at:
                days = clashes.setdefault((subject, "extraction days"), {times[subject].date()})
                days.add(at.date())

    participants: dict[str, set[str]] = {iri: set() for iri in classes}
    roles = {policy.role_property_iri(r) for frame in FRAMES.values() for r in frame.role_names}
    for role in roles:
        for subject, _, obj in groups.get(role, ()):
            if subject in classes and isinstance(obj, str) and obj not in text_nodes:
                participants[subject].add(obj)
    for iri, bucket in participants.items():
        for subject, _, obj in groups.get(iri, ()):
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
    lacking = [iri for iri in classes if iri not in sources or iri not in times]
    if lacking:
        raise InterlinkError(f"statement {min(lacking)} lacks source or extraction date")
    new = tuple.__new__
    entries = [
        new(EventIndexEntry, (iri, class_iri, frozenset(participants[iri]), times[iri], sources[iri]))
        for iri, class_iri in classes.items()
    ]
    entries.sort(key=_time_order)
    return entries


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def _sharing_pairs(index: _Prepared) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Yield (position, first, candidates) for each entry of ``index`` with candidates, the
    positions at most ``index.reach`` earlier that share a participant; ``first`` is the first
    position at the entry's time."""
    times, reach = index.times, index.reach
    # participant -> ascending positions of the entries visited so far, less those shed behind lo.
    postings: dict[str, list[int]] = {}
    # Times ascend, so the entries in reach of position j are those from lo
    # on; lo only moves forward, and never past j, whatever the reach.
    lo = first = 0
    for j, later in enumerate(index):
        if times[j] != times[first]:  # every entry moves it, not just those yielded
            first = j
        earliest = times[j] - reach
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
            yield j, first, tuple(candidates)


class _Prepared(list):
    """Entries sorted by (time, IRI); ``iris`` in codepoint order and each one's ``rank_of``; each
    position's ``ranks`` and ``times`` (microseconds); ``walk``: ``_sharing_pairs`` at ``reach``."""

    def __init__(self, entries: Iterable[EventIndexEntry], reach: int) -> None:
        super().__init__(sorted(entries, key=_time_order))
        self.iris = sorted(dict.fromkeys(e.instance_iri for e in self))  # near IRI order already
        self.rank_of = dict(zip(self.iris, range(len(self.iris))))
        self.ranks = [self.rank_of[e.instance_iri] for e in self]
        # Integer microseconds: exact inclusive bounds, and no datetime overflow at a huge reach.
        at = {t: (t - self[0].timestamp) // _MICROSECOND for t in {e.timestamp for e in self}}
        self.times = [at[e.timestamp] for e in self]
        self.reach = reach
        self.walk = list(_sharing_pairs(self))


def _prepared(entries: Iterable[EventIndexEntry], reach: int) -> _Prepared:
    """``entries`` if it is an index walked at ``reach`` or further, else one so walked."""
    if entries.__class__ is _Prepared and entries.reach >= reach:
        return entries
    return _Prepared(entries, reach)


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
    window = timedelta(hours=window_hours) // _MICROSECOND
    ordered = _prepared(entries, window)
    iris, ranks, times = ordered.iris, ordered.ranks, ordered.times
    n = len(iris)
    # (smaller rank) * n + (larger rank): sorting the keys sorts the pairs.
    keys: set[int] = set()
    for j, _, candidates in ordered.walk:
        _, class_iri, participants, _, publisher = ordered[j]
        lo, b = bisect_left(times, times[j] - window), ranks[j]
        for i in candidates:
            if i < lo:  # walked at a longer reach than the window
                continue
            earlier = ordered[i]
            if earlier.class_iri != class_iri or earlier.publisher == publisher:
                continue
            if jaccard(earlier.participants, participants) < jaccard_min:
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
    horizon = timedelta(days=horizon_days) // _MICROSECOND
    ordered = _prepared(entries, horizon)
    iris, rank_of, ranks, times = ordered.iris, ordered.rank_of, ordered.ranks, ordered.times
    n = len(iris)
    # A pair naming an IRI outside the entries cannot turn up: it is dropped.
    known = [(rank_of[a], rank_of[b]) for a, b in exclude if a in rank_of and b in rank_of]
    skip = {x * n + y for a, b in known for x, y in ((a, b), (b, a))}
    # (earlier rank) * n + (later rank): sorting the keys sorts the pairs.
    keys: list[int] = []
    for j, first, candidates in ordered.walk:
        lo, b = bisect_left(times, times[j] - horizon), ranks[j]
        for i in candidates:
            if lo <= i < first:
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
    """Run both passes over one index of a graph; returns (links, same count, related count)."""
    reach = max(timedelta(hours=window_hours), timedelta(days=horizon_days))
    index = _Prepared(build_event_index(graph, policy), reach // _MICROSECOND)
    same = find_same_events(index, window_hours=window_hours, jaccard_min=jaccard_min)
    related = find_related_events(index, horizon_days=horizon_days, exclude=same)
    # Every IRI here is a statement IRI of the checked input graph, so the links are built
    # unchecked; no pair repeats and no related pair is a same pair, so they are distinct.
    new = tuple.__new__
    links = [new(Triple, (a, OWL_SAME_AS, b)) for a, b in same]
    links += [new(Triple, (earlier, SKOS_RELATED, later)) for earlier, later in related]
    return links, len(same), len(related)
