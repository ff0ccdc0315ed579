"""Correctness checks on one run's outputs, made outside the timed region.

* every line of ``events.nt`` and ``links.nt`` is UTF-8 and parses with
  ``headex.rdf.parse_ntriples``;
* ``links.nt`` equals a reference computed here from ``events.nt`` by an
  inverted participant index, with none of ``interlink.py``'s windowing;
* every planted record ends as the generator planned it: planted events are
  extracted with the planted class, planted skips appear in ``skipped.tsv``
  with the planted reason.  Records that do not are the run's failures.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import date
from itertools import combinations
from pathlib import Path

BASE = "http://example.org/news/"
SP_OF = BASE + "singletonPropertyOf"
HAS_SOURCE = BASE + "hasSource"
EXTRACTED_ON = BASE + "extractedOn"
BODY = BASE + "body"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
SKOS_RELATED = "http://www.w3.org/2004/02/skos/core#related"

SAME_DAYS = 2  # 48 hours between dates
RELATED_DAYS = 7
JACCARD_MIN = 0.5


class CheckError(Exception):
    """An output that breaks a correctness rule."""


def parse_file(path: Path) -> list[tuple]:
    """Parse one N-Triples output line by line, after a strict UTF-8 decode,
    into (subject, predicate, object) tuples."""
    from headex.rdf import RdfError, parse_ntriples

    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckError(f"{path.name} is not UTF-8: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError(f"{path.name} does not end with a newline")
    triples = []
    for n, line in enumerate(lines[:-1], start=1):
        try:
            line.encode("utf-8")
            parsed = parse_ntriples(line)
        except (RdfError, ValueError, UnicodeEncodeError) as exc:
            raise CheckError(f"{path.name} line {n}: {exc}") from exc
        if len(parsed) != 1:
            raise CheckError(f"{path.name} line {n}: expected one triple")
        triples.extend((t.subject, t.predicate, t.object) for t in parsed)
    return triples


def reference_links(triples) -> bytes:
    """The sameAs and related links of an event graph, serialized.

    An event's participants are the IRI objects of its statement IRI (less
    provenance, type and text-role nodes) plus both ends of its main
    triple.  Candidate pairs come from shared participants, then the rules of
    the top-level README pick the links: sameAs for one class, other
    publishers, at most 48 hours apart and participant Jaccard >= 0.5;
    related from an earlier to a later event at most 7 days apart that share
    a participant and are no sameAs pair.
    """
    classes, sources, days = {}, {}, {}
    text_nodes = set()
    for s, p, o in triples:
        if p == SP_OF:
            classes[s] = o
        elif p == BODY:
            text_nodes.add(s)
    participants = defaultdict(set)
    skip = {SP_OF, HAS_SOURCE, EXTRACTED_ON, RDF_TYPE}
    for s, p, o in triples:
        if s in classes:
            if p == HAS_SOURCE:
                sources[s] = o
            elif p == EXTRACTED_ON:
                days[s] = date.fromisoformat(o.lexical).toordinal()
            elif p not in skip and isinstance(o, str) and o not in text_nodes:
                participants[s].add(o)
        if p in classes:
            for end in (s, o):
                if isinstance(end, str) and end not in text_nodes:
                    participants[p].add(end)

    by_participant = defaultdict(list)
    for event, names in participants.items():
        for name in names:
            by_participant[name].append(event)
    candidates = set()
    for events in by_participant.values():
        for a, b in combinations(events, 2):
            if abs(days[a] - days[b]) <= RELATED_DAYS:
                candidates.add((a, b) if a < b else (b, a))

    same, related = set(), []
    for a, b in candidates:
        pa, pb = participants[a], participants[b]
        if (
            classes[a] == classes[b]
            and sources[a] != sources[b]
            and abs(days[a] - days[b]) <= SAME_DAYS
            and len(pa & pb) / len(pa | pb) >= JACCARD_MIN
        ):
            same.add((a, b))
    for a, b in candidates:
        if (a, b) in same or days[a] == days[b]:
            continue
        related.append((a, b) if days[a] < days[b] else (b, a))
    lines = [f"<{a}> <{OWL_SAME_AS}> <{b}> ." for a, b in same]
    lines += [f"<{a}> <{SKOS_RELATED}> <{b}> ." for a, b in related]
    return "".join(line + "\n" for line in sorted(lines)).encode("utf-8")


def plan_failures(triples, skipped_tsv: Path, plan_tsv: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few failure descriptions) against the plan."""
    events = {s: o for s, p, o in triples if p == SP_OF}
    skipped = defaultdict(list)
    for row in skipped_tsv.read_text(encoding="utf-8").splitlines():
        label, _, reason = row.partition("\t")
        skipped[label].append(reason)
    attempted = failed = 0
    examples = []
    for row in plan_tsv.read_text(encoding="utf-8").splitlines():
        line, label, expect, detail = row.split("\t")
        attempted += 1
        if expect == "event":
            ok = events.get(f"{BASE}{detail}_{label}") == BASE + detail
        else:
            ok = any(detail in reason for reason in skipped.get(label, ()))
        if not ok:
            failed += 1
            if len(examples) < 5:
                examples.append(f"line {line}: planted {expect} {detail}, got {skipped.get(label)}")
    return attempted, failed, examples
