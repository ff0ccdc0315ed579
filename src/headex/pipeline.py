"""End-to-end extraction: records in, triples and an audit trail out.

Each record flows through tokenization, head-verb recognition, chunking,
entity recognition, linking, role assignment, and triple emission.  A record
that cannot produce an event (no text, no known verb, no arguments, a minted
IRI that a catalog entity already owns) is skipped with a reason instead of
failing the run; everything else about the pipeline is deterministic,
including every minted IRI and the extraction date, which comes from the
record itself rather than the wall clock.
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import EntityCatalog
from .entities import (
    KIND_MENTION,
    KIND_NAMED,
    LINKED,
    DisambiguationAudit,
    LinkingError,
    assign_roles,
    chunk,
    context_words,
    link_entity,
    recognize_entities,
    resolve_implicit,
)
from .events import recognize_event
from .ingest import HeadlineRecord, normalize, record_date
from .lexicon import Lexicon
from .model import EventInstance, Provenance
from .rdf import TripleSet
from .triplify import EmissionError, IriPolicy, PolicyError, emit_event_triples


class SkipRecord(Exception):
    """Raised internally when a record yields no event; carries the reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


SkippedRecord = namedtuple("SkippedRecord", "record_id reason")


class ExtractResult:
    """What a corpus run produced, filled in record order."""

    def __init__(self) -> None:
        self.graph = TripleSet()
        self.instances: list[EventInstance] = []
        self.skipped: list[SkippedRecord] = []
        self.audits: list[DisambiguationAudit] = []

    @property
    def warnings(self) -> list[tuple[str, str]]:
        out = []
        for instance in self.instances:
            out.extend((instance.instance_id, w) for w in instance.warnings)
        return out


def process_record(
    record: HeadlineRecord,
    lexicon: Lexicon,
    catalog: EntityCatalog,
    policy: IriPolicy,
) -> tuple[EventInstance, TripleSet, list[DisambiguationAudit]]:
    """Extract one event from one record or raise SkipRecord."""
    try:
        tokens = normalize(record.text)
    except ValueError as exc:
        raise SkipRecord(str(exc)) from exc

    head = recognize_event(tokens, lexicon)
    if head is None:
        raise SkipRecord("no event verb recognized")

    chunks = chunk(tokens, head)
    mentions = recognize_entities(chunks, catalog)
    at = record_date(record)
    context = context_words(tokens)

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
                linked, audit = link_entity(mention, catalog, context, policy.entity_iri, at=at)
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


def extract_corpus(
    records: list[HeadlineRecord],
    lexicon: Lexicon,
    catalog: EntityCatalog,
    policy: IriPolicy,
) -> ExtractResult:
    """Run the pipeline over a corpus, pooling triples into one graph.

    Raises nothing for what a record holds: each becomes an event or a skip.
    """
    result = ExtractResult()
    for record in records:
        try:
            instance, triples, audits = process_record(record, lexicon, catalog, policy)
        except SkipRecord as skip:
            result.skipped.append(SkippedRecord(record_id=record.id, reason=skip.reason))
            continue
        result.instances.append(instance)
        result.graph.update(triples)
        result.audits.extend(audits)
    return result
