"""End-to-end extraction: records in, triples and an audit trail out.

Each record flows through tokenization, head-verb recognition, chunking,
entity recognition, linking, role assignment, and triple emission.  A record
that cannot produce an event (no text, no known verb, no arguments, a minted
IRI that a catalog entity already owns) is skipped with a reason instead of
failing the run; everything else about the pipeline is deterministic,
including every minted IRI and the extraction date, which comes from the
record itself rather than the wall clock.

The stages run a block at a time.  ``extract_corpus`` cuts the corpus into
blocks of ``BLOCK_SIZE`` records; within a block each stage (normalize,
recognize_event, chunk, recognize_entities, linking, assign_roles,
emission) runs over every record still live before
the next stage starts.  Running one stage many times in a row takes about a
third less time than taking each record through every stage, and a record's
outcome never depends on its neighbours, so only the order of the calls
changes.  ``BLOCK_SIZE`` bounds what is staged at once: staging a whole
corpus kept every record's tokens, chunks and mentions alive until its last
stage and raised peak memory by a quarter to a third, while blocks of 64
keep nearly all of the speed-up.  ``process_record`` is the same code run on
a block of one.

A feed repeats its actors, verbs and publishers from headline to headline, so
``extract_corpus`` also gives its stages three per-run tables, each of which
derives a fact once per distinct input it depends on:

* ``readings`` (``recognize_event``): word surface -> its lemma and verb
  reading under the lexicon;
* ``plans`` (``recognize_entities``): the surfaces and kinds of a chunk's
  free words -> their position reference's title and org IRIs, alias
  matches and counts under the catalog, as word indexes;
* ``terms`` (``emit_event_triples``): the policy's term IRIs by name, role
  IRIs by role, source IRIs by publisher and date literals by day.

The tables are created by each ``extract_corpus`` call and dropped when it
returns, so no run reads what another run's lexicon, catalog or policy gave.
Every check still runs, once per distinct input; only a result is stored,
never a failure.  What depends on the record itself (its date, context words
and neighbours) is still derived per record, and so is linking: each named
or @handle mention reads the catalog's stored candidates, or mints its IRI,
and the choice among several candidates builds the record's context words
for that choice alone; a minted IRI that a catalog entity owns skips each
record that meets it.  ``process_record``, and a stage called directly,
builds fresh tables for the one call.
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import EntityCatalog
from .entities import (
    DisambiguationAudit,
    LinkingError,
    assign_roles,
    chunk,
    link_entity,
    recognize_entities,
    resolve_implicit,
)
from .events import recognize_event
from .ingest import HeadlineRecord, normalize
from .lexicon import Lexicon
from .model import KIND_MENTION, KIND_NAMED, EventInstance, Provenance
from .rdf import TripleSet
from .triplify import EmissionError, EmissionTerms, IriPolicy, PolicyError, emit_event_triples

BLOCK_SIZE = 64


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


def _extract_block(
    block: list[HeadlineRecord],
    lexicon: Lexicon,
    catalog: EntityCatalog,
    policy: IriPolicy,
    readings: dict | None = None,
    plans: dict | None = None,
    terms: EmissionTerms | None = None,
) -> list[tuple[EventInstance, TripleSet, list[DisambiguationAudit]] | str]:
    """Run each stage over every live record of ``block`` before the next.

    Returns, for each record in order, ``(instance, triples, audits)`` or the
    reason it was skipped; a skipped record reaches no later stage.
    """
    new = tuple.__new__
    entity_iri = policy.entity_iri
    outcomes: list = [None] * len(block)
    live = []
    for i, record in enumerate(block):
        try:
            live.append((i, record, normalize(record.text)))
        except ValueError as exc:
            outcomes[i] = str(exc)

    heads = [recognize_event(tokens, lexicon, readings) for _, _, tokens in live]
    for (i, _, _), head in zip(live, heads):
        if head is None:
            outcomes[i] = "no event verb recognized"
    live = [(*state, head) for state, head in zip(live, heads) if head is not None]
    chunked = [chunk(tokens, head) for _, _, tokens, head in live]
    recognized = [recognize_entities(chunks, catalog, plans) for chunks in chunked]

    linked = []
    for (i, record, tokens, head), mentions in zip(live, recognized):
        at = record.timestamp.date()
        audits: list[DisambiguationAudit] = []
        warnings: list[str] = []
        resolved = []
        for mention in mentions:
            if mention.implicit:
                mention = resolve_implicit(mention, catalog, at) or mention
                if not mention.is_entity:
                    warnings.append(f"position reference {mention.text!r} resolved to nobody")
            elif mention.kind in (KIND_NAMED, KIND_MENTION):
                try:
                    mention, audit = link_entity(mention, catalog, tokens, entity_iri, at=at)
                except LinkingError as exc:
                    outcomes[i] = str(exc)
                    break
                if audit is not None:
                    audits.append(audit._replace(record_id=record.id))
            resolved.append(mention)
        else:  # every mention resolved without a LinkingError
            linked.append((i, record, head, at, resolved, audits, warnings))

    framed = [
        assign_roles(resolved, head.event_class.frame, head=head)
        for _, _, head, _, resolved, _, _ in linked
    ]
    for (i, record, head, at, _, audits, warnings), (roles, role_warnings) in zip(linked, framed):
        # HeadlineRecord checked the id and publisher, a datetime's date is a
        # date, and assign_roles fills only the roles of the class's frame.
        provenance = new(Provenance, (record.publisher, at))
        fields = (record.id, head.event_class, head, tuple(roles), provenance)
        instance = new(EventInstance, (*fields, (*warnings, *role_warnings)))
        try:
            outcomes[i] = (instance, emit_event_triples(instance, policy, terms), audits)
        except (EmissionError, PolicyError) as exc:
            outcomes[i] = str(exc)
    return outcomes


def process_record(
    record: HeadlineRecord,
    lexicon: Lexicon,
    catalog: EntityCatalog,
    policy: IriPolicy,
) -> tuple[EventInstance, TripleSet, list[DisambiguationAudit]]:
    """Extract one event from one record or raise SkipRecord."""
    (outcome,) = _extract_block([record], lexicon, catalog, policy)
    if isinstance(outcome, str):
        raise SkipRecord(outcome)
    return outcome


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
    readings, plans, terms = {}, {}, EmissionTerms(policy)  # the run's tables
    for start in range(0, len(records), BLOCK_SIZE):
        block = records[start : start + BLOCK_SIZE]
        outcomes = _extract_block(block, lexicon, catalog, policy, readings, plans, terms)
        for record, outcome in zip(block, outcomes):
            if isinstance(outcome, str):
                result.skipped.append(SkippedRecord(record_id=record.id, reason=outcome))
                continue
            instance, triples, audits = outcome
            result.instances.append(instance)
            result.graph.update(triples)
            result.audits.extend(audits)
    return result
