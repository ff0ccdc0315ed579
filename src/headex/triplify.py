"""Turn event instances into provenance-annotated triples.

Each event instance becomes a statement IRI that is simultaneously used as a
predicate: the statement is declared a singleton property of its generic
event class, the two fillers its class's role frame picks as most salient
are joined through it, and every other role hangs off the statement IRI
directly.  Text-valued roles become small typed nodes (type + body literal)
so the graph stays free of untyped literals in argument position.  Source
and extraction date are attached to the statement IRI, never to the
participants, so the same real-world entities can take part in many
differently-sourced events.
"""

from __future__ import annotations

from collections import namedtuple

from .model import ROLE_COUNT, ROLE_TOPIC, EntityRef, EventInstance
from .rdf import (
    RDF_TYPE,
    XSD_DATE,
    XSD_INTEGER,
    Checked,
    Literal,
    TripleSet,
    _triple,
    is_absolute_iri,
)

SINGLETON_PROPERTY_OF = "singletonPropertyOf"
HAS_SOURCE = "hasSource"
EXTRACTED_ON = "extractedOn"
ABOUT = "about"
BODY = "body"


class EmissionError(ValueError):
    """Raised when an event instance has nothing to say (no role fillers)."""


class PolicyError(ValueError):
    """Raised for an unusable base IRI or a publisher with no IRI slug."""


def slugify(text: str) -> str:
    out = []
    last_sep = True
    for ch in text.casefold():
        if ch.isalnum():
            out.append(ch)
            last_sep = False
        elif not last_sep:
            out.append("_")
            last_sep = True
    slug = "".join(out).strip("_")
    if not slug:
        raise PolicyError(f"cannot derive an IRI slug from {text!r}")
    return slug


class IriPolicy(Checked, namedtuple("_IriPolicyFields", "base_iri")):
    """How every minted IRI is spelled.  One namespace, deterministic names."""

    __slots__ = ()

    def __new__(cls, base_iri: str = "http://example.org/news/") -> IriPolicy:
        if not is_absolute_iri(base_iri) or not base_iri.endswith(("/", "#")):
            raise PolicyError(f"base IRI must be absolute and end with / or #: {base_iri!r}")
        return tuple.__new__(cls, (base_iri,))

    def instance_iri(self, event_class_name: str, record_id: str) -> str:
        return f"{self.base_iri}{event_class_name}_{record_id}"

    def term_iri(self, name: str) -> str:
        """A class or property of the policy's vocabulary."""
        return f"{self.base_iri}{name}"

    def role_property_iri(self, role: str) -> str:
        if role == ROLE_TOPIC:
            return self.term_iri(ABOUT)
        return self.term_iri(role[:1].lower() + role[1:])

    def entity_iri(self, slug: str) -> str:
        return f"{self.base_iri}entity/{slug}"

    def source_iri(self, publisher: str) -> str:
        return f"{self.base_iri}source/{slugify(publisher)}"

    def role_node_iri(self, role: str, record_id: str, ordinal: int) -> str:
        # Node 1 is unnumbered unless the id ends like a suffix (x_2): names decode from the right.
        _, sep, tail = record_id.rpartition("_")
        suffix = "" if ordinal == 1 and not (sep and tail.isdigit()) else f"_{ordinal}"
        return f"{self.base_iri}{role.lower()}/{record_id}{suffix}"

    def role_type_iri(self, role: str) -> str:
        return self.term_iri(role[:1].upper() + role[1:])


def _count_literal(text: str) -> Literal:
    if text.isdigit():
        return Literal(text, datatype=XSD_INTEGER)
    return Literal(text)


class _Memo(dict):
    """A table that fills a missing key with ``make(key)``; a key whose
    ``make`` raises stays missing, so it raises again on its next look-up."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _date_literal(day) -> Literal:
    return Literal(day.isoformat(), datatype=XSD_DATE)


class EmissionTerms:
    """The terms one run's statements repeat, each spelled once per run: the
    policy's term IRIs by name (vocabulary and classes), role property and
    role type IRIs by role, source IRIs by publisher and ``xsd:date``
    literals by day.  A publisher with no slug raises ``PolicyError`` on
    every look-up, since only what was built is stored."""

    __slots__ = ("term", "role_property", "role_type", "source", "date")

    def __init__(self, policy: IriPolicy) -> None:
        self.term = _Memo(policy.term_iri)
        self.role_property = _Memo(policy.role_property_iri)
        self.role_type = _Memo(policy.role_type_iri)
        self.source = _Memo(policy.source_iri)
        self.date = _Memo(_date_literal)


def emit_event_triples(
    instance: EventInstance, policy: IriPolicy, terms: EmissionTerms | None = None
) -> TripleSet:
    """Emit the full triple bundle for one event instance.

    Every IRI here comes from pieces checked where they entered (see
    ``headex.rdf``), so the triples are built unchecked.  ``terms`` are the
    run's ``EmissionTerms`` of ``policy``; a call given none builds its own.
    """
    if not instance.roles:
        raise EmissionError(f"event {instance.instance_id} has no role fillers")
    if terms is None:
        terms = EmissionTerms(policy)
    term = terms.term

    class_name = instance.event_class.name
    sp = policy.instance_iri(class_name, instance.instance_id)
    triples = [_triple(sp, term[SINGLETON_PROPERTY_OF], term[class_name])]

    # Materialize text fillers as typed nodes up front, in role order.
    ordinals: dict[str, int] = {}
    objects: list[tuple[str, str]] = []  # (role, object IRI) in original order
    for role, filler in instance.roles:
        if isinstance(filler, EntityRef):
            objects.append((role, filler.iri))
            continue
        ordinals[role] = ordinals.get(role, 0) + 1
        node = policy.role_node_iri(role, instance.instance_id, ordinals[role])
        body = _count_literal(filler.text) if role == ROLE_COUNT else Literal(filler.text)
        triples.append(_triple(node, RDF_TYPE, terms.role_type[role]))
        triples.append(_triple(node, term[BODY], body))
        objects.append((role, node))

    # Each end of the main triple is the first filler matching the earliest
    # link of the frame's chain; the object skips the subject's IRI.
    frame = instance.event_class.frame
    ends: list[int] = []
    for chain in (frame.main_subject, frame.main_object):
        taken = [objects[e][1] for e in ends]
        for role, entity_only in chain:
            found = [
                i
                for i, (r, f) in enumerate(instance.roles)
                if r == role
                and objects[i][1] not in taken
                and (isinstance(f, EntityRef) or not entity_only)
            ]
            if found:
                ends.append(found[0])
                break

    if len(ends) == 2:
        triples.append(_triple(objects[ends[0]][1], sp, objects[ends[1]][1]))
    else:
        ends = []

    for i, (role, obj) in enumerate(objects):
        if i not in ends:
            triples.append(_triple(sp, terms.role_property[role], obj))

    provenance = instance.provenance
    triples.append(_triple(sp, term[HAS_SOURCE], terms.source[provenance.publisher]))
    triples.append(_triple(sp, term[EXTRACTED_ON], terms.date[provenance.extracted_on]))
    return TripleSet(triples)
