"""Core data model: event classes, role frames, headline records, event instances.

Every extracted event belongs to an event class (Communication, Meet, Murder,
or an extension class) whose role frame, one ``FRAMES`` entry, says which
semantic roles its arguments may fill, the rules (functions of this module)
that fill them, and which two roles form its main triple.  Three generic
roles (time, location, involved) are valid for every class; `involved` is the
catch-all for arguments no class-specific rule claims.  An extension class
(``Other:<Label>`` in the lexicon) has no frame of its own: it gets the
generic roles only, no rules and no main triple.

Each value class in the package is an immutable tuple on a ``namedtuple``
base, equal to the tuple of its fields (a role filler only to fillers of its
class).  A class whose ``__new__`` checks its fields derives from ``rdf.Checked``,
so ``copy``, ``pickle`` at every protocol, ``_make`` and ``_replace`` rebuild a
value through those checks.

Each value is checked once, where its parts enter the program.  The public
constructors keep every check; extraction builds its per-record values by
position with ``tuple.__new__`` from parts already checked.  An
``EventInstance`` and its ``Provenance`` take the id, publisher and date of a
checked ``HeadlineRecord`` and role names that ``assign_roles`` took from the
class's frame; an ``EntityRef`` takes a catalog IRI, checked by
``CatalogEntity``, or an ``IriPolicy.entity_iri`` slug under a checked base; a
text node's body ``Literal`` takes a ``TextFiller``'s string.  The tokens,
chunks, verb candidates and mentions between the stages have no checks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping
from datetime import date, datetime
from types import MappingProxyType
from typing import TYPE_CHECKING

from .rdf import IRI_FORBIDDEN, Checked, is_absolute_iri

if TYPE_CHECKING:  # pragma: no cover
    from .entities import Claims, EntityMention
    from .events import EventMention

COMMUNICATION = "Communication"
MEET = "Meet"
MURDER = "Murder"

GENERIC_ROLES = ("time", "location", "involved")

# What the role rules read of a mention: its kind, chunk position and entity type.
KIND_NAMED = "named"
KIND_MENTION = "mention"
KIND_QUOTED = "quoted-topic"
KIND_NUMBER = "number"
KIND_OTHER = "other"

SUBJECT = "subject"
PRE = "pre"
POST = "post"

PERSON = "Person"
PLACE = "Place"
AGENT = "Agent"

_SUBORDINATORS = frozenset(("when", "after", "as", "by", "amid", "while", "during"))


class ModelError(ValueError):
    """Raised when a core-model value violates its invariants."""


class EventClass(Checked, namedtuple("_EventClassFields", "name subgroup")):
    """An event class name plus, for Communication, an optional verb subgroup."""

    __slots__ = ()

    def __new__(cls, name: str, subgroup: str | None = None) -> EventClass:
        if not name:
            raise ModelError("event class name must be nonempty")
        # The name is spelled into class and statement IRIs.
        bad = IRI_FORBIDDEN.search(name)
        if bad:
            raise ModelError(f"event class name holds {bad.group()!r}, which IRIs forbid")
        if subgroup is not None and name != COMMUNICATION:
            raise ModelError(f"subgroup is only valid for {COMMUNICATION}, got {name}")
        return tuple.__new__(cls, (name, subgroup))

    @property
    def frame(self) -> RoleFrame:
        """This class's frame; a class without one gets generic roles only."""
        return FRAMES.get(self.name) or RoleFrame(self.name)


class RoleFrame(
    Checked,
    namedtuple(
        "_RoleFrameFields", "event_class_name roles required_roles main_subject main_object rules"
    ),
):
    """What an event class decides: its roles, its role rules and its main triple.

    ``roles`` are the class's own roles; the generic roles are valid in every
    frame on top of them.  ``rules`` are functions at the top level of a
    module, so a frame pickles; ``entities.assign_roles`` calls each, in order,
    as ``rule(claims, head)``.  ``main_subject`` and ``main_object`` are the
    fallback chains for the two ends of the singleton-property triple, each
    link a ``(role, entity_only)`` pair: an end is the first filler of the
    earliest link's role (an entity filler, when ``entity_only``), and the
    object never reuses the subject's filler or its IRI, so the main triple
    is never a self-loop.  With either end unmatched, and always for a frame
    with empty chains, no main triple is emitted.
    """

    __slots__ = ()

    def __new__(
        cls,
        event_class_name: str,
        roles: tuple[str, ...] = (),
        required_roles: tuple[str, ...] = (),
        main_subject: tuple[tuple[str, bool], ...] = (),
        main_object: tuple[tuple[str, bool], ...] = (),
        rules: tuple[Callable[[Claims, EventMention | None], None], ...] = (),
    ) -> RoleFrame:
        if len(roles) != len(set(roles)):
            raise ModelError(f"duplicate role names in frame for {event_class_name}")
        fields = (event_class_name, roles, required_roles, main_subject, main_object, rules)
        return tuple.__new__(cls, fields)

    @property
    def role_names(self) -> tuple[str, ...]:
        return self.roles + GENERIC_ROLES


ROLE_PARTICIPANT = "Participant"
ROLE_TOPIC = "Topic"
ROLE_GIVER = "Giver"
ROLE_RECIPIENT = "Recipient"
ROLE_MESSAGE = "Message"
ROLE_VICTIM = "Victim"
ROLE_PERPETRATOR = "Perpetrator"
ROLE_CAUSE = "Cause"
ROLE_COUNT = "Count"


def meet_subject(claims: Claims, head: EventMention | None) -> None:
    """Every subject mention is a Participant."""
    for i, _ in claims.pending(SUBJECT):
        claims.take(i, ROLE_PARTICIPANT)


def meet_infinitive_topic(claims: Claims, head: EventMention | None) -> None:
    """A "to <verb>" chunk is a Topic; its entities are Participants."""
    topic_chunks: set[int] = set()
    for i, m in claims.pending():
        if m.chunk.intro_kind == "to_infinitive":
            if m.chunk.index not in topic_chunks:
                topic_chunks.add(m.chunk.index)
                claims.say(ROLE_TOPIC, m.chunk.full_text)
            if m.is_entity:
                claims.take(i, ROLE_PARTICIPANT)
            else:
                claims.done.add(i)  # covered by the Topic text


def meet_rest(claims: Claims, head: EventMention | None) -> None:
    """Each quoted span left is a Topic; each entity or @handle left a Participant."""
    for i, m in claims.pending():
        if m.kind == KIND_QUOTED:
            claims.take(i, ROLE_TOPIC)
        elif m.is_entity or m.kind == KIND_MENTION:
            claims.take(i, ROLE_PARTICIPANT)


def communication_giver(claims: Claims, head: EventMention | None) -> None:
    """Every subject mention is a Giver."""
    for i, _ in claims.pending(SUBJECT):
        claims.take(i, ROLE_GIVER)


def communication_recipient(claims: Claims, head: EventMention | None) -> None:
    """The first person or agent after a plain "to" or a "with" is the Recipient."""
    for i, m in claims.pending():
        if not (m.is_entity or m.kind == KIND_MENTION):
            continue
        recipient_intro = m.chunk.intro_kind == "to_plain" or m.chunk.intro == "with"
        if recipient_intro and m.entity_type in (PERSON, AGENT):
            claims.take(i, ROLE_RECIPIENT)
            break


def communication_message(claims: Claims, head: EventMention | None) -> None:
    """The Message: the text after a colon, else a quote, else all past the verb."""
    for i, m in claims.pending():
        if m.chunk.intro_kind == "colon":
            if not claims.filled(ROLE_MESSAGE):
                claims.say(ROLE_MESSAGE, m.chunk.full_text.lstrip(": "))
            claims.done.add(i)
    if claims.filled(ROLE_MESSAGE):
        return
    for i, m in claims.pending():
        if m.kind == KIND_QUOTED:
            claims.take(i, ROLE_MESSAGE)
            return
    post_chunks: dict[int, str] = {}
    for m in claims.mentions:
        if m.chunk.position == POST:
            post_chunks.setdefault(m.chunk.index, m.chunk.full_text)
    if post_chunks:
        claims.say(ROLE_MESSAGE, " ".join(post_chunks[k] for k in sorted(post_chunks)))
        for i, m in claims.pending(POST):
            if not m.is_entity:
                claims.done.add(i)  # covered by the Message text


def _is_passive(head: EventMention | None, mentions: list[EntityMention]) -> bool:
    if head is None or not head.surface.lower().endswith(("ed", "en", "ain")):
        return False
    post = [m.chunk for m in mentions if m.chunk.position == POST]
    if not post:
        return True
    first = min(post, key=lambda ch: ch.index)
    if first.intro_kind == "prep":
        return True
    leading = first.full_text.split()
    return bool(leading) and leading[0].lower() in _SUBORDINATORS


def murder_agent_and_victims(claims: Claims, head: EventMention | None) -> None:
    """Passive ("killed"): the subject holds Victims; active: Perpetrator or Cause."""
    if _is_passive(head, claims.mentions):
        for i, m in claims.pending(SUBJECT):
            if m.kind == KIND_NUMBER:
                claims.take(i, ROLE_COUNT)
            elif m.is_entity and m.entity_type == PERSON:
                claims.take(i, ROLE_VICTIM)
            elif not m.is_entity and m.kind == KIND_OTHER:
                claims.take(i, ROLE_VICTIM)
    else:
        for i, m in claims.pending(SUBJECT):
            if m.is_entity and m.entity_type == PERSON:
                claims.take(i, ROLE_PERPETRATOR)
            else:
                claims.take(i, ROLE_CAUSE)
            break
        for i, m in claims.pending(POST):
            if m.kind == KIND_NUMBER:
                claims.take(i, ROLE_COUNT)
            elif m.is_entity and m.entity_type == PERSON:
                claims.take(i, ROLE_VICTIM)


def murder_counts(claims: Claims, head: EventMention | None) -> None:
    """Every number left is a Count."""
    for i, m in claims.pending():
        if m.kind == KIND_NUMBER:
            claims.take(i, ROLE_COUNT)


FRAMES: Mapping[str, RoleFrame] = MappingProxyType(
    {
        MEET: RoleFrame(
            MEET,
            roles=(ROLE_PARTICIPANT, ROLE_TOPIC),
            required_roles=(ROLE_PARTICIPANT,),
            main_subject=((ROLE_PARTICIPANT, True),),
            main_object=((ROLE_PARTICIPANT, True),),
            rules=(meet_subject, meet_infinitive_topic, meet_rest),
        ),
        COMMUNICATION: RoleFrame(
            COMMUNICATION,
            roles=(ROLE_GIVER, ROLE_RECIPIENT, ROLE_MESSAGE),
            required_roles=(ROLE_GIVER, ROLE_MESSAGE),
            main_subject=((ROLE_GIVER, True),),
            main_object=((ROLE_RECIPIENT, True), (ROLE_MESSAGE, False)),
            rules=(communication_giver, communication_recipient, communication_message),
        ),
        MURDER: RoleFrame(
            MURDER,
            roles=(ROLE_VICTIM, ROLE_PERPETRATOR, ROLE_CAUSE, ROLE_COUNT),
            main_subject=((ROLE_PERPETRATOR, True), (ROLE_CAUSE, False)),
            main_object=((ROLE_VICTIM, False), (ROLE_COUNT, False)),
            rules=(murder_agent_and_victims, murder_counts),
        ),
    }
)


class HeadlineRecord(Checked, namedtuple("_HeadlineRecordFields", "id publisher timestamp text")):
    """One input record: identifier, publisher, publication instant, headline text."""

    __slots__ = ()

    def __new__(cls, id: str, publisher: str, timestamp: datetime, text: str) -> HeadlineRecord:
        if not id.strip():
            raise ModelError("record id must be nonempty")
        if not publisher.strip():
            raise ModelError("record publisher must be nonempty")
        if not isinstance(timestamp, datetime):
            raise ModelError(f"record timestamp is not a datetime: {timestamp!r}")
        # Publishers pass through TSV unescaped, so no separators; ids also
        # name IRIs, so none of the characters IRIs forbid (separators included).
        if any(ch in publisher for ch in "\t\n\r"):
            raise ModelError("record publisher must not contain tabs or newlines")
        bad = IRI_FORBIDDEN.search(id)
        if bad:
            raise ModelError(f"record id holds {bad.group()!r}, which IRIs forbid")
        if not text.strip():
            raise ModelError(f"record {id}: text must be nonempty")
        if "\n" in text or "\r" in text:
            raise ModelError(f"record {id}: text must not contain newlines")
        return tuple.__new__(cls, (id, publisher, timestamp, text))


class Provenance(Checked, namedtuple("_ProvenanceFields", "publisher extracted_on")):
    __slots__ = ()

    def __new__(cls, publisher: str, extracted_on: date) -> Provenance:
        if not publisher.strip():
            raise ModelError("provenance publisher must be nonempty")
        if not isinstance(extracted_on, date):
            raise ModelError("provenance extracted_on must be a date")
        return tuple.__new__(cls, (publisher, extracted_on))


class _Filler(Checked):
    """Base of the role fillers: ``EntityRef(x) != TextFiller(x)``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return tuple.__eq__(self, other) if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other: object) -> bool:
        return tuple.__ne__(self, other) if other.__class__ is self.__class__ else NotImplemented

    __hash__ = tuple.__hash__


class EntityRef(_Filler, namedtuple("_EntityRefFields", "iri")):
    """A role filler that resolved to an entity IRI."""

    __slots__ = ()

    def __new__(cls, iri: str) -> EntityRef:
        if not is_absolute_iri(iri):
            raise ModelError(f"entity reference IRI is not absolute: {iri!r}")
        return tuple.__new__(cls, (iri,))


class TextFiller(_Filler, namedtuple("_TextFillerFields", "text")):
    """A role filler that stayed textual (topics, messages, counts, causes)."""

    __slots__ = ()

    def __new__(cls, text: str) -> TextFiller:
        if not isinstance(text, str) or not text.strip():
            raise ModelError(f"text filler must be a nonempty string, got {text!r}")
        return tuple.__new__(cls, (text,))


RoleFiller = EntityRef | TextFiller


class EventInstance(
    Checked,
    namedtuple("_EventInstanceFields", "instance_id event_class mention roles provenance warnings"),
):
    """One extracted event: identity, class, trigger mention, roles, provenance."""

    __slots__ = ()

    def __new__(
        cls,
        instance_id: str,
        event_class: EventClass,
        mention: EventMention,
        roles: tuple[tuple[str, RoleFiller], ...],
        provenance: Provenance,
        warnings: tuple[str, ...] = (),
    ) -> EventInstance:
        if not instance_id:
            raise ModelError("instance_id must be nonempty")
        # The id is spelled into the statement and role-node IRIs.
        bad = IRI_FORBIDDEN.search(instance_id)
        if bad:
            raise ModelError(f"instance_id holds {bad.group()!r}, which IRIs forbid")
        allowed = set(event_class.frame.role_names)
        for role_name, filler in roles:
            if role_name not in allowed:
                raise ModelError(
                    f"{instance_id}: role {role_name!r} is not in the "
                    f"{event_class.name} frame"
                )
            if not isinstance(filler, (EntityRef, TextFiller)):
                raise ModelError(f"{instance_id}: bad filler for {role_name!r}")
        return tuple.__new__(cls, (instance_id, event_class, mention, roles, provenance, warnings))

    def fillers(self, role_name: str) -> tuple[RoleFiller, ...]:
        return tuple(f for name, f in self.roles if name == role_name)
