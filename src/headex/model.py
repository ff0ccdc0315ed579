"""Core data model: event classes, role frames, headline records, event instances.

Every extracted event belongs to an event class (Communication, Meet, Murder,
or an extension class) whose role frame says which semantic roles its
arguments may fill and which two roles form its main triple.  Three generic
roles (time, location, involved) are valid for every class; `involved` is the
catch-all for arguments no class-specific rule claims.  An extension class
(``Other:<Label>`` in the lexicon) has no frame of its own: it gets the
generic roles only and no main triple.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import date, datetime
from types import MappingProxyType
from typing import TYPE_CHECKING

from .rdf import IRI_FORBIDDEN, is_absolute_iri

if TYPE_CHECKING:  # pragma: no cover
    from .events import EventMention

COMMUNICATION = "Communication"
MEET = "Meet"
MURDER = "Murder"

GENERIC_ROLES = ("time", "location", "involved")


class ModelError(ValueError):
    """Raised when a core-model value violates its invariants."""


@dataclass(frozen=True)
class EventClass:
    """An event class name plus, for Communication, an optional verb subgroup."""

    name: str
    subgroup: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("event class name must be nonempty")
        # The name is spelled into class and statement IRIs.
        bad = IRI_FORBIDDEN.search(self.name)
        if bad:
            raise ModelError(f"event class name holds {bad.group()!r}, which IRIs forbid")
        if self.subgroup is not None and self.name != COMMUNICATION:
            raise ModelError(f"subgroup is only valid for {COMMUNICATION}, got {self.name}")

    @property
    def frame(self) -> RoleFrame:
        """This class's frame; a class without one gets generic roles only."""
        return FRAMES.get(self.name) or RoleFrame(self.name)


@dataclass(frozen=True)
class RoleFrame:
    """What an event class decides: its roles and its main triple.

    ``roles`` are the class's own roles; the generic roles are valid in every
    frame on top of them.  ``main_subject`` and ``main_object`` are the
    fallback chains for the two ends of the singleton-property triple, each
    link a ``(role, entity_only)`` pair: an end is the first filler of the
    earliest link's role (an entity filler, when ``entity_only``), and the
    object never reuses the subject's filler.  With either end unmatched,
    and always for a frame with empty chains, no main triple is emitted.
    """

    event_class_name: str
    roles: tuple[str, ...] = ()
    required_roles: tuple[str, ...] = ()
    main_subject: tuple[tuple[str, bool], ...] = ()
    main_object: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self) -> None:
        if len(self.roles) != len(set(self.roles)):
            raise ModelError(f"duplicate role names in frame for {self.event_class_name}")

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

FRAMES: Mapping[str, RoleFrame] = MappingProxyType(
    {
        MEET: RoleFrame(
            MEET,
            roles=(ROLE_PARTICIPANT, ROLE_TOPIC),
            required_roles=(ROLE_PARTICIPANT,),
            main_subject=((ROLE_PARTICIPANT, True),),
            main_object=((ROLE_PARTICIPANT, True),),
        ),
        COMMUNICATION: RoleFrame(
            COMMUNICATION,
            roles=(ROLE_GIVER, ROLE_RECIPIENT, ROLE_MESSAGE),
            required_roles=(ROLE_GIVER, ROLE_MESSAGE),
            main_subject=((ROLE_GIVER, True),),
            main_object=((ROLE_RECIPIENT, True), (ROLE_MESSAGE, False)),
        ),
        MURDER: RoleFrame(
            MURDER,
            roles=(ROLE_VICTIM, ROLE_PERPETRATOR, ROLE_CAUSE, ROLE_COUNT),
            main_subject=((ROLE_PERPETRATOR, True), (ROLE_CAUSE, False)),
            main_object=((ROLE_VICTIM, False), (ROLE_COUNT, False)),
        ),
    }
)


@dataclass(frozen=True)
class HeadlineRecord:
    """One input record: identifier, publisher, publication instant, headline text."""

    id: str
    publisher: str
    timestamp: datetime
    text: str

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise ModelError("record id must be nonempty")
        if not self.publisher.strip():
            raise ModelError("record publisher must be nonempty")
        # Publishers pass through TSV unescaped, so no separators; ids also
        # name IRIs, so none of the characters IRIs forbid (separators included).
        if any(ch in self.publisher for ch in "\t\n\r"):
            raise ModelError("record publisher must not contain tabs or newlines")
        bad = IRI_FORBIDDEN.search(self.id)
        if bad:
            raise ModelError(f"record id holds {bad.group()!r}, which IRIs forbid")
        if not self.text.strip():
            raise ModelError(f"record {self.id}: text must be nonempty")
        if "\n" in self.text or "\r" in self.text:
            raise ModelError(f"record {self.id}: text must not contain newlines")


@dataclass(frozen=True)
class Provenance:
    publisher: str
    extracted_on: date

    def __post_init__(self) -> None:
        if not self.publisher.strip():
            raise ModelError("provenance publisher must be nonempty")
        if not isinstance(self.extracted_on, date):
            raise ModelError("provenance extracted_on must be a date")


@dataclass(frozen=True)
class EntityRef:
    """A role filler that resolved to an entity IRI."""

    iri: str

    def __post_init__(self) -> None:
        if not is_absolute_iri(self.iri):
            raise ModelError(f"entity reference IRI is not absolute: {self.iri!r}")


@dataclass(frozen=True)
class TextFiller:
    """A role filler that stayed textual (topics, messages, counts, causes)."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ModelError("text filler must be nonempty")


RoleFiller = EntityRef | TextFiller


@dataclass(frozen=True)
class EventInstance:
    """One extracted event: identity, class, trigger mention, roles, provenance."""

    instance_id: str
    event_class: EventClass
    mention: "EventMention"
    roles: tuple[tuple[str, RoleFiller], ...]
    provenance: Provenance
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise ModelError("instance_id must be nonempty")
        # The id is spelled into the statement and role-node IRIs.
        bad = IRI_FORBIDDEN.search(self.instance_id)
        if bad:
            raise ModelError(f"instance_id holds {bad.group()!r}, which IRIs forbid")
        allowed = set(self.event_class.frame.role_names)
        for role_name, filler in self.roles:
            if role_name not in allowed:
                raise ModelError(
                    f"{self.instance_id}: role {role_name!r} is not in the "
                    f"{self.event_class.name} frame"
                )
            if not isinstance(filler, (EntityRef, TextFiller)):
                raise ModelError(f"{self.instance_id}: bad filler for {role_name!r}")

    def fillers(self, role_name: str) -> tuple[RoleFiller, ...]:
        return tuple(f for name, f in self.roles if name == role_name)
