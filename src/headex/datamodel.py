"""Checks event data models against four representational requirements.

A model is described by a small declarative descriptor (see
``fixtures/datamodels/`` for the shipped ones) and checked for:

R1  a generic event class exists;
R2  events can carry publisher-bearing provenance;
R3  entities are typed (pass_loosely when only coarse types exist);
R4  every entity type is connected to events by some property.

Verdicts are pass / pass_loosely / fail, with a one-line note each.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from pathlib import Path

from .ingest import InputError, bad_field, list_field, read_json
from .rdf import Checked

COARSE = "coarse"
FINE = "fine"
_GRANULARITIES = (COARSE, FINE)

REQUIREMENT_IDS = ("R1", "R2", "R3", "R4")

# Property-name fragments that identify who published a statement.
_PUBLISHER_MARKERS = ("publisher", "source")


class DescriptorError(InputError):
    """Raised for malformed data-model descriptors."""


class Verdict(Enum):
    PASS = "pass"
    PASS_LOOSELY = "pass_loosely"
    FAIL = "fail"


class EntityType(Checked, namedtuple("_EntityTypeFields", "name granularity")):
    __slots__ = ()

    def __new__(cls, name: str, granularity: str) -> EntityType:
        if not name:
            raise DescriptorError("entity type name must be nonempty")
        if granularity not in _GRANULARITIES:
            raise DescriptorError(
                f"entity type {name!r}: granularity must be one of {_GRANULARITIES}"
            )
        return tuple.__new__(cls, (name, granularity))


class EventEntityProperty(Checked, namedtuple("_EventEntityPropertyFields", "name domain range")):
    __slots__ = ()

    def __new__(cls, name: str, domain: str, range: str) -> EventEntityProperty:
        if not (name and domain and range):
            raise DescriptorError("event-entity property needs name, domain, and range")
        return tuple.__new__(cls, (name, domain, range))


class DataModelDescriptor(
    Checked,
    namedtuple(
        "_DataModelDescriptorFields",
        "name has_generic_event has_specific_event_types provenance_properties entity_types"
        " event_entity_properties",
    ),
):
    __slots__ = ()

    def __new__(
        cls,
        name: str,
        has_generic_event: bool,
        has_specific_event_types: bool,
        provenance_properties: tuple[str, ...],
        entity_types: tuple[EntityType, ...],
        event_entity_properties: tuple[EventEntityProperty, ...],
    ) -> DataModelDescriptor:
        if not name:
            raise DescriptorError("descriptor name must be nonempty")
        names = [t.name for t in entity_types]
        if len(names) != len(set(names)):
            raise DescriptorError(f"{name}: duplicate entity type names")
        fields = (name, has_generic_event, has_specific_event_types, provenance_properties)
        return tuple.__new__(cls, (*fields, entity_types, event_entity_properties))


RequirementResult = namedtuple("RequirementResult", "requirement verdict note")


class RequirementReport(Checked, namedtuple("_RequirementReportFields", "model_name results")):
    __slots__ = ()

    def __new__(cls, model_name: str, results: tuple[RequirementResult, ...]) -> RequirementReport:
        ids = tuple(r.requirement for r in results)
        if ids != REQUIREMENT_IDS:
            raise DescriptorError(f"report must cover {REQUIREMENT_IDS} in order, got {ids}")
        return tuple.__new__(cls, (model_name, results))

    def result(self, requirement: str) -> RequirementResult:
        for r in self.results:
            if r.requirement == requirement:
                return r
        raise KeyError(requirement)

    @property
    def all_pass(self) -> bool:
        return all(r.verdict is Verdict.PASS for r in self.results)


def _is_publisher_bearing(property_name: str) -> bool:
    lowered = property_name.lower()
    return any(marker in lowered for marker in _PUBLISHER_MARKERS)


def validate_data_model(descriptor: DataModelDescriptor) -> RequirementReport:
    """Evaluate all four requirements; total and deterministic on any descriptor."""
    results = []

    if descriptor.has_generic_event:
        r1 = RequirementResult("R1", Verdict.PASS, "declares a generic event class")
    else:
        r1 = RequirementResult("R1", Verdict.FAIL, "no generic event class")
    results.append(r1)

    publisher_props = [p for p in descriptor.provenance_properties if _is_publisher_bearing(p)]
    if publisher_props:
        r2 = RequirementResult(
            "R2", Verdict.PASS, f"publisher-bearing provenance via {publisher_props[0]}"
        )
    else:
        r2 = RequirementResult("R2", Verdict.FAIL, "no publisher-bearing provenance property")
    results.append(r2)

    if not descriptor.entity_types:
        r3 = RequirementResult("R3", Verdict.FAIL, "entities are untyped")
    elif all(t.granularity == COARSE for t in descriptor.entity_types):
        r3 = RequirementResult("R3", Verdict.PASS_LOOSELY, "only coarse entity types")
    else:
        r3 = RequirementResult("R3", Verdict.PASS, "fine-grained entity types available")
    results.append(r3)

    if not descriptor.entity_types:
        r4 = RequirementResult("R4", Verdict.FAIL, "no entity types to connect")
    else:
        connected = set()
        for prop in descriptor.event_entity_properties:
            connected.add(prop.domain)
            connected.add(prop.range)
        missing = [t.name for t in descriptor.entity_types if t.name not in connected]
        if missing:
            r4 = RequirementResult(
                "R4", Verdict.FAIL, f"entity types not linked to events: {', '.join(missing)}"
            )
        else:
            r4 = RequirementResult("R4", Verdict.PASS, "every entity type linked to events")
    results.append(r4)

    return RequirementReport(descriptor.name, tuple(results))


def _flag(payload: dict, key: str, default: bool | None = None) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise bad_field(payload, key, "true or false")
    return value


def _rows(payload: dict, key: str, fields: tuple[str, ...]) -> list[list[str]]:
    """The string ``fields`` of each object in the list ``payload[key]``."""
    rows = []
    for index, raw in enumerate(list_field(payload, key, dict)):
        for name in fields:
            if not isinstance(raw.get(name), str):
                raise InputError(f"{key}[{index}]: {bad_field(raw, name, 'a string')}")
        rows.append([raw[name] for name in fields])
    return rows


def load_descriptor(path: str | Path) -> DataModelDescriptor:
    """Load a descriptor from its JSON file; see the shipped fixtures for the schema.

    Every ``DescriptorError`` raised here names the file.
    """
    payload = read_json(path, DescriptorError)
    if not isinstance(payload, dict):
        raise DescriptorError(f"{path}: descriptor must be a JSON object")
    try:
        if not isinstance(payload.get("name"), str):
            raise bad_field(payload, "name", "a string")
        types = _rows(payload, "entity_types", ("name", "granularity"))
        properties = _rows(payload, "event_entity_properties", ("property", "domain", "range"))
        return DataModelDescriptor(
            name=payload["name"],
            has_generic_event=_flag(payload, "has_generic_event"),
            has_specific_event_types=_flag(payload, "has_specific_event_types", False),
            provenance_properties=tuple(list_field(payload, "provenance_properties", str)),
            entity_types=tuple(EntityType(*row) for row in types),
            event_entity_properties=tuple(EventEntityProperty(*row) for row in properties),
        )
    except InputError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc
