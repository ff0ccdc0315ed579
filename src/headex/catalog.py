"""Entity catalog: the closed gazetteer mentions are linked against.

The catalog file is JSON with a single ``entities`` list.  Each entity is an
object with an absolute ``iri`` and a canonical ``label`` (both required
strings), a ``type`` string (Person, Organisation, Place, Agent, ...; default
Agent), an ``aliases`` list of surface strings, an optional ``keywords`` list
of context strings used for disambiguation, and an optional ``roles`` list
of time-scoped position records:

    {"title": "CEO", "org": "Instagram", "from": "2010-10-06", "to": null}

``title`` and ``org`` are strings, ``from`` and ``to`` ``YYYY-MM-DD`` dates
(``ingest.parse_date``: a zone after the day is allowed and ignored); ``to``
may be null or absent for an open interval.  A value of the wrong kind is a
``CatalogError`` naming the file and the entity, never a later failure.

Position records power implicit references like "Instagram CEO":
``EntityCatalog.holders`` returns every entity that held the title
(case-insensitively) at an organisation the org's alias names, on the
headline's date, both interval ends inclusive.  An entity comes out once,
dated by its first such position; the most recently appointed holder comes
first, ties going to the smaller IRI.  The shipped default catalog is
``data/catalog.json``.

Alias look-ups are exact after ``str.casefold``.  Beside that index the
catalog keeps, for the first space-separated word of every alias, the most
words of any alias starting with it (``EntityCatalog.alias_words``), so a
caller trying n-grams as aliases can skip the n-grams no alias can equal.
In the same way ``EntityCatalog.title_words`` is the most space-separated
words of any position title, 0 for a catalog without positions: an n-gram
of more words is no title.
"""

from __future__ import annotations

from collections import namedtuple
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Iterable

from .ingest import InputError, bad_field, list_field, parse_date, read_json
from .model import AGENT
from .rdf import Checked, is_absolute_iri


class CatalogError(InputError):
    """Raised for malformed catalog files."""


class PositionRecord(
    Checked, namedtuple("_PositionRecordFields", "title org valid_from valid_to")
):
    """One held position: title at an organisation over a validity interval."""

    __slots__ = ()

    def __new__(
        cls, title: str, org: str, valid_from: date, valid_to: date | None = None
    ) -> PositionRecord:
        if not title or not org:
            raise CatalogError("position needs a title and an org")
        if valid_to is not None and valid_to < valid_from:
            raise CatalogError(f"position {title!r}: interval ends before it starts")
        return tuple.__new__(cls, (title, org, valid_from, valid_to))

    def active_on(self, day: date) -> bool:
        return self.valid_from <= day and (self.valid_to is None or day <= self.valid_to)


class CatalogEntity(
    Checked,
    namedtuple("_CatalogEntityFields", "iri label entity_type aliases keywords positions"),
):
    __slots__ = ()

    def __new__(
        cls,
        iri: str,
        label: str,
        entity_type: str,
        aliases: tuple[str, ...],
        keywords: tuple[str, ...] = (),
        positions: tuple[PositionRecord, ...] = (),
    ) -> CatalogEntity:
        if not iri or not label:
            raise CatalogError("entity needs an iri and a label")
        if not is_absolute_iri(iri):  # linking builds EntityRef from it unchecked
            raise CatalogError(f"entity IRI is not absolute: {iri!r}")
        return tuple.__new__(cls, (iri, label, entity_type, aliases, keywords, positions))


class EntityCatalog:
    """Alias-indexed entity collection with position-based implicit lookup."""

    def __init__(self, entities: Iterable[CatalogEntity]) -> None:
        by_iri: dict[str, CatalogEntity] = {}
        # Casefolded label or alias -> the IRIs it names, in catalog order until
        # sorted below; an entity whose names casefold alike adds its IRI twice.
        by_alias: dict[str, tuple[str, ...]] = {}
        held = []  # the entities that hold positions, in catalog order
        for entity in entities:
            iri, label, _, aliases, _, positions = entity
            if iri in by_iri:
                raise CatalogError(f"duplicate entity IRI {iri}")
            by_iri[iri] = entity
            key = label.casefold()
            by_alias[key] = by_alias.get(key, ()) + (iri,)
            for alias in aliases:
                key = alias.casefold()
                by_alias[key] = by_alias.get(key, ()) + (iri,)
            if positions:
                held.append(entity)
        # First space-separated word of an alias key -> the most words of
        # any alias key that starts with it.
        alias_words: dict[str, int] = {}
        for key, iris in by_alias.items():
            if len(iris) > 1:
                by_alias[key] = tuple(sorted(set(iris)))
            first, space, rest = key.partition(" ")
            words = rest.count(" ") + 2 if space else 1
            if words > alias_words.get(first, 0):
                alias_words[first] = words
        self._by_iri, self._by_alias, self._alias_words = by_iri, by_alias, alias_words
        self._titles: set[str] = set()
        # (casefolded title, org IRI) -> (rank, entity, position) in catalog
        # order, rank being the position's index in entity.positions.  The
        # org IRIs are those the position's org names as an alias; the
        # catalog never changes, so they are resolved once, here.
        self._positions: dict[tuple[str, str], list[tuple[int, CatalogEntity, PositionRecord]]] = {}
        for entity in held:
            for rank, position in enumerate(entity.positions):
                title = position.title.casefold()
                self._titles.add(title)
                for org_iri in by_alias.get(position.org.casefold(), ()):
                    self._positions.setdefault((title, org_iri), []).append((rank, entity, position))
        self.title_words = max((title.count(" ") + 1 for title in self._titles), default=0)

    def __contains__(self, iri: str) -> bool:
        return iri in self._by_iri

    def candidates(self, surface: str) -> tuple[CatalogEntity, ...]:
        """Entities whose label or alias equals the surface, case-insensitively."""
        iris = self._by_alias.get(surface.casefold(), ())
        return tuple(self._by_iri[iri] for iri in iris)

    def is_alias(self, surface: str) -> bool:
        return surface.casefold() in self._by_alias

    def alias_words(self, first: str) -> int:
        """The most space-separated words of any alias whose first word is
        ``first``, case-insensitively; 0 when no alias starts with it."""
        return self._alias_words.get(first.casefold(), 0)

    def is_position_title(self, surface: str) -> bool:
        return surface.casefold() in self._titles

    def holders(self, title: str, org_iris: Iterable[str], on: date) -> tuple[CatalogEntity, ...]:
        """Entities holding ``title`` at any of ``org_iris`` on the given day."""
        title = title.casefold()
        # Entity IRI -> its first active matching position, by rank.
        first: dict[str, tuple[int, CatalogEntity, PositionRecord]] = {}
        for org_iri in org_iris:
            for held in self._positions.get((title, org_iri), ()):
                rank, entity, position = held
                if position.active_on(on):
                    kept = first.get(entity.iri)
                    if kept is None or rank < kept[0]:
                        first[entity.iri] = held
        found = [(position.valid_from, entity) for _, entity, position in first.values()]
        # Most recently appointed holder first; ties break on the smaller IRI.
        found.sort(key=lambda pair: pair[1].iri)
        found.sort(key=lambda pair: pair[0], reverse=True)
        return tuple(entity for _, entity in found)


def default_catalog_path() -> Path:
    return Path(str(resources.files("headex").joinpath("data/catalog.json")))


def _date(raw: dict, key: str) -> date:
    value = raw.get(key)
    if not isinstance(value, str):
        raise bad_field(raw, key, "an ISO date string")
    try:
        return parse_date(value)
    except ValueError as exc:
        raise InputError(f"{key!r} must be an ISO date, got {value!r}") from exc


def _position(raw: dict) -> PositionRecord:
    title, org = raw.get("title"), raw.get("org")
    if not isinstance(title, str):
        raise bad_field(raw, "title", "a string")
    if not isinstance(org, str):
        raise bad_field(raw, "org", "a string")
    valid_from = _date(raw, "from")
    valid_to = None if raw.get("to") is None else _date(raw, "to")
    return PositionRecord(title, org, valid_from, valid_to)


def _entity(raw: object) -> CatalogEntity:
    """One checked entity: each field read once, the checks run in the order written."""
    if not isinstance(raw, dict):
        raise InputError(f"expected an object, got {raw!r}")
    iri, label, entity_type = raw.get("iri"), raw.get("label"), raw.get("type", AGENT)
    if not isinstance(iri, str):
        raise bad_field(raw, "iri", "a string")
    if not is_absolute_iri(iri):
        raise bad_field(raw, "iri", "an absolute IRI")
    if not isinstance(label, str):
        raise bad_field(raw, "label", "a string")
    if not isinstance(entity_type, str):
        raise bad_field(raw, "type", "a string")
    positions = []
    if "roles" in raw:
        for index, role in enumerate(list_field(raw, "roles", dict)):
            try:
                positions.append(_position(role))
            except InputError as exc:
                raise InputError(f"roles[{index}]: {exc}") from exc
    aliases = tuple(list_field(raw, "aliases", str))
    keywords = tuple([k.casefold() for k in list_field(raw, "keywords", str)])
    if not label:
        raise CatalogError("entity needs an iri and a label")
    fields = (iri, label, entity_type, aliases, keywords, tuple(positions))
    return tuple.__new__(CatalogEntity, fields)  # every check of __new__ is made above


def load_catalog(path: str | Path) -> EntityCatalog:
    """Read and check a catalog file; every ``CatalogError`` names the file."""
    payload = read_json(path, CatalogError)
    if not isinstance(payload, dict) or not isinstance(payload.get("entities"), list):
        raise CatalogError(f"{path}: expected an object with an 'entities' list")
    entities = []
    for index, raw in enumerate(payload["entities"]):
        try:
            entities.append(_entity(raw))
        except InputError as exc:
            raise CatalogError(f"{path}: entities[{index}]: {exc}") from exc
    del payload  # free the parsed JSON: a collection while indexing need not walk it
    try:
        return EntityCatalog(entities)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc
