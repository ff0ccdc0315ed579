"""Entity catalog: dated position look-ups and the checks made at load."""

from __future__ import annotations

import itertools
import json
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headex.catalog import (
    CatalogEntity,
    CatalogError,
    EntityCatalog,
    PositionRecord,
    _date,
    _entity,
    load_catalog,
)
from headex.ingest import InputError, bad_field, list_field, read_json
from headex.model import AGENT, PERSON
from headex.rdf import is_absolute_iri

KB = "http://kb.example/"


def catalog_entities(catalog: EntityCatalog) -> tuple[CatalogEntity, ...]:
    """The catalog's entities in load order, read from its IRI index."""
    return tuple(catalog._by_iri.values())


def reference_holders(catalog: EntityCatalog, title: str, org_iris: set[str], on: date):
    """The full-catalog scan ``holders`` replaced, kept as the oracle."""
    found = []
    for entity in catalog_entities(catalog):
        for position in entity.positions:
            if position.title.casefold() != title.casefold():
                continue
            if not position.active_on(on):
                continue
            org_candidates = {e.iri for e in catalog.candidates(position.org)}
            if org_candidates & org_iris:
                found.append((position.valid_from, entity))
                break
    found.sort(key=lambda pair: pair[1].iri)
    found.sort(key=lambda pair: pair[0], reverse=True)
    return tuple(entity for _, entity in found)


def org(name: str, *aliases: str) -> CatalogEntity:
    return CatalogEntity(KB + name.replace(" ", "_"), name, "Organisation", aliases)


def person(name: str, *positions: tuple[str, str, date, date | None]) -> CatalogEntity:
    return CatalogEntity(
        KB + name,
        name,
        PERSON,
        (),
        positions=tuple(PositionRecord(*p) for p in positions),
    )


D = date


def names(entities) -> list[str]:
    return [e.label for e in entities]


class TestHolders:
    def test_overlapping_holders_most_recent_first_ties_on_smaller_iri(self):
        catalog = EntityCatalog(
            [
                org("Acme"),
                person("Cara", ("CEO", "Acme", D(2012, 1, 1), None)),
                person("Bert", ("CEO", "Acme", D(2010, 1, 1), None)),
                person("Abel", ("CEO", "Acme", D(2012, 1, 1), D(2020, 1, 1))),
            ]
        )
        found = catalog.holders("CEO", {KB + "Acme"}, D(2015, 6, 1))
        assert names(found) == ["Abel", "Cara", "Bert"]

    def test_interval_ends_are_inclusive_and_null_is_open(self):
        catalog = EntityCatalog(
            [
                org("Acme"),
                person("Abel", ("CEO", "Acme", D(2010, 1, 1), D(2012, 12, 31))),
                person("Bert", ("CEO", "Acme", D(2013, 1, 1), None)),
            ]
        )
        acme = {KB + "Acme"}
        assert catalog.holders("CEO", acme, D(2009, 12, 31)) == ()
        assert names(catalog.holders("CEO", acme, D(2010, 1, 1))) == ["Abel"]
        assert names(catalog.holders("CEO", acme, D(2012, 12, 31))) == ["Abel"]
        assert names(catalog.holders("CEO", acme, D(2013, 1, 1))) == ["Bert"]
        assert names(catalog.holders("CEO", acme, D(9999, 12, 31))) == ["Bert"]

    def test_title_matches_case_insensitively(self):
        catalog = EntityCatalog([org("Acme"), person("Abel", ("Ceo", "Acme", D(2010, 1, 1), None))])
        for title in ("CEO", "ceo", "Ceo", "cEO"):
            assert names(catalog.holders(title, {KB + "Acme"}, D(2011, 1, 1))) == ["Abel"]

    def test_org_matches_through_any_alias_even_a_shared_one(self):
        catalog = EntityCatalog(
            [
                org("Acme", "AC", "Acme Corp"),
                org("Acorn", "AC"),
                person("Abel", ("CEO", "acme corp", D(2010, 1, 1), None)),
                person("Bert", ("CEO", "AC", D(2011, 1, 1), None)),
            ]
        )
        on = D(2012, 1, 1)
        assert names(catalog.holders("CEO", {KB + "Acme"}, on)) == ["Bert", "Abel"]
        assert names(catalog.holders("CEO", {KB + "Acorn"}, on)) == ["Bert"]
        # Bert's "AC" names both organisations; he still comes out once.
        both = {KB + "Acme", KB + "Acorn"}
        assert names(catalog.holders("CEO", both, on)) == ["Bert", "Abel"]

    def test_two_matching_positions_list_the_entity_once_with_the_first_date(self):
        catalog = EntityCatalog(
            [
                org("Acme", "AC"),
                person(
                    "Abel",
                    ("CEO", "Acme", D(2010, 1, 1), None),
                    ("CEO", "AC", D(2014, 1, 1), None),
                ),
                person("Bert", ("CEO", "Acme", D(2012, 1, 1), None)),
            ]
        )
        # Abel is dated by his first position (2010), so Bert (2012) leads.
        assert names(catalog.holders("CEO", {KB + "Acme"}, D(2015, 1, 1))) == ["Bert", "Abel"]

    def test_first_position_wins_whichever_queried_org_is_read_first(self):
        catalog = EntityCatalog(
            [
                org("Acme"),
                org("Bolt"),
                person("Pia", ("CEO", "Acme", D(2010, 1, 1), None), ("CEO", "Bolt", D(2014, 1, 1), None)),
                person("Quin", ("CEO", "Bolt", D(2012, 1, 1), None), ("CEO", "Acme", D(2009, 1, 1), None)),
            ]
        )
        # Pia is dated 2010 and Quin 2012 by their first positions; taking
        # either org's position first for both would put Pia first.
        both = {KB + "Acme", KB + "Bolt"}
        assert names(catalog.holders("CEO", both, D(2015, 1, 1))) == ["Quin", "Pia"]

    def test_first_active_position_counts_not_the_first_listed(self):
        catalog = EntityCatalog(
            [
                org("Acme"),
                person(
                    "Abel",
                    ("CEO", "Acme", D(2000, 1, 1), D(2001, 1, 1)),
                    ("CEO", "Acme", D(2014, 1, 1), None),
                ),
                person("Bert", ("CEO", "Acme", D(2012, 1, 1), None)),
            ]
        )
        assert names(catalog.holders("CEO", {KB + "Acme"}, D(2015, 1, 1))) == ["Abel", "Bert"]

    def test_unknown_title_or_org_gives_nothing(self):
        catalog = EntityCatalog(
            [org("Acme"), org("Unlisted"), person("Abel", ("CEO", "Acme", D(2010, 1, 1), None))]
        )
        on = D(2011, 1, 1)
        assert catalog.holders("Chair", {KB + "Acme"}, on) == ()
        assert catalog.holders("CEO", {KB + "Unlisted"}, on) == ()
        assert catalog.holders("CEO", {KB + "nowhere"}, on) == ()
        assert catalog.holders("CEO", set(), on) == ()

    def test_position_at_an_org_that_is_no_alias_never_matches(self):
        catalog = EntityCatalog([org("Acme"), person("Abel", ("CEO", "Acne", D(2010, 1, 1), None))])
        assert catalog.holders("CEO", {KB + "Acme"}, D(2011, 1, 1)) == ()
        assert catalog.is_position_title("ceo")


class TestAliasWords:
    def test_most_words_of_any_alias_starting_with_the_word(self):
        catalog = EntityCatalog(
            [
                org("New York", "NYC", "new york city", "New"),
                org("Straße Bau AG"),
                org("Acme"),
            ]
        )
        assert catalog.alias_words("new") == 3
        assert catalog.alias_words("NEW") == 3
        assert catalog.alias_words("nyc") == 1
        assert catalog.alias_words("Acme") == 1
        assert catalog.alias_words("STRASSE") == 3  # casefolded, as alias look-ups are

    def test_no_alias_starts_with_the_word(self):
        catalog = EntityCatalog([org("New York")])
        assert catalog.alias_words("York") == 0
        assert catalog.alias_words("Acme") == 0
        assert catalog.alias_words("") == 0

    def test_words_are_split_on_single_spaces(self):
        # A key that no n-gram of space-free surfaces can equal may count too
        # many words, never too few.
        catalog = EntityCatalog([org("Ab  Cd"), org(" Ef Gh")])
        assert catalog.alias_words("ab") == 3
        assert catalog.alias_words("") == 3
        assert catalog.alias_words("ef") == 0


NAMES = ("Acme", "acme", "AC", "Acorn", "Bolt")
TITLES = ("CEO", "ceo", "Chair")
FIRST = D(2010, 1, 1)


@st.composite
def catalogs(draw):
    """Small catalogs whose labels, aliases and orgs share a few names."""
    entities = []
    for index in range(draw(st.integers(1, 7))):
        positions = []
        for _ in range(draw(st.integers(0, 3))):
            start = FIRST + timedelta(days=draw(st.integers(0, 10)))
            end = draw(st.none() | st.integers(0, 10).map(lambda n: start + timedelta(days=n)))
            positions.append(
                PositionRecord(draw(st.sampled_from(TITLES)), draw(st.sampled_from(NAMES)), start, end)
            )
        entities.append(
            CatalogEntity(
                f"{KB}e{draw(st.integers(0, 9))}x{index}",
                draw(st.sampled_from(NAMES)),
                AGENT,
                tuple(draw(st.lists(st.sampled_from(NAMES), max_size=2))),
                positions=tuple(positions),
            )
        )
    return EntityCatalog(entities)


class TestHoldersProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        catalog=catalogs(),
        title=st.sampled_from(TITLES),
        picks=st.lists(st.integers(0, 6), max_size=4),
        extra=st.booleans(),
        day=st.integers(-1, 21),
    )
    def test_holders_equals_the_full_scan(self, catalog, title, picks, extra, day):
        iris = [e.iri for e in catalog_entities(catalog)]
        org_iris = {iris[i % len(iris)] for i in picks} | ({KB + "absent"} if extra else set())
        on = FIRST + timedelta(days=day)
        assert catalog.holders(title, org_iris, on) == reference_holders(
            catalog, title, org_iris, on
        )


GOOD = {
    "iri": KB + "p1",
    "label": "Abel Ames",
    "type": "Person",
    "aliases": ["Ames"],
    "keywords": ["Acme"],
    "roles": [{"title": "CEO", "org": "Acme", "from": "2010-01-01", "to": None}],
}


def write_catalog(tmp_path, *entities) -> str:
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"entities": list(entities)}), encoding="utf-8")
    return str(path)


def role(**changes):
    return {**GOOD["roles"][0], **changes}


class TestLoadChecks:
    @pytest.mark.parametrize("iri", ["Kevin_Systrom", KB + "a b", KB + "a<b"])
    def test_an_entity_built_in_code_needs_an_absolute_iri(self, iri):
        # Linking builds an EntityRef from a catalog IRI, unchecked.
        with pytest.raises(CatalogError, match="not absolute"):
            CatalogEntity(iri, "Acme", AGENT, ())

    def test_good_entity_loads(self, tmp_path):
        path = write_catalog(tmp_path, GOOD, {"iri": KB + "o1", "label": "Acme"})
        catalog = load_catalog(path)
        person, org = catalog_entities(catalog)
        assert person.aliases == ("Ames",) and person.keywords == ("acme",)
        assert person.positions == (PositionRecord("CEO", "Acme", D(2010, 1, 1)),)
        assert (person.iri, org.iri, org.entity_type) == (KB + "p1", KB + "o1", AGENT)
        assert names(catalog.holders("ceo", {KB + "o1"}, D(2020, 1, 1))) == ["Abel Ames"]

    @pytest.mark.parametrize(
        "entity, message",
        [
            (1, "entities[0]: expected an object, got 1"),
            ("x", "entities[0]: expected an object, got 'x'"),
            ({**GOOD, "iri": 7}, "entities[0]: 'iri' must be a string, got 7"),
            ({**GOOD, "iri": "not an iri"}, "'iri' must be an absolute IRI, got 'not an iri'"),
            ({**GOOD, "iri": "http://x/o b"}, "'iri' must be an absolute IRI, got 'http://x/o b'"),
            ({**GOOD, "iri": ""}, "'iri' must be an absolute IRI, got ''"),
            ({"label": "Abel"}, "entities[0]: missing field 'iri'"),
            ({"iri": KB + "p1"}, "entities[0]: missing field 'label'"),
            ({**GOOD, "label": 3}, "'label' must be a string, got 3"),
            ({**GOOD, "label": None}, "'label' must be a string, got None"),
            ({**GOOD, "label": ""}, "entity needs an iri and a label"),
            ({**GOOD, "type": ["Person"]}, "'type' must be a string, got ['Person']"),
            ({**GOOD, "aliases": "AB"}, "'aliases' must be a list of strings, got 'AB'"),
            ({**GOOD, "aliases": ["A", 2]}, "'aliases' must hold only strings, got 2"),
            ({**GOOD, "keywords": [5]}, "'keywords' must hold only strings, got 5"),
            ({**GOOD, "keywords": None}, "'keywords' must be a list of strings, got None"),
            ({**GOOD, "roles": {"title": "CEO"}}, "'roles' must be a list of objects, got {"),
            ({**GOOD, "roles": ["CEO"]}, "'roles' must hold only objects, got 'CEO'"),
            ({**GOOD, "roles": [role(title=1)]}, "roles[0]: 'title' must be a string, got 1"),
            ({**GOOD, "roles": [role(org=None)]}, "roles[0]: 'org' must be a string, got None"),
            ({**GOOD, "roles": [{"title": "CEO", "org": "Acme"}]}, "roles[0]: missing field 'from'"),
            ({**GOOD, "roles": [role(), role(to=5)]}, "roles[1]: 'to' must be an ISO date string"),
            ({**GOOD, "roles": [role(to="soon")]}, "roles[0]: 'to' must be an ISO date, got 'soon'"),
            ({**GOOD, "roles": [role(title="")]}, "roles[0]: position needs a title and an org"),
            (
                {**GOOD, "roles": [role(to="2009-01-01")]},
                "roles[0]: position 'CEO': interval ends before it starts",
            ),
        ],
    )
    def test_bad_value_names_file_entity_and_field(self, tmp_path, entity, message):
        path = write_catalog(tmp_path, entity)
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        text = str(err.value)
        assert text.startswith(f"{path}: entities[0]: ")
        assert message in text
        assert text.count(path) == 1

    def test_error_names_the_bad_entity_by_index(self, tmp_path):
        path = write_catalog(tmp_path, GOOD, {**GOOD, "iri": KB + "p2", "aliases": "AB"})
        with pytest.raises(CatalogError, match=r"entities\[1\]: 'aliases'"):
            load_catalog(path)

    def test_duplicate_iri_names_the_file_once(self, tmp_path):
        path = write_catalog(tmp_path, GOOD, GOOD)
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert str(err.value) == f"{path}: duplicate entity IRI {KB}p1"

    @pytest.mark.parametrize(
        "text",
        ["{", "[" * 100_000, '{"entities": [' + "1" * 5000 + "]}", '{"entities": {}}', "[]"],
    )
    def test_unreadable_payload_names_the_file_once(self, tmp_path, text):
        path = tmp_path / "catalog.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).count(str(path)) == 1


# The load as it was before it read each field once and freed the parsed JSON
# before indexing, with the index as it was before one pass over the alias
# keys: kept as the oracle the load must match, checks, messages and answers.


def reference_position(raw: dict) -> PositionRecord:
    title, org = raw.get("title"), raw.get("org")
    if not isinstance(title, str):
        raise bad_field(raw, "title", "a string")
    if not isinstance(org, str):
        raise bad_field(raw, "org", "a string")
    return PositionRecord(
        title=title,
        org=org,
        valid_from=_date(raw, "from"),
        valid_to=None if raw.get("to") is None else _date(raw, "to"),
    )


def reference_entity(raw: object) -> CatalogEntity:
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
    roles = list_field(raw, "roles", dict) if "roles" in raw else ()
    for index, role in enumerate(roles):
        try:
            positions.append(reference_position(role))
        except InputError as exc:
            raise InputError(f"roles[{index}]: {exc}") from exc
    return CatalogEntity(
        iri=iri,
        label=label,
        entity_type=entity_type,
        aliases=tuple(list_field(raw, "aliases", str)),
        keywords=tuple([k.casefold() for k in list_field(raw, "keywords", str)]),
        positions=tuple(positions),
    )


class ReferenceCatalog(EntityCatalog):
    def __init__(self, entities) -> None:
        self._by_iri = {}
        self._by_alias = {}
        self._alias_words = {}
        for entity in entities:
            if entity.iri in self._by_iri:
                raise CatalogError(f"duplicate entity IRI {entity.iri}")
            self._by_iri[entity.iri] = entity
            for alias in (entity.label, *entity.aliases):
                key = alias.casefold()
                bucket = self._by_alias.get(key)
                if bucket is None:
                    self._by_alias[key] = [entity.iri]
                    first = key.partition(" ")[0]
                    words = key.count(" ") + 1
                    if words > self._alias_words.get(first, 0):
                        self._alias_words[first] = words
                elif entity.iri not in bucket:
                    bucket.append(entity.iri)
        for bucket in self._by_alias.values():
            bucket.sort()
        self._titles = set()
        self._positions = {}
        for entity in self._by_iri.values():
            if not entity.positions:
                continue
            for rank, position in enumerate(entity.positions):
                title = position.title.casefold()
                self._titles.add(title)
                for org_iri in self._by_alias.get(position.org.casefold(), ()):
                    self._positions.setdefault((title, org_iri), []).append(
                        (rank, entity, position)
                    )


def reference_load(path) -> EntityCatalog:
    payload = read_json(path, CatalogError)
    entities = []
    for index, raw in enumerate(payload["entities"]):
        try:
            entities.append(reference_entity(raw))
        except InputError as exc:
            raise CatalogError(f"{path}: entities[{index}]: {exc}") from exc
    try:
        return ReferenceCatalog(entities)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc


# Names that casefold alike ("Acme"/"ACME", "Straße"/"STRASSE"), share a first
# word, or are no single word, so that buckets hold several IRIs and one
# entity's label and alias can share a key.
RAW_NAMES = (
    "Acme", "ACME", "acme corp", "Straße", "STRASSE",
    "New York", "new york city", "Bolt", " Bolt", "",
)
RAW_DAYS = ("2010-01-01", "2010-01-05", "2010-01-05+05:00", "2010-01-09Z")  # in date order
ANY_ROLE = {"title": "CEO", "org": "Acme", "from": "2010-01-01"}


def _set(key, value):
    return lambda entity, n: {**entity, key: value} if isinstance(entity, dict) else entity


def _drop(key):
    return lambda entity, n: (
        {k: v for k, v in entity.items() if k != key} if isinstance(entity, dict) else entity
    )


def _role(change):
    """The fault ``change`` made to the entity's role ``n``, adding a role if it has none."""

    def fault(entity, n):
        if not isinstance(entity, dict):
            return entity
        roles = entity.get("roles")
        roles = list(roles) if isinstance(roles, list) and roles else [ANY_ROLE]
        n %= len(roles)
        if isinstance(roles[n], dict):
            roles[n] = change(roles[n])
        return {**entity, "roles": roles}

    return fault


# One fault for each bad-value row of TestLoadChecks, in its order.
FAULTS = (
    lambda entity, n: 1,
    lambda entity, n: "x",
    _set("iri", 7),
    _set("iri", "not an iri"),
    _set("iri", "http://x/o b"),
    _set("iri", ""),
    _drop("iri"),
    _drop("label"),
    _set("label", 3),
    _set("label", None),
    _set("label", ""),
    _set("type", ["Person"]),
    _set("aliases", "AB"),
    _set("aliases", ["A", 2]),
    _set("keywords", [5]),
    _set("keywords", None),
    _set("roles", {"title": "CEO"}),
    _set("roles", ["CEO"]),
    _role(lambda role: {**role, "title": 1}),
    _role(lambda role: {**role, "org": None}),
    _role(lambda role: {k: v for k, v in role.items() if k != "from"}),
    _role(lambda role: {**role, "to": 5}),
    _role(lambda role: {**role, "to": "soon"}),
    _role(lambda role: {**role, "title": ""}),
    _role(lambda role: {**role, "to": "2009-01-01"}),
)


@st.composite
def raw_roles(draw):
    start = draw(st.integers(0, len(RAW_DAYS) - 1))
    role = {
        "title": draw(st.sampled_from(TITLES)),
        "org": draw(st.sampled_from(RAW_NAMES[:-1])),
        "from": RAW_DAYS[start],
    }
    to = draw(st.sampled_from((False, None, *RAW_DAYS[start:])))
    if to is not False:
        role["to"] = to
    return role


@st.composite
def raw_catalogs(draw):
    """Raw entity lists in which one entity may carry up to two faults, so the
    order in which the checks run shows."""
    size = draw(st.integers(1, 6))
    faulty = draw(st.integers(0, size - 1))
    entities = []
    for index in range(size):
        shared = draw(st.integers(0, index)) if draw(st.integers(0, 7)) == 7 else index
        entity = {
            "iri": f"{KB}e{shared}",
            "label": draw(st.sampled_from(RAW_NAMES[:-1])),
        }
        for key, values in (
            ("type", st.sampled_from((PERSON, AGENT))),
            ("aliases", st.lists(st.sampled_from(RAW_NAMES), max_size=3)),
            ("keywords", st.lists(st.sampled_from(RAW_NAMES), max_size=2)),
            ("roles", st.lists(raw_roles(), max_size=3)),
        ):
            if draw(st.booleans()):
                entity[key] = draw(values)
        for _ in range(draw(st.integers(0, 2)) if index == faulty else 0):
            entity = draw(st.sampled_from(FAULTS))(entity, draw(st.integers(0, 2)))
        entities.append(entity)
    return entities


def outcome(check, raw):
    try:
        entity = check(raw)
    except InputError as exc:
        return type(exc), str(exc)
    return type(entity), entity


def test_every_pair_of_faults_reads_as_the_reference():
    """Each ordered pair of faults, on one role or on two, gives the
    reference's entity or message: the checks run in the reference's order."""
    base = {**GOOD, "roles": [role(), role(title="Chair", to=None)]}
    for first, second, n, m in itertools.product(FAULTS, FAULTS, (0, 1), (0, 1)):
        raw = second(first(base, n), m)
        assert outcome(_entity, raw) == outcome(reference_entity, raw)


PROBES = (*RAW_NAMES, "acme corp".upper(), "strasse", "new", "absent")
FIRST_WORDS = ("acme", "ACME", "strasse", "straße", "new", "york", "bolt", "", "absent")
PROBE_DAYS = (D(2009, 12, 31), D(2010, 1, 1), D(2010, 1, 5), D(2010, 1, 9), D(2010, 1, 10))


class TestLoadMatchesTheReference:
    @settings(max_examples=400, deadline=None)
    @given(raw=raw_catalogs())
    @example(
        raw=[
            {"iri": f"{KB}a", "label": "Straße", "aliases": ["STRASSE", "Bolt"]},
            {"iri": f"{KB}b", "label": "Bolt", "aliases": ["strasse", "acme corp"]},
            {"iri": f"{KB}c", "label": "ACME", "roles": [{**ANY_ROLE, "org": "BOLT"}]},
        ]
    )
    def test_load_equals_the_reference(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "raw_catalog.json"
        path.write_text(json.dumps({"entities": raw}), encoding="utf-8")
        try:
            expected = reference_load(path)
        except CatalogError as exc:
            with pytest.raises(CatalogError) as err:
                load_catalog(path)
            assert str(err.value) == str(exc)
            return
        catalog = load_catalog(path)
        assert catalog_entities(catalog) == catalog_entities(expected)
        assert all(type(e) is CatalogEntity for e in catalog_entities(catalog))
        for name in PROBES:
            assert catalog.candidates(name) == expected.candidates(name)
        for word in FIRST_WORDS:
            assert catalog.alias_words(word) == expected.alias_words(word)
        iris = sorted(e.iri for e in catalog_entities(catalog))
        for title in (*TITLES, "absent"):
            assert catalog.is_position_title(title) == expected.is_position_title(title)
            for day in PROBE_DAYS:
                for org_iris in ({iris[0]}, set(iris), {f"{KB}absent"}):
                    assert catalog.holders(title, org_iris, day) == expected.holders(
                        title, org_iris, day
                    )
