"""Entity catalog: dated position look-ups and the checks made at load."""

from __future__ import annotations

import json
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex.catalog import (
    AGENT,
    PERSON,
    CatalogEntity,
    CatalogError,
    EntityCatalog,
    PositionRecord,
    load_catalog,
)

KB = "http://kb.example/"


def reference_holders(catalog: EntityCatalog, title: str, org_iris: set[str], on: date):
    """The full-catalog scan ``holders`` replaced, kept as the oracle."""
    found = []
    for entity in catalog.entities():
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
    return CatalogEntity(KB + name, name, "Organisation", aliases)


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
        iris = [e.iri for e in catalog.entities()]
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
    def test_good_entity_loads(self, tmp_path):
        path = write_catalog(tmp_path, GOOD, {"iri": KB + "o1", "label": "Acme"})
        catalog = load_catalog(path)
        entity = catalog.get(KB + "p1")
        assert entity.aliases == ("Ames",) and entity.keywords == ("acme",)
        assert entity.positions == (PositionRecord("CEO", "Acme", D(2010, 1, 1)),)
        assert catalog.get(KB + "o1").entity_type == AGENT
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
