"""Requirement checks for event data model descriptors."""

from __future__ import annotations

import json

import pytest

from headex.datamodel import (
    DataModelDescriptor,
    DescriptorError,
    EntityType,
    EventEntityProperty,
    RequirementReport,
    RequirementResult,
    Verdict,
    load_descriptor,
    validate_data_model,
)

EXPECTED_MATRIX = {
    "lode.json": ("pass", "fail", "pass_loosely", "pass"),
    "sem.json": ("pass", "fail", "pass", "pass"),
    "dbpedia.json": ("pass", "fail", "pass", "pass"),
    "schema_org.json": ("pass", "fail", "pass", "pass"),
    "headex.json": ("pass", "pass", "pass", "pass"),
}


@pytest.mark.parametrize("filename", sorted(EXPECTED_MATRIX))
def test_shipped_descriptor_verdicts(filename, fixtures_dir):
    report = validate_data_model(load_descriptor(fixtures_dir / "datamodels" / filename))
    assert tuple(r.verdict.value for r in report.results) == EXPECTED_MATRIX[filename]
    assert tuple(r.requirement for r in report.results) == ("R1", "R2", "R3", "R4")
    assert report.all_pass == (filename == "headex.json")


def results(report: RequirementReport) -> dict[str, RequirementResult]:
    return {r.requirement: r for r in report.results}


def descriptor(**overrides) -> DataModelDescriptor:
    fields = dict(
        name="model",
        has_generic_event=True,
        has_specific_event_types=False,
        provenance_properties=("hasSource",),
        entity_types=(EntityType("Agent", "coarse"),),
        event_entity_properties=(EventEntityProperty("involved", "Event", "Agent"),),
    )
    fields.update(overrides)
    return DataModelDescriptor(**fields)


class TestRequirements:
    def test_generic_event_required(self):
        report = validate_data_model(descriptor(has_generic_event=False))
        assert results(report)["R1"].verdict is Verdict.FAIL

    def test_provenance_must_name_a_publisher(self):
        for prop, verdict in (
            ("dc:publisher", Verdict.PASS),
            ("hasSource", Verdict.PASS),
            ("accordingTo", Verdict.FAIL),
        ):
            report = validate_data_model(descriptor(provenance_properties=(prop,)))
            assert results(report)["R2"].verdict is verdict, prop
        no_props = validate_data_model(descriptor(provenance_properties=()))
        assert results(no_props)["R2"].verdict is Verdict.FAIL

    def test_entity_typing_granularity(self):
        untyped = validate_data_model(descriptor(entity_types=(), event_entity_properties=()))
        assert results(untyped)["R3"].verdict is Verdict.FAIL
        coarse = validate_data_model(descriptor())
        assert results(coarse)["R3"].verdict is Verdict.PASS_LOOSELY
        fine = validate_data_model(
            descriptor(
                entity_types=(EntityType("Agent", "coarse"), EntityType("Person", "fine")),
                event_entity_properties=(
                    EventEntityProperty("involved", "Event", "Agent"),
                    EventEntityProperty("victim", "Event", "Person"),
                ),
            )
        )
        assert results(fine)["R3"].verdict is Verdict.PASS

    def test_unconnected_entity_type_fails_r4(self):
        report = validate_data_model(
            descriptor(
                entity_types=(EntityType("Agent", "coarse"), EntityType("Orphan", "fine")),
            )
        )
        result = results(report)["R4"]
        assert result.verdict is Verdict.FAIL
        assert "Orphan" in result.note

    def test_report_ids_are_fixed(self):
        with pytest.raises(DescriptorError):
            RequirementReport(
                "broken", (RequirementResult("R9", Verdict.PASS, ""),) * 4
            )


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "name": "Tiny",
                    "has_generic_event": True,
                    "provenance_properties": ["publisher"],
                    "entity_types": [{"name": "Agent", "granularity": "coarse"}],
                    "event_entity_properties": [
                        {"property": "involved", "domain": "Event", "range": "Agent"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        loaded = load_descriptor(path)
        assert loaded.name == "Tiny"
        assert not loaded.has_specific_event_types  # optional, defaults off
        assert results(validate_data_model(loaded))["R2"].verdict is Verdict.PASS

    def test_rejects_bad_payloads(self, tmp_path):
        cases = {
            "notjson.json": "{",
            "list.json": "[]",
            "missing.json": "{}",
            "badgran.json": json.dumps(
                {
                    "name": "X",
                    "has_generic_event": True,
                    "entity_types": [{"name": "Agent", "granularity": "vague"}],
                }
            ),
        }
        for filename, content in cases.items():
            path = tmp_path / filename
            path.write_text(content, encoding="utf-8")
            with pytest.raises(DescriptorError):
                load_descriptor(path)

    def test_duplicate_entity_types_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor(entity_types=(EntityType("Agent", "coarse"), EntityType("Agent", "fine")))
