"""Event classes, role frames, records, and instance validation."""

from __future__ import annotations

from datetime import date, datetime, timezone

import pytest

from headex.model import (
    COMMUNICATION,
    FRAMES,
    GENERIC_ROLES,
    MEET,
    MURDER,
    EntityRef,
    EventClass,
    EventInstance,
    HeadlineRecord,
    ModelError,
    Provenance,
    RoleFrame,
    TextFiller,
)


class TestEventClass:
    def test_builtins(self):
        assert EventClass(MEET).frame is FRAMES[MEET]
        assert "Election" not in FRAMES

    def test_subgroup_only_for_communication(self):
        assert EventClass(COMMUNICATION, subgroup="SayVerbs").subgroup == "SayVerbs"
        with pytest.raises(ModelError):
            EventClass(MEET, subgroup="SayVerbs")

    @pytest.mark.parametrize("name", ["Sports Event", "Worship<", "Vote|Poll"])
    def test_name_holds_no_character_iris_forbid(self, name):
        with pytest.raises(ModelError, match="which IRIs forbid"):
            EventClass(name)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EventClass("Vote|Poll"), "event class name holds '|', which IRIs forbid"),
        (
            lambda: HeadlineRecord("a b", "CNN", datetime(2016, 1, 1, tzinfo=timezone.utc), "x"),
            "record id holds ' ', which IRIs forbid",
        ),
        (
            lambda: EventInstance(
                "x<1", EventClass(MEET), None, (), Provenance("CNN", date(2016, 2, 26))
            ),
            "instance_id holds '<', which IRIs forbid",
        ),
    ],
    ids=["event class name", "record id", "instance id"],
)
def test_a_name_spelled_into_iris_names_the_forbidden_character(build, message):
    with pytest.raises(ModelError) as err:
        build()
    assert str(err.value) == message


class TestFrames:
    def test_builtin_frames_have_expected_roles(self):
        meet = EventClass(MEET).frame
        assert set(meet.role_names) >= {"Participant", "Topic", *GENERIC_ROLES}
        assert EventClass(COMMUNICATION).frame.required_roles == ("Giver", "Message")
        murder = EventClass(MURDER).frame
        assert {"Victim", "Perpetrator", "Cause", "Count"} <= set(murder.role_names)
        assert murder.required_roles == ()
        assert meet.main_subject == meet.main_object == (("Participant", True),)
        assert murder.main_subject == (("Perpetrator", True), ("Cause", False))
        assert murder.main_object == (("Victim", False), ("Count", False))

    def test_subgroup_shares_the_class_frame(self):
        assert EventClass(COMMUNICATION, subgroup="SayVerbs").frame is FRAMES[COMMUNICATION]

    def test_unknown_class_gets_generic_frame(self):
        frame = EventClass("Banquet").frame
        assert frame == RoleFrame()
        assert frame.role_names == GENERIC_ROLES
        assert frame.required_roles == ()
        assert frame.main_subject == frame.main_object == ()

    def test_extension_instance_takes_generic_roles_only(self):
        def make(role):
            return EventInstance(
                instance_id="e1",
                event_class=EventClass("Election"),
                mention=None,
                roles=((role, TextFiller("x")),),
                provenance=Provenance("CNN", date(2016, 2, 26)),
            )

        assert make("involved").roles == (("involved", TextFiller("x")),)
        with pytest.raises(ModelError):
            make("Winner")

    def test_duplicate_role_error_names_the_role(self):
        with pytest.raises(ModelError, match="role 'Topic' appears more than once"):
            RoleFrame(roles=("Topic", "Participant", "Topic"))

    def test_builtin_frames_cannot_be_replaced(self):
        with pytest.raises(TypeError):
            FRAMES[MEET] = RoleFrame()  # type: ignore[index]
        with pytest.raises(AttributeError):
            FRAMES[MEET].roles = ()  # type: ignore[misc]


class TestRecords:
    def test_valid_record(self):
        r = HeadlineRecord("no2", "CNN", datetime(2016, 2, 26, tzinfo=timezone.utc), "text")
        assert r.publisher == "CNN"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(id="", publisher="CNN", text="x"),
            dict(id="a", publisher="", text="x"),
            dict(id="a", publisher="CNN", text=""),
            dict(id="a\nb", publisher="CNN", text="x"),
        ],
    )
    def test_invalid_records(self, kwargs):
        with pytest.raises(ModelError):
            HeadlineRecord(timestamp=datetime(2016, 1, 1, tzinfo=timezone.utc), **kwargs)

    @pytest.mark.parametrize("timestamp", [date(2016, 1, 1), "2016-01-01", None])
    def test_timestamp_must_be_a_datetime(self, timestamp):
        # Extraction takes the record's day as a date, unchecked.
        with pytest.raises(ModelError, match="not a datetime"):
            HeadlineRecord("a", "CNN", timestamp, "x")


class TestInstances:
    def make(self, roles):
        return EventInstance(
            instance_id="x1",
            event_class=EventClass(MEET),
            mention=None,
            roles=roles,
            provenance=Provenance("CNN", date(2016, 2, 26)),
        )

    def test_roles_must_belong_to_frame(self):
        inst = self.make((("Participant", EntityRef("http://e/x")),))
        assert inst.roles == (("Participant", EntityRef("http://e/x")),)
        with pytest.raises(ModelError):
            self.make((("Winner", TextFiller("x")),))

    @pytest.mark.parametrize("instance_id", ["x 1", "x<1", 'x"1', "x\\1"])
    def test_instance_id_holds_no_character_iris_forbid(self, instance_id):
        with pytest.raises(ModelError, match="which IRIs forbid"):
            EventInstance(
                instance_id=instance_id,
                event_class=EventClass(MEET),
                mention=None,
                roles=(),
                provenance=Provenance("CNN", date(2016, 2, 26)),
            )

    @pytest.mark.parametrize("iri", ["", "Kevin_Systrom", "/resource/Kevin_Systrom", "http://e/a b"])
    def test_entity_reference_iri_must_be_absolute(self, iri):
        with pytest.raises(ModelError, match="not absolute"):
            EntityRef(iri)

    @pytest.mark.parametrize("text", ["", "  ", b"bytes", 7])
    def test_text_filler_must_be_a_nonempty_string(self, text):
        # Emission builds a body literal from it, unchecked.
        with pytest.raises(ModelError, match="nonempty string"):
            TextFiller(text)

    def test_generic_roles_always_allowed(self):
        inst = self.make((("involved", TextFiller("bystanders")),))
        assert inst.roles == (("involved", TextFiller("bystanders")),)
