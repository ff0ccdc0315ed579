"""The package's immutable value classes: one contract for all of them.

Each is a tuple subclass on a ``collections.namedtuple`` base.  Its
constructor keeps the keyword and positional form of its fields, setting a
field raises ``AttributeError``, ``pickle``, ``copy`` and ``deepcopy`` give
back an equal value of the same class, the repr names every field, and a
class that checks its fields checks them again when a value is rebuilt.
"""

from __future__ import annotations

import ast
import copy
import os
import pickle
import pkgutil
import subprocess
import sys
from datetime import date, datetime, timezone
from pathlib import Path

import pytest

import headex
from headex.catalog import CatalogEntity, CatalogError, PositionRecord
from headex.datamodel import (
    DataModelDescriptor,
    DescriptorError,
    EntityType,
    EventEntityProperty,
    RequirementReport,
    RequirementResult,
    Verdict,
)
from headex.entities import Chunk, DisambiguationAudit, EntityMention
from headex.events import EventMention, VerbCandidate
from headex.ingest import QuotedSpan, Token, TokenSequence
from headex.interlink import EventIndexEntry
from headex.lexicon import VerbEntry
from headex.model import (
    FRAMES,
    EntityRef,
    EventClass,
    EventInstance,
    HeadlineRecord,
    ModelError,
    Provenance,
    RoleFrame,
    TextFiller,
)
from headex.pipeline import SkippedRecord
from headex.rdf import Literal, RdfError, Triple
from headex.triplify import IriPolicy, PolicyError

X = "http://x/"
DAY = date(2016, 3, 1)
AT = datetime(2016, 3, 1, tzinfo=timezone.utc)
MEET = EventClass("Meet")
TOKEN = Token("Obama", "word", 0, 5)
CHUNK = Chunk(0, "subject", None, None, (TOKEN,), "Obama", "Obama")
CANDIDATE = VerbCandidate(1, "meets", "meet", MEET)
MENTION = EventMention(1, "meets", "meet", MEET, (6, 11), (CANDIDATE,))
RESULTS = tuple(RequirementResult(f"R{i}", Verdict.PASS, "ok") for i in range(1, 5))
PARTICIPANT = (("Participant", EntityRef(f"{X}obama")),)
PROVENANCE = Provenance("bbc", DAY)
TYPES = (EntityType("P", "fine"), EntityType("P", "coarse"))

# class -> (its fields in constructor order, each with its default if it has
# one, a value, and for a class that checks its fields, the fields of a value
# it rejects and the error it raises)
VALUES = {
    EventClass: (
        "name subgroup=None",
        EventClass("Communication", "SayVerbs"),
        (("Meet", "SayVerbs"), ModelError),
    ),
    # A built-in frame, so that its rules must pickle, copy and deepcopy too.
    RoleFrame: (
        "roles=() required_roles=() main_subject=() main_object=() rules=()",
        FRAMES["Meet"],
        ((("Topic", "Topic"), (), (), (), ()), ModelError),
    ),
    HeadlineRecord: (
        "id publisher timestamp text",
        HeadlineRecord("r1", "bbc", AT, "Obama meets Putin"),
        (("r 1", "bbc", AT, "Obama meets Putin"), ModelError),
    ),
    Provenance: ("publisher extracted_on", PROVENANCE, (("bbc", "2016-03-01"), ModelError)),
    EntityRef: ("iri", EntityRef(f"{X}obama"), (("obama",), ModelError)),
    TextFiller: ("text", TextFiller("trade"), ((" ",), ModelError)),
    EventInstance: (
        "instance_id event_class mention roles provenance warnings=()",
        EventInstance("r1", MEET, MENTION, PARTICIPANT, PROVENANCE),
        (("r1", MEET, MENTION, (("Victim", TextFiller("x")),), PROVENANCE, ()), ModelError),
    ),
    EntityType: (
        "name granularity",
        EntityType("Person", "fine"),
        (("Person", "medium"), DescriptorError),
    ),
    EventEntityProperty: (
        "name domain range",
        EventEntityProperty("hasAgent", "Event", "Person"),
        (("hasAgent", "", "Person"), DescriptorError),
    ),
    DataModelDescriptor: (
        "name has_generic_event has_specific_event_types provenance_properties entity_types"
        " event_entity_properties",
        DataModelDescriptor("m", True, False, ("publisher",), TYPES[:1], ()),
        (("m", True, False, (), TYPES, ()), DescriptorError),
    ),
    RequirementResult: ("requirement verdict note", RESULTS[0], None),
    RequirementReport: (
        "model_name results",
        RequirementReport("m", RESULTS),
        (("m", RESULTS[:1]), DescriptorError),
    ),
    PositionRecord: (
        "title org valid_from valid_to=None",
        PositionRecord("CEO", "Instagram", date(2010, 10, 6)),
        (("CEO", "Instagram", DAY, date(2010, 10, 6)), CatalogError),
    ),
    CatalogEntity: (
        "iri label entity_type aliases keywords=() positions=()",
        CatalogEntity(f"{X}obama", "Barack Obama", "Person", ("Obama",), keywords=("president",)),
        (("", "Barack Obama", "Person", (), (), ()), CatalogError),
    ),
    IriPolicy: (
        "base_iri='http://example.org/news/'",
        IriPolicy(),
        (("example.org/",), PolicyError),
    ),
    QuotedSpan: ("start end first_token last_token", QuotedSpan(4, 11, 1, 1), None),
    TokenSequence: ("raw tokens quoted_spans=() urls=()", TokenSequence("Obama", (TOKEN,)), None),
    VerbCandidate: (
        "token_index surface lemma event_class infinitive=False leading=False",
        CANDIDATE,
        None,
    ),
    EventMention: (
        "head_index surface lemma event_class span candidates infinitive_head=False",
        MENTION,
        None,
    ),
    Chunk: ("index position intro intro_kind tokens text full_text", CHUNK, None),
    EntityMention: (
        "text span kind chunk status='unresolved' iri=None entity_type=None implicit=None"
        " count_value=None",
        EntityMention("Obama", (0, 5), "named", CHUNK),
        None,
    ),
    DisambiguationAudit: (
        "surface chosen_iri runner_up_iri scores record_id=''",
        DisambiguationAudit("Obama", f"{X}obama", f"{X}michelle", ((f"{X}obama", 2, 1, 0.5),)),
        None,
    ),
    VerbEntry: ("lemma event_class noun_ok=False", VerbEntry("meet", MEET), None),
    EventIndexEntry: (
        "instance_iri class_iri participants timestamp publisher",
        EventIndexEntry(f"{X}Meet_r1", f"{X}Meet", frozenset({f"{X}obama"}), AT, "bbc"),
        None,
    ),
    SkippedRecord: ("record_id reason", SkippedRecord("r2", "no event verb recognized"), None),
    Triple: (
        "subject predicate object",
        Triple(f"{X}s", f"{X}p", Literal("o")),
        ((f"{X}s", "p", f"{X}o"), RdfError),
    ),
    Literal: (
        "lexical datatype=None language=None",
        Literal("o", language="en"),
        (("o", "rel", None), RdfError),
    ),
}
CLASSES = list(VALUES)
CHECKED = [cls for cls in CLASSES if VALUES[cls][2] is not None]
REQUIRED = object()


def fields_of(cls) -> dict[str, object]:
    """Field name -> default, or ``REQUIRED`` for a field without one."""
    out = {}
    for spec in VALUES[cls][0].split():
        name, _, default = spec.partition("=")
        out[name] = ast.literal_eval(default) if default else REQUIRED
    return out


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestValueClass:
    def test_fields_defaults_and_repr(self, cls):
        fields, value = fields_of(cls), VALUES[cls][1]
        names = list(fields)
        assert type(value) is cls and isinstance(value, tuple)
        assert cls(*value) == value == cls(**dict(zip(names, value)))
        required = {name: getattr(value, name) for name in names if fields[name] is REQUIRED}
        assert cls(**required) == tuple(required.get(name, fields[name]) for name in names)
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{cls.__name__}({shown})"

    def test_immutable(self, cls):
        for name in [*fields_of(cls), "extra"]:
            with pytest.raises(AttributeError):
                setattr(VALUES[cls][1], name, None)

    def test_pickle_copy_and_deepcopy(self, cls):
        _, value, _ = VALUES[cls]
        copies = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in [*copies, copy.copy(value), copy.deepcopy(value)]:
            assert type(other) is cls
            assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_rebuilding_runs_the_checks(cls):
    """A value that skipped its checks, as ``tuple.__new__`` lets one, fails
    them when it is rebuilt, by ``pickle`` at every protocol, by ``copy``, by
    ``_replace`` and by ``_make``."""
    _, _, (fields, error) = VALUES[cls]
    with pytest.raises(error):
        cls(*fields)
    bad = tuple.__new__(cls, fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol)
        with pytest.raises(error):
            pickle.loads(data)
    for rebuild in (copy.copy, copy.deepcopy, lambda value: value._replace(), cls._make):
        with pytest.raises(error):
            rebuild(bad)


def test_entity_and_text_fillers_of_one_string_differ():
    iri = f"{X}obama"
    ref, text = EntityRef(iri), TextFiller(iri)
    assert ref != text and text != ref
    assert not (ref == text or text == ref)
    assert len({ref, text}) == 2
    assert ref == EntityRef(iri) and not ref != EntityRef(iri)
    assert text == TextFiller(iri) and not text != TextFiller(iri)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's headex."""
    src = str(Path(headex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import headex.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    done = _fresh_python(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_importing_the_cli_leaves_the_data_model_checker_unloaded():
    # Only `validate` needs it; every other command would compile it for nothing.
    done = _fresh_python("import sys, headex.cli; print('headex.datamodel' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(headex.__path__)))
def test_each_module_imports_first(module):
    """An import cycle can break only one import order, so each module is
    imported first in an interpreter of its own."""
    done = _fresh_python(f"import headex.{module}")
    assert (done.returncode, done.stderr) == (0, "")
