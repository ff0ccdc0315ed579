"""The extract boundary: every record read becomes exactly one event or one skip."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from headex.catalog import load_catalog
from headex.ingest import read_records
from headex.pipeline import extract_corpus
from headex.triplify import IriPolicy

BASE = IriPolicy().base_iri

# Some entities own the IRI that minting "@zork" or "Kim" would produce,
# under a label that surface does not match.
_IRIS = st.sampled_from(("zork", "vela", "kim")).flatmap(
    lambda slug: st.sampled_from((f"{BASE}entity/{slug}", f"http://kb.example/{slug}"))
)
_ENTITIES = st.lists(
    st.fixed_dictionaries(
        {
            "iri": _IRIS,
            "label": st.sampled_from(("Zorkington", "Vela", "Kim Tori", "Obama")),
            "type": st.sampled_from(("Person", "Place", "Organisation", "Agent")),
        },
        optional={
            "aliases": st.lists(st.sampled_from(("Zork", "Kim", "Obama")), max_size=2),
            "roles": st.lists(
                st.fixed_dictionaries(
                    {
                        "title": st.just("CEO"),
                        "org": st.sampled_from(("Vela", "Zorkington")),
                        "from": st.sampled_from(("2015-01-01", "2017-01-01")),
                    }
                ),
                max_size=1,
            ),
        },
    ),
    max_size=4,
    unique_by=lambda entity: entity["iri"],
)
_WORDS = st.sampled_from(
    (
        "meets", "says", "kills", "visits", "@zork", "@vela", "@kim", "@_", "Zork", "Kim",
        "Kim Tori", "Obama", "Vela CEO", "CEO of Zorkington", "3", "people", '"', ":",
        "to", "at least", "with", "in", "#tag", "!!!",
    )
)
_LINES = st.one_of(
    st.tuples(
        st.sampled_from(("r1", "r2", "r3", "r 4")),
        st.sampled_from(("CNN", "!!!")),
        st.sampled_from(("16/3/16", "2016-03-16", "31/31/16")),
        st.lists(_WORDS, max_size=8).map(" ".join),
    ).map("\t".join),
    st.sampled_from(("a\tb\tc", "broken line", "")),
)


@settings(max_examples=300, deadline=None)
@given(entities=_ENTITIES, lines=st.lists(_LINES, max_size=6))
def test_every_record_becomes_one_event_or_one_skip(lexicon, entities, lines):
    with tempfile.TemporaryDirectory() as tmp:
        catalog_path = Path(tmp) / "catalog.json"
        catalog_path.write_text(json.dumps({"entities": entities}), encoding="utf-8")
        records_path = Path(tmp) / "records.tsv"
        records_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        catalog = load_catalog(catalog_path)
        records, malformed = read_records(records_path)
    # extract_corpus declares no error: any exception fails the property.
    result = extract_corpus(records, lexicon, catalog, IriPolicy())
    assert len(records) + len(malformed) == sum(1 for line in lines if line.strip())
    outcomes = [i.instance_id for i in result.instances] + [s.record_id for s in result.skipped]
    assert sorted(outcomes) == sorted(r.id for r in records)
