"""The extract boundary: every record read becomes exactly one event or one
skip, and the whole pipeline builds no reference cycles."""

from __future__ import annotations

import gc
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from headex.catalog import default_catalog_path, load_catalog
from headex.ingest import read_records
from headex.interlink import build_event_index, interlink_graph
from headex.lexicon import default_lexicon_path, load_lexicon_file
from headex.pipeline import extract_corpus
from headex.rdf import parse_ntriples, serialize_ntriples
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


class TestNoReferenceCycles:
    """``headex.cli.main`` runs each command with the cyclic collector
    paused, which is sound only while the pipeline frees everything it makes
    by reference counting.  A cycle built per record would grow a command's
    memory with its input, so none may be built."""

    ROWS = (
        "c1\tBBC\t11/3/16\tPope Francis meets Patriarch Kirill in Havana",
        "c2\tNYT\t11/3/16\tPope meets Patriarch Kirill in historic visit",
        "c3\tCNN\t12/3/16\tPope Francis says meeting with Patriarch Kirill was a breakthrough",
        "c4\tCNN\t26/2/16\tInstagram CEO meets with @Pontifex to discuss plans",
        "c5\tNYT\t10/3/16\tObama and Justin Trudeau announce efforts to fight climate change",
        "c6\tCNN\t12/3/16\t@zorkblat meets Patriarch Kirill",
        "c7\tCNN\t12/3/16\tWeather in Havana",
        "c8\tCNN\t12/3/16",
        "c9\tCNN\t31/31/16\tPope meets Kirill",
        "c1\tCNN\t12/3/16\tPope meets Kirill",
        "c10\tCNN\t12/3/16\t ",
    )

    def run_pipeline(self, path: Path) -> None:
        policy = IriPolicy()
        lexicon = load_lexicon_file(default_lexicon_path())
        catalog = load_catalog(default_catalog_path())
        records, failures = read_records(path)
        result = extract_corpus(records, lexicon, catalog, policy)
        graph = parse_ntriples(serialize_ntriples(result.graph))
        links, same, related = interlink_graph(graph, policy)
        entries = build_event_index(graph, policy)

        # The corpus reaches every skip reason, a minted handle, a
        # disambiguation, a position reference and both kinds of link.
        reasons = [reason for _, reason in failures] + [s.reason for s in result.skipped]
        for expected in (
            "expected 4 tab-separated fields",
            "invalid calendar date",
            "duplicate record id",
            "text must be nonempty",
            "no event verb recognized",
        ):
            assert sum(expected in reason for reason in reasons) == 1, (expected, reasons)
        subjects = {subject for subject, _, _ in graph}
        assert f"{BASE}entity/zorkblat" in subjects
        assert "http://dbpedia.org/resource/Kevin_Systrom" in subjects
        assert [audit.surface for audit in result.audits] == ["Obama"]
        assert same > 0 and related > 0 and len(links) == same + related
        assert len(entries) == len(result.instances) == 6

    def test_pipeline_leaves_no_cyclic_garbage(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text("".join(row + "\n" for row in self.ROWS), encoding="utf-8")
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            self.run_pipeline(path)
            assert gc.collect() == 0
        finally:
            if collecting:
                gc.enable()
