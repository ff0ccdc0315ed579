"""Walk the bundled nine-headline corpus through the whole pipeline.

Prints the event class recognized for each headline, zooms in on the
Instagram/Pontifex meeting to show the singleton-property triple shape, and
finishes by interlinking three reports of one papal meeting across
publishers.

Run from the repository root:

    python3 demos/extract_and_interlink.py
"""

from __future__ import annotations

from pathlib import Path

from headex.catalog import default_catalog_path, load_catalog
from headex.ingest import read_records
from headex.interlink import interlink_graph
from headex.lexicon import default_lexicon_path, load_lexicon_file
from headex.model import EntityRef
from headex.pipeline import extract_corpus, process_record
from headex.rdf import local_name, serialize_ntriples, serialize_turtle
from headex.triplify import IriPolicy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def describe(filler) -> str:
    return filler.iri if isinstance(filler, EntityRef) else repr(filler.text)


def main() -> None:
    lexicon = load_lexicon_file(default_lexicon_path())
    catalog = load_catalog(default_catalog_path())
    policy = IriPolicy()

    records, failures = read_records(FIXTURES / "headlines9.tsv")
    assert not failures

    print("== event classes and roles ==")
    result = extract_corpus(records, lexicon, catalog, policy)
    for instance in result.instances:
        trigger = instance.mention.surface
        print(f"{instance.instance_id}  {instance.event_class.name:<14} trigger={trigger!r}")
        for role, filler in instance.roles:
            print(f"      {role:<12} {describe(filler)}")
    print(f"\npooled graph: {len(result.graph)} triples from {len(result.instances)} events\n")

    print("== one event up close (singleton property) ==")
    by_id = {r.id: r for r in records}
    _, triples, _ = process_record(by_id["no2"], lexicon, catalog, policy)
    print(serialize_turtle(triples, policy.base_iri))

    print("== linking duplicate reports across publishers ==")
    duplicates, failures = read_records(FIXTURES / "duplicates.tsv")
    assert not failures
    linked = extract_corpus(duplicates, lexicon, catalog, policy)
    links, same, related = interlink_graph(linked.graph, policy)
    print(f"sameas={same} related={related}")
    # The links are a list; each sorts by its N-Triples line, as links.nt orders them.
    for triple in sorted(links, key=lambda t: serialize_ntriples([t])):
        print(f"  {local_name(triple.subject)}  --{local_name(triple.predicate)}-->  "
              f"{local_name(str(triple.object))}")


if __name__ == "__main__":
    main()
