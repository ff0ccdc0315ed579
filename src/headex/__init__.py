"""Headline event extraction into an RDF knowledge graph.

The package turns one-line news records into typed event statements with
semantic roles, source and date provenance on every statement, and
same-event / related-event links across publishers and time.
"""

from .catalog import EntityCatalog, default_catalog_path, load_catalog
from .datamodel import (
    DataModelDescriptor,
    RequirementReport,
    Verdict,
    load_descriptor,
    validate_data_model,
)
from .events import EventMention, recognize_event
from .ingest import HeadlineRecord, normalize, read_records
from .interlink import (
    EventIndexEntry,
    build_event_index,
    find_related_events,
    find_same_events,
    interlink_graph,
)
from .lexicon import Lexicon, classify_verb, default_lexicon_path, lemmatize, load_lexicon_file
from .model import EventClass, EventInstance, Provenance, RoleFrame
from .pipeline import ExtractResult, extract_corpus, process_record
from .rdf import Literal, Triple, TripleSet, parse_ntriples, serialize_ntriples, serialize_turtle
from .triplify import IriPolicy, emit_event_triples

__version__ = "0.1.0"

__all__ = [
    "DataModelDescriptor",
    "EntityCatalog",
    "EventClass",
    "EventIndexEntry",
    "EventInstance",
    "EventMention",
    "ExtractResult",
    "HeadlineRecord",
    "IriPolicy",
    "Lexicon",
    "Literal",
    "Provenance",
    "RequirementReport",
    "RoleFrame",
    "Triple",
    "TripleSet",
    "Verdict",
    "build_event_index",
    "classify_verb",
    "default_catalog_path",
    "default_lexicon_path",
    "emit_event_triples",
    "extract_corpus",
    "find_related_events",
    "find_same_events",
    "interlink_graph",
    "lemmatize",
    "load_catalog",
    "load_descriptor",
    "load_lexicon_file",
    "normalize",
    "parse_ntriples",
    "process_record",
    "read_records",
    "recognize_event",
    "serialize_ntriples",
    "serialize_turtle",
    "validate_data_model",
    "__version__",
]
