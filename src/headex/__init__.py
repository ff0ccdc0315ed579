"""Headline event extraction into an RDF knowledge graph.

The package turns one-line news records into typed event statements with
semantic roles, source and date provenance on every statement, and
same-event / related-event links across publishers and time.  Each public
name is imported from the module that defines it, e.g.
``from headex.pipeline import extract_corpus``.
"""

__version__ = "0.1.0"
