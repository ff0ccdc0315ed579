"""RDF triples, triple sets, and N-Triples / Turtle serialization.

Triples are (subject, predicate, object) with IRI subjects/predicates and
IRI-or-literal objects.  Literals and IRIs are distinct Python types, so the
two value spaces cannot be confused.  The canonical exchange format is
N-Triples: one triple per line, sorted by codepoint order of the serialized
subject, predicate, and object terms, so equal graphs serialize to equal
bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
SKOS_RELATED = "http://www.w3.org/2004/02/skos/core#related"

_ABSOLUTE_IRI = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')


class RdfError(ValueError):
    """Raised for malformed terms or unparseable serializations."""


class NTriplesParseError(RdfError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def is_absolute_iri(value: str) -> bool:
    return bool(_ABSOLUTE_IRI.match(value)) and not IRI_FORBIDDEN.search(value)


def local_name(iri: str) -> str:
    """Last path segment of an IRI: after the final '#' or '/'."""
    for sep in ("#", "/"):
        if sep in iri:
            idx = iri.rindex(sep)
            if idx < len(iri) - 1:
                return iri[idx + 1 :]
    return iri


@dataclass(frozen=True)
class Literal:
    """An RDF literal: lexical form plus optional datatype IRI or language tag."""

    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise RdfError("literal cannot carry both a datatype and a language tag")
        if self.datatype is not None and not is_absolute_iri(self.datatype):
            raise RdfError(f"datatype is not an absolute IRI: {self.datatype!r}")


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str | Literal

    def __post_init__(self) -> None:
        if not is_absolute_iri(self.subject):
            raise RdfError(f"subject is not an absolute IRI: {self.subject!r}")
        if not is_absolute_iri(self.predicate):
            raise RdfError(f"predicate is not an absolute IRI: {self.predicate!r}")
        if isinstance(self.object, str) and not is_absolute_iri(self.object):
            raise RdfError(f"object is not an absolute IRI: {self.object!r}")


class TripleSet:
    """A duplicate-free collection of triples.

    Insertion order is preserved for iteration (useful when auditing emission
    order); equality and serialization are order-insensitive.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: dict[Triple, None] = {}
        for t in triples:
            self.add(t)

    def add(self, triple: Triple) -> bool:
        """Add one triple; returns False when it was already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        return True

    def update(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            self.add(t)

    def union(self, other: "TripleSet") -> "TripleSet":
        merged = TripleSet(self)
        merged.update(other)
        return merged

    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return set(self._triples) == set(other._triples)

    def __repr__(self) -> str:
        return f"TripleSet({len(self)} triples)"

    def sorted(self) -> list[Triple]:
        return sorted(self._triples, key=_sort_key)


def _sort_key(t: Triple) -> tuple[str, str, str]:
    return (_term(t.subject), _term(t.predicate), _term(t.object))


def _term(value: str | Literal) -> str:
    if isinstance(value, Literal):
        out = f'"{escape_literal(value.lexical)}"'
        if value.datatype is not None:
            out += f"^^<{value.datatype}>"
        elif value.language is not None:
            out += f"@{value.language}"
        return out
    return f"<{value}>"


def escape_literal(text: str) -> str:
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


_HEX = re.compile(r"[0-9A-Fa-f]+")
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def unescape_literal(text: str, line_no: int = 0) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise NTriplesParseError(line_no, "dangling escape at end of literal")
        nxt = text[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt in "uU":
            end = i + (6 if nxt == "u" else 10)
            if end > len(text) or not _HEX.fullmatch(text, i + 2, end):
                raise NTriplesParseError(line_no, f"bad \\{nxt} escape {text[i:end]!r}")
            code = int(text[i + 2 : end], 16)
            # Surrogates and values past U+10FFFF are no characters; they
            # could not be written back out as UTF-8.
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise NTriplesParseError(line_no, f"escape {text[i:end]!r} is not a character")
            out.append(chr(code))
            i = end
        else:
            raise NTriplesParseError(line_no, f"unknown escape \\{nxt}")
    return "".join(out)


def serialize_ntriples(graph: TripleSet) -> str:
    """Canonical N-Triples: one line per triple, codepoint-sorted, LF endings."""
    lines = []
    for t in graph.sorted():
        lines.append(f"{_term(t.subject)} {_term(t.predicate)} {_term(t.object)} .")
    return "".join(line + "\n" for line in lines)


_LINE_RE = re.compile(
    r"^(<[^>]*>)\s+(<[^>]*>)\s+"
    r'(<[^>]*>|"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?)'
    r"\s*\.\s*$"
)
_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?$')


def parse_ntriples(text: str) -> TripleSet:
    """Parse N-Triples; blank lines and '#' comment lines are skipped.

    Raises NTriplesParseError with the offending line number on malformed
    input.
    """
    graph = TripleSet()
    # Split on LF only: splitlines() would also break on NEL and friends,
    # which are legal raw inside literals.
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise NTriplesParseError(line_no, f"malformed triple: {line!r}")
        subject = _parse_iri(match.group(1), line_no)
        predicate = _parse_iri(match.group(2), line_no)
        obj_text = match.group(3)
        obj: str | Literal
        if obj_text.startswith("<"):
            obj = _parse_iri(obj_text, line_no)
        else:
            obj = _parse_literal(obj_text, line_no)
        try:
            graph.add(Triple(subject, predicate, obj))
        except RdfError as exc:
            raise NTriplesParseError(line_no, str(exc)) from exc
    return graph


def _parse_iri(token: str, line_no: int) -> str:
    iri = token[1:-1]
    if not is_absolute_iri(iri):
        raise NTriplesParseError(line_no, f"not an absolute IRI: {iri!r}")
    return iri


def _parse_literal(token: str, line_no: int) -> Literal:
    match = _LITERAL_RE.match(token)
    if match is None:
        raise NTriplesParseError(line_no, f"malformed literal: {token!r}")
    lexical = unescape_literal(match.group(1), line_no)
    return Literal(lexical, datatype=match.group(2), language=match.group(3))


_PREFIXABLE_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")

_WELL_KNOWN_PREFIXES = (
    ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
    ("xsd", "http://www.w3.org/2001/XMLSchema#"),
    ("owl", "http://www.w3.org/2002/07/owl#"),
    ("skos", "http://www.w3.org/2004/02/skos/core#"),
)


def serialize_turtle(graph: TripleSet, base_iri: str | None = None) -> str:
    """Readable Turtle rendering of a graph.

    A convenience view only; N-Triples is the canonical format.  IRIs under
    ``base_iri`` compact to the default prefix, well-known vocabularies to
    their usual prefixes, and everything else stays a full IRI reference.
    """
    prefixes = list(_WELL_KNOWN_PREFIXES)
    if base_iri:
        prefixes.append(("", base_iri))

    def compact(iri: str) -> str:
        if iri == RDF_TYPE:
            return "a"
        best = None
        for name, ns in prefixes:
            if iri.startswith(ns) and (best is None or len(ns) > len(best[1])):
                best = (name, ns)
        if best is not None:
            local = iri[len(best[1]) :]
            if _PREFIXABLE_LOCAL.match(local):
                return f"{best[0]}:{local}"
        return f"<{iri}>"

    def render(value: str | Literal) -> str:
        if isinstance(value, Literal):
            out = f'"{escape_literal(value.lexical)}"'
            if value.datatype is not None:
                out += f"^^{compact(value.datatype)}"
            elif value.language is not None:
                out += f"@{value.language}"
            return out
        return compact(value)

    used = set()
    by_subject: dict[str, list[Triple]] = {}
    for t in graph.sorted():
        by_subject.setdefault(t.subject, []).append(t)
        for term in (t.subject, t.predicate, t.object):
            if isinstance(term, Literal):
                if term.datatype:
                    used.add(term.datatype)
            else:
                used.add(term)

    lines = []
    for name, ns in prefixes:
        if any(iri.startswith(ns) for iri in used):
            lines.append(f"@prefix {name}: <{ns}> .")
    if lines:
        lines.append("")
    for subject in sorted(by_subject):
        triples = by_subject[subject]
        lines.append(f"{compact(subject)}")
        for i, t in enumerate(triples):
            sep = ";" if i < len(triples) - 1 else "."
            lines.append(f"    {compact(t.predicate)} {render(t.object)} {sep}")
    return "".join(line + "\n" for line in lines)
