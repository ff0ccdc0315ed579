"""RDF triples, triple sets, and N-Triples / Turtle serialization.

Triples are (subject, predicate, object) with IRI subjects/predicates and
IRI-or-literal objects.  Literals and IRIs are distinct Python types, so the
two value spaces cannot be confused.  The canonical exchange format is
N-Triples (RDF 1.1): one triple per line, sorted by codepoint order of the
serialized subject, predicate, and object terms, so equal graphs serialize
to equal bytes.

``Triple`` and ``Literal`` are tuples, so they hash and compare in C, and
each equals the plain tuple of its parts.  Their public constructors check
every term.  The package builds triples unchecked, by
``tuple.__new__(Triple, ...)``, from IRIs checked where they entered:
``parse_ntriples`` checks each distinct IRI token once; ``IriPolicy`` checks
its base; ``model.check_iri_safe`` keeps ids and class names IRI-safe;
slugs are letters, digits and ``_``; catalog load and ``CatalogEntity``
check entity IRIs; interlinking links statement IRIs of a checked graph.

The codec does each piece of work once.  ``parse_ntriples`` parses each
distinct token once per call and shares its term between the triples that
repeat it.  A new token is read by one function, ``_new_term``, on both
paths.  A literal is checked when first seen: by slices if its text holds no
quote or backslash and its datatype no '>' (the datatype checked once, as a
token of its own), else by one match of the literal pattern,
``unescape_literal`` and ``Literal``.  A new IRI on the token path enters
the term table unchecked and goes on a pending list, which one match checks,
joined by LF, before a line takes the pattern path and at the end; if that
fails, the text is parsed again, each IRI checked by ``_check_iri`` when
first seen.  A line of the plain shape ``S P O .`` (single spaces, nothing
around) takes the token path: it is split at its first two spaces, subject
and predicate are looked up in the term table, and the object in a table
keyed by the line's tail ``O .``.  Any other line, and a line with a token
that fails, takes the pattern path: one match of the whole-line pattern,
then the checks in the order the public constructors make them.  Only the
pattern path lets a check's error out, so a message and its line number do
not depend on the path.  ``serialize_ntriples`` renders each line once and
sorts the lines, which gives the term order (see ``_line``).  Escaping is
one ``str.translate``; unescaping is one ``re.sub``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable, Iterable, Iterator

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
SKOS_RELATED = "http://www.w3.org/2004/02/skos/core#related"

_FORBIDDEN = r'\x00-\x20<>"{}|^`\\'
IRI_FORBIDDEN = re.compile(f"[{_FORBIDDEN}]")
# A scheme, a colon, then any characters an IRI reference may hold.
_ABSOLUTE_IRI = re.compile(rf"[A-Za-z][A-Za-z0-9+.\-]*:[^{_FORBIDDEN}]*")
_LANGTAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")


class RdfError(ValueError):
    """Raised for malformed terms or unparseable serializations."""


class NTriplesParseError(RdfError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def is_absolute_iri(value: str) -> bool:
    return _ABSOLUTE_IRI.fullmatch(value) is not None


def local_name(iri: str) -> str:
    """Last path segment of an IRI: after the final '#' or '/'."""
    for sep in ("#", "/"):
        if sep in iri:
            idx = iri.rindex(sep)
            if idx < len(iri) - 1:
                return iri[idx + 1 :]
    return iri


def _check_iri(position: str, value: str) -> str:
    if not (isinstance(value, str) and _ABSOLUTE_IRI.fullmatch(value)):
        raise RdfError(f"{position} is not an absolute IRI: {value!r}")
    return value


class Checked(tuple):
    """Base of the value classes whose ``__new__`` checks their fields: ``pickle``,
    at every protocol, ``copy``, ``_make`` and ``_replace`` rebuild a value
    through that ``__new__``."""

    __slots__ = ()

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self.__getnewargs__()

    @classmethod
    def _make(cls, iterable: Iterable) -> Checked:
        return cls(*iterable)


class Literal(Checked, namedtuple("_LiteralFields", "lexical datatype language")):
    """An RDF literal: lexical form plus optional datatype IRI or language tag.

    The tuple ``(lexical, datatype, language)``, and equal to it.
    """

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str | None = None, language: str | None = None) -> Literal:
        if not isinstance(lexical, str):
            raise RdfError(f"lexical form is not a string: {lexical!r}")
        if datatype is not None and language is not None:
            raise RdfError("literal cannot carry both a datatype and a language tag")
        if datatype is not None:
            _check_iri("datatype", datatype)
        if language is not None and not (isinstance(language, str) and _LANGTAG.fullmatch(language)):
            raise RdfError(f"not a language tag: {language!r}")
        return tuple.__new__(cls, (lexical, datatype, language))


class Triple(Checked, namedtuple("_TripleFields", "subject predicate object")):
    """The tuple (subject, predicate, object), and equal to it.

    Subject and predicate are IRIs; the object is an IRI or a ``Literal``.
    """

    __slots__ = ()

    def __new__(cls, subject: str, predicate: str, object: str | Literal) -> Triple:
        _check_iri("subject", subject)
        _check_iri("predicate", predicate)
        if not isinstance(object, Literal):
            _check_iri("object", object)
        return tuple.__new__(cls, (subject, predicate, object))


class TripleSet:
    """A duplicate-free collection of triples.

    Insertion order is preserved for iteration (useful when auditing emission
    order); equality and serialization are order-insensitive.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: dict[Triple, None] = dict.fromkeys(triples)

    def update(self, triples: Iterable[Triple]) -> None:
        """Add many triples; another TripleSet merges in, its hashes reused."""
        added = triples._triples if isinstance(triples, TripleSet) else dict.fromkeys(triples)
        self._triples.update(added)

    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self._triples.keys() == other._triples.keys()

    def __repr__(self) -> str:
        return f"TripleSet({len(self)} triples)"


def _term(value: str | Literal, iri: Callable[[str], str] = "<{}>".format) -> str:
    """One term in N-Triples form; ``iri`` writes IRIs (Turtle compacts them)."""
    if not isinstance(value, Literal):
        return iri(value)
    lexical, datatype, language = value
    out = f'"{escape_literal(lexical)}"'
    if datatype is not None:
        return f"{out}^^{iri(datatype)}"
    if language is not None:
        return f"{out}@{language}"
    return out


def _line(t: Triple) -> str:
    """The N-Triples line of a triple.

    Lines sort in the order of their (subject, predicate, object) terms.  Two
    different terms either differ at a position both have, where the line
    comparison decides as the term comparison does, or one is a prefix of the
    other.  An IRI term ends at its first '>', so only a literal can be a
    prefix of another term: ``"x"`` of ``"x"@en`` or ``"x"^^<...>``, and
    ``"x"@en`` of ``"x"@en-gb``.  The longer term goes on with '@', '^', '-'
    or a letter or digit, all above the space that follows every term in a
    line, so the shorter term sorts first both ways.
    """
    subject, predicate, obj = t
    if isinstance(obj, str):  # most lines: spare them the _term call
        return f"<{subject}> <{predicate}> <{obj}> .\n"
    return f"<{subject}> <{predicate}> {_term(obj)} .\n"


_ESCAPES_OUT = {code: f"\\u{code:04X}" for code in range(0x20)} | {
    ord("\t"): "\\t",
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord('"'): '\\"',
    ord("\\"): "\\\\",
}


def escape_literal(text: str) -> str:
    return text.translate(_ESCAPES_OUT)


_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# A known escape, \u with four hex digits, \U with eight, or anything else
# (nothing, at the end of the text).
_ESCAPE = re.compile(r"""\\(?:([tbnrf"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))""", re.DOTALL)


def unescape_literal(text: str, line_no: int = 0) -> str:
    if "\\" not in text:
        return text

    def character(match: re.Match[str]) -> str:
        known, short, long, other = match.groups()
        if known:
            return _ESCAPES[known]
        if other is None:
            code = int(short or long, 16)
            # Surrogates and values past U+10FFFF are no characters; they
            # could not be written back out as UTF-8.
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise NTriplesParseError(line_no, f"escape {match[0]!r} is not a character")
            return chr(code)
        if not other:
            raise NTriplesParseError(line_no, "dangling escape at end of literal")
        if other in "uU":
            start = match.start()
            end = start + (6 if other == "u" else 10)
            raise NTriplesParseError(line_no, f"bad \\{other} escape {text[start:end]!r}")
        raise NTriplesParseError(line_no, f"unknown escape \\{other}")

    return _ESCAPE.sub(character, text)


def serialize_ntriples(graph: Iterable[Triple]) -> str:
    """Canonical N-Triples of distinct triples: one line each, codepoint-sorted, LF endings."""
    return "".join(sorted(map(_line, graph)))


_LITERAL = rf'"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@({_LANGTAG.pattern}))?'
_LINE_RE = re.compile(rf"(<[^>]*>)\s+(<[^>]*>)\s+(<[^>]*>|{_LITERAL})\s*\.\s*(?:#.*)?")
_LITERAL_TOKEN = re.compile(_LITERAL)
# Absolute IRIs joined by LF, which no IRI holds: one match checks them all.
_IRI_LINES = re.compile(rf"(?:{_ABSOLUTE_IRI.pattern}\n)*{_ABSOLUTE_IRI.pattern}")


def parse_ntriples(text: str) -> TripleSet:
    """Parse N-Triples; blank lines, '#' comment lines and a comment after a
    triple's final '.' are skipped.

    Raises NTriplesParseError with the offending line number on malformed
    input.
    """
    graph = _parse(text, [])
    return graph if graph is not None else _parse(text, None)


def _parse(text: str, pending: list[str] | None) -> TripleSet | None:
    """The graph, or None if an IRI that the token path put on ``pending`` unchecked fails."""
    graph = TripleSet()
    triples = graph._triples  # filled in place: one dict store per line
    # token -> its term, parsed once per call, when first seen (an IRI checked later if pending)
    terms: dict[str, str | Literal] = {}
    get = terms.get
    # line tail `O .` -> the term of O: a repeated object costs one look-up, no slice
    tails: dict[str, str | Literal] = {}
    tail_term = tails.get
    new = tuple.__new__
    # Split on LF only: splitlines() would also break on NEL and friends,
    # which are legal raw inside literals.
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        # The token path: a line `S P O .` with single spaces, nothing around.
        parts = raw_line.split(" ", 2)
        if len(parts) == 3:
            s, p, tail = parts
            try:
                subject = get(s) or _new_term(terms, s, "subject", line_no, pending)
                predicate = get(p) or _new_term(terms, p, "predicate", line_no, pending)
                obj = tail_term(tail)
                if obj is None and tail[-2:] == " .":
                    o = tail[:-2]
                    obj = tails[tail] = get(o) or _new_term(terms, o, "object", line_no, pending)
            except NTriplesParseError:
                pass  # a token failed its check: the pattern path reports it
            else:
                # No final ' .', or a literal as subject or predicate: the pattern path.
                if obj is not None and subject.__class__ is str is predicate.__class__:
                    triples[new(Triple, (subject, predicate, obj))] = None
                    continue
        # The pattern path: any other line, or a line the token path refused.
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if pending:  # the pattern path reads only checked terms
            if _IRI_LINES.fullmatch("\n".join(pending)) is None:
                return None
            pending.clear()
        match = _LINE_RE.fullmatch(line)
        if match is None:
            raise NTriplesParseError(line_no, f"malformed triple: {line!r}")
        s, p, o = match.group(1, 2, 3)
        # The literal object is checked first, then the IRIs in term order:
        # a line with several faults reports the one that building its terms
        # through the public constructors would.
        obj = get(o)
        if obj is None and o[0] == '"':
            obj = _new_term(terms, o, "object", line_no)
        subject = get(s) or _new_term(terms, s, "subject", line_no)
        predicate = get(p) or _new_term(terms, p, "predicate", line_no)
        if obj is None:
            obj = _new_term(terms, o, "object", line_no)
        triples[new(Triple, (subject, predicate, obj))] = None
    return None if pending and _IRI_LINES.fullmatch("\n".join(pending)) is None else graph


def _new_term(
    terms: dict[str, str | Literal], token: str, position: str, line_no: int, pending: list[str] | None = None
) -> str | Literal:
    """The term of a token not seen before, entered in ``terms`` once it passes its check
    (an IRI put on a ``pending`` list passes unchecked); raises NTriplesParseError if it fails."""
    if token[:1] == "<" and token[-1:] == ">":
        if pending is None:
            try:
                term = _check_iri(position, token[1:-1])
            except RdfError as exc:
                raise NTriplesParseError(line_no, str(exc)) from exc
        else:
            term = token[1:-1]
            pending.append(term)
    else:
        # No quote or backslash inside, no '>' in the datatype: by slices, as the pattern reads it.
        lexical, _, suffix = token[1:].partition('"')
        if token[:1] == '"' and token.count('"') == 2 and "\\" not in lexical and (
            not suffix or suffix[:3] == "^^<" and suffix.find(">") == len(suffix) - 1
        ):
            datatype = suffix and (terms.get(suffix[2:]) or _new_term(terms, suffix[2:], "datatype", line_no))
            term = tuple.__new__(Literal, (lexical, datatype or None, None))
        else:
            match = _LITERAL_TOKEN.fullmatch(token)
            if match is None:
                raise NTriplesParseError(line_no, f"malformed term: {token!r}")
            lexical = unescape_literal(match[1], line_no)
            try:
                term = Literal(lexical, match[2], match[3])
            except RdfError as exc:
                raise NTriplesParseError(line_no, str(exc)) from exc
    terms[token] = term
    return term


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

    used = set()
    by_subject: dict[str, list[Triple]] = {}
    for t in sorted(graph, key=_line):
        subject, predicate, obj = t  # cheaper than three reads by name
        by_subject.setdefault(subject, []).append(t)
        used.add(subject)
        used.add(predicate)
        if not isinstance(obj, Literal):
            used.add(obj)
        elif obj.datatype is not None:
            used.add(obj.datatype)

    lines = []
    for name, ns in prefixes:
        if any(iri.startswith(ns) for iri in used):
            lines.append(f"@prefix {name}: <{ns}> .")
    if lines:
        lines.append("")
    for subject in sorted(by_subject):
        triples = by_subject[subject]
        lines.append(f"{compact(subject)}")
        for i, (_, predicate, obj) in enumerate(triples):
            sep = ";" if i < len(triples) - 1 else "."
            lines.append(f"    {compact(predicate)} {_term(obj, compact)} {sep}")
    return "".join(line + "\n" for line in lines)
