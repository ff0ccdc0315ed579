"""Argument chunking, entity mentions, linking, and semantic role assignment.

Chunking splits a headline around its head verb.  Post-verbal (and pre-verbal)
material is segmented at a fixed preposition set, at "to" (infinitive or
plain), at a colon (which swallows the rest of the headline, because it
introduces reported speech), and after each closing quote.  Quoted spans are
opaque: nothing inside one starts a segment.  The subject is the last
pre-verbal segment that no preposition introduced.

Entity mentions are found per chunk: @handles, quoted spans, position-based
references ("Instagram CEO", "leader of Russian Orthodox Church"), longest
alias matches against the catalog, and cardinal-count patterns ("eight
people").  A chunk that yields nothing becomes a single unresolved mention,
so no argument is silently lost.  Each mention points at its ``chunk``, whose
position, intro and full text are what each frame's role rules (in ``model``) read.

Linking is closed-world: a named mention is a catalog alias; one candidate
links, several go through keyword/position scoring with a lexicographic IRI
tie-break, which makes the stage insensitive to candidate order.  Only an
@handle of no catalog entity is minted, an ``Agent`` with a deterministic IRI;
an unknown name, or a handle with nothing to mint from ("@_"), stays text.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from datetime import date
from operator import itemgetter

from .catalog import CatalogEntity, EntityCatalog
from .events import EventMention
from .ingest import HASHTAG, MENTION, NUMBER, PUNCT, QUOTE_CHARS, WORD, Token, TokenSequence
from .model import (
    AGENT,
    KIND_MENTION,
    KIND_NAMED,
    KIND_NUMBER,
    KIND_OTHER,
    KIND_QUOTED,
    PLACE,
    POST,
    PRE,
    SUBJECT,
    EntityRef,
    RoleFiller,
    RoleFrame,
    TextFiller,
)
from .triplify import PolicyError, slugify

SPLIT_PREPOSITIONS = frozenset(("with", "in", "at", "on", "over", "for"))
LOCATIVE_PREPOSITIONS = frozenset(("in", "at", "on", "over"))
_MULTIWORD_GUARD = frozenset(("least", "most"))  # "at least three" stays together
_UNQUOTED = dict.fromkeys(map(ord, QUOTE_CHARS))  # str.translate deletes each quote character

PERSON_WORDS = frozenset(
    """people person persons pilots soldiers troops officers civilians victims
    men women children workers students protesters migrants dead injured
    wounded""".split()
)

UNRESOLVED = "unresolved"
LINKED = "linked"
MINTED = "minted"


class LinkingError(ValueError):
    """Raised when a minted IRI would collide with a catalog entity."""


class Chunk(namedtuple("_ChunkFields", "index position intro intro_kind tokens text full_text")):
    """One argument chunk: its ``position`` (subject, pre or post), the
    lowercased word that introduced it and that word's kind (prep,
    to_infinitive, to_plain, colon; both None for none), its tokens, its
    text, and its text with the intro."""

    __slots__ = ()

    @property
    def free_words(self) -> tuple[Token, ...]:
        """Content tokens outside quotes: what alias matching runs over."""
        return tuple(t for t in self.tokens if t.kind != PUNCT and not t.quoted)


def _looks_infinitive(token: Token | None) -> bool:
    # "to discuss" vs "to reporters": a following plural or capitalized word
    # reads as a noun phrase, a bare lowercase form as a verb.  -ss is not a
    # plural ending.
    if token is None or token.kind != WORD or token.quoted:
        return False
    return token.surface[:1].islower() and (
        not token.lower.endswith("s") or token.lower.endswith("ss")
    )


def chunk(tokens: TokenSequence, mention: EventMention) -> list[Chunk]:
    """Split a tokenized headline into subject and argument chunks."""
    head = mention.head_index
    closing_quotes = {span.last_token + 1 for span in tokens.quoted_spans}

    pre_end = head
    if mention.infinitive_head and head > 0 and tokens.tokens[head - 1].lower == "to":
        pre_end = head - 1

    def segment(indexes: range) -> list[tuple[Token | None, str | None, list[Token]]]:
        """The nonempty (intro token, intro kind, content tokens) segments."""
        segments: list[tuple[Token | None, str | None, list[Token]]] = []
        current = None
        colon_mode = False
        for i in indexes:
            token = tokens.tokens[i]
            nxt = tokens.tokens[i + 1] if i + 1 < indexes.stop else None
            intro_kind = None
            if not colon_mode and not token.quoted:
                if token.kind == WORD and token.lower in SPLIT_PREPOSITIONS:
                    guarded = (
                        token.lower == "at" and nxt is not None and nxt.lower in _MULTIWORD_GUARD
                    )
                    if not guarded:
                        intro_kind = "prep"
                elif token.kind == WORD and token.lower == "to":
                    intro_kind = "to_infinitive" if _looks_infinitive(nxt) else "to_plain"
                elif token.kind == PUNCT and token.surface == ":":
                    intro_kind = "colon"
                    colon_mode = True
            if intro_kind is not None:
                current = (token, intro_kind, [])
                segments.append(current)
                continue
            if current is None:
                current = (None, None, [])
                segments.append(current)
            current[2].append(token)
            if i in closing_quotes and not colon_mode:
                current = None  # material after a closing quote starts fresh
        return [s for s in segments if s[2]]

    pre_segments = segment(range(0, pre_end))
    plain = [seg for seg in pre_segments if seg[1] is None]
    subject = plain[-1] if plain else None  # the last plain pre-verbal segment
    placed = [(SUBJECT if seg is subject else PRE, seg) for seg in pre_segments]
    placed += [(POST, seg) for seg in segment(range(head + 1, len(tokens.tokens)))]

    raw = tokens.raw
    chunks: list[Chunk] = []
    for index, (position, (intro, intro_kind, content)) in enumerate(placed):
        start, end = content[0].start, content[-1].end
        text = raw[start:end]
        full_text = text if intro is None else raw[intro.start : end]
        intro_word = None if intro is None else intro.lower
        fields = (index, position, intro_word, intro_kind, tuple(content), text, full_text)
        chunks.append(tuple.__new__(Chunk, fields))  # a Chunk has no checks
    return chunks


class EntityMention(
    namedtuple(
        "_EntityMentionFields",
        "text span kind chunk status iri entity_type implicit count_value",
        defaults=(UNRESOLVED, None, None, None, None),
    )
):
    """A mention in ``chunk``: its surface, span and kind, how linking left
    it, and for a position reference only, its ``implicit`` (title, org IRIs)."""

    __slots__ = ()

    @property
    def is_entity(self) -> bool:
        return self.status in (LINKED, MINTED)


def strip_quotes(text: str) -> str:
    return text.translate(_UNQUOTED).strip()


def _parse_position_reference(
    words: tuple[str, ...], catalog: EntityCatalog
) -> tuple[str, tuple[str, ...], int] | None:
    """Match "<org-alias> <title>" or "<title> of <org-alias>" against the catalog.

    Returns (title, org alias words, words consumed) or None.  The consumed
    count is less than ``len(words)`` when a name follows the reference in
    apposition ("German Chancellor Angela Merkel").  The words hold no
    whitespace, so org aliases longer than ``catalog.alias_words`` of the
    first word and titles longer than ``catalog.title_words`` need no
    look-up (see ``_alias_match_length``).
    """
    lowered = [w.lower() for w in words]
    if "of" in lowered:
        cut = lowered.index("of")
        title = " ".join(words[:cut])
        org = words[cut + 1 :]
        if title and org and cut <= catalog.title_words and catalog.is_position_title(title):
            if catalog.is_alias(" ".join(org)):
                return title, tuple(org), len(words)
    longest_org = min(len(words) - 1, catalog.alias_words(words[0])) if words else 0
    for org_len in range(longest_org, 0, -1):
        org = words[:org_len]
        if not catalog.is_alias(" ".join(org)):
            continue
        for title_len in range(min(len(words) - org_len, catalog.title_words), 0, -1):
            title = " ".join(words[org_len : org_len + title_len])
            if catalog.is_position_title(title):
                return title, tuple(org), org_len + title_len
    return None


_SURFACE, _KIND = itemgetter(0), itemgetter(1)  # of a Token


def recognize_entities(
    chunks: list[Chunk], catalog: EntityCatalog, plans: dict[tuple, tuple] | None = None
) -> list[EntityMention]:
    """Extract entity mentions from every chunk; each chunk yields at least one
    mention unless it contains nothing but punctuation.

    ``plans`` is the run's table of ``_plan`` by the surfaces and kinds of a
    chunk's free words (see ``headex.pipeline``); a call given none starts
    an empty one.  Quoted runs and the fallback mention are per chunk.
    """
    if plans is None:
        plans = {}
    mentions: list[EntityMention] = []
    for ch in chunks:
        first = len(mentions)

        chunk_start = ch.tokens[0].start
        for run in _quoted_runs(ch.tokens):
            inner = [t for t in run if t.kind != PUNCT or t.surface not in QUOTE_CHARS]
            if inner:
                text = ch.text[inner[0].start - chunk_start : inner[-1].end - chunk_start]
                span = (inner[0].start, inner[-1].end)
                mentions.append(EntityMention(text, span, KIND_QUOTED, ch))

        words = ch.free_words
        # Surfaces hold no whitespace, so the joined text tells runs apart.
        key = (" ".join(map(_SURFACE, words)), *map(_KIND, words))
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _plan(words, catalog)
        for kind, start, end, text, implicit, count_value in plan:
            span = (words[start].start, words[end - 1].end)
            fields = (text, span, kind, ch, UNRESOLVED, None, None, implicit, count_value)
            mentions.append(tuple.__new__(EntityMention, fields))

        if len(mentions) == first and words:
            span = (words[0].start, words[-1].end)
            mentions.append(EntityMention(ch.text, span, KIND_OTHER, ch))
    return mentions


def _plan(words: tuple[Token, ...], catalog: EntityCatalog) -> tuple[tuple, ...]:
    """The mentions among a chunk's free ``words``, read from their surfaces
    and kinds alone: a position reference, @handles, longest alias matches
    and cardinal counts.  Each is ``(kind, start, end, text, implicit,
    count_value)`` with ``start`` and ``end`` indexing ``words``; the chunk
    a plan is rebuilt in gives the mentions their spans."""
    surfaces = tuple(t.surface for t in words)
    plan = []

    def add(kind: str, start: int, end: int, implicit=None, count_value=None) -> None:
        plan.append((kind, start, end, " ".join(surfaces[start:end]), implicit, count_value))

    i = 0  # words before i belong to a position reference
    reference = _parse_position_reference(surfaces, catalog)
    if reference is not None:
        title, org, used = reference
        if used == len(words):
            org_iris = frozenset(e.iri for e in catalog.candidates(" ".join(org)))
            add(KIND_OTHER, 0, used, implicit=(title, org_iris))
            i = used
        # Apposition: the trailing words must name the same referent.
        elif _alias_match_length(words[used:], 0, catalog) == len(words) - used:
            i = used

    while i < len(words):
        token = words[i]
        end = i + 1
        if token.kind == MENTION:
            add(KIND_MENTION, i, end)
        elif matched := _alias_match_length(words, i, catalog):
            end = i + matched
            add(KIND_NAMED, i, end)
        elif token.kind == NUMBER:
            for j in range(i + 1, min(i + 4, len(words))):
                if words[j].lower in PERSON_WORDS:
                    end = j + 1
                    break
            add(KIND_NUMBER, i, end, count_value=token.surface)
        i = end
    return tuple(plan)


def _quoted_runs(tokens: tuple[Token, ...]) -> list[list[Token]]:
    runs: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        if token.quoted:
            current.append(token)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


_MATCHABLE = (WORD, NUMBER, HASHTAG)


def _alias_match_length(words: tuple[Token, ...], start: int, catalog: EntityCatalog) -> int:
    """Longest n-gram at ``start`` (an index into ``words``) that is a catalog
    alias, of any length; 0 when none is.

    Only n-grams no longer than ``catalog.alias_words`` of the first surface
    are tried, and that loses no match: surfaces hold no whitespace and
    ``str.casefold`` maps each code point on its own, never to a space, so the
    key of an n-gram has exactly n space-separated words and its first word
    is the casefolded first surface.  An alias equal to it starts with that
    word and has n words.
    """
    limit = min(len(words) - start, catalog.alias_words(words[start].surface))
    for n in range(limit, 0, -1):
        span = words[start : start + n]
        if any(t.kind not in _MATCHABLE for t in span):
            continue
        if catalog.is_alias(" ".join(t.surface for t in span)):
            return n
    return 0


class DisambiguationAudit(
    namedtuple(
        "_DisambiguationAuditFields",
        "surface chosen_iri runner_up_iri scores record_id",
        defaults=("",),
    )
):
    """Why one candidate won: full per-candidate scores, best first, each
    ``(iri, exactness, overlap, recency)``; the pipeline sets ``record_id``."""

    __slots__ = ()


def _score(
    entity: CatalogEntity, surface: str, context_words: frozenset[str], at: date | None
) -> tuple[int, int, float]:
    folded = surface.casefold()
    if folded == entity.label.casefold():
        exactness = 2
    elif any(folded == alias.casefold() for alias in entity.aliases):
        exactness = 1
    else:
        exactness = 0
    overlap = sum(1 for keyword in entity.keywords if keyword in context_words)
    recency = 0.0
    if at is not None:
        active = [p for p in entity.positions if p.active_on(at)]
        if active:
            newest = max(p.valid_from for p in active)
            recency = 1.0 / (1.0 + (at - newest).days / 365.25)
    return exactness, overlap, recency


def context_words(tokens: TokenSequence) -> frozenset[str]:
    """The casefolded surfaces of the content tokens, without a leading @ or #."""
    return frozenset({t.surface.lstrip("@#").casefold() for t in tokens.tokens if t.kind != PUNCT})


def disambiguate(
    mention: EntityMention,
    candidates: tuple[CatalogEntity, ...],
    context: frozenset[str],
    at: date | None = None,
) -> tuple[CatalogEntity, DisambiguationAudit]:
    """Pick among several candidates; always selects, never errors.

    Scoring is (alias exactness, context-keyword overlap, recency-weighted
    position validity), compared lexicographically; exhausted ties fall to
    the smallest IRI, so the choice is independent of candidate order.
    """
    if not candidates:
        raise ValueError("disambiguate requires at least one candidate")
    ranked = sorted(
        ((e, _score(e, mention.text, context, at)) for e in candidates),
        key=lambda scored: (*(-c for c in scored[1]), scored[0].iri),
    )
    chosen = ranked[0][0]
    audit = DisambiguationAudit(
        surface=mention.text,
        chosen_iri=chosen.iri,
        runner_up_iri=ranked[1][0].iri if len(ranked) > 1 else None,
        scores=tuple((e.iri, *score) for e, score in ranked),
    )
    return chosen, audit


def link_entity(
    mention: EntityMention,
    catalog: EntityCatalog,
    tokens: TokenSequence,
    entity_iri_for: Callable[[str], str],
    at: date | None = None,
) -> tuple[EntityMention, DisambiguationAudit | None]:
    """Resolve a named/@handle mention: link to the unique catalog candidate,
    disambiguate among several, or mint an ``Agent`` with a deterministic IRI
    for none, which only an @handle can have; a surface with nothing to mint
    from comes back unresolved.

    ``entity_iri_for`` maps a slug to a minted IRI (normally
    ``IriPolicy.entity_iri``).  Returns the resolved mention and the
    disambiguation audit when scoring had to run; only then are the
    ``context_words`` of ``tokens``, the mention's headline, built.  A minted
    IRI that a catalog entity owns raises ``LinkingError`` on every call.
    """
    found = catalog.candidates(mention.text)
    if not found and mention.kind == KIND_MENTION:
        found = catalog.candidates(mention.text.lstrip("@"))
    if not found:
        try:
            iri = entity_iri_for(slugify(mention.text))
        except PolicyError:
            return mention, None  # nothing alphanumeric to name it by, as in "@_"
        if iri in catalog:
            raise LinkingError(f"minted IRI collides with catalog entity: {iri}")
        outcome, audit = (MINTED, iri, AGENT), None
    elif len(found) == 1:
        outcome, audit = (LINKED, found[0].iri, found[0].entity_type), None
    else:
        chosen, audit = disambiguate(mention, found, context_words(tokens), at)
        outcome = (LINKED, chosen.iri, chosen.entity_type)
    return tuple.__new__(EntityMention, (*mention[:4], *outcome, *mention[7:])), audit


def resolve_implicit(
    mention: EntityMention, catalog: EntityCatalog, at: date
) -> EntityMention | None:
    """Link a position reference to whoever held the position on ``at``.

    Reads the title and org IRIs that ``_plan`` put in ``mention.implicit``;
    returns None when nobody held the position on that date.
    """
    holders = catalog.holders(*mention.implicit, at)
    if not holders:
        return None
    linked = (*mention[:4], LINKED, holders[0].iri, holders[0].entity_type, *mention[7:])
    return tuple.__new__(EntityMention, linked)  # an EntityMention has no checks


def _filler(mention: EntityMention) -> RoleFiller:
    if mention.is_entity:  # a catalog IRI, or an entity_iri slug under the policy's base
        return tuple.__new__(EntityRef, (mention.iri,))
    if mention.kind == KIND_NUMBER:
        return TextFiller(mention.count_value or mention.text)
    if mention.kind == KIND_QUOTED:
        return TextFiller(strip_quotes(mention.text))
    return TextFiller(mention.text)


class Claims:
    """What a frame's role rules read and write: one ``assign_roles`` call's
    mentions, the roles filled so far and the indexes of the claimed mentions."""

    __slots__ = ("mentions", "roles", "done")  # attribute loads specialize on slots

    def __init__(self, mentions: list[EntityMention]) -> None:
        self.mentions = mentions
        self.roles: list[tuple[str, RoleFiller]] = []
        self.done: set[int] = set()

    def pending(self, position: str | None = None) -> Iterator[tuple[int, EntityMention]]:
        """Unclaimed mentions in order, only those from chunks at ``position`` if given."""
        done = self.done
        for i, m in enumerate(self.mentions):
            if i not in done and (position is None or m.chunk.position == position):
                yield i, m

    def take(self, i: int, role: str) -> None:
        self.roles.append((role, _filler(self.mentions[i])))
        self.done.add(i)

    def say(self, role: str, text: str) -> None:
        """Fill ``role`` with ``text``, its quote marks removed."""
        self.roles.append((role, TextFiller(strip_quotes(text))))

    def filled(self, role: str) -> bool:
        return any(r == role for r, _ in self.roles)


def assign_roles(
    mentions: list[EntityMention],
    frame: RoleFrame,
    head: EventMention | None = None,
) -> tuple[list[tuple[str, RoleFiller]], list[str]]:
    """Map mentions to frame roles: the generic location rule, then the
    frame's ``rules`` in order (an extension class has none), then generic
    ``involved`` for each mention left.

    Every mention lands in exactly one role unless its text is already
    covered by a Topic or Message filler.  Returns the roles plus warnings
    for unfilled required roles.
    """
    claims = Claims(mentions)

    # Generic rule first: place entities inside locative prepositional chunks.
    for i, m in claims.pending():
        if (
            m.is_entity
            and m.entity_type == PLACE
            and m.chunk.intro_kind == "prep"
            and m.chunk.intro in LOCATIVE_PREPOSITIONS
        ):
            claims.take(i, "location")

    for rule in frame.rules:
        rule(claims, head)

    for i, _ in claims.pending():
        claims.take(i, "involved")

    warnings = [
        f"required role {required} is unfilled"
        for required in frame.required_roles
        if not claims.filled(required)
    ]
    return claims.roles, warnings
