"""Event trigger recognition: find the verb that anchors a headline's event.

One left-to-right scan over the word tokens outside quoted spans keeps each
token whose lemma is in the verb lexicon.  Two noun-context rules drop false
verb readings:

* a candidate right after a determiner or possessive is a noun ("the report");
* a base-form candidate right after a capitalized, non-initial modifier is a
  noun ("White House report"), unless an earlier "and" signals a coordinated
  plural subject ("Smith and Jones announce").

Head selection prefers finite-looking candidates.  Two kinds are demoted and
win only when nothing better exists: candidates preceded by infinitive "to"
("Pope to meet ..." headline future), and candidates that open the headline,
where capitalization says nothing ("State elections ..." must not head on
"State", but a lone leading verb still can).  Surface forms ending in -ing
are candidates only for lemmas flagged ``noun_ok`` in the lexicon, and they
count only when no other candidate exists.
"""

from __future__ import annotations

from collections import namedtuple

from .ingest import NUMBER, PUNCT, WORD, TokenSequence
from .lexicon import Lexicon, lemmatize

_DETERMINERS = frozenset(
    "the a an this that these those his her their its our your my".split()
)
_COORDINATORS = frozenset(("and", "&"))


VerbCandidate = namedtuple(
    "VerbCandidate",
    "token_index surface lemma event_class infinitive leading",
    defaults=(False, False),
)


class EventMention(
    namedtuple(
        "_EventMentionFields",
        "head_index surface lemma event_class span candidates infinitive_head",
        defaults=(False,),
    )
):
    """The chosen head verb plus every alternate the lexicon matched."""

    __slots__ = ()


def _reading(surface: str, lexicon: Lexicon) -> tuple:
    """What ``recognize_event`` reads of an unquoted word from its surface
    alone: ``(lemma, event class, -ing form, base form)`` when the word can
    be a candidate, else ``()``."""
    lemma = lemmatize(surface)  # the module global, which tracing counts
    entry = lexicon.get(lemma)
    if entry is None:
        return ()
    lower = surface.lower()
    ing_form = lower.endswith("ing") and lower != lemma
    if ing_form and not entry.noun_ok:
        return ()
    return lemma, entry.event_class, ing_form, lower == lemma


def recognize_event(
    tokens: TokenSequence, lexicon: Lexicon, readings: dict[str, tuple] | None = None
) -> EventMention | None:
    """Pick the head verb of a headline, or None when no lexicon verb occurs.

    The head is the leftmost candidate that is neither infinitive-marked nor
    headline-initial; when only demoted candidates exist, the leftmost of
    those is used, so "Pope to meet ..." still yields an event.

    ``readings`` is the run's table of ``_reading`` by surface (see
    ``headex.pipeline``); a call given none starts an empty one.
    """
    if readings is None:
        readings = {}
    words = tokens.tokens
    finite: list[VerbCandidate] = []
    ing: list[VerbCandidate] = []
    for i, token in enumerate(words):
        if token.kind != WORD or token.quoted:
            continue
        reading = readings.get(token.surface)
        if reading is None:
            reading = readings[token.surface] = _reading(token.surface, lexicon)
        if not reading:
            continue
        lemma, event_class, ing_form, base_form = reading
        # The word just before, unless the candidate opens the headline or
        # punctuation intervenes.
        prev = words[i - 1] if i and words[i - 1].kind != PUNCT else None
        if prev is not None and (
            (prev.kind == WORD and prev.lower in _DETERMINERS)
            or (
                base_form
                and i > 1
                and prev.kind in (WORD, NUMBER)
                and prev.surface[:1].isupper()
                and not any(t.lower in _COORDINATORS for t in words[:i])
            )
        ):
            continue  # a noun: "the report", "White House report"
        (ing if ing_form else finite).append(
            VerbCandidate(
                token_index=i,
                surface=token.surface,
                lemma=lemma,
                event_class=event_class,
                infinitive=prev is not None and prev.lower == "to",
                leading=(i == 0),
            )
        )
    candidates = finite or ing
    if not candidates:
        return None
    head = next((c for c in candidates if not c.infinitive and not c.leading), candidates[0])
    token = words[head.token_index]
    return EventMention(
        head_index=head.token_index,
        surface=head.surface,
        lemma=head.lemma,
        event_class=head.event_class,
        span=(token.start, token.end),
        candidates=tuple(candidates),
        infinitive_head=head.infinitive,
    )
