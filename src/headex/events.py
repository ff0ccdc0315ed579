"""Event trigger recognition: find the verb that anchors a headline's event.

Candidate collection scans word tokens left to right, outside quoted spans,
and keeps tokens whose lemma is in the verb lexicon.  Two noun-context rules
drop false verb readings:

* a candidate right after a determiner or possessive is a noun ("the report");
* a base-form candidate right after a capitalized, non-initial modifier is a
  noun ("White House report"), unless an earlier "and" signals a coordinated
  plural subject ("Smith and Jones announce").

Head selection prefers finite-looking candidates.  Two kinds are demoted and
win only when nothing better exists: candidates preceded by infinitive "to"
("Pope to meet ..." headline future), and candidates that open the headline,
where capitalization says nothing ("State elections ..." must not head on
"State", but a lone leading verb still can).  Surface forms ending in -ing
are considered only for lemmas flagged ``noun_ok`` in the lexicon, and then
only when the headline has no finite hit at all.
"""

from __future__ import annotations

from collections import namedtuple

from .ingest import NUMBER, PUNCT, WORD, Token, TokenSequence
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


def _is_capitalized(token: Token) -> bool:
    return token.surface[:1].isupper()


def _previous_word(tokens: tuple[Token, ...], index: int) -> tuple[int, Token] | None:
    """The token immediately before ``index`` unless punctuation intervenes."""
    if index == 0 or tokens[index - 1].kind == PUNCT:
        return None
    return index - 1, tokens[index - 1]


def _noun_context(tokens: tuple[Token, ...], index: int, base_form: bool) -> bool:
    previous = _previous_word(tokens, index)
    if previous is None:
        return False
    prev_index, prev = previous
    if prev.kind == WORD and prev.lower in _DETERMINERS:
        return True
    if (
        base_form
        and prev.kind in (WORD, NUMBER)
        and prev_index > 0
        and _is_capitalized(prev)
        and not any(t.lower in _COORDINATORS for t in tokens[:index] if t.kind == WORD)
    ):
        return True
    return False


def _collect(tokens: tuple[Token, ...], lexicon: Lexicon, noun_pass: bool) -> list[VerbCandidate]:
    candidates = []
    for i, token in enumerate(tokens):
        if token.kind != WORD or token.quoted:
            continue
        lemma = lemmatize(token.surface)
        entry = lexicon.get(lemma)
        if entry is None:
            continue
        ing_form = token.lower.endswith("ing") and token.lower != lemma
        if ing_form and not (noun_pass and entry.noun_ok):
            continue
        if not ing_form and noun_pass:
            continue
        base_form = token.lower == lemma
        if _noun_context(tokens, i, base_form):
            continue
        previous = _previous_word(tokens, i)
        infinitive = previous is not None and previous[1].lower == "to"
        candidates.append(
            VerbCandidate(
                token_index=i,
                surface=token.surface,
                lemma=lemma,
                event_class=entry.event_class,
                infinitive=infinitive,
                leading=(i == 0),
            )
        )
    return candidates


def recognize_event(tokens: TokenSequence, lexicon: Lexicon) -> EventMention | None:
    """Pick the head verb of a headline, or None when no lexicon verb occurs.

    The head is the leftmost candidate that is neither infinitive-marked nor
    headline-initial; when only demoted candidates exist, the leftmost of
    those is used, so "Pope to meet ..." still yields an event.
    """
    candidates = _collect(tokens.tokens, lexicon, noun_pass=False)
    if not candidates:
        candidates = _collect(tokens.tokens, lexicon, noun_pass=True)
    if not candidates:
        return None
    head = next((c for c in candidates if not c.infinitive and not c.leading), None)
    if head is None:
        head = candidates[0]
    token = tokens.tokens[head.token_index]
    return EventMention(
        head_index=head.token_index,
        surface=head.surface,
        lemma=head.lemma,
        event_class=head.event_class,
        span=(token.start, token.end),
        candidates=tuple(candidates),
        infinitive_head=head.infinitive,
    )
