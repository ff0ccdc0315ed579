"""Head-verb recognition and event classification over headlines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex import events
from headex.events import EventMention, VerbCandidate, recognize_event
from headex.ingest import NUMBER, PUNCT, WORD, normalize
from headex.lexicon import lemmatize, load_lexicon

EXPECTED_CLASSES = {
    "no1": ("Communication", "tells"),
    "no2": ("Meet", "meets"),
    "no3": ("Murder", "kills"),
    "no4": ("Communication", "says"),
    "no5": ("Meet", "visits"),
    "no6": ("Murder", "kill"),
    "no7": ("Communication", "announce"),
    "no8": ("Meet", "meet"),
    "no9": ("Murder", "killed"),
}


def head_of(text: str, lexicon):
    return recognize_event(normalize(text), lexicon)


class TestGoldenNine:
    @pytest.mark.parametrize("record_id", sorted(EXPECTED_CLASSES))
    def test_class_and_head(self, record_id, record_by_id, lexicon):
        mention = head_of(record_by_id[record_id].text, lexicon)
        expected_class, expected_surface = EXPECTED_CLASSES[record_id]
        assert mention is not None
        assert mention.event_class.name == expected_class
        assert mention.surface == expected_surface


class TestHeadSelection:
    def test_no_verb_gives_none(self, lexicon):
        assert head_of("Quarterly results due tomorrow", lexicon) is None

    def test_leading_verb_is_last_resort(self, lexicon):
        # A leading inventory word loses to a later finite verb...
        mention = head_of("State elections were difficult, officials say", lexicon)
        assert mention.surface == "say"
        # ...but wins when it is the only candidate.
        alone = head_of("Meet the new chancellor in Berlin", lexicon)
        assert alone is not None and alone.surface == "Meet"

    def test_infinitive_demoted_not_banned(self, lexicon):
        mention = head_of("Pope to meet leader of Russian Orthodox Church", lexicon)
        assert mention.surface == "meet" and mention.infinitive_head
        both = head_of("Obama announces plan to visit Cuba", lexicon)
        assert both.surface == "announces"

    def test_determiner_blocks_noun_reading(self, lexicon):
        mention = head_of("The fight for justice says everything about us", lexicon)
        assert mention.surface == "says"

    def test_capitalized_modifier_blocks_base_form(self, lexicon):
        # "meet" after non-initial "Council" reads as a noun compound.
        assert head_of("Security Council meet draws thousands", lexicon) is None
        # A sentence-initial capitalized word says nothing about the next token.
        storms = head_of("Storms kill at least three", lexicon)
        assert storms is not None and storms.surface == "kill"
        # And an unrelated blocked reading must not hide the real verb.
        mention = head_of("White House report says talks stalled", lexicon)
        assert mention.surface == "says"

    def test_coordination_lifts_modifier_block(self, lexicon):
        mention = head_of("Obama and Justin Trudeau announce efforts", lexicon)
        assert mention is not None and mention.surface == "announce"
        # "&" is a punctuation token, and it coordinates as "and" does.
        for text in ("Smith and Jones announce new plan", "Smith & Jones announce new plan"):
            mention = head_of(text, lexicon)
            assert mention is not None and mention.surface == "announce"
            assert mention.event_class.name == "Communication"

    def test_inflected_form_not_blocked_by_modifier(self, lexicon):
        # The noun rule targets base forms only; "says" stays a verb here.
        mention = head_of("Angela Merkel says coalition will hold", lexicon)
        assert mention is not None and mention.surface == "says"
        killed = head_of("UAE pilots killed in crash", lexicon)
        assert killed is not None and killed.surface == "killed"

    def test_quoted_verbs_ignored(self, lexicon):
        assert head_of('Protesters chant "kill the deal" in Berlin', lexicon) is None

    def test_candidates_recorded(self, lexicon):
        mention = head_of("Obama and Justin Trudeau announce efforts to fight climate change", lexicon)
        surfaces = [c.surface for c in mention.candidates]
        assert surfaces == ["announce", "fight"]


class TestNounPass:
    def test_ing_form_needs_noun_ok(self):
        plain = load_lexicon("meet\tMeet\n")
        flagged = load_lexicon("meet\tMeet\t-\tnoun_ok\n")
        text = "Meeting in Berlin today"
        assert recognize_event(normalize(text), plain) is None
        mention = recognize_event(normalize(text), flagged)
        assert mention is not None and mention.lemma == "meet"

    def test_finite_candidate_preempts_noun_pass(self):
        flagged = load_lexicon("meet\tMeet\t-\tnoun_ok\nsay\tCommunication\tSayVerbs\n")
        mention = recognize_event(normalize("Meeting of ministers says a lot"), flagged)
        assert mention.lemma == "say"


# Head-verb recognition as it was with a second -ing pass: kept as the oracle
# that the one-pass ``recognize_event`` must match on every headline.

_OLD_DETERMINERS = frozenset(
    "the a an this that these those his her their its our your my".split()
)
_OLD_COORDINATORS = frozenset(("and", "&"))


def old_previous_word(tokens, index):
    if index == 0 or tokens[index - 1].kind == PUNCT:
        return None
    return index - 1, tokens[index - 1]


def old_noun_context(tokens, index, base_form):
    previous = old_previous_word(tokens, index)
    if previous is None:
        return False
    prev_index, prev = previous
    if prev.kind == WORD and prev.lower in _OLD_DETERMINERS:
        return True
    if (
        base_form
        and prev.kind in (WORD, NUMBER)
        and prev_index > 0
        and prev.surface[:1].isupper()
        and not any(t.lower in _OLD_COORDINATORS for t in tokens[:index])
    ):
        return True
    return False


def old_collect(tokens, lexicon, noun_pass):
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
        if old_noun_context(tokens, i, base_form):
            continue
        previous = old_previous_word(tokens, i)
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


def old_recognize_event(tokens, lexicon):
    candidates = old_collect(tokens.tokens, lexicon, noun_pass=False)
    if not candidates:
        candidates = old_collect(tokens.tokens, lexicon, noun_pass=True)
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


# Lemma -> surface forms: base, -s, -ed and -ing, some capitalized.  "bring"
# ends in -ing as a base form; "and" and "the" as lemmas put a coordinator
# or a determiner among the candidates.
_FORMS = {
    "meet": ("meet", "meets", "met", "meeting", "Meet", "Meets", "Meeting"),
    "kill": ("kill", "kills", "killed", "killing", "Kill"),
    "say": ("say", "says", "said", "saying"),
    "visit": ("visit", "visits", "visited", "visiting", "Visiting"),
    "state": ("state", "states", "stated", "stating", "State"),
    "fight": ("fight", "fights", "fought", "fighting"),
    "bring": ("bring", "brings", "bringing"),
    "report": ("report", "reports", "reported", "reporting", "Report"),
    "and": ("and", "And"),
    "the": ("the",),
}
_OTHER_PIECES = (
    "the", "The", "his", "a", "White", "House", "Obama", "UN", "Three", "2016",
    "and", "&", "to", "To", "in", "of", "talks", "officials", "#tag", "@user",
    ",", ":", "-", ".", "?", '"', "\u201c", "\u201d", '"kill', 'deal"',
)
_CLASSES = ("Meet", "Murder", "Communication", "Other:Worship")


@st.composite
def _lexicons(draw):
    lemmas = draw(st.lists(st.sampled_from(sorted(_FORMS)), min_size=1, unique=True))
    rows = []
    for lemma in lemmas:
        flags = "noun_ok" if draw(st.booleans()) else ""
        rows.append(f"{lemma}\t{draw(st.sampled_from(_CLASSES))}\t-\t{flags}")
    return load_lexicon("".join(row + "\n" for row in rows))


_PIECES = st.one_of(
    st.sampled_from([form for forms in _FORMS.values() for form in forms]),
    st.sampled_from(_OTHER_PIECES),
)
_HEADLINES = st.lists(_PIECES, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=1000, deadline=None)
@given(lexicon=_lexicons(), text=_HEADLINES)
def test_property_one_pass_matches_the_two_pass_oracle(lexicon, text):
    tokens = normalize(text)
    assert recognize_event(tokens, lexicon) == old_recognize_event(tokens, lexicon)


def test_each_unquoted_word_is_lemmatized_once(monkeypatch):
    calls = []

    def counting(surface):
        calls.append(surface)
        return lemmatize(surface)

    monkeypatch.setattr(events, "lemmatize", counting)
    flagged = load_lexicon("meet\tMeet\t-\tnoun_ok\n")
    # No finite hit, so only the -ing form can head.
    mention = recognize_event(normalize('Meeting of ministers in "Berlin" today'), flagged)
    assert mention is not None and mention.surface == "Meeting"
    assert calls == ["Meeting", "of", "ministers", "in", "today"]
