"""Head-verb recognition and event classification over headlines."""

from __future__ import annotations

import pytest

from headex.events import recognize_event
from headex.ingest import normalize
from headex.lexicon import load_lexicon

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
