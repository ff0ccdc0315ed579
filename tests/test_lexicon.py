"""Verb lexicon: file format, bundled contents, classification."""

from __future__ import annotations

import pytest

from headex.lexicon import (
    LexiconError,
    classify_verb,
    load_lexicon,
    load_lexicon_file,
)

# The full bundled verb inventory, frozen: (lemma, class, subgroup).
EXPECTED_VERBS = {
    # say-type communication
    ("admit", "Communication", "SayVerbs"),
    ("allege", "Communication", "SayVerbs"),
    ("announce", "Communication", "SayVerbs"),
    ("articulate", "Communication", "SayVerbs"),
    ("assert", "Communication", "SayVerbs"),
    ("communicate", "Communication", "SayVerbs"),
    ("confess", "Communication", "SayVerbs"),
    ("convey", "Communication", "SayVerbs"),
    ("declare", "Communication", "SayVerbs"),
    ("mention", "Communication", "SayVerbs"),
    ("propose", "Communication", "SayVerbs"),
    ("recount", "Communication", "SayVerbs"),
    ("repeat", "Communication", "SayVerbs"),
    ("report", "Communication", "SayVerbs"),
    ("reveal", "Communication", "SayVerbs"),
    ("say", "Communication", "SayVerbs"),
    ("state", "Communication", "SayVerbs"),
    # tell-type communication
    ("ask", "Communication", "TellVerbs"),
    ("cite", "Communication", "TellVerbs"),
    ("demonstrate", "Communication", "TellVerbs"),
    ("dictate", "Communication", "TellVerbs"),
    ("explain", "Communication", "TellVerbs"),
    ("explicate", "Communication", "TellVerbs"),
    ("narrate", "Communication", "TellVerbs"),
    ("pose", "Communication", "TellVerbs"),
    ("preach", "Communication", "TellVerbs"),
    ("quote", "Communication", "TellVerbs"),
    ("read", "Communication", "TellVerbs"),
    ("relay", "Communication", "TellVerbs"),
    ("show", "Communication", "TellVerbs"),
    ("teach", "Communication", "TellVerbs"),
    ("tell", "Communication", "TellVerbs"),
    ("write", "Communication", "TellVerbs"),
    # meeting
    ("battle", "Meet", None),
    ("box", "Meet", None),
    ("consult", "Meet", None),
    ("debate", "Meet", None),
    ("fight", "Meet", None),
    ("meet", "Meet", None),
    ("play", "Meet", None),
    ("visit", "Meet", None),
    # killing
    ("assasinate", "Murder", None),
    ("butcher", "Murder", None),
    ("dispatch", "Murder", None),
    ("eliminate", "Murder", None),
    ("execute", "Murder", None),
    ("immolate", "Murder", None),
    ("kill", "Murder", None),
    ("liquidate", "Murder", None),
    ("massacre", "Murder", None),
    ("murder", "Murder", None),
    ("slaughter", "Murder", None),
    ("slay", "Murder", None),
}


class TestBundledLexicon:
    def test_inventory_matches_exactly(self, lexicon):
        shipped = {
            (e.lemma, e.event_class.name, e.event_class.subgroup)
            for e in (lexicon.get(lemma) for lemma in lexicon.lemmas())
        }
        assert shipped == EXPECTED_VERBS
        assert len(lexicon) == 53

    def test_every_lemma_classifies(self, lexicon):
        for lemma, class_name, subgroup in EXPECTED_VERBS:
            cls = classify_verb(lemma, lexicon)
            assert cls is not None and cls.name == class_name and cls.subgroup == subgroup

    def test_unknown_verb_is_none(self, lexicon):
        assert classify_verb("dance", lexicon) is None


# Each malformed row and the message its error carries after the line number.
MALFORMED_ROWS = {
    "meet\tBanquet\n": "unknown event class 'Banquet'",
    "meet\tMeet\tWrongGroup\n": "unknown subgroup 'WrongGroup'",
    "meet\tMeet\t-\tbad_flag\n": "unknown flag 'bad_flag'",
    "onlyfield\n": "expected 2-4 tab-separated fields, got 1",
    "say\tCommunication\tSayVerbs\textra\ttoomany\n": "expected 2-4 tab-separated fields, got 5",
    "pray\tOther:Big Deal\n": "class label 'Big Deal' holds ' ', which IRIs forbid",
    "pray\tOther:Big<Deal>\n": "class label 'Big<Deal>' holds '<', which IRIs forbid",
    "pray\tOther:Meet\n": "extension class 'Other:Meet' names the built-in class Meet",
    "convene\tOther:Meet_x\n": (
        "class label 'Meet_x' holds '_', which ends the class in a statement IRI"
    ),
    "pray\tOther:Communication\n": (
        "extension class 'Other:Communication' names the built-in class Communication"
    ),
    "meet\tMeet\t-\tnoun_ok,\n": "unknown flag ''",
    "meet\tMeet\t-\tnoun_ok,bad\n": "unknown flag 'bad'",
    "meet\tMeet\tSayVerbs\n": "subgroup given for non-Communication class",
    "meet\tMeet\tSayVerbs\tnoun_ok\n": "subgroup given for non-Communication class",
    "meet\t\tMeet\n": "unknown event class ''",
    "\tmeet\tMeet\n": "empty lemma",
    "\tMeet\t-\n": "empty lemma",
}


class TestFormat:
    def load(self, text: str):
        return load_lexicon(text)

    def test_comments_blanks_and_dash_subgroup(self):
        lex = self.load("# header\n\nmeet\tMeet\t-\nsay\tCommunication\tSayVerbs\n")
        assert "meet" in lex and lex.get("say").event_class.subgroup == "SayVerbs"

    def test_noun_ok_flag(self):
        lex = self.load("meet\tMeet\t-\tnoun_ok\n")
        assert lex.get("meet").noun_ok

    def test_custom_class_label(self):
        lex = self.load("elect\tOther:Election\n")
        assert lex.get("elect").event_class.name == "Election"

    @pytest.mark.parametrize("line", list(MALFORMED_ROWS))
    def test_malformed_lines_raise_with_line_number(self, line):
        with pytest.raises(LexiconError) as err:
            self.load(line)
        assert err.value.line_no == 1
        assert str(err.value) == f"line 1: {MALFORMED_ROWS[line]}"

    @pytest.mark.parametrize(
        "line, subgroup, noun_ok",
        [
            ("say\tCommunication\t\n", None, False),
            ("say\tCommunication\t\tnoun_ok\n", None, True),
            ("meet\tMeet\t-\tnoun_ok\n", None, True),
            ("meet\tMeet\t\t noun_ok , noun_ok\n", None, True),
            ("say\tCommunication\t TellVerbs \t\n", "TellVerbs", False),
            ("meet\tMeet\t\t\t\n", None, False),
        ],
    )
    def test_optional_columns(self, line, subgroup, noun_ok):
        entry = self.load(line).get(line.split("\t")[0])
        assert (entry.event_class.subgroup, entry.noun_ok) == (subgroup, noun_ok)

    @pytest.mark.parametrize("separator", ["\f", "\u2028"])
    def test_only_newline_ends_a_line(self, tmp_path, separator):
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"meet\tMeet{separator}foo\n", encoding="utf-8")
        with pytest.raises(LexiconError) as err:
            load_lexicon_file(path)
        assert str(err.value) == f"{path}: line 1: unknown event class {f'Meet{separator}foo'!r}"
        path.write_text(f"meet\tMeet{separator}\nsay\tBanquet\n", encoding="utf-8")
        with pytest.raises(LexiconError) as err:
            load_lexicon_file(path)
        assert str(err.value) == f"{path}: line 2: unknown event class 'Banquet'"

    def test_conflicting_classes_rejected(self):
        with pytest.raises(LexiconError) as err:
            self.load("meet\tMeet\nmeet\tMurder\n")
        assert "line 1" in str(err.value) or err.value.line_no == 2

    def test_identical_duplicate_tolerated(self):
        lex = self.load("meet\tMeet\nmeet\tMeet\n")
        assert len(lex) == 1
