"""Verb lexicon: maps verb lemmas to event classes, plus a rule lemmatizer.

The lexicon file format is UTF-8 TSV, one row per lemma:

    lemma<TAB>class[<TAB>subgroup][<TAB>flags]

Class is Communication, Meet, Murder, or ``Other:<Label>`` for an extension
class, which fills only the generic roles (time, location, involved) and gets
no main triple; the label may not name a built-in class or hold ``_``.
Subgroup is only meaningful for Communication (SayVerbs or TellVerbs); leave
it empty or write ``-`` for none.  Flags is a comma-separated list; the only
recognized flag is ``noun_ok``, which lets the event recognizer accept
-ing/noun surface forms of that lemma when a headline has no finite verb hit.
Lines starting with ``#`` and blank lines are ignored.  The shipped default
lexicon is ``data/cevo_min.tsv``.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources
from pathlib import Path
from typing import Iterable

from .ingest import InputError, read_text
from .model import COMMUNICATION, FRAMES, EventClass, ModelError, check_iri_safe

_KNOWN_SUBGROUPS = ("SayVerbs", "TellVerbs")


class LexiconError(InputError):
    """Raised for malformed or conflicting lexicon rows."""

    def __init__(self, line_no: int, message: str, path: str | Path | None = None) -> None:
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message


VerbEntry = namedtuple("VerbEntry", "lemma event_class noun_ok", defaults=(False,))


class Lexicon:
    """Immutable lemma -> verb entry mapping."""

    def __init__(self, entries: Iterable[VerbEntry]) -> None:
        self._entries = {e.lemma: e for e in entries}

    def get(self, lemma: str) -> VerbEntry | None:
        return self._entries.get(lemma)

    def lemmas(self) -> tuple[str, ...]:
        return tuple(self._entries)


def default_lexicon_path() -> Path:
    return Path(str(resources.files("headex").joinpath("data/cevo_min.tsv")))


def _parse_class(text: str, line_no: int) -> str:
    if text in FRAMES:
        return text
    if text.startswith("Other:") and len(text) > len("Other:"):
        label = text[len("Other:") :]
        if label in FRAMES:
            raise LexiconError(line_no, f"extension class {text!r} names the built-in class {label}")
        try:
            check_iri_safe(f"class label {label!r}", label)
        except ModelError as exc:
            raise LexiconError(line_no, str(exc)) from exc
        if "_" in label:
            raise LexiconError(
                line_no, f"class label {label!r} holds '_', which ends the class in a statement IRI"
            )
        return label
    raise LexiconError(line_no, f"unknown event class {text!r}")


def load_lexicon(text: str) -> Lexicon:
    """Load a lexicon from its text.

    Raises LexiconError with a line number for wrong arity, unknown class
    names or flags, or a lemma mapped to two different classes.
    """
    entries: dict[str, tuple[VerbEntry, int]] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.rstrip().split("\t")  # a leading tab is an empty first column
        if len(fields) < 2 or len(fields) > 4:
            raise LexiconError(line_no, f"expected 2-4 tab-separated fields, got {len(fields)}")
        lemma, class_text, subgroup, flags = [f.strip() for f in fields] + [""] * (4 - len(fields))
        lemma = lemma.lower()
        if not lemma:
            raise LexiconError(line_no, "empty lemma")
        class_name = _parse_class(class_text, line_no)
        if subgroup in ("", "-"):
            subgroup = None
        elif subgroup not in _KNOWN_SUBGROUPS:
            raise LexiconError(line_no, f"unknown subgroup {subgroup!r}")
        elif class_name != COMMUNICATION:
            raise LexiconError(line_no, f"subgroup given for non-{COMMUNICATION} class")
        for flag in flags.split(",") if flags else ():
            if flag.strip() != "noun_ok":
                raise LexiconError(line_no, f"unknown flag {flag.strip()!r}")
        entry = VerbEntry(lemma, EventClass(class_name, subgroup), noun_ok=bool(flags))
        if lemma in entries:
            previous, previous_line = entries[lemma]
            if previous.event_class != entry.event_class:
                raise LexiconError(
                    line_no,
                    f"lemma {lemma!r} already mapped to "
                    f"{previous.event_class.name} on line {previous_line}",
                )
            continue
        entries[lemma] = (entry, line_no)
    return Lexicon(entry for entry, _ in entries.values())


def load_lexicon_file(path: str | Path) -> Lexicon:
    """Load a lexicon file; every error names the file, a ``LexiconError`` the line too."""
    text = read_text(path)
    try:
        return load_lexicon(text)
    except LexiconError as exc:
        raise LexiconError(exc.line_no, exc.message, path) from exc


def classify_verb(lemma: str, lexicon: Lexicon) -> EventClass | None:
    """Event class (with subgroup, when any) for a lemma, or None if unlisted."""
    entry = lexicon.get(lemma)
    return entry.event_class if entry is not None else None


# Irregular inflections of verbs this pipeline is likely to meet in headlines.
# Unknown irregulars fall through to the suffix rules.
_IRREGULAR = {
    "met": "meet",
    "said": "say",
    "told": "tell",
    "fought": "fight",
    "wrote": "write",
    "written": "write",
    "taught": "teach",
    "slew": "slay",
    "slain": "slay",
    "shown": "show",
    "showed": "show",
    "writing": "write",
    "cited": "cite",
    "citing": "cite",
    "posed": "pose",
    "posing": "pose",
    "alleged": "allege",
    "alleging": "allege",
    "declared": "declare",
    "declaring": "declare",
    "am": "be",
    "is": "be",
    "are": "be",
    "was": "be",
    "were": "be",
    "been": "be",
    "has": "have",
    "had": "have",
    "did": "do",
    "does": "do",
    "done": "do",
    "goes": "go",
    "went": "go",
    "gone": "go",
}

_VOWELS = "aeiou"
# Final consonants that get doubled before -ed/-ing (stopped, planned).
_DOUBLING = "bdgmnprt"


def _restore_e(stem: str) -> str:
    # Undo e-dropping where the bare stem is clearly not a word ending.
    if stem.endswith(("c", "u", "v", "z")):
        return stem + "e"
    if len(stem) > 2 and stem.endswith("at") and stem[-3] not in _VOWELS:
        return stem + "e"
    if stem.endswith(("ut", "ot")):
        return stem + "e"
    if len(stem) > 2 and stem[-1] == "s" and stem[-2] in _VOWELS:
        return stem + "e"
    if len(stem) > 2 and stem[-1] in "lr" and stem[-2] not in _VOWELS and stem[-2] != stem[-1]:
        return stem + "e"
    return stem


def _strip_suffix(word: str, width: int) -> str:
    stem = word[:-width]
    if len(stem) > 2 and stem[-1] == stem[-2] and stem[-1] in _DOUBLING:
        return stem[:-1]
    return _restore_e(stem)


def _lemmatize_once(word: str) -> str:
    if word in _IRREGULAR:
        return _IRREGULAR[word]
    if len(word) > 4 and word.endswith(("ies", "ied")):
        return word[:-3] + "y"
    if len(word) > 3 and word.endswith("es") and word[:-2].endswith(("ss", "x", "z", "ch", "sh")):
        return word[:-2]
    if len(word) > 3 and word.endswith("s") and not word.endswith(("ss", "us", "is")):
        return word[:-1]
    if len(word) > 4 and word.endswith("ed"):
        return _strip_suffix(word, 2)
    if len(word) > 5 and word.endswith("ing"):
        return _strip_suffix(word, 3)
    return word


def lemmatize(token: str) -> str:
    """Lowercase dictionary form of a word token.

    Applies the irregular table, then suffix rules for -s/-es/-ies/-ed/-ing
    with consonant undoubling and e-restoration.  Rules are iterated to a
    fixed point, so the function is idempotent.
    """
    if not token or not token.strip():
        raise ValueError("cannot lemmatize an empty token")
    word = token.lower()
    for _ in range(5):
        reduced = _lemmatize_once(word)
        if reduced == word:
            return word
        word = reduced
    return word
