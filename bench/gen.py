"""Seeded corpus generator for the benchmark.

``generate(settings, seed, out_dir)`` writes three files:

* ``catalog.json`` - the entity catalog handed to ``headex extract --catalog``;
* ``records.tsv`` - the headline records handed to ``headex extract``;
* ``plan.tsv`` - what the generator planted on each input line:
  ``line<TAB>label<TAB>expect<TAB>detail``, where ``expect`` is ``event``
  (detail: the event class) or ``skip`` (detail: a substring of the skip
  reason) and ``label`` is the record id or ``line<N>`` as ``skipped.tsv``
  names it.

Names come from a syllable generator.  Every generated name ends in a, i, o
or u, which no suffix rule of an English lemmatizer strips and no verb lemma
ends in, so a name can never be read as the event verb.  The program gets
only the catalog and the records; the plan stays with the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"
FINAL_VOWELS = "aiou"

TITLES = ("CEO", "Chair", "Director", "Minister", "Governor")
CAUSES = ("Storm", "Blast", "Flood", "Fire", "Crash", "Landslide", "Gunfire")
COUNTS = ("two", "three", "four", "five", "eight", "twelve", "20", "35", "110")
VICTIM_WORDS = ("people", "workers", "soldiers", "civilians", "students")
# Connectives used in long noisy headlines; none is a verb, preposition that
# splits chunks, determiner or number word.
GLUE = ("and", "plus", "also", "amid", "lol", "smh", "via", "re", "ok", "wow", "omg")
NON_ASCII = ("—", "…", "·", "✓", "é")

# Skip kind -> substring of the reason headex gives for it.
SKIP_REASONS = {
    "no_verb": "no event verb recognized",
    "fields": "expected 4 tab-separated fields",
    "bad_date": "date",
    "duplicate": "duplicate record id",
    "empty": "text must be nonempty",
}


@dataclass(frozen=True)
class Settings:
    """Knobs of one workload's corpus."""

    records: int  # input lines, skips included
    days: int  # day span of the record dates
    start: date
    catalog_size: int  # catalog entities
    ambiguity: float  # share of persons whose surname alias another person shares
    position_share: float  # share of events naming a person through a dated position
    reports: tuple[int, int]  # publishers reporting one happening, min and max
    skew: float  # Zipf exponent of participant popularity; 0 draws uniformly
    pool: int  # participants are drawn from this many catalog persons and orgs
    noise: float  # share of events wrapped in long social-media noise
    skip: float  # share of lines planted to be skipped


WORKLOADS: dict[str, Settings] = {
    # Years of dates at low daily density with a large catalog: extraction,
    # alias disambiguation and position look-ups dominate, interlink idles.
    "archive": Settings(
        records=2000,
        days=3 * 365,
        start=date(2012, 1, 1),
        catalog_size=10000,
        ambiguity=0.3,
        position_share=0.25,
        reports=(1, 1),
        skew=0.0,
        pool=7000,
        noise=0.0,
        skip=0.02,
    ),
    # Two weeks, each happening reported by 2-5 publishers, participants
    # drawn with a skew from a small catalog: the interlink passes dominate.
    "breaking": Settings(
        records=3600,
        days=14,
        start=date(2016, 3, 1),
        catalog_size=1500,
        ambiguity=0.05,
        position_share=0.05,
        reports=(2, 5),
        skew=0.5,
        pool=1200,
        noise=0.0,
        skip=0.0,
    ),
    # Long, diverse social-media headlines with URLs, hashtags, handles,
    # quotes and unknown names, and a quarter of lines on the skip paths.
    "noisy-feed": Settings(
        records=2400,
        days=60,
        start=date(2017, 5, 1),
        catalog_size=500,
        ambiguity=0.1,
        position_share=0.05,
        reports=(1, 1),
        skew=0.5,
        pool=400,
        noise=1.0,
        skip=0.25,
    ),
}

KB = "http://example.org/kb/"


@dataclass
class Entity:
    iri: str
    label: str
    kind: str  # Person | Organisation | Place
    aliases: list[str]
    keywords: list[str]
    roles: list[dict]


class Names:
    """Unique syllable words drawn from one random stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            n = self.rng.choice((2, 2, 3))
            parts = [self.rng.choice(CONSONANTS) + self.rng.choice(VOWELS) for _ in range(n - 1)]
            parts.append(self.rng.choice(CONSONANTS) + self.rng.choice(FINAL_VOWELS))
            text = "".join(parts)
            if text not in self.used:
                self.used.add(text)
                return text

    def name(self) -> str:
        return self.word().capitalize()


def build_catalog(settings: Settings, rng: random.Random, names: Names) -> dict[str, list[Entity]]:
    n_places = max(8, settings.catalog_size // 5)
    n_orgs = max(8, settings.catalog_size // 6)
    n_persons = settings.catalog_size - n_places - n_orgs

    persons: list[Entity] = []
    for i in range(n_persons):
        given = names.name()
        if persons and rng.random() < settings.ambiguity:
            surname = rng.choice(persons).aliases[0]
        else:
            surname = names.name()
        persons.append(
            Entity(
                iri=f"{KB}person/p{i}",
                label=f"{given} {surname}",
                kind="Person",
                aliases=[surname],
                keywords=[names.word() for _ in range(2)],
                roles=[],
            )
        )
    orgs = [
        Entity(f"{KB}org/o{i}", names.name(), "Organisation", [], [names.word()], [])
        for i in range(n_orgs)
    ]
    places = [Entity(f"{KB}place/l{i}", names.name(), "Place", [], [], []) for i in range(n_places)]

    # Half the organisations carry one titled position with up to three
    # successive holders, so resolution depends on the headline's date.
    first = settings.start - timedelta(days=2 * 365)
    last = settings.start + timedelta(days=settings.days)
    for org in orgs[: n_orgs // 2]:
        title = rng.choice(TITLES)
        holders = rng.sample(persons, rng.randint(1, 3))
        cuts = sorted(rng.randrange((last - first).days) for _ in range(len(holders) - 1))
        starts = [first] + [first + timedelta(days=c) for c in cuts]
        for k, person in enumerate(holders):
            end = starts[k + 1] - timedelta(days=1) if k + 1 < len(holders) else None
            if end is not None and end < starts[k]:
                end = starts[k]
            person.roles.append(
                {
                    "title": title,
                    "org": org.label,
                    "from": starts[k].isoformat(),
                    "to": end.isoformat() if end else None,
                }
            )
    return {"persons": persons, "orgs": orgs, "places": places}


def catalog_json(catalog: dict[str, list[Entity]]) -> str:
    entities = []
    for group in ("persons", "orgs", "places"):
        for e in catalog[group]:
            raw: dict = {"iri": e.iri, "label": e.label, "type": e.kind, "aliases": e.aliases}
            if e.keywords:
                raw["keywords"] = e.keywords
            if e.roles:
                raw["roles"] = e.roles
            entities.append(raw)
    return json.dumps({"entities": entities}, ensure_ascii=False, indent=0) + "\n"


class Corpus:
    """Records and plan of one workload and seed."""

    def __init__(self, settings: Settings, seed: int) -> None:
        self.s = settings
        self.rng = random.Random(f"headex-bench:{seed}")
        self.names = Names(self.rng)
        self.catalog = build_catalog(settings, self.rng, self.names)
        self.publishers = [f"{self.names.name()} News" for _ in range(8)]
        self.stock = [self.names.word() for _ in range(300)]
        pool = self.catalog["persons"] + self.catalog["orgs"]
        self.rng.shuffle(pool)
        self.pool = pool[: settings.pool]
        self.pool_weights = [1.0 / (r + 1) ** settings.skew for r in range(len(self.pool))]
        self.holders = [p for p in self.catalog["persons"] if p.roles]
        self.lines: list[str] = []
        self.plan: list[tuple[str, str, str]] = []
        self.event_ids: list[str] = []

    def participant(self) -> Entity:
        return self.rng.choices(self.pool, weights=self.pool_weights)[0]

    def name_of(self, entity: Entity) -> str:
        # Shared surnames are the ambiguous aliases: a surname alone makes
        # the linker score candidates.
        if entity.kind == "Person" and self.rng.random() < self.s.ambiguity:
            return entity.aliases[0]
        return entity.label

    def position_ref(self, holder: Entity) -> str:
        """A reference through one of the holder's positions; it resolves to
        whoever held the position on the record's date."""
        role = self.rng.choice(holder.roles)
        if self.rng.random() < 0.2:
            return f"{role['title']} of {role['org']}"
        return f"{role['org']} {role['title']}"

    def words(self, n: int) -> str:
        rng = self.rng
        return " ".join(
            self.names.word() if rng.random() < 0.5 else rng.choice(self.stock) for _ in range(n)
        )

    def headline(self, cls: str, subj: str, obj: str, place: str, variant: int) -> str:
        """One headline of class ``cls``: subject and object surfaces, a place."""
        topic = self.words(self.rng.randint(1, 3))
        if cls == "Meet":
            return (
                f"{subj} meets {obj}",
                f"{subj} meets {obj} in {place}",
                f"{subj} meets with {obj} to discuss {topic}",
                f"{subj} met {obj} in {place}",
            )[variant]
        if cls == "Communication":
            return (
                f"{subj} tells {obj}: {topic}",
                f'{subj} says "{topic}"',
                f"{subj} announces {topic} in {place}",
                f"{subj} tells {obj} {topic}",
            )[variant]
        count, victims = self.rng.choice(COUNTS), self.rng.choice(VICTIM_WORDS)
        return (
            f"Gunmen killed {obj} in {place}",
            f"{obj} killed in {place}",
            f"{self.rng.choice(CAUSES)} kills {count} {victims} in {place}",
            f"{obj} was killed in {place}",
        )[variant]

    def noisy(self, text: str) -> str:
        """Wrap a headline in social-media noise that carries no verb."""
        rng = self.rng
        pieces = []
        if rng.random() < 0.3:
            pieces.append(rng.choice(("BREAKING:", "UPDATE —", "JUST IN", "🚨")))
        pieces.append(text)
        for _ in range(rng.randint(4, 10)):
            roll = rng.random()
            if roll < 0.2:
                pieces.append(f"@{self.names.word()}{rng.randrange(100)}")
            elif roll < 0.35:
                pieces.append(f"#{self.names.name()}")
            elif roll < 0.45:
                pieces.append(f"https://t.co/{self.names.word()}{rng.randrange(10**6)}")
            elif roll < 0.55:
                pieces.append(f'"{self.words(rng.randint(1, 4))}"')
            elif roll < 0.62:
                pieces.append(self.names.name())  # unknown capitalised name
            elif roll < 0.68:
                pieces.append(rng.choice(NON_ASCII))
            elif roll < 0.72:
                pieces.append("\\\\")  # an escaped backslash in the TSV field
            else:
                pieces.append(f"{rng.choice(GLUE)} {self.words(rng.randint(1, 3))}")
        return " ".join(pieces)

    def no_verb(self) -> str:
        a, b = self.participant(), self.participant()
        place = self.rng.choice(self.catalog["places"]).label
        return f"{self.name_of(a)} and {self.name_of(b)} at {place} {self.words(3)}"

    # -- records ------------------------------------------------------------

    def day(self, offset: int) -> str:
        day = self.s.start + timedelta(days=offset)
        if self.s.noise and self.rng.random() < 0.3:
            return f"{day.day}/{day.month}/{day.year % 100:02d}"
        return day.isoformat()

    def add(self, fields: list[str], label: str, expect: str, detail: str) -> None:
        self.lines.append("\t".join(fields))
        self.plan.append((label, expect, detail))

    def add_event(self, cls: str, text: str, offset: int, publisher: str) -> None:
        rid = f"r{len(self.lines) + 1:06d}"
        if self.rng.random() < self.s.noise:
            text = self.noisy(text)
        self.add([rid, publisher, self.day(offset), text], rid, "event", cls)
        self.event_ids.append(rid)

    def add_skip(self, offset: int) -> None:
        kind = self.rng.choice(tuple(SKIP_REASONS) if self.event_ids else ("no_verb",))
        line = f"line{len(self.lines) + 1}"
        rid = f"r{len(self.lines) + 1:06d}"
        pub = self.rng.choice(self.publishers)
        when = self.day(offset)
        reason = SKIP_REASONS[kind]
        if kind == "no_verb":
            text = self.no_verb()
            if self.s.noise:
                text = self.noisy(text)
            self.add([rid, pub, when, text], rid, "skip", reason)
        elif kind == "fields":
            fields = [rid, pub, self.no_verb()] if self.rng.random() < 0.5 else [
                rid, pub, when, self.no_verb(), self.words(2)]
            self.add(fields, line, "skip", reason)
        elif kind == "bad_date":
            bad = self.rng.choice(("31/2/16", "2016-13-40", "yesterday", "0/0/0", ""))
            self.add([rid, pub, bad, self.no_verb()], line, "skip", reason)
        elif kind == "duplicate":
            dup = self.rng.choice(self.event_ids)
            self.add([dup, pub, when, self.no_verb()], dup, "skip", reason)
        else:
            self.add([rid, pub, when, self.rng.choice(("", "   "))], line, "skip", reason)

    def build(self) -> None:
        s, rng = self.s, self.rng
        classes = ("Meet", "Communication", "Murder")
        places = self.catalog["places"]
        happenings = 0
        while len(self.lines) < s.records:
            # Dates advance with the line number, and skips and position
            # references fall at a fixed stride, so daily density, the skip
            # share and the number of catalog.holders look-ups do not vary
            # by seed.
            n = len(self.lines)
            offset = n * s.days // s.records
            if int((n + 1) * s.skip) > int(n * s.skip):
                self.add_skip(offset)
                continue
            k = happenings
            happenings += 1
            via_position = int((k + 1) * s.position_share) > int(k * s.position_share)
            # Murder headlines drop the subject, so a position reference
            # goes into a class that names it.
            cls = rng.choice(classes[:2] if via_position else classes)
            a = rng.choice(self.holders) if via_position else self.participant()
            b = self.participant()
            while b is a:
                b = self.participant()
            place = rng.choice(places).label
            reports = rng.randint(*s.reports)
            for publisher in rng.sample(self.publishers, reports):
                if len(self.lines) >= s.records:
                    break
                # Reports of one happening vary in wording and by up to a day.
                late = rng.choice((0, 0, 1)) if reports > 1 else 0
                subj = self.position_ref(a) if via_position else self.name_of(a)
                text = self.headline(cls, subj, self.name_of(b), place, rng.randrange(4))
                self.add_event(cls, text, min(offset + late, s.days - 1), publisher)


def generate(settings: Settings, seed: int, out_dir: Path) -> dict:
    """Write catalog.json, records.tsv and plan.tsv; return a short summary."""
    corpus = Corpus(settings, seed)
    corpus.build()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "catalog.json").write_text(catalog_json(corpus.catalog), encoding="utf-8")
    (out_dir / "records.tsv").write_text(
        "".join(line + "\n" for line in corpus.lines), encoding="utf-8"
    )
    (out_dir / "plan.tsv").write_text(
        "".join(
            f"{n}\t{label}\t{expect}\t{detail}\n"
            for n, (label, expect, detail) in enumerate(corpus.plan, start=1)
        ),
        encoding="utf-8",
    )
    return {
        "records": len(corpus.lines),
        "planted_events": sum(1 for _, e, _ in corpus.plan if e == "event"),
        "catalog": sum(len(v) for v in corpus.catalog.values()),
    }
