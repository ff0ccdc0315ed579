"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces the module-level names that headex's callers look
up (``pipeline.chunk``, ``interlink.jaccard``, the ``cli`` module's imports,
...) with wrappers.  A wrapper records a span ``[name, start, end, parent,
record]`` in memory, or only counts calls where a span per call would cost
more than the call itself.  Spans made while ``pipeline.process_record`` runs
carry that record's id.  The process writes its spans and counts out when
it ends; ``summarize`` turns them into per-layer numbers, the self time of
a span being its duration minus that of its children.
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter
from datetime import timedelta
from time import perf_counter

# Span name -> metric that sums the span's self time.
SELF_TIME_METRICS = {
    "cli.load_catalog": "catalog.load_s",
    "cli.load_lexicon_file": "lexicon.load_s",
    "ingest.read_records": "ingest.read_records_s",
    "pipeline.normalize": "ingest.normalize_s",
    "pipeline.recognize_event": "events.recognize_event_s",
    "pipeline.chunk": "entities.chunk_s",
    "pipeline.recognize_entities": "entities.recognize_entities_s",
    "pipeline.assign_roles": "entities.assign_roles_s",
    "pipeline.link_entity": "entities.link_entity_s",
    "pipeline.resolve_implicit": "entities.resolve_implicit_s",
    "catalog.holders": "catalog.holders_s",
    "pipeline.emit_event_triples": "triplify.emit_event_triples_s",
    "cli.parse_ntriples": "rdf.parse_s",
    "interlink.build_event_index": "interlink.build_event_index_s",
    "interlink.find_same_events": "interlink.find_same_events_s",
    "interlink.find_related_events": "interlink.find_related_events_s",
    "cli.extract": "cli.extract_io_s",
    "cli.interlink": "cli.interlink_io_s",
}
# cli.serialize_ntriples is one function used by both commands.
SERIALIZE_METRICS = {"cli.extract": "rdf.serialize_events_s", "cli.interlink": "rdf.serialize_links_s"}
# Span name -> metric that counts the spans.
CALL_METRICS = {
    "pipeline.normalize": "ingest.normalize_calls",
    "pipeline.link_entity": "entities.link_entity_calls",
    "pipeline.resolve_implicit": "entities.resolve_implicit_calls",
    "catalog.holders": "catalog.holders_calls",
}
# Metric -> unit, for every per-layer metric the traced run reports.
LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS.values()},
    **{m: "s" for m in SERIALIZE_METRICS.values()},
    **{m: "count" for m in CALL_METRICS.values()},
    "lexicon.lemmatize_calls": "count",
    "entities.disambiguations": "count",
    "entities.minted": "count",
    "triplify.triples_emitted": "count",
    "rdf.parse_triples_per_s": "1/s",
    "interlink.same.compared": "count",
    "interlink.same.emitted": "count",
    "interlink.same.useful_ratio": "ratio",
    "interlink.related.window_pairs": "count",
    "interlink.related.emitted": "count",
    "interlink.related.useful_ratio": "ratio",
    "pipeline.process_record_p50_us": "us",
    "pipeline.process_record_p99_us": "us",
    "pipeline.skipped": "count",
    "trace.overhead_s": "s",
}

PIPELINE_NAMES = (
    "normalize",
    "recognize_event",
    "chunk",
    "recognize_entities",
    "link_entity",
    "resolve_implicit",
    "assign_roles",
    "emit_event_triples",
)


class Tracer:
    """In-memory span recorder; one per process run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.record: str | None = None
        self.related_inputs: list[tuple[list, float]] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args,
        kwargs)`` runs once the span has ended."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.record]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap ``fn`` so each call only bumps a count."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install_loads(self) -> None:
        """Time the two set-up loads; every run needs these."""
        from headex import cli

        for name in ("load_catalog", "load_lexicon_file"):
            setattr(cli, name, self.span(f"cli.{name}", getattr(cli, name)))

    def install(self) -> None:
        """Wrap every traced layer boundary."""
        from headex import cli, entities, events, ingest, interlink, pipeline
        from headex.catalog import EntityCatalog

        self.install_loads()
        counts = self.counts

        def linked(result, args, kwargs):
            mention, audit = result
            counts["entities.disambiguations"] += audit is not None
            counts["entities.minted"] += mention.status == entities.MINTED

        def emitted(result, args, kwargs):
            counts["triplify.triples_emitted"] += len(result)

        after = {"link_entity": linked, "emit_event_triples": emitted}
        for name in PIPELINE_NAMES:
            fn = getattr(pipeline, name)
            setattr(pipeline, name, self.span(f"pipeline.{name}", fn, after.get(name)))

        process = self.span("pipeline.process_record", pipeline.process_record)

        def process_record(record, *args, **kwargs):
            self.record = record.id
            try:
                return process(record, *args, **kwargs)
            except pipeline.SkipRecord:
                counts["pipeline.skipped"] += 1
                raise
            finally:
                self.record = None

        pipeline.process_record = process_record

        def read(result, args, kwargs):
            counts["pipeline.skipped"] += len(result[1])

        ingest.read_records = self.span("ingest.read_records", ingest.read_records, read)
        events.lemmatize = self.counter("lexicon.lemmatize_calls", events.lemmatize)
        EntityCatalog.holders = self.span("catalog.holders", EntityCatalog.holders)

        def parsed(result, args, kwargs):
            counts["rdf.parse_triples"] += len(result)

        cli.parse_ntriples = self.span("cli.parse_ntriples", cli.parse_ntriples, parsed)
        cli.serialize_ntriples = self.span("cli.serialize_ntriples", cli.serialize_ntriples)

        def same(result, args, kwargs):
            counts["interlink.same.emitted"] += len(result)

        def related(result, args, kwargs):
            counts["interlink.related.emitted"] += len(result)
            horizon = kwargs.get("horizon_days", args[1] if len(args) > 1 else 7.0)
            self.related_inputs.append((args[0], horizon))

        interlink.jaccard = self.counter("interlink.same.compared", interlink.jaccard)
        interlink.build_event_index = self.span(
            "interlink.build_event_index", interlink.build_event_index
        )
        interlink.find_same_events = self.span(
            "interlink.find_same_events", interlink.find_same_events, same
        )
        interlink.find_related_events = self.span(
            "interlink.find_related_events", interlink.find_related_events, related
        )

    def total(self, name: str) -> float:
        return total(self.spans, name)

    def finish(self) -> None:
        """Count, after the run, what the related pass was handed."""
        self.counts["interlink.related.window_pairs"] = sum(
            window_pairs(entries, horizon) for entries, horizon in self.related_inputs
        )


def total(spans: list[list], name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def window_pairs(entries, horizon_days: float) -> int:
    """Pairs (earlier, later) whose times lie within the horizon: the pairs a
    windowed related pass must look at, simultaneous ones included."""
    times = sorted(e.timestamp for e in entries)
    horizon = timedelta(days=horizon_days)
    return sum(j - bisect.bisect_left(times, t - horizon) for j, t in enumerate(times))


def summarize(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers of one traced process from the spans and counts it
    wrote out (``trace.overhead_s`` excluded)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def root(index: int) -> str:
        while spans[index][3] >= 0:
            index = spans[index][3]
        return spans[index][0]

    out: dict[str, float] = {m: 0 for m in LAYER_UNITS}
    out.pop("trace.overhead_s")
    records_us = []
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time = end - start - child_time[i]
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += self_time
        elif name == "cli.serialize_ntriples":
            out[SERIALIZE_METRICS[root(i)]] += self_time
        elif name == "pipeline.process_record":
            records_us.append((end - start) * 1e6)
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += 1

    for key in (
        "lexicon.lemmatize_calls",
        "entities.disambiguations",
        "entities.minted",
        "triplify.triples_emitted",
        "interlink.same.compared",
        "interlink.same.emitted",
        "interlink.related.emitted",
        "interlink.related.window_pairs",
        "pipeline.skipped",
    ):
        out[key] = counts.get(key, 0)
    parse_time = total(spans, "cli.parse_ntriples")
    out["rdf.parse_triples_per_s"] = counts.get("rdf.parse_triples", 0) / parse_time if parse_time else 0.0
    for kind, base in (("same", "compared"), ("related", "window_pairs")):
        attempts = out[f"interlink.{kind}.{base}"]
        out[f"interlink.{kind}.useful_ratio"] = (
            out[f"interlink.{kind}.emitted"] / attempts if attempts else 0.0
        )
    if records_us:
        cuts = statistics.quantiles(records_us, n=100, method="inclusive")
        out["pipeline.process_record_p50_us"] = cuts[49]
        out["pipeline.process_record_p99_us"] = cuts[98]
    return out
