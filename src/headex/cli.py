"""Command line front end.

Four subcommands cover the pipeline end to end: ``extract`` turns a TSV of
records into canonical N-Triples plus skip/audit reports, ``interlink``
connects events across an existing graph, ``validate`` checks data model
descriptors against the four representation requirements, and ``query``
filters extracted events by publisher, class, date range, or location.

Exit codes: 0 success, 1 fatal error, and for ``extract`` 2 when the run
finished but some records were skipped.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from datetime import timedelta
from pathlib import Path

from .catalog import default_catalog_path, load_catalog
from .ingest import InputError, parse_date, read_text
from .interlink import InterlinkError, build_event_index, interlink_graph
from .lexicon import default_lexicon_path, load_lexicon_file
from .pipeline import extract_corpus
from .rdf import (
    NTriplesParseError,
    TripleSet,
    local_name,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
)
from .triplify import IriPolicy, PolicyError, slugify

_DEFAULT_BASE = IriPolicy().base_iri


class _Fatal(Exception):
    pass


def _add_base_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", default=_DEFAULT_BASE, help="base IRI for minted names")


def _read_graph(path: str) -> TripleSet:
    text = read_text(path)
    try:
        return parse_ntriples(text)
    except NTriplesParseError as exc:
        raise InputError(f"cannot parse graph {path}: {exc}") from exc


def _write_outputs(outputs: dict[Path, str]) -> None:
    """Write every output or none of them.

    Each text goes to a temporary file beside its target, and only when all
    are written and no target is a directory are they renamed into place, so
    a failed write truncates no output and leaves no temporary file behind.
    Only a rename that the OS refuses for another reason cannot be undone.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for target, text in outputs.items():
            if target.is_dir():  # os.replace would refuse it after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temporary = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
            with open(temporary, "x", encoding="utf-8") as handle:
                staged.append((temporary, target))
                handle.write(text)
        for temporary, target in staged:
            os.replace(temporary, target)
    except BaseException as exc:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _Fatal(f"cannot write {target}: {exc.strerror or exc}") from exc
        raise


def _cmd_extract(args: argparse.Namespace) -> int:
    from .ingest import read_records  # at call time, so bench/spans.py can wrap it

    policy = IriPolicy(base_iri=args.base)
    lexicon = load_lexicon_file(args.lexicon or default_lexicon_path())
    catalog = load_catalog(args.catalog or default_catalog_path())
    records, failures = read_records(args.input)

    result = extract_corpus(records, lexicon, catalog, policy)

    out = Path(args.out)
    outputs = {out / "events.nt": serialize_ntriples(result.graph)}
    if args.turtle:
        outputs[out / "events.ttl"] = serialize_turtle(result.graph, policy.base_iri)
    skipped_lines = [f"{label}\t{reason}" for label, reason in failures]
    skipped_lines += [f"{s.record_id}\t{s.reason}" for s in result.skipped]
    outputs[out / "skipped.tsv"] = "".join(line + "\n" for line in skipped_lines)
    audit_rows = ["record_id\tsurface\tchosen\trunner_up\tscores"]
    for audit in result.audits:
        scores = ";".join(
            f"{iri}={exact},{overlap},{recency:.4f}" for iri, exact, overlap, recency in audit.scores
        )
        audit_rows.append(
            f"{audit.record_id}\t{audit.surface}\t{audit.chosen_iri}"
            f"\t{audit.runner_up_iri or '-'}\t{scores}"
        )
    outputs[out / "audits.tsv"] = "".join(r + "\n" for r in audit_rows)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Fatal(f"cannot create {out}: {exc.strerror or exc}") from exc
    _write_outputs(outputs)

    for instance_id, warning in result.warnings:
        print(f"warning: {instance_id}: {warning}", file=sys.stderr)

    total = len(records) + len(failures)
    skipped = len(result.skipped) + len(failures)
    print(f"records={total} events={len(result.instances)} skipped={skipped}")
    return 2 if skipped else 0


def _check_interlink_options(args: argparse.Namespace) -> None:
    for flag, value, unit in (
        ("--same-window-hours", args.same_window_hours, "hours"),
        ("--related-horizon-days", args.related_horizon_days, "days"),
    ):
        try:
            timedelta(**{unit: value})
            fits = value >= 0
        except (OverflowError, ValueError):
            fits = False
        if not fits:
            raise _Fatal(
                f"{flag} must be a finite, non-negative number of {unit}"
                f" up to {timedelta.max.days:,} days, got {value!r}"
            )
    if not 0 < args.same_jaccard <= 1:
        raise _Fatal(f"--same-jaccard must lie in (0, 1], got {args.same_jaccard!r}")


def _cmd_interlink(args: argparse.Namespace) -> int:
    _check_interlink_options(args)
    policy = IriPolicy(base_iri=args.base)
    graph = _read_graph(args.graph)
    links, same, related = interlink_graph(
        graph,
        policy,
        window_hours=args.same_window_hours,
        jaccard_min=args.same_jaccard,
        horizon_days=args.related_horizon_days,
    )
    _write_outputs({Path(args.out): serialize_ntriples(links)})
    print(f"sameas={same} related={related}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .datamodel import Verdict, load_descriptor, validate_data_model  # only `validate` needs it

    reports = [validate_data_model(load_descriptor(path)) for path in args.models]

    width = max(len("model"), *(len(r.model_name) for r in reports))
    requirement_ids = [res.requirement for res in reports[0].results]
    header = "model".ljust(width) + "".join(f"  {rid:<12}" for rid in requirement_ids)
    print(header)
    for report in reports:
        row = "".join(f"  {res.verdict.value:<12}" for res in report.results)
        print(report.model_name.ljust(width) + row)
    for report in reports:
        for res in report.results:
            if res.verdict is not Verdict.PASS and res.note:
                print(f"  {report.model_name} {res.requirement}: {res.note}")
    return 0 if all(report.all_pass for report in reports) else 1


def _cmd_query(args: argparse.Namespace) -> int:
    policy = IriPolicy(base_iri=args.base)
    graph = _read_graph(args.graph)
    entries = build_event_index(graph, policy)

    locations: dict[str, set[str]] = {}
    location_property = policy.role_property_iri("location")
    for subject, predicate, obj in graph:
        if predicate == location_property and isinstance(obj, str):
            locations.setdefault(subject, set()).add(obj)

    try:
        since, until = (parse_date(text) if text else None for text in (args.since, args.until))
    except ValueError as exc:
        raise _Fatal(f"bad date filter: {exc}") from exc

    wanted_publishers = {slugify(p) for p in args.publisher}
    rows = []
    for entry in entries:
        if wanted_publishers and entry.publisher not in wanted_publishers:
            continue
        if args.event_class and args.event_class not in (
            entry.class_iri,
            local_name(entry.class_iri),
        ):
            continue
        day = entry.timestamp.date()
        if since and day < since:
            continue
        if until and day > until:
            continue
        if args.location:
            spots = locations.get(entry.instance_iri, set())
            if not any(args.location in (iri, local_name(iri)) for iri in spots):
                continue
        rows.append(
            f"{entry.instance_iri}\t{local_name(entry.class_iri)}"
            f"\t{entry.publisher}\t{day.isoformat()}"
        )
    for row in sorted(rows):
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headex",
        description="Extract typed, source-annotated events from news headlines into RDF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="records TSV -> events.nt + reports")
    p_extract.add_argument("input", help="TSV file: id, publisher, timestamp, text")
    p_extract.add_argument("--out", default=".", help="output directory")
    p_extract.add_argument("--lexicon", default=None, help="verb lexicon TSV (default: bundled)")
    p_extract.add_argument("--catalog", default=None, help="entity catalog JSON (default: bundled)")
    p_extract.add_argument("--turtle", action="store_true", help="also write events.ttl")
    _add_base_option(p_extract)
    p_extract.set_defaults(func=_cmd_extract)

    p_link = sub.add_parser("interlink", help="find same/related event links in a graph")
    p_link.add_argument("graph", help="N-Triples file produced by extract")
    p_link.add_argument("--out", default="links.nt", help="output N-Triples file")
    p_link.add_argument(
        "--same-window-hours",
        type=float,
        default=48.0,
        help="same-event window, inclusive; events carry only their date,"
        " so 48 means up to two calendar days apart",
    )
    p_link.add_argument("--same-jaccard", type=float, default=0.5)
    p_link.add_argument("--related-horizon-days", type=float, default=7.0)
    _add_base_option(p_link)
    p_link.set_defaults(func=_cmd_interlink)

    p_validate = sub.add_parser("validate", help="check data model descriptors")
    p_validate.add_argument("models", nargs="+", help="descriptor JSON files")
    p_validate.set_defaults(func=_cmd_validate)

    p_query = sub.add_parser("query", help="filter extracted events")
    p_query.add_argument("graph", help="N-Triples file produced by extract")
    p_query.add_argument(
        "--publisher", action="append", default=[], help="publisher slug; repeat to OR"
    )
    p_query.add_argument("--class", dest="event_class", default=None, help="event class name")
    p_query.add_argument("--from", dest="since", default=None, help="earliest date, inclusive")
    p_query.add_argument("--to", dest="until", default=None, help="latest date, inclusive")
    p_query.add_argument("--location", default=None, help="location IRI or local name")
    _add_base_option(p_query)
    p_query.set_defaults(func=_cmd_query)
    return parser


# argparse ties each action to its parser and each help formatter to its
# sections, so a parser is a web of reference cycles; ``main`` builds one on
# its first call and reuses it, rather than leaving one behind per call.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    # The pipeline builds no reference cycles (TestNoReferenceCycles pins
    # this), so reference counting frees all it makes, and a cyclic
    # collection during a command would only walk live objects.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if _parser is None:
            _parser = build_parser()
            # Each ``add_argument`` drops a cyclic help formatter; with the
            # collector off they are all still in the youngest generation.
            gc.collect(0)
        args = _parser.parse_args(argv)
        return args.func(args)
    except (_Fatal, InputError, InterlinkError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
