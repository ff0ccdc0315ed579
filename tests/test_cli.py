"""Command line interface, run in-process through main()."""

from __future__ import annotations

import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headex import cli, pipeline
from headex.cli import main
from headex.catalog import default_catalog_path
from headex.lexicon import default_lexicon_path
from headex.rdf import XSD_DATE, Literal, Triple, parse_ntriples

BASE = "http://example.org/news/"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def nine_tsv(fixtures_dir) -> str:
    return str(fixtures_dir / "headlines9.tsv")


class TestExtract:
    def test_clean_run(self, capsys, tmp_path, nine_tsv, nine_result):
        code, out, err = run(capsys, "extract", nine_tsv, "--out", str(tmp_path))
        assert code == 0
        assert out.strip() == "records=9 events=9 skipped=0"
        assert err == ""
        graph = parse_ntriples((tmp_path / "events.nt").read_text(encoding="utf-8"))
        assert graph == nine_result.graph
        assert (tmp_path / "skipped.tsv").read_text(encoding="utf-8") == ""
        audits = (tmp_path / "audits.tsv").read_text(encoding="utf-8").splitlines()
        assert audits[0] == "record_id\tsurface\tchosen\trunner_up\tscores"
        assert len(audits) == 2  # one ambiguous surface in the corpus
        assert audits[1].startswith("no7\tObama\thttp://dbpedia.org/resource/Barack_Obama\t")

    def test_skips_reported_with_exit_two(self, capsys, tmp_path):
        source = tmp_path / "mixed.tsv"
        source.write_text(
            "ok1\tCNN\t16/3/16\tPope Francis visits Cuba\n"
            "broken line without enough fields\n"
            "ok2\tBBC\t10/3/16\tNothing happened today\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert code == 2
        assert out.strip() == "records=3 events=1 skipped=2"
        skipped = (out_dir / "skipped.tsv").read_text(encoding="utf-8").splitlines()
        assert skipped[0].startswith("line2\t")
        assert skipped[1] == "ok2\tno event verb recognized"
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        assert any(t.subject == f"{BASE}Meet_ok1" for t in graph)

    def test_dates_outside_the_grammar_are_skipped(self, capsys, tmp_path):
        dates = ["20160301", "2016-W09-2", "2016-03-01T0900", "2016-03-01x09:00"]
        source = tmp_path / "dates.tsv"
        source.write_text(
            "".join(f"a{n}\tCNN\t{day}\tObama meets Putin\n" for n, day in enumerate(dates, 1)),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "extract", str(source), "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "records=4 events=0 skipped=4\n")
        skipped = (tmp_path / "out" / "skipped.tsv").read_text(encoding="utf-8").splitlines()
        assert skipped == [
            f"line{n}\tline {n}: unparseable date {day!r}" for n, day in enumerate(dates, 1)
        ]

    def test_catalog_date_outside_the_grammar_is_fatal(self, capsys, tmp_path, nine_tsv):
        catalog = tmp_path / "catalog.json"
        position = {"title": "CEO", "org": "Acme", "from": "2016-W09-2"}
        entity = {"iri": "http://x/p1", "label": "Abel Ames", "roles": [position]}
        catalog.write_text(json.dumps({"entities": [entity]}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["extract", nine_tsv, "--catalog", str(catalog), "--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == (
            f"error: {catalog}: entities[0]: roles[0]: "
            "'from' must be an ISO date, got '2016-W09-2'\n"
        )
        assert not out.exists()

    def test_record_id_not_valid_in_an_iri_is_skipped(self, capsys, tmp_path):
        source = tmp_path / "ids.tsv"
        source.write_text(
            "ok1\tCNN\t16/3/16\tPope Francis visits Cuba\n"
            "a b\tBBC\t16/3/16\tPope Francis visits Mexico\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert code == 2
        assert out.strip() == "records=2 events=1 skipped=1"
        skipped = (out_dir / "skipped.tsv").read_text(encoding="utf-8").splitlines()
        assert len(skipped) == 1 and skipped[0].startswith("line2\t")
        assert "record id" in skipped[0]

    def test_extension_class_gets_generic_roles_only(self, capsys, tmp_path):
        lexicon = tmp_path / "lexicon.tsv"
        bundled = default_lexicon_path().read_text(encoding="utf-8")
        lexicon.write_text(bundled.rstrip("\n") + "\npray\tOther:Worship\n", encoding="utf-8")
        source = tmp_path / "worship.tsv"
        source.write_text("w1\tCNN\t1/3/16\tPope Francis prays with Kirill in Cuba\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "extract", str(source), "--lexicon", str(lexicon), "--out", str(out_dir)
        )
        assert (code, out.strip(), err) == (0, "records=1 events=1 skipped=0", "")
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        sp = f"{BASE}Worship_w1"
        assert Triple(sp, f"{BASE}singletonPropertyOf", f"{BASE}Worship") in graph
        assert not [t for t in graph if t.predicate == sp]  # no main triple
        used = {t.predicate for t in graph if t.subject == sp}
        generic = {"singletonPropertyOf", "involved", "location", "hasSource", "extractedOn"}
        assert used == {BASE + name for name in generic}

    def test_extension_class_naming_a_built_in_class_is_fatal(self, capsys, tmp_path):
        lexicon = tmp_path / "lexicon.tsv"
        bundled = default_lexicon_path().read_text(encoding="utf-8")
        lexicon.write_text(bundled.rstrip("\n") + "\npray\tOther:Meet\n", encoding="utf-8")
        line_no = len(bundled.rstrip("\n").split("\n")) + 1
        source = tmp_path / "worship.tsv"
        source.write_text("w1\tCNN\t1/3/16\tObama pray with Putin\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "extract", str(source), "--lexicon", str(lexicon), "--out", str(out_dir)
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {lexicon}: line {line_no}: "
            "extension class 'Other:Meet' names the built-in class Meet\n"
        )
        assert not out_dir.exists()

    def test_publisher_without_a_slug_is_skipped(self, capsys, tmp_path):
        source = tmp_path / "publishers.tsv"
        source.write_text(
            "p1\t!!!\t16/3/16\tPope Francis visits Cuba\n"
            "p2\tBBC\t16/3/16\tPope Francis visits Mexico\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert (code, out.strip()) == (2, "records=2 events=1 skipped=1")
        skipped = (out_dir / "skipped.tsv").read_text(encoding="utf-8")
        assert skipped == "p1\tcannot derive an IRI slug from '!!!'\n"
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        assert any(t.subject == f"{BASE}Meet_p2" for t in graph)

    def test_handle_without_letter_or_digit_stays_text(self, capsys, tmp_path):
        source = tmp_path / "handles.tsv"
        source.write_text("h1\tCNN\t16/3/16\t@_ meets @__\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert (code, out.strip()) == (0, "records=1 events=1 skipped=0")
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        assert not any(f"{BASE}entity/" in term for t in graph for term in t if isinstance(term, str))
        assert not any(t.predicate == f"{BASE}Meet_h1" for t in graph)  # no main triple
        bodies = {t.object.lexical for t in graph if t.predicate == f"{BASE}body"}
        assert bodies == {"@_", "@__"}

    def test_unknown_name_stays_text_and_unknown_handle_is_minted_as_an_agent(
        self, capsys, tmp_path
    ):
        source = tmp_path / "unknown.tsv"
        source.write_text(
            "d1\tCNN\t16/3/16\tPope meets John Dalton\n"
            "d2\tCNN\t16/3/16\tPope says to @jdalton: peace is near\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert (code, out.strip()) == (0, "records=2 events=2 skipped=0")
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        minted = {term for t in graph for term in t if f"{BASE}entity/" in str(term)}
        assert minted == {f"{BASE}entity/jdalton"}
        assert Triple(f"{BASE}Meet_d1", f"{BASE}involved", f"{BASE}involved/d1") in graph
        assert Triple(f"{BASE}involved/d1", f"{BASE}body", Literal("John Dalton")) in graph
        # Only an Agent or a Person is taken as the Recipient, here the
        # object of the main triple.
        pope = "http://dbpedia.org/resource/Pope_Francis"
        assert Triple(pope, f"{BASE}Communication_d2", f"{BASE}entity/jdalton") in graph

    def test_catalog_alias_of_any_length_links(self, capsys, tmp_path):
        # The 7-word label wins over the 5-word alias inside it.
        label = "International Union of Pure and Applied Chemistry"
        entities = [
            {"iri": "http://kb.example/iupac", "label": label},
            {"iri": "http://kb.example/upa", "label": "Union of Pure and Applied"},
        ]
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps({"entities": entities}), encoding="utf-8")
        source = tmp_path / "records.tsv"
        source.write_text(f"u1\tCNN\t16/3/16\tUnited Nations meets {label}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["extract", str(source), "--catalog", str(catalog_path), "--out", str(out_dir)]
        code, out, _ = run(capsys, *argv)
        assert (code, out.strip()) == (0, "records=1 events=1 skipped=0")
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        linked = {t.object for t in graph if str(t.object).startswith("http://kb.example/")}
        assert linked == {"http://kb.example/iupac"}

    def test_role_nodes_of_ids_that_end_in_a_number_stay_apart(self, capsys, tmp_path):
        # Record x's second topic node and record x_2's first would both be
        # topic/x_2 if the first node never carried its ordinal.
        source = tmp_path / "records.tsv"
        source.write_text(
            'x\tCNN\t2016-03-01\tPope meets "trade" and "peace" in Rome\n'
            'x_2\tBBC\t2016-03-01\tPope meets "climate" in Rome\n',
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", str(source), "--out", str(out_dir))
        assert (code, out.strip()) == (0, "records=2 events=2 skipped=0")
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        bodies = {t.subject: t.object.lexical for t in graph if t.predicate == f"{BASE}body"}
        assert len(bodies) == sum(t.predicate == f"{BASE}body" for t in graph)
        topics = {
            record: sorted(
                bodies[t.object]
                for t in graph
                if t.subject == f"{BASE}Meet_{record}" and t.predicate == f"{BASE}about"
            )
            for record in ("x", "x_2")
        }
        assert topics == {"x": ["peace", "trade"], "x_2": ["climate"]}

    def test_extension_label_with_an_underscore_is_fatal(self, capsys, tmp_path):
        # Meet_x_1 would name both the Meet of record x_1 and the Meet_x of
        # record 1.
        lexicon = tmp_path / "lexicon.tsv"
        bundled = default_lexicon_path().read_text(encoding="utf-8")
        lexicon.write_text(bundled.rstrip("\n") + "\nconvene\tOther:Meet_x\n", encoding="utf-8")
        line_no = len(bundled.rstrip("\n").split("\n")) + 1
        source = tmp_path / "records.tsv"
        source.write_text(
            "x_1\tCNN\t1/3/16\tObama meets Putin\n1\tBBC\t1/3/16\tObama convenes Putin\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "extract", str(source), "--lexicon", str(lexicon), "--out", str(out_dir)
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {lexicon}: line {line_no}: class label 'Meet_x' holds '_', "
            "which ends the class in a statement IRI\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("option", ["input", "--lexicon", "--catalog"])
    def test_file_not_utf8_is_fatal(self, capsys, tmp_path, nine_tsv, option):
        bad = tmp_path / "bad"
        bad.write_bytes(b"no1\tCNN\t16/3/16\tPope Francis visits Cuba \xff\n")
        argv = [str(bad)] if option == "input" else [nine_tsv, option, str(bad)]
        code, out, err = run(capsys, "extract", *argv, "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {bad}: not UTF-8 (")

    @pytest.mark.parametrize(
        "option, content, message",
        [
            ("--lexicon", "meet\tMeet\npray\tOther:Big Deal\n", ": line 2: class label 'Big Deal'"),
            ("--lexicon", None, "No such file or directory"),
            ("--catalog", None, "No such file or directory"),
            ("--catalog", "{", ": not valid JSON ("),
            (
                "--catalog",
                {"entities": [{"iri": "http://kb.example/a", "label": "A"}] * 2},
                ": duplicate entity IRI http://kb.example/a",
            ),
            (
                "--catalog",
                {"entities": [{"iri": "http://kb.example/a", "label": ""}]},
                ": entities[0]: entity needs an iri and a label",
            ),
            (
                "--catalog",
                {
                    "entities": [
                        {
                            "iri": "http://kb.example/a",
                            "label": "A",
                            "roles": [
                                {"title": "CEO", "org": "A", "from": "2016-01-02", "to": "2016-01-01"}
                            ],
                        }
                    ]
                },
                ": entities[0]: roles[0]: position 'CEO': interval ends before it starts",
            ),
            ("--catalog", {"entities": [{"iri": "not an iri", "label": "A"}]}, "absolute IRI"),
        ],
    )
    def test_load_error_names_its_file_once(self, capsys, tmp_path, nine_tsv, option, content, message):
        bad = tmp_path / "bad"
        if isinstance(content, dict):
            content = json.dumps(content)
        if content is not None:
            bad.write_text(content, encoding="utf-8")
        argv = ["extract", nine_tsv, option, str(bad), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert err.count(str(bad)) == 1
        assert not (tmp_path / "out").exists()

    def test_minted_iri_owned_by_a_catalog_entity_is_skipped(self, capsys, tmp_path):
        # "@zork" has no catalog candidate, and the IRI it would be minted
        # under belongs to an entity whose label it does not match.
        catalog = json.loads(default_catalog_path().read_text(encoding="utf-8"))
        catalog["entities"].append({"iri": f"{BASE}entity/zork", "label": "Zorkington"})
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog), encoding="utf-8")
        source = tmp_path / "records.tsv"
        source.write_text(
            "z1\tCNN\t16/3/16\t@zork meets Obama\n"
            "z2\tCNN\t16/3/16\tPope Francis visits Cuba\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        argv = ["extract", str(source), "--catalog", str(catalog_path), "--out", str(out_dir)]
        code, out, _ = run(capsys, *argv)
        assert (code, out.strip()) == (2, "records=2 events=1 skipped=1")
        skipped = (out_dir / "skipped.tsv").read_text(encoding="utf-8")
        assert skipped == f"z1\tminted IRI collides with catalog entity: {BASE}entity/zork\n"
        graph = parse_ntriples((out_dir / "events.nt").read_text(encoding="utf-8"))
        assert any(t.subject == f"{BASE}Meet_z2" for t in graph)

    def test_turtle_option(self, capsys, tmp_path, nine_tsv):
        code, _, _ = run(capsys, "extract", nine_tsv, "--out", str(tmp_path), "--turtle")
        assert code == 0
        turtle = (tmp_path / "events.ttl").read_text(encoding="utf-8")
        assert f"@prefix : <{BASE}> ." in turtle
        assert ":Meet_no2" in turtle

    def test_custom_base(self, capsys, tmp_path, nine_tsv):
        code, _, _ = run(
            capsys, "extract", nine_tsv, "--out", str(tmp_path), "--base", "https://kg.example/"
        )
        assert code == 0
        graph = parse_ntriples((tmp_path / "events.nt").read_text(encoding="utf-8"))
        assert any(t.subject == "https://kg.example/Meet_no2" for t in graph)

    @pytest.mark.parametrize("corpus", ["headlines9", "duplicates"])
    def test_base_carries_through_every_command(self, capsys, tmp_path, fixtures_dir, corpus):
        # The same --base on extract, interlink and query swaps only the
        # prefix of every minted IRI in what they print and write.
        other = "https://kg.example/graph/"
        got = {}
        for run_no, base in enumerate((BASE, other)):
            out = tmp_path / str(run_no)
            graph, links = str(out / "events.nt"), str(out / "links.nt")
            records = str(fixtures_dir / f"{corpus}.tsv")
            assert run(capsys, "extract", records, "--out", str(out), "--base", base)[0] == 0
            code, linked, _ = run(capsys, "interlink", graph, "--out", links, "--base", base)
            assert code == 0
            code, rows, _ = run(capsys, "query", graph, "--base", base)
            assert code == 0 and rows
            texts = [Path(path).read_text(encoding="utf-8") for path in (graph, links)]
            got[base] = [sorted(text.splitlines()) for text in (*texts, linked, rows)]
        swapped = [sorted(line.replace(BASE, other) for line in lines) for lines in got[BASE]]
        assert got[other] == swapped
        assert BASE not in repr(got[other])

    def test_policy_option_is_gone(self, capsys, tmp_path, nine_tsv):
        with pytest.raises(SystemExit) as exit_info:
            main(["extract", nine_tsv, "--policy", str(tmp_path / "p.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --policy" in capsys.readouterr().err

    def test_missing_input_is_fatal(self, capsys, tmp_path):
        code, out, err = run(capsys, "extract", str(tmp_path / "absent.tsv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestInterlink:
    def test_duplicates_corpus(self, capsys, tmp_path, fixtures_dir):
        code, _, _ = run(
            capsys, "extract", str(fixtures_dir / "duplicates.tsv"), "--out", str(tmp_path)
        )
        assert code == 0
        links_path = tmp_path / "links.nt"
        code, out, _ = run(
            capsys, "interlink", str(tmp_path / "events.nt"), "--out", str(links_path)
        )
        assert code == 0
        assert out.strip() == "sameas=1 related=2"
        assert len(parse_ntriples(links_path.read_text(encoding="utf-8"))) == 3

    def test_unreadable_graph_is_fatal(self, capsys, tmp_path):
        code, _, err = run(capsys, "interlink", str(tmp_path / "absent.nt"))
        assert code == 1 and err.startswith("error:")

    def test_malformed_graph_is_fatal(self, capsys, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("this is not ntriples\n", encoding="utf-8")
        code, _, err = run(capsys, "interlink", str(bad))
        assert code == 1 and err.startswith("error:")


    @pytest.fixture()
    def graph_path(self, capsys, tmp_path, fixtures_dir) -> str:
        run(capsys, "extract", str(fixtures_dir / "duplicates.tsv"), "--out", str(tmp_path))
        return str(tmp_path / "events.nt")

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--same-window-hours", "-1"),
            ("--same-window-hours", "nan"),
            ("--same-window-hours", "inf"),
            ("--same-window-hours", "1e12"),
            ("--related-horizon-days", "-0.5"),
            ("--related-horizon-days", "nan"),
            ("--related-horizon-days", "-inf"),
            ("--related-horizon-days", "1e12"),
            ("--same-jaccard", "nan"),
            ("--same-jaccard", "0"),
            ("--same-jaccard", "-0.5"),
            ("--same-jaccard", "1.5"),
        ],
    )
    def test_option_out_of_domain_is_fatal(self, capsys, tmp_path, graph_path, option, value):
        links_path = tmp_path / "links.nt"
        argv = ["interlink", graph_path, "--out", str(links_path), f"{option}={value}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {option} must ")
        assert not links_path.exists()

    @pytest.mark.parametrize(
        "option, value, counts",
        [
            ("--same-window-hours", "0", "sameas=1 related=2"),
            ("--related-horizon-days", "1e6", "sameas=1 related=2"),
            ("--related-horizon-days", "0", "sameas=1 related=0"),
            ("--same-jaccard", "1", "sameas=1 related=2"),
        ],
    )
    def test_option_domain_edges(self, capsys, tmp_path, graph_path, option, value, counts):
        links_path = tmp_path / "links.nt"
        argv = ["interlink", graph_path, "--out", str(links_path), f"{option}={value}"]
        code, out, _ = run(capsys, *argv)
        assert (code, out.strip()) == (0, counts)


class TestRepublishedGraph:
    # a1 and a2 share no participant, but each is related to a3; a link
    # read as a participant would relate a1 to a2 on the second run.
    CHAIN = (
        "a1\tBBC\t1/3/16\tPope Francis visits Cuba\n"
        "a2\tCNN\t4/3/16\tAngela Merkel meets Justin Trudeau\n"
        "a3\tNYT\t6/3/16\tPope Francis meets Angela Merkel in Mexico\n"
    )

    @pytest.mark.parametrize(
        "corpus, counts", [("duplicates", (1, 2)), ("chain", (0, 2))], ids=["duplicates", "chain"]
    )
    def test_interlinking_events_and_links_gives_the_links(
        self, capsys, tmp_path, fixtures_dir, corpus, counts
    ):
        # The published graph is events.nt plus links.nt; interlinking it
        # again gives the same links, byte for byte.
        records = fixtures_dir / f"{corpus}.tsv"
        if corpus == "chain":
            records = tmp_path / "chain.tsv"
            records.write_text(self.CHAIN, encoding="utf-8")
        assert run(capsys, "extract", str(records), "--out", str(tmp_path))[0] == 0
        events, links = tmp_path / "events.nt", tmp_path / "links.nt"
        summary = "sameas={} related={}\n".format(*counts)
        assert run(capsys, "interlink", str(events), "--out", str(links)) == (0, summary, "")
        published = tmp_path / "all.nt"
        published.write_bytes(events.read_bytes() + links.read_bytes())
        again = tmp_path / "again.nt"
        assert run(capsys, "interlink", str(published), "--out", str(again)) == (0, summary, "")
        assert again.read_bytes() == links.read_bytes()


class TestBaseMismatch:
    """A graph whose statements all sit under another base is an error
    naming the base given; a graph with no triples at all is not."""

    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_graph_extracted_under_another_base_is_fatal(
        self, capsys, tmp_path, fixtures_dir, command
    ):
        graph = fixtures_dir / "golden" / "duplicates" / "events.nt"
        triples = len(graph.read_text(encoding="utf-8").splitlines())
        links = tmp_path / "links.nt"
        extra = ["--out", str(links)] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), "--base", "https://other.example/", *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"error: graph holds {triples} triples but no statement"
            " under base https://other.example/\n"
        )
        assert not links.exists()

    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_empty_graph_is_no_error(self, capsys, tmp_path, command):
        graph = tmp_path / "events.nt"
        graph.write_text("", encoding="utf-8")
        links = tmp_path / "links.nt"
        extra = ["--out", str(links)] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), "--base", "https://other.example/", *extra)
        expected = "sameas=0 related=0\n" if command == "interlink" else ""
        assert (code, out, err) == (0, expected, "")
        if command == "interlink":
            assert links.read_text(encoding="utf-8") == ""


class TestCollectorPaused:
    """``main`` runs the command with the cyclic collector off and leaves the
    collector as it found it, however the command ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "exception"])
    def test_command_runs_paused_and_the_state_is_restored(
        self, monkeypatch, capsys, tmp_path, outcome, collecting
    ):
        seen = []
        parse = cli.parse_ntriples

        def layer(text):
            seen.append(gc.isenabled())
            if outcome == "exception":
                raise RuntimeError("layer failed")
            return parse(text)

        monkeypatch.setattr(cli, "parse_ntriples", layer)
        graph = tmp_path / "events.nt"
        graph.write_text("not ntriples\n" if outcome == "exit 1" else "", encoding="utf-8")
        (gc.enable if collecting else gc.disable)()
        if outcome == "exception":
            with pytest.raises(RuntimeError, match="layer failed"):
                main(["query", str(graph)])
        else:
            code, _, err = run(capsys, "query", str(graph))
            assert code == (1 if outcome == "exit 1" else 0)
            assert err.startswith("error:") is (outcome == "exit 1")
        assert gc.isenabled() is collecting
        assert seen == [False]


class TestNoCyclicGarbage:
    """A successful command leaves nothing for the cyclic collector, the call
    that builds the argument parser included: a library caller that runs
    ``main`` in a loop with the collector off grows by nothing per call."""

    def test_each_command_leaves_no_cyclic_garbage(self, monkeypatch, tmp_path, fixtures_dir):
        out = tmp_path / "out"
        commands = (
            ["extract", str(fixtures_dir / "headlines9.tsv"), "--out", str(out)],
            ["interlink", str(out / "events.nt"), "--out", str(out / "links.nt")],
            ["query", str(out / "events.nt"), "--class", "Meet"],
            ["validate", str(fixtures_dir / "datamodels" / "headex.json")],
        )
        monkeypatch.setattr(cli, "_parser", None)  # the first call builds it
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for argv in commands:
                assert main(argv) == 0, argv
                assert gc.collect() == 0, argv
        finally:
            if collecting:
                gc.enable()


class TestNotUtf8Graph:
    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_graph_not_utf8_is_fatal(self, capsys, tmp_path, command):
        graph = tmp_path / "bad.nt"
        graph.write_bytes(f'<{BASE}s> <{BASE}body> "x'.encode("utf-8") + b'\xff" .\n')
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {graph}: not UTF-8 (invalid start byte: b'\\xff')\n"


class TestBadLiteralEscapes:
    @pytest.mark.parametrize("escape", ["\\uZZZZ", "\\uD800"])
    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_bad_escape_in_graph_is_fatal(self, capsys, tmp_path, command, escape):
        graph = tmp_path / "bad.nt"
        graph.write_text(f'<{BASE}s> <{BASE}body> "x{escape}" .\n', encoding="utf-8")
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot parse graph {graph}: line 1:")


class TestRelativeDatatype:
    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_relative_datatype_in_graph_is_fatal(self, capsys, tmp_path, command):
        graph = tmp_path / "bad.nt"
        graph.write_text(f'<{BASE}s> <{BASE}p> "x" .\n<{BASE}s> <{BASE}p> "x"^^<rel> .\n', encoding="utf-8")
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse graph {graph}: line 2: datatype is not an absolute IRI: 'rel'\n"
        assert not (tmp_path / "links.nt").exists()


class TestNonIsoExtractionDate:
    @pytest.mark.parametrize("command", ["interlink", "query"])
    def test_extraction_date_not_iso_is_fatal(self, capsys, tmp_path, command):
        graph = tmp_path / "bad.nt"
        graph.write_text(
            f"<{BASE}Meet_1> <{BASE}singletonPropertyOf> <{BASE}Meet> .\n"
            f"<{BASE}Meet_1> <{BASE}hasSource> <{BASE}source/bbc> .\n"
            f'<{BASE}Meet_1> <{BASE}extractedOn> "not-a-date"'
            "^^<http://www.w3.org/2001/XMLSchema#date> .\n",
            encoding="utf-8",
        )
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"error: statement {BASE}Meet_1: extraction date must be an ISO date, "
            "got 'not-a-date'\n"
        )
        assert not (tmp_path / "links.nt").exists()


class TestExtractionDateForms:
    """``extractedOn`` is an ``xsd:date``: ``YYYY-MM-DD`` with an optional
    zone, which leaves the day as written; no other ISO form.  A plain
    literal reads the same; a language tag or another datatype is refused."""

    def graph(self, tmp_path, *days: str) -> str:
        """A graph of one statement per day: a day in quotes is the literal
        as written, any other an ``xsd:date`` of that lexical form."""
        lines = []
        for n, day in enumerate(days, start=1):
            statement = f"<{BASE}Meet_{n}>"
            literal = day if day.startswith('"') else f'"{day}"^^<{XSD_DATE}>'
            lines += [
                f"{statement} <{BASE}singletonPropertyOf> <{BASE}Meet> .",
                f"{statement} <{BASE}hasSource> <{BASE}source/s{n}> .",
                f"{statement} <{BASE}extractedOn> {literal} .",
                f"<{BASE}entity/obama> {statement} <{BASE}entity/putin> .",
            ]
        path = tmp_path / "graph.nt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return str(path)

    def test_a_zone_leaves_the_day_as_written(self, capsys, tmp_path):
        graph = self.graph(tmp_path, "2016-03-01Z", "2016-03-01", "2016-03-01+05:00")
        links = str(tmp_path / "links.nt")
        code, out, err = run(capsys, "interlink", graph, "--out", links, "--same-window-hours", "0")
        assert (code, out, err) == (0, "sameas=3 related=0\n", "")
        code, out, err = run(capsys, "query", graph)
        assert (code, err) == (0, "")
        assert [row.split("\t")[3] for row in out.splitlines()] == ["2016-03-01"] * 3

    def test_a_plain_literal_reads_as_an_xsd_date(self, capsys, tmp_path):
        graph = self.graph(tmp_path, '"2016-03-01"', "2016-03-01")
        links = str(tmp_path / "links.nt")
        code, out, err = run(capsys, "interlink", graph, "--out", links, "--same-window-hours", "0")
        assert (code, out, err) == (0, "sameas=1 related=0\n", "")
        code, out, err = run(capsys, "query", graph)
        assert (code, err) == (0, "")
        assert [row.split("\t")[3] for row in out.splitlines()] == ["2016-03-01"] * 2

    @pytest.mark.parametrize("command", ["interlink", "query"])
    @pytest.mark.parametrize(
        "day, shown",
        [
            ('"2016-03-01"@en', '"2016-03-01"@en'),
            (f'"2016-03-01"^^<{XSD_STRING}>', f'"2016-03-01"^^<{XSD_STRING}>'),
            ('"not-a-date"', "not-a-date"),
        ],
        ids=["language tag", "xsd:string", "plain"],
    )
    def test_a_tag_or_another_datatype_is_fatal(self, capsys, tmp_path, command, day, shown):
        # Two bad statements: the error names the smaller, and shows a
        # literal of another kind as written, a plain one by its lexical form.
        graph = self.graph(tmp_path, "2016-03-01", day, day)
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, graph, *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"error: statement {BASE}Meet_2: extraction date must be an ISO date, got {shown!r}\n"
        )
        assert not (tmp_path / "links.nt").exists()

    @pytest.mark.parametrize("command", ["interlink", "query"])
    @pytest.mark.parametrize("day", ["2016-W09-2", "20160301", "2016-03-01T00:00", "2016-02-30"])
    def test_other_iso_forms_are_fatal(self, capsys, tmp_path, command, day):
        graph = self.graph(tmp_path, day)
        extra = ["--out", str(tmp_path / "links.nt")] if command == "interlink" else []
        code, out, err = run(capsys, command, graph, *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"error: statement {BASE}Meet_1: extraction date must be an ISO date, got {day!r}\n"
        )
        assert not (tmp_path / "links.nt").exists()


class TestOneValuePerStatement:
    """A statement has one class, one publisher and one extraction day; a
    graph that gives it two is refused the same way in any line order."""

    # The kind of value -> Meet_a's two lines for it and the error's tail.
    CLASHES = {
        "classes": (
            f"<{BASE}Meet_a> <{BASE}singletonPropertyOf> <{BASE}Meet> .",
            f"<{BASE}Meet_a> <{BASE}singletonPropertyOf> <{BASE}Murder> .",
            f"2 classes: {BASE}Meet, {BASE}Murder",
        ),
        "publishers": (
            f"<{BASE}Meet_a> <{BASE}hasSource> <{BASE}source/cnn> .",
            f"<{BASE}Meet_a> <{BASE}hasSource> <{BASE}source/bbc> .",
            "2 publishers: bbc, cnn",
        ),
        "days": (
            f'<{BASE}Meet_a> <{BASE}extractedOn> "2016-03-01"^^<{XSD_DATE}> .',
            f'<{BASE}Meet_a> <{BASE}extractedOn> "2016-03-02"^^<{XSD_DATE}> .',
            "2 extraction days: 2016-03-01, 2016-03-02",
        ),
    }

    def graph(self, tmp_path, clash: str, swapped: bool) -> str:
        # Meet_a gets one line of each kind but the clashing one, which gets
        # two; Meet_b shares its participants, publisher cnn and day.
        lines = []
        for kind, (first, second, _) in self.CLASHES.items():
            if kind == clash:
                lines += [second, first] if swapped else [first, second]
            else:
                lines.append(first)
        lines += [
            f"<{BASE}entity/obama> <{BASE}Meet_a> <{BASE}entity/putin> .",
            f"<{BASE}Meet_b> <{BASE}singletonPropertyOf> <{BASE}Meet> .",
            f"<{BASE}Meet_b> <{BASE}hasSource> <{BASE}source/cnn> .",
            f'<{BASE}Meet_b> <{BASE}extractedOn> "2016-03-01"^^<{XSD_DATE}> .',
            f"<{BASE}entity/obama> <{BASE}Meet_b> <{BASE}entity/putin> .",
        ]
        path = tmp_path / f"{clash}-{swapped}.nt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["interlink", "query"])
    @pytest.mark.parametrize("clash", sorted(CLASHES))
    def test_two_values_are_fatal_in_either_line_order(self, capsys, tmp_path, command, clash):
        links = tmp_path / "links.nt"
        extra = ["--out", str(links)] if command == "interlink" else []
        for swapped in (False, True):
            code, out, err = run(capsys, command, self.graph(tmp_path, clash, swapped), *extra)
            assert (code, out) == (1, "")
            assert err == f"error: statement {BASE}Meet_a has {self.CLASHES[clash][2]}\n"
            assert not links.exists()


class TestErrorsInAnyLineOrder:
    """Of several statements at fault, the error names the smallest IRI of the
    first kind of fault: a day that is no date, then two values, then none."""

    def statement(self, name: str, source: str | None, day: str | None) -> list[str]:
        lines = [f"<{BASE}{name}> <{BASE}singletonPropertyOf> <{BASE}Meet> ."]
        if source is not None:
            lines.append(f"<{BASE}{name}> <{BASE}hasSource> <{BASE}source/{source}> .")
        if day is not None:
            lines.append(f'<{BASE}{name}> <{BASE}extractedOn> "{day}"^^<{XSD_DATE}> .')
        return lines

    def check_both_orders(self, capsys, tmp_path, first: list[str], second: list[str], error: str):
        for command in ("interlink", "query"):
            links = tmp_path / "links.nt"
            extra = ["--out", str(links)] if command == "interlink" else []
            for order, lines in (("xy", first + second), ("yx", second + first)):
                path = tmp_path / f"{order}.nt"
                path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
                code, out, err = run(capsys, command, str(path), *extra)
                assert (code, out, err) == (1, "", f"error: {error}\n"), (command, order)
                assert not links.exists()

    def test_missing_provenance_names_the_smallest_statement(self, capsys, tmp_path):
        self.check_both_orders(
            capsys,
            tmp_path,
            self.statement("Meet_x", None, None),
            self.statement("Meet_y", None, None),
            f"statement {BASE}Meet_x lacks source or extraction date",
        )

    def test_bad_day_names_the_smallest_statement(self, capsys, tmp_path):
        self.check_both_orders(
            capsys,
            tmp_path,
            self.statement("Meet_x", "bbc", "2016-02-30"),
            self.statement("Meet_y", "cnn", "someday"),
            f"statement {BASE}Meet_x: extraction date must be an ISO date, got '2016-02-30'",
        )

    def test_bad_day_comes_before_two_values_and_missing_provenance(self, capsys, tmp_path):
        clash = self.statement("Meet_a", "bbc", "2016-03-01") + [
            f"<{BASE}Meet_a> <{BASE}hasSource> <{BASE}source/cnn> ."
        ]
        self.check_both_orders(
            capsys,
            tmp_path,
            clash + self.statement("Meet_b", None, None),
            self.statement("Meet_z", "cnn", "not-a-date"),
            f"statement {BASE}Meet_z: extraction date must be an ISO date, got 'not-a-date'",
        )

    def test_two_values_come_before_missing_provenance(self, capsys, tmp_path):
        clash = self.statement("Meet_z", "bbc", "2016-03-01") + [
            f'<{BASE}Meet_z> <{BASE}extractedOn> "2016-03-02"^^<{XSD_DATE}> .'
        ]
        self.check_both_orders(
            capsys,
            tmp_path,
            self.statement("Meet_a", "bbc", None),
            clash,
            f"statement {BASE}Meet_z has 2 extraction days: 2016-03-01, 2016-03-02",
        )


class TestValidate:
    def test_matrix_and_exit_code(self, capsys, fixtures_dir):
        models = sorted(str(p) for p in (fixtures_dir / "datamodels").glob("*.json"))
        code, out, _ = run(capsys, "validate", *models)
        assert code == 1  # at least one model misses a requirement
        lines = out.splitlines()
        assert lines[0].split() == ["model", "R1", "R2", "R3", "R4"]
        # Table rows are flush left; explanation lines below are indented.
        table = [line for line in lines[1:] if line and not line.startswith(" ")]
        assert len(table) == 5
        rows = {line.split()[0]: line.split()[1:] for line in table}
        assert rows["HeadEx"] == ["pass", "pass", "pass", "pass"]
        assert rows["LODE"] == ["pass", "fail", "pass_loosely", "pass"]
        assert rows["SEM"] == ["pass", "fail", "pass", "pass"]
        assert any("LODE R2:" in line for line in lines)

    def test_all_passing_set_exits_zero(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "datamodels" / "headex.json"))
        assert code == 0
        assert "fail" not in out

    def test_bad_descriptor_is_fatal(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{", ": not valid JSON ("),
            ("[" * 100_000, ": not valid JSON (maximum recursion depth"),
            ('{"name": "", "has_generic_event": true}', ": descriptor name must be nonempty"),
            ('{"name": "x"}', ": missing field 'has_generic_event'"),
            ('{"name": "x\xff"}', "not UTF-8"),
            (None, "No such file or directory"),
            ('{"name": 5, "has_generic_event": true}', ": 'name' must be a string, got 5"),
            ('{"name": "x", "has_generic_event": "no"}', ": 'has_generic_event' must be true or false"),
            (
                '{"name": "x", "has_generic_event": true, "has_specific_event_types": 1}',
                ": 'has_specific_event_types' must be true or false, got 1",
            ),
            (
                '{"name": "x", "has_generic_event": true, "provenance_properties": "publisher"}',
                ": 'provenance_properties' must be a list of strings, got 'publisher'",
            ),
            (
                '{"name": "x", "has_generic_event": true, "provenance_properties": [1]}',
                ": 'provenance_properties' must hold only strings, got 1",
            ),
            (
                '{"name": "x", "has_generic_event": true, "entity_types": ["Agent"]}',
                ": 'entity_types' must hold only objects, got 'Agent'",
            ),
            (
                '{"name": "x", "has_generic_event": true, "entity_types": [{"name": 1}]}',
                ": entity_types[0]: 'name' must be a string, got 1",
            ),
            (
                '{"name": "x", "has_generic_event": true,'
                ' "event_entity_properties": [{"property": "p", "domain": "Event", "range": 5}]}',
                ": event_entity_properties[0]: 'range' must be a string, got 5",
            ),
        ],
        ids=[
            "bad-json",
            "deep-json",
            "empty-name",
            "missing-field",
            "not-utf8",
            "missing-file",
            "name-not-string",
            "generic-not-bool",
            "specific-not-bool",
            "provenance-not-list",
            "provenance-not-strings",
            "entity-type-not-object",
            "entity-type-name-not-string",
            "property-range-not-string",
        ],
    )
    def test_load_error_names_its_file_once(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_bytes(content.encode("latin-1"))
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert err.count(str(bad)) == 1


# Each file argument: an argv in which {bad} is that file, {nine} a good
# records file and {out} the output, and whether the file is JSON.
_FILE_ARGUMENTS = {
    "extract-input": (["extract", "{bad}", "--out", "{out}"], False),
    "extract-lexicon": (["extract", "{nine}", "--lexicon", "{bad}", "--out", "{out}"], False),
    "extract-catalog": (["extract", "{nine}", "--catalog", "{bad}", "--out", "{out}"], True),
    "interlink-graph": (["interlink", "{bad}", "--out", "{out}"], False),
    "query-graph": (["query", "{bad}"], False),
    "validate-descriptor": (["validate", "{bad}"], True),
}
_FILE_FAILURES = {"missing": None, "directory": None, "not-utf8": b"x\t\xff\n"}
_JSON_FAILURES = {
    "truncated": b"{",
    "deep": b"[" * 100_000,
    "huge-integer": b'{"base_iri": ' + b"1" * 5000 + b"}",
}


class TestInputFiles:
    @pytest.mark.parametrize(
        "argument, failure",
        [(arg, kind) for arg in _FILE_ARGUMENTS for kind in _FILE_FAILURES]
        + [(arg, kind) for arg, (_, js) in _FILE_ARGUMENTS.items() if js for kind in _JSON_FAILURES],
    )
    def test_unloadable_file_is_one_error_naming_it_once(
        self, capsys, tmp_path, nine_tsv, argument, failure
    ):
        bad = tmp_path / "bad"
        if failure == "directory":
            bad.mkdir()
        elif failure != "missing":
            bad.write_bytes({**_FILE_FAILURES, **_JSON_FAILURES}[failure])
        out = tmp_path / "out"
        template, _ = _FILE_ARGUMENTS[argument]
        argv = [arg.format(bad=bad, nine=nine_tsv, out=out) for arg in template]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert err.count(str(bad)) == 1
        assert not out.exists()


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is dropped from every input file."""

    @pytest.mark.parametrize("argument", list(_FILE_ARGUMENTS))
    def test_leading_bom_changes_nothing(self, capsys, tmp_path, fixtures_dir, nine_tsv, argument):
        good = {
            "extract-input": fixtures_dir / "duplicates.tsv",
            "extract-lexicon": default_lexicon_path(),
            "extract-catalog": default_catalog_path(),
            "interlink-graph": fixtures_dir / "golden" / "duplicates" / "events.nt",
            "query-graph": fixtures_dir / "golden" / "duplicates" / "events.nt",
            "validate-descriptor": fixtures_dir / "datamodels" / "headex.json",
        }[argument]
        template, _ = _FILE_ARGUMENTS[argument]
        results = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            path, out = tmp_path / name / "input", tmp_path / name / "out"
            path.write_bytes(mark + Path(good).read_bytes())
            argv = [arg.format(bad=path, nine=nine_tsv, out=out) for arg in template]
            code, stdout, err = run(capsys, *argv)
            outputs = sorted((p.name, p.read_bytes()) for p in out.iterdir()) if out.is_dir() else None
            results.append((code, stdout, err, out.read_bytes() if out.is_file() else outputs))
        assert results[0][0] in (0, 2)  # the file as shipped loads
        assert results[1] == results[0]


class TestQuery:
    @pytest.fixture()
    def graph_path(self, capsys, tmp_path, nine_tsv) -> str:
        code = main(["extract", nine_tsv, "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        return str(tmp_path / "events.nt")

    def iris(self, out: str) -> list[str]:
        return [line.split("\t")[0] for line in out.splitlines()]

    def test_publisher_and_class_filter(self, capsys, graph_path):
        code, out, _ = run(
            capsys,
            "query",
            graph_path,
            "--publisher",
            "BBC",
            "--publisher",
            "CNN",
            "--class",
            "Murder",
        )
        assert code == 0
        assert self.iris(out) == [f"{BASE}Murder_no3", f"{BASE}Murder_no6"]

    def test_location_filter(self, capsys, graph_path):
        code, out, _ = run(capsys, "query", graph_path, "--class", "Murder", "--location", "Yemen")
        assert code == 0
        assert self.iris(out) == [f"{BASE}Murder_no9"]

    def test_date_range_filter(self, capsys, graph_path):
        code, out, _ = run(
            capsys,
            "query",
            graph_path,
            "--class",
            "Meet",
            "--from",
            "2016-03-01",
            "--to",
            "2016-03-12",
        )
        assert code == 0
        assert self.iris(out) == [f"{BASE}Meet_no5", f"{BASE}Meet_no8"]

    def test_row_shape(self, capsys, graph_path):
        code, out, _ = run(capsys, "query", graph_path, "--class", "Meet", "--publisher", "cnn")
        assert code == 0
        assert out.splitlines() == [f"{BASE}Meet_no2\tMeet\tcnn\t2016-02-26"]

    def test_no_filters_lists_everything(self, capsys, graph_path):
        code, out, _ = run(capsys, "query", graph_path)
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_bad_date_is_fatal(self, capsys, graph_path):
        code, _, err = run(capsys, "query", graph_path, "--from", "not-a-date")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("option", ["--from", "--to"])
    def test_date_filter_outside_the_grammar_is_fatal(self, capsys, graph_path, option):
        code, out, err = run(capsys, "query", graph_path, option, "20160301")
        assert (code, out) == (1, "")
        assert err == "error: bad date filter: not an ISO date: '20160301'\n"

    @pytest.mark.parametrize("option", ["--from", "--to"])
    def test_date_filter_with_no_such_day_names_it(self, capsys, graph_path, option):
        code, out, err = run(capsys, "query", graph_path, option, "2016-02-30")
        assert (code, out) == (1, "")
        assert err == "error: bad date filter: not a calendar date: '2016-02-30'\n"


class TestGoldenOutputs:
    """``extract --turtle`` then ``interlink`` on each fixture corpus give,
    byte for byte, the outputs under ``fixtures/golden/<corpus>/``: every
    file written, and each command's stdout, stderr and exit code.  A change
    meant to alter an output updates the golden file with it."""

    @pytest.mark.parametrize("corpus", ["headlines9", "duplicates"])
    def test_outputs_match_the_golden_files(self, capsys, tmp_path, fixtures_dir, corpus):
        records = str(fixtures_dir / f"{corpus}.tsv")
        graph, links = str(tmp_path / "events.nt"), str(tmp_path / "links.nt")
        got = {}
        for command, argv in (
            ("extract", [records, "--out", str(tmp_path), "--turtle"]),
            ("interlink", [graph, "--out", links]),
        ):
            code, out, err = run(capsys, command, *argv)
            got[f"{command}.exit"] = f"{code}\n".encode()
            got[f"{command}.stdout"] = out.encode("utf-8")
            got[f"{command}.stderr"] = err.encode("utf-8")
        got.update((path.name, path.read_bytes()) for path in tmp_path.iterdir())
        golden = fixtures_dir / "golden" / corpus
        assert got == {path.name: path.read_bytes() for path in golden.iterdir()}


class TestBenchGoldenOutputs:
    """``extract`` then ``interlink``, as the benchmark runs them, on each
    benchmark workload's corpus at seeds 1 and 2 give the exit codes and the
    sha256 of each output pinned in ``fixtures/golden/bench.json``.  A change
    meant to alter an output updates the digests with it."""

    OUTPUTS = ("events.nt", "links.nt", "skipped.tsv", "audits.tsv")

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["archive", "breaking", "noisy-feed"])
    def test_outputs_match_the_golden_digests(
        self, capsys, tmp_path, fixtures_dir, bench_gen, workload, seed
    ):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        bench_gen.generate(bench_gen.WORKLOADS[workload], seed, corpus)
        records, catalog = str(corpus / "records.tsv"), str(corpus / "catalog.json")
        got = {}
        for command, argv in (
            ("extract", [records, "--out", str(out), "--catalog", catalog]),
            ("interlink", [str(out / "events.nt"), "--out", str(out / "links.nt")]),
        ):
            got[f"{command}.exit"] = run(capsys, command, *argv)[0]
        for name in self.OUTPUTS:
            got[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        golden = json.loads((fixtures_dir / "golden" / "bench.json").read_text(encoding="utf-8"))
        assert got == golden[f"{workload}-{seed}"]


class TestOutputsIgnoreBlocksAndRecordOrder:
    """A record's outcome does not depend on its neighbours: ``extract`` then
    ``interlink`` write the same bytes whatever ``pipeline.BLOCK_SIZE`` is,
    and the same graph and links for any order of records with distinct ids.
    The per-run tables outlive each block (``plans`` holds the org IRIs of
    each position reference), so no block boundary and no order of filling
    them may reach the output.  The inputs are the fixtures and small
    corpora of each benchmark workload."""

    BLOCK_SIZES = (1, 2, 63, 64, 65, 10_000)
    # A small corpus still spans three blocks of 64 and plants every skip.
    SMALL = {"records": 160, "catalog_size": 300, "pool": 200}

    @pytest.fixture(
        scope="class", params=["headlines9", "duplicates", "archive", "breaking", "noisy-feed"]
    )
    def corpus(self, request, fixtures_dir, bench_gen, tmp_path_factory):
        """The records file and the ``extract`` options that go with it."""
        name = request.param
        if (fixtures_dir / f"{name}.tsv").exists():
            return fixtures_dir / f"{name}.tsv", []
        settings = dataclasses.replace(bench_gen.WORKLOADS[name], **self.SMALL)
        out = tmp_path_factory.mktemp(name)
        bench_gen.generate(settings, 1, out)
        return out / "records.tsv", ["--catalog", str(out / "catalog.json")]

    @staticmethod
    def outputs(capsys, records: Path, options: list[str], out: Path) -> dict[str, bytes]:
        main(["extract", str(records), "--out", str(out), *options])
        main(["interlink", str(out / "events.nt"), "--out", str(out / "links.nt")])
        capsys.readouterr()
        names = ("events.nt", "links.nt", "audits.tsv", "skipped.tsv")
        return {name: (out / name).read_bytes() for name in names}

    def test_block_size_changes_no_byte(self, monkeypatch, capsys, tmp_path, corpus):
        records, options = corpus
        got = {}
        for size in self.BLOCK_SIZES:
            monkeypatch.setattr(pipeline, "BLOCK_SIZE", size)
            got[size] = self.outputs(capsys, records, options, tmp_path / str(size))
        assert all(outputs == got[64] for outputs in got.values())

    def test_record_order_changes_no_statement_or_link(self, capsys, tmp_path, corpus):
        records, options = corpus
        first: dict[str, str] = {}  # the first line of each id: a repeat would be skipped
        for line in records.read_text(encoding="utf-8").splitlines(keepends=True):
            first.setdefault(line.split("\t", 1)[0], line)
        lines = list(first.values())
        shuffled = random.Random(1).sample(lines, len(lines))
        got = []
        for name, order in (("given", lines), ("shuffled", shuffled)):
            (tmp_path / f"{name}.tsv").write_text("".join(order), encoding="utf-8")
            outputs = self.outputs(capsys, tmp_path / f"{name}.tsv", options, tmp_path / name)
            # Audit and skip rows follow the records, and a skip names its line.
            outputs["skipped.tsv"] = re.sub(rb"line ?\d+", b"line", outputs["skipped.tsv"])
            for table in ("audits.tsv", "skipped.tsv"):
                outputs[table] = sorted(outputs[table].splitlines())
            got.append(outputs)
        assert got[0] == got[1]
        assert got[0]["events.nt"]


class TestOutputsIgnorePartitionAndGraphOrder:
    """The graph is a function of its headlines: records cut into two files
    with disjoint ids give the whole corpus's statements, skip rows and audit
    rows, and the two graphs merged give its links; ``interlink`` and
    ``query`` read the same bytes out of a graph in any line order.  The
    inputs are those of ``TestOutputsIgnoreBlocksAndRecordOrder``."""

    SMALL = TestOutputsIgnoreBlocksAndRecordOrder.SMALL
    corpus = TestOutputsIgnoreBlocksAndRecordOrder.corpus
    outputs = staticmethod(TestOutputsIgnoreBlocksAndRecordOrder.outputs)

    @staticmethod
    def rows(outputs: dict[str, bytes]) -> Counter:
        """Skip and audit rows as a multiset: no header, no line numbers."""
        skipped = re.sub(rb"line ?\d+", b"line", outputs["skipped.tsv"]).splitlines()
        return Counter(skipped) + Counter(outputs["audits.tsv"].splitlines()[1:])

    def test_two_parts_give_the_whole(self, capsys, tmp_path, corpus):
        records, options = corpus
        first: dict[str, str] = {}  # the first line of each id: a repeat would be skipped
        for line in records.read_text(encoding="utf-8").splitlines(keepends=True):
            first.setdefault(line.split("\t", 1)[0], line)
        rng = random.Random(1)
        parts: dict[str, list[str]] = {"whole": list(first.values()), "a": [], "b": []}
        for line in parts["whole"]:
            parts[rng.choice("ab")].append(line)
        got = {}
        for name, lines in parts.items():
            (tmp_path / f"{name}.tsv").write_text("".join(lines), encoding="utf-8")
            got[name] = self.outputs(capsys, tmp_path / f"{name}.tsv", options, tmp_path / name)
        a, b, whole = got["a"], got["b"], got["whole"]
        merged = sorted(set(a["events.nt"].splitlines(True) + b["events.nt"].splitlines(True)))
        assert b"".join(merged) == whole["events.nt"]
        assert self.rows(a) + self.rows(b) == self.rows(whole)
        (tmp_path / "merged.nt").write_bytes(b"".join(merged))
        main(["interlink", str(tmp_path / "merged.nt"), "--out", str(tmp_path / "links.nt")])
        assert (tmp_path / "links.nt").read_bytes() == whole["links.nt"]
        assert whole["events.nt"] and a["events.nt"] and b["events.nt"]

    def test_graph_line_order_changes_no_link_or_row(self, capsys, tmp_path, corpus):
        records, options = corpus
        events = self.outputs(capsys, records, options, tmp_path)["events.nt"]
        lines = events.splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.nt"
        shuffled.write_bytes(b"".join(random.Random(1).sample(lines, len(lines))))
        got = []
        for graph in (tmp_path / "events.nt", shuffled):
            main(["interlink", str(graph), "--out", str(tmp_path / "links.nt")])
            main(["query", str(graph)])
            got.append(((tmp_path / "links.nt").read_bytes(), capsys.readouterr()))
        assert got[0] == got[1]
        assert shuffled.read_bytes() != events


def draw_corpus(data, fixtures_dir: Path, bench_gen, root: Path) -> tuple[list[str], list[str]]:
    """A fixture, or a small ``gen.py`` corpus written under ``root`` of a
    drawn workload, seed and size: its lines with distinct ids (the first of
    each id, since a repeat would be skipped) and the ``extract`` options
    that go with it."""
    source = data.draw(
        st.sampled_from(("headlines9", "duplicates", "archive", "breaking", "noisy-feed")),
        "source",
    )
    records, options = fixtures_dir / f"{source}.tsv", []
    if source in bench_gen.WORKLOADS:
        knobs = dataclasses.replace(
            bench_gen.WORKLOADS[source],
            records=data.draw(st.integers(1, 160), "records"),
            catalog_size=300,
            pool=200,
        )
        bench_gen.generate(knobs, data.draw(st.integers(1, 2**16), "seed"), root)
        records, options = root / "records.tsv", ["--catalog", str(root / "catalog.json")]
    first: dict[str, str] = {}
    for line in records.read_text(encoding="utf-8").splitlines(keepends=True):
        first.setdefault(line.split("\t", 1)[0], line)
    return list(first.values()), options


class TestDrawnCorporaIgnoreRecordOrderAndBlockSize:
    """``TestOutputsIgnoreBlocksAndRecordOrder`` over drawn inputs: a fixture,
    or a small ``gen.py`` corpus of a drawn workload, seed and size, its
    records with distinct ids read in a drawn order and cut into blocks of a
    drawn size, gives the statements and links of the corpus in its own
    order at the default block size, and the same audit and skip rows."""

    @staticmethod
    def outputs(records: Path, options: list[str], out: Path) -> dict[str, object]:
        main(["extract", str(records), "--out", str(out), *options])
        main(["interlink", str(out / "events.nt"), "--out", str(out / "links.nt")])
        got: dict[str, object] = {n: (out / n).read_bytes() for n in ("events.nt", "links.nt")}
        # Audit and skip rows follow the records, and a skip names its line.
        skipped = re.sub(rb"line ?\d+", b"line", (out / "skipped.tsv").read_bytes())
        got["rows"] = sorted((out / "audits.tsv").read_bytes().splitlines() + skipped.splitlines())
        return got

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_outputs_ignore_record_order_and_block_size(
        self, fixtures_dir, bench_gen, data
    ):
        block_size = data.draw(
            st.one_of(st.sampled_from((1, 2, 63, 65)), st.integers(1, 200)), "block size"
        )
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            lines, options = draw_corpus(data, fixtures_dir, bench_gen, root)
            drawn = data.draw(st.permutations(lines), "order")
            (root / "given.tsv").write_text("".join(lines), encoding="utf-8")
            (root / "drawn.tsv").write_text("".join(drawn), encoding="utf-8")
            given_outputs = self.outputs(root / "given.tsv", options, root / "a")
            with mock.patch.object(pipeline, "BLOCK_SIZE", block_size):
                drawn_outputs = self.outputs(root / "drawn.tsv", options, root / "b")
        assert drawn_outputs == given_outputs


class TestDrawnCutsAndGraphOrders:
    """``TestOutputsIgnorePartitionAndGraphOrder`` over the drawn inputs of
    ``TestDrawnCorporaIgnoreRecordOrderAndBlockSize``: the records cut into
    two files by a drawn side for each give the whole corpus's statements,
    skip rows and audit rows, and the two graphs merged give its links; the
    whole graph's lines in a drawn order give ``interlink`` and ``query``
    the same bytes out."""

    rows = staticmethod(TestOutputsIgnorePartitionAndGraphOrder.rows)

    @staticmethod
    def extract(lines: list[str], options: list[str], out: Path) -> dict[str, bytes]:
        out.mkdir()
        (out / "records.tsv").write_text("".join(lines), encoding="utf-8")
        main(["extract", str(out / "records.tsv"), "--out", str(out), *options])
        return {n: (out / n).read_bytes() for n in ("events.nt", "audits.tsv", "skipped.tsv")}

    @staticmethod
    def read_back(graph: Path, links: Path) -> tuple[bytes, str]:
        """The links ``interlink`` writes for ``graph`` and what ``query`` prints."""
        main(["interlink", str(graph), "--out", str(links)])
        with redirect_stdout(io.StringIO()) as printed:
            main(["query", str(graph)])
        return links.read_bytes(), printed.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_two_parts_give_the_whole(self, fixtures_dir, bench_gen, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            lines, options = draw_corpus(data, fixtures_dir, bench_gen, root)
            cut = st.lists(st.booleans(), min_size=len(lines), max_size=len(lines))
            sides = data.draw(cut, "cut")
            a = self.extract([x for x, side in zip(lines, sides) if not side], options, root / "a")
            b = self.extract([x for x, side in zip(lines, sides) if side], options, root / "b")
            whole = self.extract(lines, options, root / "whole")
            merged = set(a["events.nt"].splitlines(True)) | set(b["events.nt"].splitlines(True))
            (root / "merged.nt").write_bytes(b"".join(sorted(merged)))
            links = [
                self.read_back(root / name, root / f"{name}.links")
                for name in ("merged.nt", "whole/events.nt")
            ]
        assert b"".join(sorted(merged)) == whole["events.nt"]
        assert self.rows(a) + self.rows(b) == self.rows(whole)
        assert links[0] == links[1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_graph_line_order_changes_no_link_or_row(
        self, fixtures_dir, bench_gen, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            lines, options = draw_corpus(data, fixtures_dir, bench_gen, root)
            events = self.extract(lines, options, root / "whole")["events.nt"]
            drawn = data.draw(st.permutations(events.splitlines(True)), "graph order")
            (root / "drawn.nt").write_bytes(b"".join(drawn))
            given_out = self.read_back(root / "whole" / "events.nt", root / "given.links")
            drawn_out = self.read_back(root / "drawn.nt", root / "drawn.links")
        assert drawn_out == given_out


class _FullDisk:
    """A file whose first write stores half its text and then fails."""

    def __init__(self, handle) -> None:
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.handle.close()

    def write(self, text: str) -> int:
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestAtomicOutputs:
    @pytest.fixture()
    def disk_full_for(self, monkeypatch):
        """Make writes to the temporary file of one output fail."""

        def install(name: str) -> None:
            def fake_open(path, *args, **kwargs):
                handle = open(path, *args, **kwargs)
                return _FullDisk(handle) if Path(path).name.startswith(f".{name}.") else handle

            monkeypatch.setattr(cli, "open", fake_open, raising=False)

        return install

    @staticmethod
    def contents(directory: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("failing", ["events.nt", "events.ttl", "skipped.tsv", "audits.tsv"])
    def test_failed_extract_write_keeps_every_previous_output(
        self, capsys, tmp_path, nine_tsv, fixtures_dir, disk_full_for, failing
    ):
        out_dir = tmp_path / "out"
        assert run(capsys, "extract", nine_tsv, "--out", str(out_dir), "--turtle")[0] == 0
        before = self.contents(out_dir)
        disk_full_for(failing)
        source = str(fixtures_dir / "duplicates.tsv")
        code, out, err = run(capsys, "extract", source, "--out", str(out_dir), "--turtle")
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {out_dir / failing}: No space left on device\n"
        assert self.contents(out_dir) == before

    @pytest.mark.parametrize("taken", ["events.nt", "events.ttl", "skipped.tsv", "audits.tsv"])
    def test_output_that_is_a_directory_keeps_every_previous_output(
        self, capsys, tmp_path, nine_tsv, fixtures_dir, taken
    ):
        out_dir = tmp_path / "out"
        assert run(capsys, "extract", nine_tsv, "--out", str(out_dir), "--turtle")[0] == 0
        (out_dir / taken).unlink()
        (out_dir / taken).mkdir()
        before = {p.name: p.is_dir() or p.read_bytes() for p in out_dir.iterdir()}
        source = str(fixtures_dir / "duplicates.tsv")
        code, out, err = run(capsys, "extract", source, "--out", str(out_dir), "--turtle")
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {out_dir / taken}: Is a directory\n"
        assert {p.name: p.is_dir() or p.read_bytes() for p in out_dir.iterdir()} == before

    def test_failed_interlink_write_keeps_the_previous_links(
        self, capsys, tmp_path, fixtures_dir, disk_full_for
    ):
        run(capsys, "extract", str(fixtures_dir / "duplicates.tsv"), "--out", str(tmp_path))
        links = tmp_path / "links.nt"
        links.write_text("previous\n", encoding="utf-8")
        before = self.contents(tmp_path)
        disk_full_for("links.nt")
        code, out, err = run(capsys, "interlink", str(tmp_path / "events.nt"), "--out", str(links))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {links}: No space left on device\n"
        assert self.contents(tmp_path) == before

    def test_out_that_is_a_file_is_fatal(self, capsys, tmp_path, nine_tsv):
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        code, out, err = run(capsys, "extract", nine_tsv, "--out", str(taken))
        assert (code, out) == (1, "")
        assert err == f"error: cannot create {taken}: File exists\n"
        assert taken.read_text(encoding="utf-8") == "keep\n"
