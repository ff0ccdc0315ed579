"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CORPUS_FILES = ("catalog.json", "records.tsv", "plan.tsv")


def corpus_bytes(settings: gen.Settings, seed: int, out: Path) -> dict[str, bytes]:
    gen.generate(settings, seed, out)
    return {name: (out / name).read_bytes() for name in CORPUS_FILES}


def small(workload: str) -> gen.Settings:
    return dataclasses.replace(gen.WORKLOADS[workload], records=300, catalog_size=400, pool=300)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    settings = gen.WORKLOADS[workload]
    first = corpus_bytes(settings, 7, tmp_path / "a")
    assert corpus_bytes(settings, 7, tmp_path / "b") == first
    other = corpus_bytes(settings, 8, tmp_path / "c")
    assert all(other[name] != first[name] for name in CORPUS_FILES)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tracing_leaves_output_bytes_unchanged(workload, tmp_path):
    corpus = tmp_path / "corpus"
    gen.generate(small(workload), 3, corpus)
    plain, plain_outputs = run.run_worker(ROOT, corpus, tmp_path / "plain", "plain")
    traced, traced_outputs = run.run_worker(ROOT, corpus, tmp_path / "traced", "traced")
    assert traced_outputs == plain_outputs
    assert "layers" not in plain
    assert set(traced["layers"]) == set(spans.LAYER_UNITS) - {"trace.overhead_s"}
    assert traced["layers"]["ingest.normalize_calls"] > 0


def test_links_reference_matches_outputs(tmp_path):
    corpus = tmp_path / "corpus"
    gen.generate(small("breaking"), 5, corpus)
    run.run_worker(ROOT, corpus, tmp_path, "plain")
    attempted, failed, events = run.check_outputs(tmp_path / "out", corpus)
    assert attempted == 300 and events > 0
    # A link the program did not make must be caught.
    links = tmp_path / "out" / "links.nt"
    links.write_bytes(links.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(run.checks.CheckError):
        run.check_outputs(tmp_path / "out", corpus)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    declared = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    }
    proc = bench("--workload", "noisy-feed", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.split()[0] in declared}
    assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("--workload", "archive", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
