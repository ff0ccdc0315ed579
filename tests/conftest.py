"""Shared fixtures: bundled resources, the nine-headline corpus, one pipeline
run and ``bench/gen.py``."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from headex.catalog import default_catalog_path, load_catalog
from headex.ingest import read_records
from headex.lexicon import default_lexicon_path, load_lexicon_file
from headex.pipeline import extract_corpus
from headex.triplify import IriPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon_file(default_lexicon_path())


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(default_catalog_path())


@pytest.fixture(scope="session")
def policy() -> IriPolicy:
    return IriPolicy()


@pytest.fixture(scope="session")
def nine_records():
    records, failures = read_records(FIXTURES / "headlines9.tsv")
    assert not failures
    return records


@pytest.fixture(scope="session")
def nine_result(nine_records, lexicon, catalog, policy):
    return extract_corpus(nine_records, lexicon, catalog, policy)


@pytest.fixture(scope="session")
def record_by_id(nine_records):
    return {r.id: r for r in nine_records}


@pytest.fixture(scope="session")
def instance_by_id(nine_result):
    return {i.instance_id: i for i in nine_result.instances}


@pytest.fixture(scope="session")
def bench_gen():
    """``bench/gen.py``, run from its source so that nothing is written under
    ``bench/``; ``dataclasses`` needs the module in ``sys.modules``."""
    path = REPO_ROOT / "bench" / "gen.py"
    module = types.ModuleType("_headex_bench_gen")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]
