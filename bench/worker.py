"""One pipeline run in a fresh process: ``headex extract`` then ``headex interlink``.

Usage: python3 worker.py CORPUS_DIR OUT_DIR MODE RESULT_JSON

Both commands go through ``headex.cli.main``, the code path of the
``headex`` script.  The process imports headex itself, so the import is
timed as part of set-up, and its peak RSS is that of one pipeline run.
MODE is ``plain``; ``traced``, which wraps every layer boundary (see
spans.py) and adds the spans and counts to the result; or ``setup``, which
only imports headex and loads the lexicon and catalog as ``extract`` does.
"""

import sys
import time

_start = time.perf_counter()
import headex.cli  # noqa: E402  (the import is what set-up time measures)

_import_s = time.perf_counter() - _start

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402


def load_s(tracer: spans.Tracer) -> float:
    return tracer.total("cli.load_catalog") + tracer.total("cli.load_lexicon_file")


def setup(corpus: str, result_path: str) -> int:
    tracer = spans.Tracer()
    tracer.install_loads()
    headex.cli.load_lexicon_file(headex.cli.default_lexicon_path())
    headex.cli.load_catalog(os.path.join(corpus, "catalog.json"))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"headex": os.path.dirname(headex.__file__), "setup_s": _import_s + load_s(tracer)}, handle)
    return 0


def main(corpus: str, out: str, traced: bool, result_path: str) -> int:
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    else:
        tracer.install_loads()
    extract_argv = [
        "extract",
        os.path.join(corpus, "records.tsv"),
        "--out",
        out,
        "--catalog",
        os.path.join(corpus, "catalog.json"),
    ]
    interlink_argv = ["interlink", os.path.join(out, "events.nt"), "--out", os.path.join(out, "links.nt")]
    # The command's summary line and per-record warnings are not measured output.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        extract_code = tracer.span("cli.extract", headex.cli.main)(extract_argv)
        interlink_code = tracer.span("cli.interlink", headex.cli.main)(interlink_argv)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    loads = load_s(tracer)
    extract_wall = tracer.total("cli.extract")
    interlink_wall = tracer.total("cli.interlink")
    result = {
        "headex": os.path.dirname(headex.__file__),
        "extract_code": extract_code,
        "interlink_code": interlink_code,
        "setup_s": _import_s + loads,
        "extract_s": extract_wall - loads,
        "interlink_s": interlink_wall,
        "pipeline_s": _import_s + extract_wall + interlink_wall,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        tracer.finish()
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    corpus_dir, out_dir, mode, result_file = sys.argv[1:5]
    if mode == "setup":
        sys.exit(setup(corpus_dir, result_file))
    sys.exit(main(corpus_dir, out_dir, mode == "traced", result_file))
