"""Layered end-to-end benchmark of headex: ``extract`` then ``interlink``.

Usage, from the root of a headex checkout:

    python3 bench/run.py --workload archive --seed 1 --seconds 30 --trace 0

The run generates the workload's corpus from the seed and runs the pipeline
once, untimed, to warm the file and bytecode caches and to check its
outputs (see checks.py).  Then it starts fresh processes (worker.py), one
after another, until ``--seconds`` have passed.  With ``--trace 0`` each
untraced pipeline process is followed by a set-up-only one and the run
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
pipeline processes alternate and the run reports the per-layer metrics.
With ``--trace 0`` a fixed calibration workload runs before each process
and after the last one, and each process's timings are scaled to the host
speed of the reference machine (see ``calibration``); each end-to-end
metric is the median over the run's processes.  Per-layer metrics are
means over the traced processes.  The run prints one ``name value unit``
line per metric and, last, one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  ``attempted`` counts the input records and ``failed`` those whose outcome
contradicts the plan.  A failed correctness check prints ``"correct":
false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "extract_records_per_s": "1/s",
    "interlink_events_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
OUTPUTS = ("events.nt", "links.nt", "skipped.tsv", "audits.tsv")
MIN_PROCESSES = 3  # pipeline processes per mode, even when --seconds has passed
SETUP_PROBES = 1  # set-up-only processes after each untraced pipeline process
WORKER_TIMEOUT_S = 120
# calibration() in seconds on the reference machine (README.md) in a quiet
# phase; end-to-end timings are scaled to it.
CALIBRATION_REF_S = 0.08


class RunError(Exception):
    """A worker process failed, or imported headex from outside the checkout."""


def digest(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def run_worker(root: Path, corpus: Path, work: Path, mode: str) -> tuple[dict, dict]:
    """One fresh worker process (mode plain, traced or setup); returns its
    result and the digests of its outputs."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(corpus), str(out), mode, str(result_path)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RunError(f"pipeline process failed:\n{proc.stdout.decode(errors='replace')}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["headex"]).resolve() != (root / "src" / "headex").resolve():
        raise RunError(f"imported headex from {result['headex']}, not from this checkout")
    if mode == "setup":
        return result, {}
    if mode == "traced":
        result["layers"] = spans.summarize(result.pop("spans"), result.pop("counts"))
    if result["extract_code"] not in (0, 2) or result["interlink_code"] != 0:
        raise RunError(f"headex exited with {result['extract_code']}/{result['interlink_code']}")
    return result, digest(out)


def calibration() -> float:
    """Seconds a fixed pure-Python workload takes now, a gauge of host speed.

    The host's speed changes in phases of seconds to minutes (README.md).
    Timing this workload right before and right after each worker process
    and dividing the process's timings by it cancels most of that change;
    a change to headex does not touch the workload.  It mixes the kinds of
    work the pipeline does: string formatting and splitting, dict counting,
    set intersection and union, sorting.
    """
    start = time.perf_counter()
    for rep in range(4):
        words = [f"w{i % 997}x{(i + rep) % 13}" for i in range(25000)]
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        tokens = " ".join(words).split()
        sets = [frozenset(tokens[i : i + 8]) for i in range(0, len(tokens), 8)]
        sum(len(a & b) / len(a | b) for a, b in zip(sets, sets[1:]))
        sorted(f'<http://x/{t}> <http://p/{counts[t]}> "{t.upper()}" .' for t in tokens[::3])
    return time.perf_counter() - start


def scaled(result: dict, key: str) -> float:
    """A process's timing scaled to the reference machine's host speed."""
    return result[key] * CALIBRATION_REF_S / result["calibration_s"]


def check_outputs(out: Path, corpus: Path) -> tuple[int, int, int]:
    """Correctness checks on one set of outputs: (attempted, failed, events)."""
    events = checks.parse_file(out / "events.nt")
    checks.parse_file(out / "links.nt")
    if checks.reference_links(events) != (out / "links.nt").read_bytes():
        raise checks.CheckError("links.nt differs from the reference links")
    attempted, failed, examples = checks.plan_failures(
        events, out / "skipped.tsv", corpus / "plan.tsv"
    )
    for example in examples:
        print(f"planted outcome not met: {example}")
    n_events = sum(1 for _, p, _ in events if p == checks.SP_OF)
    return attempted, failed, n_events


def measure(args: argparse.Namespace, root: Path, work: Path) -> dict:
    corpus = work / "corpus"
    info = gen.generate(gen.WORKLOADS[args.workload], args.seed, corpus)
    print(f"workload={args.workload} seed={args.seed} records={info['records']} "
          f"planted_events={info['planted_events']} catalog={info['catalog']}")

    _, reference = run_worker(root, corpus, work, "plain")  # warm-up
    attempted, failed, n_events = check_outputs(work / "out", corpus)
    print(f"records attempted={attempted} failed={failed} failed_fraction={failed / attempted:.6f}")

    # Set-up is short and noisy, so set-up-only processes add samples of it.
    modes = ("plain", "traced") if args.trace else ("plain",) + ("setup",) * SETUP_PROBES
    results: dict[str, list[dict]] = {mode: [] for mode in modes}
    calibrated = not args.trace
    before = calibration() if calibrated else 0.0
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(results["plain"]) < MIN_PROCESSES:
        for mode in modes:
            result, outputs = run_worker(root, corpus, work, mode)
            if mode != "setup" and outputs != reference:
                changed = [name for name in OUTPUTS if outputs[name] != reference[name]]
                raise checks.CheckError(f"outputs differ between runs: {', '.join(changed)}")
            if calibrated:
                after = calibration()
                result["calibration_s"] = (before + after) / 2
                before = after
            results[mode].append(result)

    plain = results["plain"]
    mean = statistics.fmean
    median = statistics.median
    if args.trace:
        metrics = {
            name: mean(r["layers"][name] for r in results["traced"])
            for name in spans.LAYER_UNITS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = mean(r["pipeline_s"] for r in results["traced"]) - mean(
            r["pipeline_s"] for r in plain
        )
        units = spans.LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(scaled(r, "setup_s") for r in plain + results["setup"]),
            "extract_records_per_s": attempted / median(scaled(r, "extract_s") for r in plain),
            "interlink_events_per_s": n_events / median(scaled(r, "interlink_s") for r in plain),
            "pipeline_s": median(scaled(r, "pipeline_s") for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    print("processes " + " ".join(f"{mode}={len(runs)}" for mode, runs in results.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "headex" / "__init__.py").is_file():
        print("error: run from the root of a headex checkout (no src/headex here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # checks.py parses outputs with headex itself
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        summary = measure(args, root, work)
    except (RunError, checks.CheckError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
