#!/usr/bin/env python3
"""Campaign-throughput benchmark for monoq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; monoq is imported from ``src/``.
The run repeats whole rounds of its workload's operations until ``--seconds``
of operation time is spent, checks every round's outputs, and prints one
JSON object as its last stdout line: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  Outputs go to ``.bench_work/``.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: at most 2, never more than the CPUs
# this process may run on.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_CODE = "import monoq.cli; monoq.cli.build_parser()"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Wall seconds for a fresh interpreter to import monoq and build the CLI parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monoq" / "__init__.py").is_file():
        print(f"error: no monoq sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import monoq  # noqa: E402  (sys.path set above)
    if Path(monoq.__file__).resolve().parent != SRC / "monoq":
        print(f"error: imported monoq from {monoq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    per_layer = [(m["name"], m["unit"]) for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    span_names = [name[: -len(".calls")] for name, _ in per_layer
                  if name.endswith(".calls") and name not in spans.COUNTERS]
    workload = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    out = work / "current"
    shutil.rmtree(work, ignore_errors=True)
    out.mkdir(parents=True)
    wl.write_w3(work / "w3.json")

    problems = [f"reference self-test: {p}" for p in reference.self_test()]
    attempted = failed = 0
    setup = []           # set-up samples, spread over the run
    ops = workload.round_ops(args.seed, out)
    best = {}            # operation index -> fastest seconds over the run
    overheads = []       # (untraced, traced) wall seconds of the same round
    layer_self = []      # per traced round: {span: self seconds}
    first_tracer = None

    def run_round(tracer=None):
        nonlocal attempted, failed
        outcomes = []
        start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.request = k
            outcomes.append(wl.run_op(op, time.perf_counter))
        wall = time.perf_counter() - start
        attempted += len(outcomes)
        failed += sum(o.failed for o in outcomes)
        for o in outcomes:
            if o.failed and not o.op.probe:
                problem = f"{' '.join(o.op.argv) or 'oracle'}: {o.error or f'exit {o.code}'}"
                if problem not in problems:
                    problems.append(problem)
        if expected is not None and wl.fingerprint(outcomes, out) != expected:
            problems.append("a round's outputs differ from the first round's on the same inputs")
        return outcomes, wall

    def traced_round(record):
        tracer = spans.Tracer(span_names, record)
        with tracer.installed():
            outcomes, wall = run_round(tracer)
        return tracer, outcomes, wall

    if not args.trace:
        setup.append(measure_setup())
    # Untimed first round: its outputs are checked in full and every later
    # round must reproduce them exactly; lazy set-up in numpy is not timed.
    # It counts calls, so that later rounds can be held to the same work.
    expected = None
    tracer, outcomes, _ = traced_round(record=False)
    counts = tracer.counts
    expected = wl.fingerprint(outcomes, out)
    try:
        problems += wl.check_round(args.workload, outcomes, out)
    except Exception:  # malformed output: report it instead of dying without a result
        problems.append("checking raised " + traceback.format_exc(limit=3))
    shutil.copytree(out, work / "round0")

    def same_work(tracer, which):
        if tracer.counts != counts:
            problems.append(f"{which} made other call or kernel counts than the first round "
                            "on the same inputs: work is kept or skipped across calls")

    rounds = 0
    measured = 0.0
    while rounds == 0 or measured < args.seconds:
        rounds += 1
        if args.trace:
            # Untraced and traced rounds alternate which goes first.
            plain_first = rounds % 2 == 1
            if plain_first:
                _, plain = run_round()
            tracer, _, wall = traced_round(record=True)
            if not plain_first:
                _, plain = run_round()
            overheads.append((plain, wall))
            same_work(tracer, "a traced round")
            first_tracer = first_tracer or tracer
            layer_self.append(tracer.self_seconds())
            measured += plain + wall
        else:
            outcomes, wall = run_round()
            for k, o in enumerate(outcomes):
                if not o.op.probe:
                    best[k] = min(best.get(k, o.seconds), o.seconds)
            measured += wall
            if len(setup) < SETUP_SAMPLES and measured >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(measure_setup())
    rss = peak_rss_mb()
    if not args.trace:
        # The timed rounds repeat the first round's inputs; a last counted
        # round shows whether they did the first round's work.
        same_work(traced_round(record=False)[0], "the last round")
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())

    for path in sorted((work / "round0").glob("*.csv")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"witness sha256 {digest}  {path.relative_to(ROOT)}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    if args.trace:
        trace_path = work / "trace.json"
        trace_path.write_text(json.dumps(first_tracer.to_json()))
        metrics = {}
        for name, unit in per_layer:
            if name in spans.COUNTERS:
                value = counts.get(name, 0)
            elif name.endswith(".calls"):
                value = counts.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                span = name[: -len(".self_s")]
                value = min(s.get(span, 0.0) for s in layer_self)
            elif name == "monogamy.detect_ordering.satisfied_ratio":
                n = counts.get("monogamy.detect_ordering", 0)
                value = counts.get("monogamy.detect_ordering.satisfied", 0) / n if n else 0.0
            elif name == "trace.overhead_s":
                value = min(t for _, t in overheads) - min(p for p, _ in overheads)
            else:
                raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, which run.py cannot measure")
            metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({"traced_rounds": len(layer_self), "trace_file": str(trace_path.relative_to(ROOT))}))
    else:
        def rate(indices):
            return sum(ops[k].states for k in indices) / sum(best[k] for k in indices)

        labels = sorted({ops[k].label for k in best})
        by_label = {m: rate([k for k in best if ops[k].label == m]) for m in labels}
        print(json.dumps({"timed_rounds": rounds, "states_per_s_by_label": by_label,
                          "setup_samples_s": setup, "blas_threads": int(BLAS_THREADS)}))
        metrics = {
            "states_per_s": {"value": rate(list(best)), "unit": "states/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
