#!/usr/bin/env python3
"""Repeat every workload over successive seeds and summarize the spread.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--trace 0]

Repetition i runs each workload of BENCHMARK.json once, for its run_seconds,
with seed first_seed + i, in the BENCHMARK.json order on even i and in
reverse order on odd i.  For every
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and, for end-to-end metrics, whether the spread
stays below a third of the metric's bound.  Operations attempted and failed
are summed, and the failed share of each run is listed.  Raw results go to
.bench_work/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names if i % 2 == 0 else names[::-1]:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            final = json.loads(lines[-1])
            info = json.loads(lines[-2]) if len(lines) > 1 else {}
            results[w].append({"seed": seed, "wall_s": wall, "final": final, "info": info})
            print(f"{w:16s} seed {seed:3d} wall {wall:6.1f}s correct={final['correct']} "
                  f"attempted={final['attempted']} failed={final['failed']}", flush=True)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "repeat.json").write_text(json.dumps(results, indent=1))

    for w, runs in results.items():
        attempted = sum(r["final"]["attempted"] for r in runs)
        failed = sum(r["final"]["failed"] for r in runs)
        shares = sorted({f"{r['final']['failed']}/{r['final']['attempted']}" for r in runs})
        ratios = {r["final"]["failed"] / r["final"]["attempted"] for r in runs}
        print(f"\n== {w}: {len(runs)} runs, all correct={all(r['final']['correct'] for r in runs)}, "
              f"attempted={attempted} failed={failed}, failed share per run "
              f"{'constant' if len(ratios) == 1 else 'VARIES'} ({', '.join(shares[:4])}), "
              f"max wall {max(r['wall_s'] for r in runs):.1f}s")
        table = {}
        for r in runs:
            for name, m in r["final"]["metrics"].items():
                table.setdefault((name, m["unit"]), []).append(m["value"])
            for label, v in r["info"].get("states_per_s_by_label", {}).items():
                table.setdefault((f"({label}.states_per_s)", "states/s"), []).append(v)
        for (name, unit), values in table.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ""
            if name in bounds:
                verdict = f"bound {bounds[name]:.2f} " + ("ok" if spread < bounds[name] / 3 else "WIDE")
            print(f"  {name:48s} {unit:9s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
