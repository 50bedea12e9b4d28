#!/usr/bin/env python3
"""Seeded fuzzing campaigns: hunting for bound violations at scale.

A campaign samples states from a seeded ensemble, filters them by the
ordering hypothesis, evaluates the requested bound over an (alpha, mu) grid,
and returns one witness record per evaluation.  Per-state seeds derive from
the master seed, so any witness replays exactly.  The same machinery backs
the ``monoq fuzz`` command line, whose exit code is nonzero exactly when a
margin dips below -tolerance.
"""

import io

from monoq import CampaignConfig, replay_record, run_campaign

print("=" * 72)
print("1. Campaigns that come back clean")
print("=" * 72)

for config in (
    CampaignConfig(mode="ckw", n_states=2000, n_qubits=3, seed=11, tolerance=1e-10),
    CampaignConfig(mode="lemma1", n_states=1000, n_qubits=3, seed=12,
                   mu_grid=(2.0, 3.0, 4.0), tolerance=1e-10),
    CampaignConfig(mode="scalar", n_states=1, mu_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
                   tolerance=1e-12),
    CampaignConfig(mode="polygamy", n_states=400, n_qubits=4, seed=13,
                   state_class="wclass", mu_grid=(0.25, 0.5, 0.75, 1.0)),
):
    result = run_campaign(config)
    print(f"  {config.mode:<9} records={result.n_records:<5} "
          f"violations={result.n_violations:<3} min margin={result.min_margin:+.3e}")

print()
print("=" * 72)
print("2. The weighted monogamy campaign is NOT clean")
print("=" * 72)

config = CampaignConfig(
    mode="monogamy", n_states=1000, n_qubits=3, seed=14,
    alpha_grid=(0.8229, 1.3027), mu_grid=(2.0, 3.0, 5.0),
)
result = run_campaign(config)
summary = result.summary()
print(f"sampled {summary['n_sampled']} Haar 3-qubit states, "
      f"{summary['n_hypothesis_satisfied']} satisfied the ordering hypothesis")
print(f"evaluations: {summary['n_records']}   violations: {summary['n_violations']}")
print(f"min margin: {summary['min_margin']:+.4f}")
print(f"mean tightening over the baseline: {summary['mean_tightness_gain']:.4f}")

worst = result.worst
print(f"\nworst witness: state seed {worst.state_seed}, "
      f"alpha={worst.alpha}, mu={worst.mu}")
print(f"  lhs={worst.lhs:.6f}  weighted rhs={worst.rhs:.6f}  "
      f"unweighted baseline={worst.baseline_rhs:.6f}")
print(f"  (the unweighted bound holds; only the ladder overshoots)")

print()
print("=" * 72)
print("3. Witness replay and CSV export")
print("=" * 72)

replayed = replay_record(worst)
print(f"replayed margin {replayed:+.12f} vs recorded {worst.margin:+.12f} "
      f"(difference {abs(replayed - worst.margin):.1e})")

buf = io.StringIO()
result.write_records_csv(buf)
lines = buf.getvalue().splitlines()
print(f"\nCSV export: {len(lines) - 1} records, 12-significant-digit floats")
print("  " + lines[0])
print("  " + lines[1])

print()
print("Command-line equivalents:")
print("  monoq fuzz --mode ckw --states 10000 --qubits 3 --seed 11")
print("  monoq fuzz --mode monogamy --states 1000 --qubits 3 \\")
print("             --alpha 0.8229,1.3027 --mu 2,3,5 --out witnesses.csv")
print("  (exit code 1 whenever a margin falls below -tolerance)")
