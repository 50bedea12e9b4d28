#!/usr/bin/env python3
"""Tour of the state utilities and entanglement measures.

Walks through state construction, reduced states, Renyi entropies, the
spectral bound function f_alpha, and the two independent routes to the
two-qubit convex-roof entanglement: the analytic formula and the
decomposition-search oracle.  Everything is seeded and reproducible.
"""

import numpy as np

from monoq import (
    StateVector,
    coa_two_qubit,
    convex_roof_oracle,
    f_alpha,
    haar_random_state,
    hermitian_spectrum,
    partial_trace,
    pure_to_density,
    random_mixed_state,
    renyi_entanglement_pure,
    renyi_entanglement_two_qubit,
    renyi_entropy,
    w_state,
    wootters_concurrence,
)
from monoq.harness import REFERENCE_ALPHA, reference_schmidt_state

print("=" * 72)
print("1. States, reduced states, spectra")
print("=" * 72)

bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
rho_a = partial_trace(pure_to_density(bell), {"A"})
print("Bell state marginal on A:\n", np.round(rho_a.entries.real, 6))

w = w_state()
spec = hermitian_spectrum(partial_trace(pure_to_density(w), {"A"}))
print("W state marginal spectrum on A:", np.round(spec, 6), "(= 2/3, 1/3)")

print()
print("=" * 72)
print("2. Renyi entropy and the alpha -> 1 limit")
print("=" * 72)

for alpha in (0.5, 0.823, 0.9999999, 2.0):
    print(f"  S_alpha(2/3, 1/3) at alpha={alpha:<10} = {renyi_entropy([2/3, 1/3], alpha):.9f}")
print("  (alpha within 1e-6 of 1 switches to the von Neumann limit)")

print()
print("=" * 72)
print("3. The spectral bound function f_alpha")
print("=" * 72)

print("f_alpha maps a squared concurrence to the entanglement of the cut.")
print(f"  f(0)   = {f_alpha(0.0, REFERENCE_ALPHA):.6f}   (separable)")
print(f"  f(1)   = {f_alpha(1.0, REFERENCE_ALPHA):.6f}   (Bell level)")
print(f"  f(1/6) = {f_alpha(1/6, REFERENCE_ALPHA):.6f}   (reference pair value 0.318620)")
print(f"  f(1/2) = {f_alpha(0.5, REFERENCE_ALPHA):.6f}   (reference cut value 0.654205)")
print(f"  f(4/9) = {f_alpha(4/9, REFERENCE_ALPHA):.6f}   (W pair value 0.607218)")
print(f"  f(8/9) = {f_alpha(8/9, REFERENCE_ALPHA):.6f}   (W cut value 0.932108)")

psi = reference_schmidt_state()
print("\nReference three-qubit state, order alpha=0.823:")
print(f"  E(A|BC) from the reduced spectrum : {renyi_entanglement_pure(psi, {'A'}, 0.823):.6f}")
rho_ab = partial_trace(pure_to_density(psi), {"A", "B1"})
print(f"  E(A|B)  from the analytic formula : {renyi_entanglement_two_qubit(rho_ab, 0.823):.6f}")

print()
print("=" * 72)
print("4. Concurrence, assistance, and the dual-route check")
print("=" * 72)

rho_w = partial_trace(pure_to_density(w), {"A", "B1"})
print(f"W pair marginal: concurrence = {wootters_concurrence(rho_w):.6f}, "
      f"assistance = {coa_two_qubit(rho_w):.6f}  (equal on W-class marginals)")

print("\nRandom rank-2 mixed two-qubit states: analytic value vs. the")
print("independent decomposition-search oracle (upper bound from above):")
for seed in range(3):
    rho = random_mixed_state(2, rank=2, seed=seed)
    analytic = renyi_entanglement_two_qubit(rho, REFERENCE_ALPHA)
    oracle = convex_roof_oracle(rho, REFERENCE_ALPHA, n_trials=4000, seed=seed)
    print(f"  seed {seed}: analytic {analytic:.9f}   oracle {oracle:.9f}   "
          f"gap {oracle - analytic:+.2e}")

print("\nHaar-random states are seeded and deterministic:")
a = haar_random_state(3, seed=42)
b = haar_random_state(3, seed=42)
print(f"  same seed, identical amplitudes: {np.array_equal(a.amplitudes, b.amplitudes)}")
