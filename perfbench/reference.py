"""Independent reference values for checking monoq's outputs.

Nothing here imports monoq.  States are regenerated from their recorded
per-state seeds with the documented samplers (normalized complex Gaussian
amplitudes), and every checked value is computed by a textbook route:

- three-tangle: 4 |Det a| with Det the Cayley hyperdeterminant of the
  2x2x2 amplitude array (Coffman, Kundu and Wootters, PRA 61, 052306, 2000);
  on a pure 3-qubit state it equals the CKW margin
  C^2(A|BC) - C^2(AB) - C^2(AC);
- Wootters concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy),
  not from the singular values that monoq uses;
- pure-cut concurrence from the purity, C^2 = 2 (1 - tr rho_A^2);
- Renyi entropy and f_alpha (Kim and Sanders, J. Phys. A 43, 445305, 2010);
- W-class closed forms: cut value f_alpha(4|a|^2 (1 - |a|^2)) and pair
  value f_alpha(4 |a|^2 |b_i|^2), with the ordering hypothesis decided from
  pair values 2|a||b_i| against tails 2|a| sqrt(sum_{j>i} |b_j|^2).

Run ``python3 perfbench/reference.py`` for the self-tests on known values.
"""

from __future__ import annotations

import numpy as np

_SY = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(_SY, _SY)

# Below this distance from alpha = 1 the von Neumann limit is used.
VON_NEUMANN_SWITCH = 1e-6
ORDERING_ATOL = 1e-12


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def state_seed(master_seed: int, index: int) -> int:
    """Per-state seed of campaign state ``index`` (the documented derivation)."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def haar_state(n_qubits: int, seed: int) -> np.ndarray:
    """Normalized complex Gaussian amplitudes, real parts drawn first."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return v / np.linalg.norm(v)


def wclass_moduli(n_parties: int, seed: int) -> tuple[float, np.ndarray]:
    """|a| and the partner moduli |b_i|, sorted descending, of a random W-class state."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_parties) + 1j * rng.normal(size=n_parties)
    z = np.abs(z / np.linalg.norm(z))
    return float(z[0]), np.sort(z[1:])[::-1]


def rank2_two_qubit(rng: np.random.Generator) -> np.ndarray:
    """Rank-2 two-qubit density matrix from the induced measure."""
    v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    mat = v @ v.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def three_tangle(psi: np.ndarray) -> np.ndarray:
    """4 |hyperdeterminant| of 3-qubit amplitudes; ``psi`` has shape (..., 8)."""
    a = np.asarray(psi).reshape(-1, 8).T
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    det = (
        a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
        - 2.0 * (
            a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
            + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
            + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001
        )
        + 4.0 * (a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100)
    )
    return 4.0 * np.abs(det)


def cut_concurrence_sq(psi: np.ndarray) -> float:
    """C^2 of the first qubit against the rest, 2 (1 - tr rho_A^2)."""
    m = np.asarray(psi).reshape(2, -1)
    rho_a = m @ m.conj().T
    return float(2.0 * (1.0 - np.real(np.trace(rho_a @ rho_a))))


def cut_spectrum(psi: np.ndarray) -> np.ndarray:
    """Eigenvalues of the first qubit's reduced state."""
    m = np.asarray(psi).reshape(2, -1)
    return np.linalg.eigvalsh(m @ m.conj().T)


def pair_marginal(psi: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reduced 4x4 state of qubits i and j (0-based, i first)."""
    n = int(np.log2(np.asarray(psi).size))
    t = np.moveaxis(np.asarray(psi).reshape([2] * n), (i, j), (0, 1)).reshape(4, -1)
    return t @ t.conj().T


def wootters_lambdas(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho (YY) rho* (YY)."""
    ev = np.linalg.eigvals(rho @ YY @ rho.conj() @ YY)
    return np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]


def concurrence(rho: np.ndarray) -> float:
    lam = wootters_lambdas(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_of_assistance(rho: np.ndarray) -> float:
    return float(np.sum(wootters_lambdas(rho)))


def renyi_entropy(probs, alpha: float) -> float:
    """Renyi entropy in bits; von Neumann within 1e-6 of alpha = 1."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    if abs(alpha - 1.0) < VON_NEUMANN_SWITCH:
        return float(-np.sum(p * np.log2(p)))
    return float(np.log2(np.sum(p**alpha)) / (1.0 - alpha))


def f_alpha(x: float, alpha: float) -> float:
    """Renyi entropy of {(1 - sqrt(1-x))/2, (1 + sqrt(1-x))/2}."""
    root = np.sqrt(max(0.0, 1.0 - min(max(x, 0.0), 1.0)))
    return renyi_entropy(((1.0 - root) / 2.0, (1.0 + root) / 2.0), alpha)


def wclass_cut(a: float, alpha: float) -> float:
    return f_alpha(4.0 * a * a * (1.0 - a * a), alpha)


def wclass_pair(a: float, b: float, alpha: float) -> float:
    return f_alpha(4.0 * a * a * b * b, alpha)


def wclass_satisfied(a: float, b: np.ndarray) -> bool:
    """Whether some weight ladder's ordering hypothesis holds (FULL or a split)."""
    n = 1 + b.size
    pairs = 2.0 * a * b
    tails = [2.0 * a * np.sqrt(np.sum(b[i:] ** 2)) for i in range(1, n - 1)]
    ge = [pairs[i] >= tails[i] - ORDERING_ATOL for i in range(n - 2)]
    le = [pairs[i] <= tails[i] + ORDERING_ATOL for i in range(n - 2)]
    if all(ge):
        return True
    return any(all(ge[:m]) and all(le[m:]) for m in range(1, n - 2))


# ---------------------------------------------------------------------------
# self-tests
# ---------------------------------------------------------------------------

REFERENCE_ALPHA = 0.823


def self_test() -> list[str]:
    """Known values; returns a list of failures (empty when all hold)."""
    s = 1.0 / np.sqrt(2.0)
    ghz = np.zeros(8, complex)
    ghz[[0, 7]] = s
    w = np.zeros(8, complex)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    product = np.zeros(8, complex)
    product[0] = 1.0
    bell = np.zeros(4, complex)
    bell[[0, 3]] = s
    bell_rho = np.outer(bell, bell.conj())
    random = haar_state(3, 12345)
    ckw_gap = (
        cut_concurrence_sq(random)
        - concurrence(pair_marginal(random, 0, 1)) ** 2
        - concurrence(pair_marginal(random, 0, 2)) ** 2
    )
    a = 1.0 / np.sqrt(3.0)
    checks = [
        ("GHZ tangle = 1", three_tangle(ghz)[0], 1.0, 1e-12),
        ("W tangle = 0", three_tangle(w)[0], 0.0, 1e-12),
        ("product tangle = 0", three_tangle(product)[0], 0.0, 1e-12),
        ("Bell concurrence = 1", concurrence(bell_rho), 1.0, 1e-7),
        ("W_3 pair concurrence = 2/3", concurrence(pair_marginal(w, 0, 1)), 2.0 / 3.0, 1e-7),
        ("W_3 cut C^2 = 8/9", cut_concurrence_sq(w), 8.0 / 9.0, 1e-12),
        ("CKW margin = tangle", ckw_gap, three_tangle(random)[0], 1e-7),
        ("f_alpha(0) = 0", f_alpha(0.0, 1.1), 0.0, 1e-15),
        ("f_alpha(1) = 1", f_alpha(1.0, 1.1), 1.0, 1e-12),
        ("W_3 cut value 0.932108", wclass_cut(a, REFERENCE_ALPHA), 0.932108, 1e-6),
        ("W_3 pair value 0.607218", wclass_pair(a, a, REFERENCE_ALPHA), 0.607218, 1e-6),
        ("W_3 cut = Renyi of rho_A", wclass_cut(a, 1.3), renyi_entropy(cut_spectrum(w), 1.3), 1e-12),
    ]
    return [
        f"{label}: got {value!r}, expected {expected!r}"
        for label, value, expected, tol in checks
        if not abs(value - expected) <= tol
    ]


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if failures else "PASS")
    raise SystemExit(1 if failures else 0)
