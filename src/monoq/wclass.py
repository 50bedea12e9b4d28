"""Generalized W-class states: single-excitation superpositions.

A W-class state on N qubits is a |10...0> + sum_i b_i |0...1_i...0> with
|a|^2 + sum |b_i|^2 = 1.  Its two-qubit marginals have equal concurrence and
concurrence of assistance 2|a||b_i|, and the one-vs-rest concurrence after
discarding the first i partner qubits, 2|a| sqrt(sum_{j>i} |b_j|^2), is the
root sum of the remaining squared pair concurrences.  That is what makes the
ordering hypotheses of the weighted bounds checkable beyond three qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_QUBITS, StateVector, resolve_labels
from .errors import (
    InvalidSubsystemError,
    NormalizationError,
    SizeError,
    UnsupportedStateClassError,
)

WCLASS_SUPPORT_ATOL = 1e-10


@dataclass(frozen=True)
class WClassState:
    """Amplitude data (a, b_1..b_{N-1}) of a generalized W-class state."""

    a: complex
    b: tuple[complex, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        b = tuple(complex(x) for x in self.b)
        n = 1 + len(b)
        if n < 3:
            raise SizeError(f"W-class states need at least 3 parties, got {n}")
        if n > MAX_QUBITS:
            raise SizeError(f"at most {MAX_QUBITS} parties supported, got {n}")
        labels = resolve_labels(self.labels, n)
        norm2 = abs(self.a) ** 2 + sum(abs(x) ** 2 for x in b)
        if not abs(norm2 - 1.0) <= 1e-12:  # a NaN amplitude fails too
            raise NormalizationError(f"|a|^2 + sum |b_i|^2 = {norm2!r} differs from 1")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "labels", labels)

    @property
    def n_parties(self) -> int:
        return 1 + len(self.b)

    def to_state_vector(self) -> StateVector:
        """Expand onto the computational basis (exactly single-excitation support)."""
        amps = np.zeros(2**self.n_parties, dtype=complex)
        amps[onehot_indices(self.n_parties)] = (self.a,) + self.b
        return StateVector(amps, self.labels)

    def pair_concurrence(self, i: int) -> float:
        """C = C^a = 2|a||b_i| of the marginal on the focus and partner i (1-based)."""
        if not 1 <= i <= len(self.b):
            raise InvalidSubsystemError(f"partner index {i} outside 1..{len(self.b)}")
        return 2.0 * abs(self.a) * abs(self.b[i - 1])


def onehot_indices(n_parties: int) -> list[int]:
    """Basis indices of the excitation on party 0, 1, ..., N-1 (party 0 the leftmost factor)."""
    return [1 << (n_parties - 1 - i) for i in range(n_parties)]


def build_wclass(a, b_list, labels=()) -> tuple[WClassState, StateVector]:
    """Construct a W-class state and its state-vector expansion."""
    w = WClassState(complex(a), tuple(complex(x) for x in b_list), tuple(labels))
    return w, w.to_state_vector()


def wclass_from_state(psi: StateVector) -> WClassState:
    """Recognize a state vector with single-excitation support.

    Raises UnsupportedStateClassError when any amplitude outside the one-hot
    basis states exceeds WCLASS_SUPPORT_ATOL.
    """
    amps = psi.amplitudes
    onehot = onehot_indices(psi.n_qubits)
    mask = np.ones(amps.size, dtype=bool)
    mask[onehot] = False
    worst = float(np.max(np.abs(amps[mask]))) if np.any(mask) else 0.0
    if worst > WCLASS_SUPPORT_ATOL:
        raise UnsupportedStateClassError(
            f"state has weight {worst:.3e} outside the single-excitation subspace"
        )
    coeffs = amps[onehot]
    norm = float(np.linalg.norm(coeffs))
    coeffs = coeffs / norm
    return WClassState(coeffs[0], tuple(coeffs[1:]), psi.labels)


def wclass_coefficients(n_parties: int, seed: int) -> np.ndarray:
    """The amplitudes (a, b_1..b_{N-1}) of ``random_wclass(n_parties, seed)``, unchecked.

    The one definition of the W-class draw: normalized complex Gaussians
    from ``default_rng(seed)``, partners ordered by decreasing modulus.
    Campaigns write it straight into their amplitude stacks at
    ``onehot_indices``; ``n_parties`` must already lie in [3, MAX_QUBITS].
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_parties) + 1j * rng.normal(size=n_parties)
    z = z / np.linalg.norm(z)
    b = z[1:]
    z[1:] = b[np.argsort(-np.abs(b), kind="stable")]
    return z


def random_wclass(n_parties: int, seed: int) -> WClassState:
    """Seeded random W-class state from normalized complex Gaussian amplitudes.

    The partner amplitudes are ordered by decreasing modulus, the labeling
    under which the ordering hypotheses are most likely to hold.
    """
    if n_parties < 3:
        raise SizeError(f"need at least 3 parties, got {n_parties}")
    z = wclass_coefficients(n_parties, seed)
    return WClassState(z[0], tuple(z[1:]))
