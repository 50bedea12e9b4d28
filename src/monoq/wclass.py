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

from .core import MAX_QUBITS, StateVector, require_state_vector, resolve_labels, unit_gaussian_rows
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


def single_excitation_coefficients(amplitudes: np.ndarray) -> np.ndarray | None:
    """The (B, n) one-hot coefficients of a (B, 2**n) stack whose every row is exactly 0 elsewhere.

    None if any row has weight off ``onehot_indices(n)``, however small, and
    below 3 qubits.  Index 0 is never one-hot, so a nonzero first column
    (every Haar stack) decides it.
    """
    n = int(amplitudes.shape[1]).bit_length() - 1
    if n < 3 or amplitudes[:, 0].any():
        return None
    coeffs = amplitudes[:, onehot_indices(n)]
    return coeffs if np.count_nonzero(coeffs) == np.count_nonzero(amplitudes) else None


def build_wclass(a, b_list, labels=()) -> tuple[WClassState, StateVector]:
    """Construct a W-class state and its state-vector expansion."""
    w = WClassState(complex(a), tuple(complex(x) for x in b_list), tuple(labels))
    return w, w.to_state_vector()


def require_wclass(psi: StateVector) -> None:
    """Raise UnsupportedStateClassError on amplitude above WCLASS_SUPPORT_ATOL off the one-hot indices.

    One of two W-class decisions, kept apart on purpose.  This one lets a
    bound that needs a W-class state read ``psi``, so a state file with 1e-11
    of noise is accepted.  ``single_excitation_coefficients`` picks the
    closed form, which reads the one-hot amplitudes alone, so it needs exact
    zeros; a noisy state takes the dense route.  Builds no object.
    """
    worst = float(np.max(np.abs(np.delete(psi.amplitudes, onehot_indices(psi.n_qubits)))))
    if worst > WCLASS_SUPPORT_ATOL:
        raise UnsupportedStateClassError(
            f"state has weight {worst:.3e} outside the single-excitation subspace"
        )


def wclass_from_state(psi: StateVector) -> WClassState:
    """The coefficient form of a state vector with single-excitation support.

    Raises UnsupportedStateClassError on anything but a ``StateVector`` and,
    by ``require_wclass``, on weight outside the one-hot basis states.
    """
    require_state_vector(psi)
    require_wclass(psi)
    coeffs = psi.amplitudes[onehot_indices(psi.n_qubits)]
    coeffs = coeffs / float(np.linalg.norm(coeffs))
    return WClassState(coeffs[0], tuple(coeffs[1:]), psi.labels)


def wclass_coefficients(n_parties: int, seeds) -> np.ndarray:
    """The amplitudes (a, b_1..b_{N-1}) of ``random_wclass(n_parties, seed)`` per seed, unchecked.

    The one definition of the W-class draw: normalized complex Gaussians
    from ``default_rng(seed)``, partners ordered by decreasing modulus,
    computed for a whole batch of seeds by ``core.unit_gaussian_rows`` with
    no Generator per seed.  Returns shape (B, N); campaigns and replay read
    their features from it by ``PureFeatures.of_wclass``, without expanding
    it to 2**N amplitudes.  ``n_parties`` must already lie in [3, MAX_QUBITS].
    """
    z = unit_gaussian_rows(seeds, n_parties)
    b = z[:, 1:]
    order = np.argsort(-np.abs(b), axis=1, kind="stable")
    z[:, 1:] = b[np.arange(len(b))[:, None], order]
    return z


def random_wclass(n_parties: int, seed: int) -> WClassState:
    """Seeded random W-class state from normalized complex Gaussian amplitudes.

    The partner amplitudes are ordered by decreasing modulus, the labeling
    under which the ordering hypotheses are most likely to hold.  The
    one-row case of ``wclass_coefficients``; a party count outside [3,
    MAX_QUBITS] raises SizeError before anything is drawn.
    """
    if not 3 <= n_parties <= MAX_QUBITS:  # before the draw sizes its arrays
        raise SizeError(f"need 3 to {MAX_QUBITS} parties, got {n_parties}")
    z = wclass_coefficients(n_parties, [seed])[0]
    return WClassState(z[0], tuple(z[1:]))
