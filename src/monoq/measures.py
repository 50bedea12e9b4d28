"""Entanglement measures on small systems, all reported in bits (log base 2).

Covers the Renyi order-alpha entropy, the two-outcome spectral function
``f_alpha`` used by the analytic two-qubit formulas, concurrence for pure
bipartitions and two-qubit mixed states, concurrence of assistance, and a
decomposition-search oracle for the convex-roof value that is independent of
the analytic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, StateVector, pair_marginal_stack, schmidt_probabilities
from .errors import DomainError, InvalidSubsystemError, ParameterError, SizeError

# Order window on which the analytic two-qubit formula and the weighted
# bounds are stated.
ALPHA_WINDOW = ((np.sqrt(7.0) - 1.0) / 2.0, (np.sqrt(13.0) - 1.0) / 2.0)

# Below this distance from alpha = 1 the von Neumann limit is evaluated
# instead of 1/(1-alpha), which would cancel catastrophically.
VON_NEUMANN_SWITCH = 1e-6

DOMAIN_ATOL = 1e-12

# Largest accepted distance of a spectrum's sum from 1.
SPECTRUM_SUM_ATOL = 1e-9

# Largest accepted power mu (or x): the ladder weights (2^mu - 1)^k, k <= 8,
# stay finite up to here, so a larger power is rejected as bad input.
MU_MAX = 100.0

# Largest accepted Renyi order: p_max**alpha >= 2**-1000 for every spectrum
# of up to 2**10 entries, so no power sum underflows to 0 (and log2 to -inf).
ALPHA_MAX = 100.0


def require_power(mu: float, name: str = "mu") -> None:
    """Reject a power that is not a finite number in [0, MU_MAX]."""
    if not math.isfinite(mu):
        raise ParameterError(f"{name} must be finite, got {mu}")
    if mu < 0:
        raise ParameterError(f"{name} must be nonnegative, got {mu}")
    if mu > MU_MAX:
        raise ParameterError(f"{name} must be at most {MU_MAX:g}, got {mu}")


def _require_alpha(alpha: float) -> None:
    """Reject a Renyi order that is not a finite number in (0, ALPHA_MAX]."""
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if alpha > ALPHA_MAX:
        raise ParameterError(f"alpha must be at most {ALPHA_MAX:g}, got {alpha}")


@dataclass(frozen=True)
class AlphaMu:
    """Order/power parameter pair with per-theorem validity checks."""

    alpha: float
    mu: float

    def __post_init__(self):
        _require_alpha(self.alpha)
        require_power(self.mu)

    @property
    def in_theorem_window(self) -> bool:
        lo, hi = ALPHA_WINDOW
        return lo - DOMAIN_ATOL <= self.alpha <= hi + DOMAIN_ATOL

    def require_monogamy(self) -> "AlphaMu":
        """Weighted lower bounds need mu >= 2 and alpha inside the window."""
        if self.mu < 2:
            raise ParameterError(f"monogamy mode needs mu >= 2, got {self.mu}")
        if not self.in_theorem_window:
            raise ParameterError(f"alpha {self.alpha} outside window {ALPHA_WINDOW}")
        return self

    def require_polygamy(self) -> "AlphaMu":
        """Weighted upper bounds need 0 <= mu <= 1 and alpha inside the window."""
        if not 0 <= self.mu <= 1:
            raise ParameterError(f"polygamy mode needs mu in [0, 1], got {self.mu}")
        if not self.in_theorem_window:
            raise ParameterError(f"alpha {self.alpha} outside window {ALPHA_WINDOW}")
        return self


def renyi_entropy(spectrum, alpha: float):
    """Renyi entropy log2(sum p_i^alpha) / (1 - alpha) of a spectrum, in bits.

    ``spectrum`` is an array of probabilities over its last axis: a 1-D
    array gives a float, a stack (..., d) an array of shape (...).  A
    non-finite entry, or a spectrum whose sum is not 1 within 1e-9, raises
    DomainError.  Entries <= 0 contribute nothing, within 1e-6 of alpha = 1
    the von Neumann entropy -sum p log2 p is returned as the continuity
    limit, and results in (-1e-12, 0) are clipped to 0.
    """
    _require_alpha(alpha)
    vals = np.asarray(spectrum, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"spectrum has non-finite entries: {spectrum!r}")
    if not np.all(np.abs(np.sum(vals, axis=-1) - 1.0) <= SPECTRUM_SUM_ATOL):
        raise DomainError(f"spectrum does not sum to 1 within {SPECTRUM_SUM_ATOL}: {spectrum!r}")
    pos = vals > 0.0
    probs = np.where(pos, vals, 0.0)
    # keepdims: every step runs on arrays, so a row of a stack and the same
    # spectrum alone round alike
    if abs(alpha - 1.0) < VON_NEUMANN_SWITCH:
        out = -np.sum(probs * np.log2(np.where(pos, vals, 1.0)), axis=-1, keepdims=True)
    else:
        out = np.log2(np.sum(probs**alpha, axis=-1, keepdims=True)) / (1.0 - alpha)
    out = np.where((out < 0.0) & (out > -1e-12), 0.0, out)[..., 0]
    return float(out) if vals.ndim == 1 else out


def f_alpha(x, alpha: float):
    """Renyi entropy of the spectrum {(1 - sqrt(1-x))/2, (1 + sqrt(1-x))/2}.

    Monotonically increasing on [0, 1] with f(0) = 0 and f(1) = 1; applied to
    a squared concurrence it gives the analytic two-qubit entanglement.
    Accepts scalars or arrays.
    """
    _require_alpha(alpha)
    # a scalar runs as an array: numpy's scalar pow/log2 round differently
    # from its array loops, and one pair must equal that pair in a stack
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not (np.all(arr >= -DOMAIN_ATOL) and np.all(arr <= 1.0 + DOMAIN_ATOL)):  # NaN fails too
        raise DomainError(f"argument outside [0, 1]: {x!r}")
    arr = np.clip(arr, 0.0, 1.0)
    root = np.sqrt(1.0 - arr)
    lo, hi = (1.0 - root) / 2.0, (1.0 + root) / 2.0
    if abs(alpha - 1.0) < VON_NEUMANN_SWITCH:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = -np.where(lo > 0.0, lo * np.log2(lo), 0.0) - np.where(
                hi > 0.0, hi * np.log2(hi), 0.0
            )
        out = terms
    else:
        powsum = np.where(lo > 0.0, lo**alpha, 0.0) + hi**alpha
        out = np.log2(powsum) / (1.0 - alpha)
    out = np.where((out < 0.0) & (out > -1e-12), 0.0, out) + 0.0  # also clears -0.0
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _cut(psi: StateVector, partition) -> set:
    """One side of a bipartition of ``psi``: a proper nonempty subset of its labels."""
    part = {partition} if isinstance(partition, str) else set(partition)
    if not part or not part < set(psi.labels):
        raise InvalidSubsystemError(f"{sorted(part)} is not a proper nonempty subset of {psi.labels!r}")
    return part


def cut_axes(psi: StateVector, partition) -> tuple[int, ...]:
    """Tensor axes of one side of a bipartition of ``psi``."""
    part = _cut(psi, partition)
    return tuple(i for i, lab in enumerate(psi.labels) if lab in part)


def _cut_concurrences(probs: np.ndarray) -> np.ndarray:
    """Pure-state concurrences 2 sqrt(sum_{i<j} p_i p_j) from Schmidt probabilities (..., r)."""
    tails = np.cumsum(probs[..., ::-1], axis=-1)[..., ::-1]
    pair_sum = np.sum(probs[..., :-1] * tails[..., 1:], axis=-1)
    return 2.0 * np.sqrt(np.maximum(0.0, pair_sum))


def concurrence_pure(psi: StateVector, partition) -> float:
    """Pure-state concurrence sqrt(2 (1 - tr rho_part^2)) across a bipartition.

    ``partition`` names one side of the cut; it must be a proper nonempty
    subset of the labels.  Evaluated from the Schmidt probabilities as
    2 sqrt(sum_{i<j} l_i l_j), which vanishes cleanly on product states
    instead of inheriting sqrt-of-roundoff noise from the purity.
    """
    probs = schmidt_probabilities(psi.amplitudes[None], cut_axes(psi, partition))
    return float(_cut_concurrences(probs)[0])


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _spin_flip_lambdas(rhos: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho (YY) rho* (YY), for a (..., 4, 4) stack.

    Computed as the singular values of the symmetric spin-flip overlap
    tau_kl = <e_k~| YY |e_l~*> on the subnormalized eigenvectors
    |e_k~> = sqrt(w_k) |e_k>, which carries the same spectrum at amplitude
    precision instead of the sqrt-of-eigenvalue noise floor.  Wootters
    concurrence is max(0, l1 - l2 - l3 - l4); concurrence of assistance is
    the sum of the four.
    """
    w, v = np.linalg.eigh(rhos)
    # rows are subnormalized eigenvectors
    basis = np.swapaxes(v * np.sqrt(np.clip(w, 0.0, None))[..., None, :], -1, -2)
    tau = basis.conj() @ _YY @ np.swapaxes(basis.conj(), -1, -2)
    return np.sort(np.linalg.svd(tau, compute_uv=False), axis=-1)[..., ::-1]


def _wootters(lam: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _two_qubit_lambdas(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise SizeError(f"expected a two-qubit (4x4) state, got dim {rho.dim}")
    return _spin_flip_lambdas(rho.entries)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence max(0, l1 - l2 - l3 - l4)."""
    return float(_wootters(_two_qubit_lambdas(rho)))


def coa_two_qubit(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance: the sum l1 + l2 + l3 + l4.

    Always at least as large as the concurrence of the same state.
    """
    return float(_two_qubit_lambdas(rho).sum(axis=-1))


def renyi_entanglement_two_qubit(rho: DensityMatrix, alpha: float) -> float:
    """Analytic convex-roof entanglement of a two-qubit state.

    Evaluates ``f_alpha`` at the squared concurrence; this is the argument
    convention that reproduces all reference values.
    """
    c = wootters_concurrence(rho)
    return f_alpha(c * c, alpha)


def renyi_entanglement_pure(psi: StateVector, partition, alpha: float) -> float:
    """Renyi entropy of the reduced state across a bipartition of a pure state."""
    probs = schmidt_probabilities(psi.amplitudes[None], cut_axes(psi, partition))
    return renyi_entropy(probs[0], alpha)


@dataclass(frozen=True)
class PureFeatures:
    """What every bound reads from a stack of pure states around their first qubit.

    The first qubit is the focus of every bound; another focus is a
    permutation of the state.  ``cut_probs`` (B, 2) holds the Schmidt
    probabilities of focus | rest and ``pair_lambdas`` (B, n-1, 4) the
    spin-flip lambdas of the marginal on the focus and each other qubit, in
    tensor order.  Both come straight from the amplitudes, once per state;
    every (alpha, mu) cell is evaluated from them.  Row b of a stack equals
    the features of state b alone.
    """

    cut_probs: np.ndarray
    pair_lambdas: np.ndarray

    @classmethod
    def of(cls, amplitudes: np.ndarray) -> "PureFeatures":
        """Features of a (B, 2**n) amplitude stack, n >= 2."""
        if amplitudes.shape[1] < 4:
            raise InvalidSubsystemError("the first qubit has no partner in a one-qubit state")
        return cls(
            schmidt_probabilities(amplitudes, (0,)),
            _spin_flip_lambdas(pair_marginal_stack(amplitudes)),
        )

    @classmethod
    def of_state(cls, psi: StateVector) -> "PureFeatures":
        """Features of one state, a batch of one."""
        return cls.of(psi.amplitudes[None])

    def take(self, rows) -> "PureFeatures":
        return PureFeatures(self.cut_probs[rows], self.pair_lambdas[rows])

    @property
    def cut_concurrence(self) -> np.ndarray:
        return _cut_concurrences(self.cut_probs)

    @property
    def pair_concurrences(self) -> np.ndarray:
        return _wootters(self.pair_lambdas)

    @property
    def pair_coas(self) -> np.ndarray:
        return self.pair_lambdas.sum(axis=-1)


# ---------------------------------------------------------------------------
# decomposition-search oracles
# ---------------------------------------------------------------------------

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _search_basis(rho: DensityMatrix, n_trials: int) -> np.ndarray:
    """Rows sqrt(p_k) |e_k> (p_k > 1e-12) spanning the support of a checked search input."""
    if n_trials < 1:
        raise ParameterError(f"n_trials must be at least 1, got {n_trials}")
    if rho.dim != 4:
        raise SizeError(f"expected a two-qubit (4x4) state, got dim {rho.dim}")
    w, v = np.linalg.eigh(rho.entries)
    keep = w > 1e-12
    return (v[:, keep] * np.sqrt(w[keep])).T


def _pure_c_times_q(phi: np.ndarray) -> np.ndarray:
    # 2|ad - bc| is homogeneous of degree 2, so on a subnormalized vector it
    # already equals q * C(phi / sqrt(q)).
    return 2.0 * np.abs(phi[..., 0] * phi[..., 3] - phi[..., 1] * phi[..., 2])


def _two_term_states(basis: np.ndarray, u: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """All two-term decompositions of a rank-2 state, parameterized on (u, phase)."""
    ct, st = np.sqrt(u), np.sqrt(1.0 - u)
    e = np.exp(1j * phase)
    first = ct[:, None] * basis[0] + (st * e)[:, None] * basis[1]
    second = -(st * np.conj(e))[:, None] * basis[0] + ct[:, None] * basis[1]
    return np.stack([first, second], axis=1)


def _two_term_lattice(count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (u, phase) points of the two-term family.

    u = cos^2 theta is uniform and the phases follow the golden angle, both
    jittered so the seed matters.
    """
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    phase = (_GOLDEN_ANGLE * np.arange(count) + rng.uniform(0.0, 2.0 * np.pi, count)) % (2.0 * np.pi)
    return u, phase


def _decomposition_average(phi: np.ndarray, alpha: float) -> np.ndarray:
    """sum_j q_j f_alpha(C_j^2) for a batch of subnormalized decompositions."""
    q = np.einsum("tnd,tnd->tn", phi, phi.conj()).real
    cq = _pure_c_times_q(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        c2 = np.where(q > 1e-14, (cq / np.maximum(q, 1e-300)) ** 2, 0.0)
    return np.einsum("tn,tn->t", q, f_alpha(np.clip(c2, 0.0, 1.0), alpha))


def _random_isometry_batch(count: int, size: int, rank: int, rng) -> np.ndarray:
    """(count, size, rank) Haar isometries from complex-normal (count, size, size) draws.

    Gram-Schmidt on the first ``rank`` columns of each draw: the Q factor of
    its QR decomposition with R's diagonal made positive, up to rounding.
    """
    z = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
    cols: list[np.ndarray] = []
    for j in range(rank):
        v = z[:, :, j]
        for _ in range(2):  # the second pass restores orthogonality lost to rounding
            for q in cols:
                v = v - q * np.einsum("ti,ti->t", q.conj(), v)[:, None]
        cols.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    return np.stack(cols, axis=2)


# compass and diagonal moves on (u, phase); a step below POLISH_XTOL ends a
# candidate's search
_COMPASS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
POLISH_XTOL = 1e-10


def _two_term_polish(basis: np.ndarray, u: np.ndarray, phase: np.ndarray, values: np.ndarray,
                     step: float, alpha: float) -> float:
    """Least two-term average reached by a compass search from every (u, phase) start at once.

    Each round polls the eight compass points of every candidate whose step
    is still at least POLISH_XTOL, as one stack.  A candidate moves to its
    best poll point if that improves on it and doubles its step, or else
    halves it; every move strictly lowers a value, so the search ends.  u is
    clipped to [0, 1], so every value is the average of a real decomposition.
    """
    x = np.stack([u, phase], axis=1)
    val = values.copy()
    h = np.full(len(x), step)
    while True:
        live = np.flatnonzero(h >= POLISH_XTOL)
        if live.size == 0:
            return float(np.min(val))
        poll = x[live, None, :] + h[live, None, None] * _COMPASS
        poll[..., 0] = np.clip(poll[..., 0], 0.0, 1.0)
        flat = poll.reshape(-1, 2)
        trial = _decomposition_average(_two_term_states(basis, flat[:, 0], flat[:, 1]), alpha)
        trial = trial.reshape(poll.shape[:2])
        pick = np.argmin(trial, axis=1)
        least = trial[np.arange(live.size), pick]
        won = least < val[live]
        x[live[won]] = poll[won, pick[won]]
        val[live[won]] = least[won]
        h[live] *= np.where(won, 2.0, 0.5)


def convex_roof_oracle(rho: DensityMatrix, alpha: float, n_trials: int, seed: int) -> float:
    """Decomposition-search upper bound on the convex-roof entanglement.

    Minimizes sum_j p_j E(|psi_j>) over random pure-state decompositions of
    ``rho``, built by unitary mixing of a purification with 2 to 4 terms.
    For rank-2 input the two-term family is additionally swept with a
    stratified lattice and its 6 best points are polished by one batched
    compass search on (u, phase), because plain independent sampling
    converges only linearly when the optimal decomposition contains a
    separable member.  The result is always an upper bound on the true convex
    roof and is expected to approach the analytic two-qubit value from above.
    """
    basis = _search_basis(rho, n_trials)
    _require_alpha(alpha)
    rng = np.random.default_rng(seed)
    rank = basis.shape[0]
    if rank == 1:
        psi = basis[0] / np.linalg.norm(basis[0])
        return f_alpha(float(_pure_c_times_q(psi)) ** 2, alpha)

    best = np.inf
    budget = n_trials
    if rank == 2:
        count = max(1, 2 * n_trials // 3)
        u, phase = _two_term_lattice(count, rng)
        values = _decomposition_average(_two_term_states(basis, u, phase), alpha)
        # polish the 6 best from a step of about the lattice spacing
        top = np.argsort(values)[:6]
        best = _two_term_polish(basis, u[top], phase[top], values[top], 1.0 / np.sqrt(count), alpha)
        budget = n_trials - count

    sizes = [s for s in (2, 3, 4) if s >= rank]
    if rank == 2:
        sizes = [3, 4]
    share = max(1, budget // len(sizes))
    for size in sizes:
        phi = np.einsum(
            "tnr,rd->tnd", _random_isometry_batch(share, size, rank, rng), basis
        )
        best = min(best, float(np.min(_decomposition_average(phi, alpha))))
    return float(best)


def coa_search(rho: DensityMatrix, n_trials: int, seed: int) -> float:
    """Best average concurrence found over random pure-state decompositions.

    A lower bound on the concurrence of assistance; converges quickly because
    the maximizing set is high dimensional.
    """
    basis = _search_basis(rho, n_trials)
    rng = np.random.default_rng(seed)
    rank = basis.shape[0]
    if rank == 1:
        psi = basis[0] / np.linalg.norm(basis[0])
        return float(_pure_c_times_q(psi))
    sizes = [s for s in (2, 3, 4) if s >= rank]
    best = 0.0
    for size in sizes:
        share = max(1, n_trials // len(sizes))
        phi = np.einsum(
            "tnr,rd->tnd", _random_isometry_batch(share, size, rank, rng), basis
        )
        best = max(best, float(np.max(np.sum(_pure_c_times_q(phi), axis=1))))
    return best
