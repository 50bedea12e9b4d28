"""Entanglement measures on small systems, all reported in bits (log base 2).

Covers the Renyi order-alpha entropy, the two-outcome spectral function
``f_alpha`` used by the analytic two-qubit formulas, concurrence for pure
bipartitions and two-qubit mixed states, concurrence of assistance, and a
decomposition-search oracle for the convex-roof value that is independent of
the analytic route.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, StateVector, is_real, pair_blocks, require_state_vector, schmidt_probabilities
from .errors import DomainError, InvalidSubsystemError, ParameterError, SizeError
from .wclass import single_excitation_coefficients

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
    """Reject a power that is not a finite number in [0, MU_MAX]; a ``bool`` is not a number."""
    if not is_real(mu):
        raise ParameterError(f"{name} must be a number, got {mu!r}")
    if not math.isfinite(mu):
        raise ParameterError(f"{name} must be finite, got {mu}")
    if mu < 0:
        raise ParameterError(f"{name} must be nonnegative, got {mu}")
    if mu > MU_MAX:
        raise ParameterError(f"{name} must be at most {MU_MAX:g}, got {mu}")


def _require_alpha(alpha: float) -> None:
    """Reject a Renyi order that is not a finite number in (0, ALPHA_MAX]; a ``bool`` is not a number."""
    if not is_real(alpha):
        raise ParameterError(f"alpha must be a number, got {alpha!r}")
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
    limit, and results in (-1e-12, 0], -0.0 included, are 0.0.
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
    out = np.where((out < 0.0) & (out > -1e-12), 0.0, out)[..., 0] + 0.0  # also clears -0.0
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
    out = _f_alpha_values(np.clip(arr, 0.0, 1.0), alpha)
    return float(out[0]) if np.ndim(x) == 0 else out


def _f_alpha_values(arr: np.ndarray, alpha: float) -> np.ndarray:
    """``f_alpha`` of an array already in [0, 1] at a checked order, unvalidated."""
    root = np.sqrt(1.0 - arr)
    lo, hi = (1.0 - root) / 2.0, (1.0 + root) / 2.0
    if abs(alpha - 1.0) < VON_NEUMANN_SWITCH:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -np.where(lo > 0.0, lo * np.log2(lo), 0.0) - np.where(
                hi > 0.0, hi * np.log2(hi), 0.0
            )
    else:
        powsum = np.where(lo > 0.0, lo**alpha, 0.0) + hi**alpha
        out = np.log2(powsum) / (1.0 - alpha)
    return np.where((out < 0.0) & (out > -1e-12), 0.0, out) + 0.0  # also clears -0.0


def cut_axes(psi: StateVector, partition) -> tuple[int, ...]:
    """Tensor axes of one side of a bipartition of ``psi``: a proper nonempty subset of its labels."""
    part = {partition} if isinstance(partition, str) else set(partition)
    if not part or not part < set(psi.labels):
        raise InvalidSubsystemError(f"{sorted(part)} is not a proper nonempty subset of {psi.labels!r}")
    return tuple(i for i, lab in enumerate(psi.labels) if lab in part)


def cut_concurrences(probs: np.ndarray) -> np.ndarray:
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
    return float(cut_concurrences(cut_probabilities(psi, partition))[0])


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _spin_flip_lambdas(rhos: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho (YY) rho* (YY), for a (..., 4, 4) stack.

    The eigen-factor route, for ``DensityMatrix`` input only (pure states
    take a factor of the amplitudes, see ``PureFeatures``): the rows of the
    basis passed to ``_basis_lambdas`` are the subnormalized eigenvectors
    |e_k~> = sqrt(w_k) |e_k> of rho.  Wootters concurrence is
    max(0, l1 - l2 - l3 - l4); concurrence of assistance is the sum of the
    four.
    """
    w, v = np.linalg.eigh(rhos)
    # rows are subnormalized eigenvectors
    basis = np.swapaxes(v * np.sqrt(np.clip(w, 0.0, None))[..., None, :], -1, -2)
    return _basis_lambdas(basis)


def _basis_lambdas(basis: np.ndarray) -> np.ndarray:
    """Descending spin-flip lambdas (..., 4) of rho = sum_k |f_k><f_k|, from rows f_k (..., K, 4).

    They are the singular values of the symmetric spin-flip overlap
    tau_kl = <f_k| YY |f_l*>, padded with zeros to four: rho (YY) rho* (YY)
    and tau^H tau share their nonzero spectrum.  Any factor of rho will do,
    and tau carries the spectrum at amplitude precision instead of the
    sqrt-of-eigenvalue noise floor.  Two rows (a 3-qubit pure state's
    amplitude block) take the closed form of ``_symmetric_2x2_singular_values``.
    """
    tau = basis.conj() @ _YY @ np.swapaxes(basis.conj(), -1, -2)
    rows = tau.shape[-1]
    if rows == 2:
        lam = _symmetric_2x2_singular_values(tau)
    else:
        lam = np.sort(np.linalg.svd(tau, compute_uv=False), axis=-1)[..., ::-1]
    if rows == 4:
        return lam
    out = np.zeros(lam.shape[:-1] + (4,))
    out[..., :rows] = lam
    return out


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _symmetric_2x2_singular_values(t: np.ndarray) -> np.ndarray:
    """Descending singular values (..., 2) of a stack of complex symmetric T = [[a, b], [b, d]].

    With F = |a|^2 + 2|b|^2 + |d|^2 = l1^2 + l2^2 and D = |ad - b^2| = l1 l2,
    l1 = sqrt((F + s) / 2) and l2 = D / l1 (0 when l1 = 0), where
    s = l1^2 - l2^2 is the eigenvalue gap of T^H T.  s is taken as
    sqrt((|a|^2 - |d|^2)^2 + 4 |a* b + b* d|^2), a sum of squares, and not
    as sqrt(F^2 - 4 D^2), which cancels when l1 = l2 and leaves about 1e-8
    of error there.
    """
    a, b, d = t[..., 0, 0], t[..., 0, 1], t[..., 1, 1]
    aa, dd = _abs2(a), _abs2(d)
    gap = np.sqrt((aa - dd) ** 2 + 4.0 * _abs2(a.conj() * b + b.conj() * d))
    l1 = np.sqrt((aa + 2.0 * _abs2(b) + dd + gap) / 2.0)
    l2 = np.divide(np.abs(a * d - b * b), l1, out=np.zeros_like(l1), where=l1 > 0.0)
    # at l1 = l2, rounding can put D / l1 an ulp above l1
    return np.stack([l1, np.minimum(l2, l1)], axis=-1)


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
    """Renyi entropy of the reduced state across a bipartition of a pure state (``cut_probabilities``)."""
    return renyi_entropy(cut_probabilities(psi, partition)[0], alpha)


def cut_probabilities(psi: StateVector, partition=None) -> np.ndarray:
    """(1, r) Schmidt probabilities of a cut of a ``StateVector`` (checked); None is the first qubit.

    The first-qubit cut, named by either side, is ``PureFeatures.cut_probs``
    (``_first_cut``) with no pair lambdas; any other cut takes one SVD.
    """
    require_state_vector(psi)
    axes = (0,) if partition is None else cut_axes(psi, partition)
    if axes in ((0,), tuple(range(1, psi.n_qubits))):
        return _first_cut(psi.amplitudes[None])[0]
    return schmidt_probabilities(psi.amplitudes[None], axes)


@dataclass(frozen=True)
class PureFeatures:
    """What every bound reads from a stack of pure states around their first qubit (the focus).

    ``cut_probs`` (B, 2) holds the descending Schmidt probabilities of
    focus | rest and ``pair_lambdas`` (B, n-1, 4) the spin-flip lambdas of
    the marginal on the focus and each other qubit, in tensor order, once
    per state; every (alpha, mu) cell is evaluated from them.  Row b of a
    stack equals the features of state b alone.

    A stack whose every row of n >= 3 qubits is exactly 0 off the one-hot
    indices (``single_excitation_coefficients``) holds W-class states
    a|10..0> + sum_i b_i |0..1_i..0> with closed-form features: cut
    probabilities |a|^2 and sum_i |b_i|^2, and pair i's lambdas
    (2|a||b_i|, 0, 0, 0), its concurrence and concurrence of assistance
    alike.  ``of_wclass`` reads them from the coefficients alone.

    Any other stack, a mix of W-class and other rows included, takes the
    dense route: one SVD for the cut.  A pair's 4 x K amplitude block M
    (K = 2**(n-2)) factors its marginal M M^H: up to 4 qubits the
    lambdas are the singular values of M^T (YY) M; beyond, M^H is replaced
    by the 4 rows of R from its thin QR, which factor the same marginal.  No
    pure state builds a marginal or calls ``eigh``.
    """

    cut_probs: np.ndarray
    pair_lambdas: np.ndarray

    @classmethod
    def of(cls, amplitudes: np.ndarray) -> "PureFeatures":
        """Features of a (B, 2**n) amplitude stack, n >= 2."""
        cut, coeffs = _first_cut(amplitudes)
        return cls(cut, _dense_pair_lambdas(amplitudes) if coeffs is None else _wclass_pair_lambdas(coeffs))

    @classmethod
    def of_wclass(cls, coeffs: np.ndarray) -> "PureFeatures":
        """Closed-form features of W-class states from their (B, N) coefficients (a, b_1..b_{N-1})."""
        return cls(_wclass_cut(coeffs), _wclass_pair_lambdas(coeffs))

    @classmethod
    def of_state(cls, psi: StateVector) -> "PureFeatures":
        """Features of one state, a batch of one."""
        return cls.of(psi.amplitudes[None])

    @property
    def cut_concurrence(self) -> np.ndarray:
        return cut_concurrences(self.cut_probs)

    @property
    def pair_concurrences(self) -> np.ndarray:
        return _wootters(self.pair_lambdas)

    @property
    def pair_coas(self) -> np.ndarray:
        return self.pair_lambdas.sum(axis=-1)


def _first_cut(amplitudes: np.ndarray) -> tuple:
    """The first-qubit cut of a (B, 2**n) stack, n >= 2, and its coefficients (None: the dense route)."""
    if amplitudes.shape[1] < 4:
        raise InvalidSubsystemError("the first qubit has no partner in a one-qubit state")
    coeffs = single_excitation_coefficients(amplitudes)
    if coeffs is None:
        return schmidt_probabilities(amplitudes, (0,)), None
    return _wclass_cut(coeffs), coeffs


def _wclass_cut(coeffs: np.ndarray) -> np.ndarray:
    excited, rest = _abs2(coeffs[:, 0]), np.sum(_abs2(coeffs[:, 1:]), axis=1)
    return np.stack([np.maximum(excited, rest), np.minimum(excited, rest)], axis=1)


def _wclass_pair_lambdas(coeffs: np.ndarray) -> np.ndarray:
    moduli = np.hypot(coeffs.real, coeffs.imag)  # libm hypot, as Python's abs(complex)
    lambdas = np.zeros(coeffs.shape[:1] + (coeffs.shape[1] - 1, 4))
    lambdas[..., 0] = 2.0 * moduli[:, :1] * moduli[:, 1:]
    return lambdas


def _dense_pair_lambdas(amplitudes: np.ndarray) -> np.ndarray:
    factors = np.swapaxes(np.stack(list(pair_blocks(amplitudes)), axis=1), -1, -2).conj()
    if factors.shape[-2] > 4:
        factors = np.linalg.qr(factors, mode="r")
    return _basis_lambdas(factors)


# ---------------------------------------------------------------------------
# decomposition-search oracles
# ---------------------------------------------------------------------------

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _search_basis(rho: DensityMatrix, n_trials: int) -> np.ndarray:
    """Rows sqrt(p_k) |e_k> (p_k > 1e-12) spanning the support of a checked search input."""
    try:
        valid = operator.index(n_trials) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ParameterError(f"n_trials must be an integer of at least 1, got {n_trials!r}")
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
    """All two-term decompositions of a rank-2 state, parameterized on (u, phase).

    Term 0 is sqrt(u) f_0 + sqrt(1-u) e^(i phase) f_1 and term 1 is
    -sqrt(1-u) e^(-i phase) f_0 + sqrt(u) f_1 for basis rows f_0, f_1.  The
    terms are built with the points on the fast axis and copied to (P, 2, 4)
    at the end; each product keeps its operand order (numpy's complex
    product is not bitwise commutative).
    """
    ct, st = np.sqrt(u), np.sqrt(1.0 - u)
    e = np.exp(1j * phase)
    mix = np.empty((2, 1, len(u)), dtype=complex)
    np.multiply(st, e, out=mix[0, 0])
    np.negative(st * np.conj(e), out=mix[1, 0])
    terms = ct * basis[:, :, None]
    terms += mix * basis[::-1, :, None]
    return terms.transpose(2, 0, 1).copy()


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
    c2 = np.where(q > 1e-14, (cq / np.maximum(q, 1e-300)) ** 2, 0.0)
    return np.einsum("tn,tn->t", q, _f_alpha_values(np.minimum(np.maximum(c2, 0.0), 1.0), alpha))


# Draws (and rank-2 lattice points) per block of the decomposition searches.
# They hold one block at a time; beyond the block, their working memory grows
# with n_trials only by the kept real halves of the draws and the lattice.
# 512 is the smallest block that costs no time.
SEARCH_BLOCK = 512


def _random_isometry_blocks(count: int, size: int, rank: int, rng):
    """``count`` Haar isometries, yielded as (n, size, rank) blocks of n <= SEARCH_BLOCK draws.

    Each draw is a complex-normal (size, size) matrix, and Gram-Schmidt on its
    first ``rank`` columns gives the Q factor of its QR decomposition with
    R's diagonal made positive, up to rounding.  The stream is that of
    ``rng.normal(size=(count, size, size))`` for every real half, then the
    same for every imaginary half, so it does not depend on ``rank`` or on
    the block size.  The real halves are therefore drawn before the first
    block is yielded, and only their first ``rank`` columns are kept
    (count x size x rank floats); everything else lives one block at a time,
    and a yielded block is referenced by the caller alone.  A draw's columns
    do not depend on the block it sits in.
    """
    block = min(count, SEARCH_BLOCK)
    buf = np.empty((block, size, size))
    re = np.empty((rank, count, size))  # kept real columns, each contiguous
    for lo in range(0, count, block):
        n = min(block, count - lo)
        rng.standard_normal(out=buf[:n])  # normal(0, 1) draws 0.0 + 1.0 * x: the same bits
        re[:, lo:lo + n] = buf[:n, :, :rank].transpose(2, 0, 1)
    for lo in range(0, count, block):
        n = min(block, count - lo)
        rng.standard_normal(out=buf[:n])
        yield _gram_schmidt(re[:, lo:lo + n], buf[:n])


def _gram_schmidt(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(n, size, rank) orthonormal columns of the draws with real columns ``re`` (rank, n, size)."""
    cols: list[np.ndarray] = []
    conjs: list[np.ndarray] = []
    for j in range(len(re)):
        v = re[j] + 1j * im[:, :, j]
        for _ in range(2):  # the second pass restores orthogonality lost to rounding
            for q, qc in zip(cols, conjs):
                v = v - q * np.einsum("ti,ti->t", qc, v)[:, None]
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        cols.append(v)
        conjs.append(v.conj())
    return np.stack(cols, axis=2)


# compass and diagonal moves on (u, phase); a step below POLISH_XTOL ends a
# candidate's search
_COMPASS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
POLISH_XTOL = 1e-10
# steps h, h/2, ..., h / 2**(POLISH_RUNGS - 1) polled in one round
POLISH_RUNGS = 4
_RUNGS = 0.5 ** np.arange(POLISH_RUNGS)


def _two_term_polish(basis: np.ndarray, u: np.ndarray, phase: np.ndarray, values: np.ndarray,
                     step: float, alpha: float) -> float:
    """Least two-term average reached by a compass search from every (u, phase) start at once.

    Each candidate runs a compass search: poll the eight compass points at
    step h, move to the best one and double h if it improves on the
    candidate, or else halve h, until h is below POLISH_XTOL.  Every move
    strictly lowers a value, so the search ends.  u is clipped to [0, 1], so
    every value is the average of a real decomposition.

    A failed poll moves neither the point nor its value, so a run of failures
    polls the same point at h, h/2, h/4, ...  Each round polls that ladder
    of POLISH_RUNGS steps for every candidate, all as one stack, and takes
    the first rung whose best poll improves (a rung below POLISH_XTOL never
    does); if none does, h falls by 2**POLISH_RUNGS.  Scaling by a power of
    two is exact, and a point's value does not depend on the stack it is
    evaluated in, so every candidate takes the same moves, to the bit, as
    when it polls one step per round.
    """
    k = len(u)
    cells = np.arange(k) * POLISH_RUNGS  # each candidate's rung 0 in the (k * rungs) polls
    x_u, x_phase, val = u.copy(), phase.copy(), values.copy()
    h = np.full(k, step)
    while h.max() >= POLISH_XTOL:
        steps = h[:, None] * _RUNGS
        moves = steps[:, :, None, None] * _COMPASS  # (k, rungs, 8, 2)
        poll_u = np.minimum(np.maximum(x_u[:, None, None] + moves[..., 0], 0.0), 1.0).ravel()
        poll_phase = (x_phase[:, None, None] + moves[..., 1]).ravel()
        trial = _decomposition_average(_two_term_states(basis, poll_u, poll_phase), alpha)
        trial = trial.reshape(k * POLISH_RUNGS, 8)
        pick, least = trial.argmin(axis=1), trial.min(axis=1).reshape(k, POLISH_RUNGS)
        better = (least < val[:, None]) & (steps >= POLISH_XTOL)
        won = better.any(axis=1)
        cell = cells + better.argmax(axis=1)  # the first improving rung, if any
        at = cell * 8 + pick[cell]
        x_u = np.where(won, poll_u[at], x_u)
        x_phase = np.where(won, poll_phase[at], x_phase)
        val = np.where(won, least.ravel()[cell], val)
        h = np.where(won, 2.0 * steps.ravel()[cell], 0.5 * steps[:, -1])
    return float(np.min(val))


def _pure_concurrence(basis: np.ndarray) -> float:
    """Concurrence of a rank-1 search input from its one basis row normalized, for both searches."""
    return float(_pure_c_times_q(basis[0] / np.linalg.norm(basis[0])))


def _decompositions(basis: np.ndarray, budget: int, fewest: int, rng):
    """Random decompositions of the state with rows ``basis``, as (t, size, 4) blocks of subnormalized terms.

    ``budget`` draws are shared evenly by the sizes ``fewest``..4 (at least
    one each), in that order.  ``map`` keeps no reference to a block, so a
    caller folding them holds one at a time.
    """
    sizes = range(fewest, 5)
    share = max(1, budget // len(sizes))
    isometries = itertools.chain.from_iterable(
        _random_isometry_blocks(share, size, len(basis), rng) for size in sizes)
    return map(lambda iso: np.einsum("tnr,rd->tnd", iso, basis), isometries)


def convex_roof_oracle(rho: DensityMatrix, alpha: float, n_trials: int, seed: int) -> float:
    """Decomposition-search upper bound on the convex-roof entanglement.

    Minimizes sum_j p_j E(|psi_j>) over random pure-state decompositions of
    ``rho``, built by unitary mixing of a purification with 2 to 4 terms
    (``_decompositions``, 3 or 4 from rank 2 on).
    For rank-2 input the two-term family is additionally swept with a
    stratified lattice and its 6 best points are polished by one batched
    compass search on (u, phase), because plain independent sampling
    converges only linearly when the optimal decomposition contains a
    separable member.  The result is always an upper bound on the true convex
    roof and is expected to approach the analytic two-qubit value from above.

    Below alpha = 1 the polish can stop on a kink: near a separable member
    f_alpha(C^2) grows like |t|^(2 alpha), a cone at order 0.5, and the eight
    fixed directions can miss its descent directions.  On 30 rank-2 states
    with 100 to 4000 trials it stopped up to 1.5e-8 above a Nelder-Mead
    polish at order 0.5.  At orders 0.823, 1, 1.3027 and 2, with 100 or more
    trials, the two polishes agreed within 4.4e-16.

    ``n_trials`` must be an integer of at least 1.  The lattice and the
    random decompositions are evaluated in blocks of SEARCH_BLOCK points,
    each block's least value folded into a running minimum, so the result
    does not depend on the block size.  What still grows with ``n_trials``
    is the lattice's u, phase and values, dropped once the polish has its
    six starts, and the kept real halves of the isometry draws (see
    ``_random_isometry_blocks``).
    """
    basis = _search_basis(rho, n_trials)
    _require_alpha(alpha)
    rng = np.random.default_rng(seed)
    rank = basis.shape[0]
    if rank == 1:
        return f_alpha(_pure_concurrence(basis) ** 2, alpha)

    best = np.inf
    budget = n_trials
    if rank == 2:
        count = max(1, 2 * n_trials // 3)
        u, phase = _two_term_lattice(count, rng)
        values = np.empty(count)
        for lo in range(0, count, SEARCH_BLOCK):
            values[lo:lo + SEARCH_BLOCK] = _decomposition_average(
                _two_term_states(basis, u[lo:lo + SEARCH_BLOCK], phase[lo:lo + SEARCH_BLOCK]), alpha)
        # polish the 6 best from a step of about the lattice spacing
        top = np.argsort(values)[:6]
        starts = u[top], phase[top], values[top]
        del u, phase, values, top  # the polish needs only its six starts
        best = _two_term_polish(basis, *starts, 1.0 / np.sqrt(count), alpha)
        budget = n_trials - count

    least = map(lambda phi: float(np.min(_decomposition_average(phi, alpha))),
                _decompositions(basis, budget, max(rank, 3), rng))
    return min(best, *least)  # the running minimum, one block at a time


def coa_search(rho: DensityMatrix, n_trials: int, seed: int) -> float:
    """Best average concurrence found over random pure-state decompositions.

    A lower bound on the concurrence of assistance; converges quickly because
    the maximizing set is high dimensional.  ``n_trials`` must be an integer
    of at least 1.  The decompositions (``_decompositions``, 2 to 4 terms, at
    least the rank) are evaluated in blocks of SEARCH_BLOCK draws, each
    block's best folded into a running maximum, so the result does not
    depend on the block size.
    """
    basis = _search_basis(rho, n_trials)
    rng = np.random.default_rng(seed)
    rank = basis.shape[0]
    if rank == 1:
        return _pure_concurrence(basis)
    most = map(lambda phi: float(np.max(np.sum(_pure_c_times_q(phi), axis=1))),
               _decompositions(basis, n_trials, rank, rng))
    return max(0.0, *most)  # the running maximum, one block at a time
