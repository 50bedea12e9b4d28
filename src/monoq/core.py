"""Dense complex linear algebra for small multi-qubit systems.

States use the convention that the first label ("A") is the leftmost tensor
factor: bit i of a basis index, counted from the most significant bit,
addresses qubit i.  All structures are immutable values; random generation is
seeded explicitly and never touches global RNG state.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    HermiticityError,
    InvalidSubsystemError,
    IoError,
    NormalizationError,
    PositivityError,
    SizeError,
    UnsupportedStateClassError,
)

MAX_QUBITS = 10

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def default_labels(n_qubits: int) -> tuple[str, ...]:
    """Qubit names A, B1, ..., B{n-1} in tensor order."""
    return ("A",) + tuple(f"B{i}" for i in range(1, n_qubits))


def resolve_labels(labels, n_qubits: int) -> tuple[str, ...]:
    """``labels`` as a tuple of n distinct names; empty means the default names."""
    labels = tuple(labels) or default_labels(n_qubits)
    if len(labels) != n_qubits or len(set(labels)) != n_qubits:
        raise InvalidSubsystemError(f"expected {n_qubits} distinct labels, got {labels!r}")
    return labels


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state: 2**n complex amplitudes with unit norm."""

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amps.size))
        if 2**n != amps.size:
            raise SizeError(f"amplitude count {amps.size} is not a power of 2")
        if n < 1 or n > MAX_QUBITS:
            raise SizeError(f"need between 1 and {MAX_QUBITS} qubits, got {n}")
        labels = resolve_labels(self.labels, n)
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise NormalizationError(f"squared norm {norm2!r} differs from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def permuted(self, new_labels) -> "StateVector":
        """Reorder tensor factors so the state carries ``new_labels`` in order."""
        new_labels = tuple(new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise InvalidSubsystemError(f"{new_labels!r} is not a permutation of {self.labels!r}")
        perm = [self.labels.index(lab) for lab in new_labels]
        n = self.n_qubits
        amps = self.amplitudes.reshape([2] * n).transpose(perm).reshape(-1)
        return StateVector(amps.copy(), new_labels)


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a ``bool`` is not one here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number; a ``bool`` is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_state_vector(psi) -> None:
    """Reject anything but a ``StateVector`` where a pure global state is read.

    The public bound and ordering functions take the state itself; a
    ``WClassState`` (its coefficient form) or a ``DensityMatrix`` raises
    UnsupportedStateClassError here instead of failing on a missing field.
    """
    if not isinstance(psi, StateVector):
        raise UnsupportedStateClassError(
            f"expected the pure global state as a StateVector, got {type(psi).__name__}"
        )


def _require_hermitian(mat: np.ndarray) -> None:
    """Reject a matrix with a non-finite entry or that is not Hermitian within 1e-12."""
    if not np.all(np.isfinite(mat)):
        raise HermiticityError("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_ATOL:
        raise HermiticityError("matrix is not Hermitian within 1e-12")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator on named qubits."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SizeError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        n = int(np.log2(dim))
        if 2**n != dim:
            raise SizeError(f"dimension {dim} is not a power of 2")
        labels = resolve_labels(self.labels, n)
        _require_hermitian(mat)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise NormalizationError(f"trace {tr!r} differs from 1 beyond {TRACE_ATOL}")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < EIGENVALUE_FLOOR:
            raise PositivityError(f"minimum eigenvalue {lo!r} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pure_to_density(psi: StateVector) -> DensityMatrix:
    """Projector |psi><psi| as a DensityMatrix with the same labels."""
    amps = psi.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()), psi.labels)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the ``keep`` subset of labels (original label order).

    Tracing preserves the trace and Hermiticity; tracing out {B, C} equals
    tracing out C and then B.
    """
    keep = set(keep) if not isinstance(keep, str) else {keep}
    if not keep:
        raise InvalidSubsystemError("keep set must be nonempty")
    unknown = keep - set(rho.labels)
    if unknown:
        raise InvalidSubsystemError(f"labels {sorted(unknown)} not present in {rho.labels!r}")
    n = rho.n_qubits
    kept_labels = tuple(lab for lab in rho.labels if lab in keep)
    if len(kept_labels) == n:
        return rho
    dims = [2] * n
    tensor = rho.entries.reshape(dims + dims)
    traced_axes = [i for i, lab in enumerate(rho.labels) if lab not in keep]
    remaining = n
    for axis in sorted(traced_axes, reverse=True):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + remaining)
        remaining -= 1
    d = 2**remaining
    return DensityMatrix(tensor.reshape(d, d), kept_labels)


def pair_blocks(amplitudes: np.ndarray):
    """The amplitude block M of the first qubit and each other qubit, one (B, 4, K) array per qubit.

    ``amplitudes`` is (B, 2**n) and K = 2**(n-2).  For q = 1..n-1 in turn,
    the axes of the first qubit (first factor) and qubit q (second factor)
    go to the front and the rest is reshaped to K columns, so the pair's
    marginal is rho = M M^H.
    """
    b, n = amplitudes.shape[0], int(amplitudes.shape[1]).bit_length() - 1
    tensor = amplitudes.reshape((b,) + (2,) * n)
    for q in range(1, n):
        rest = [1 + k for k in range(1, n) if k != q]
        yield tensor.transpose([0, 1, 1 + q] + rest).reshape(b, 4, -1)


def schmidt_probabilities(amplitudes: np.ndarray, part) -> np.ndarray:
    """Descending Schmidt probabilities of the cut ``part`` | rest, shape (B, r).

    ``amplitudes`` is (B, 2**n) and ``part`` a tuple of qubit axes; r is the
    smaller side's dimension.  One SVD of the amplitudes reshaped to
    (2**len(part), rest), squared: the route to the spectrum of any cut.
    ``measures.PureFeatures`` reads the first-qubit cut of a single-excitation
    row in closed form instead.
    """
    b, n = amplitudes.shape[0], int(amplitudes.shape[1]).bit_length() - 1
    part = tuple(part)
    tensor = amplitudes.reshape((b,) + (2,) * n)
    rest = [1 + q for q in range(n) if q not in part]
    matrix = tensor.transpose([0] + [1 + q for q in part] + rest).reshape(b, 2 ** len(part), -1)
    return np.linalg.svd(matrix, compute_uv=False) ** 2


def hermitian_spectrum(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Descending eigenvalues with sub-1e-10 negative noise clipped to zero."""
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    _require_hermitian(mat)
    vals = np.linalg.eigvalsh(mat)
    if np.min(vals) < EIGENVALUE_FLOOR:
        raise PositivityError(f"eigenvalue {np.min(vals)!r} below {EIGENVALUE_FLOOR}")
    return np.sort(np.clip(vals, 0.0, None))[::-1]


# numpy's SeedSequence (``numpy/random/bit_generator.pyx``): a pool of 4
# uint32 words, hashed in uint64 arrays masked to 32 bits
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128) as its high and low 64-bit words
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


@functools.lru_cache(maxsize=None)
def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of a hash constant, (count + 1, 1): init, init * mult, ...

    A constant table, built once per length and read-only.
    """
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    out = np.array(chain, dtype=np.uint64)[:, None]
    out.setflags(write=False)
    return out


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values``, row k with chain[k], chain[k + 1]."""
    values = (values ^ chain[:-1]) * chain[1:] & _MASK32
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def seed_sequence_state(entropy, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for B sequences at once.

    ``entropy`` lists the sequences' uint32 entropy words in order, each a
    Python int or a (B,) uint64 array of values below 2**32, so all B
    sequences have the same number of words.  Returns (n_words, B) uint64.
    The steps are numpy's, with each step's independent ``hashmix`` calls
    run as one array operation: the hash constant advances by a fixed chain.
    """
    n_entropy = len(entropy)
    shape = np.broadcast_shapes(*map(np.shape, entropy))
    words = np.zeros((max(n_entropy, _POOL_SIZE),) + shape, dtype=np.uint64)
    for i, word in enumerate(entropy):
        words[i] = word
    n_hashes = _POOL_SIZE ** 2 + _POOL_SIZE * max(0, n_entropy - _POOL_SIZE)
    chain = _hash_chain(_INIT_A, _MULT_A, n_hashes)
    # the first words (zeros past the entropy) fill the pool
    pool = _hashmix(words[:_POOL_SIZE], chain[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    # every pool word is mixed into every other
    for i_src in range(_POOL_SIZE):
        others = [i for i in range(_POOL_SIZE) if i != i_src]
        hashed = _hashmix(pool[i_src], chain[k:k + _POOL_SIZE])
        pool[others] = _mix(pool[others], hashed)
        k += _POOL_SIZE - 1
    # entropy beyond the pool size is mixed into every pool word
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, chain[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    cycled = pool[[i % _POOL_SIZE for i in range(2 * n_words)]]
    out = _hashmix(cycled, _hash_chain(_INIT_B, _MULT_B, 2 * n_words))
    # uint32 pairs read as little-endian uint64
    return out[0::2] | (out[1::2] << 32)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High words of the 128-bit products a * b of a uint64 array and an int below 2**64.

    Each operand is split into 32-bit halves, so no partial product exceeds
    64 bits.
    """
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross_a, cross_b = a1 * b0, a0 * b1
    mid = (a0 * b0 >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)


def pcg64_states(seeds) -> tuple[list[int], list[int]]:
    """The 128-bit (state, inc) of ``PCG64(seed)`` per uint64 seed, as Python ints.

    ``SeedSequence(seed)`` gives four uint64 words, read as initstate =
    (w0, w1) and initseq = (w2, w3), high word first.  PCG64 then sets inc =
    2 initseq + 1 and state = (inc + initstate) * multiplier + inc, mod
    2**128.  A seed below 2**32 is one entropy word and any other two, but
    SeedSequence fills a short pool with hashed zero words, so every seed is
    hashed as (low word, high word).  The arithmetic runs on uint64 arrays
    of high and low words, which wrap mod 2**64: a carry out of a low-word
    sum is the comparison sum < addend, and the high word of a low-word
    product comes from ``_mulhi``.  Python ints are built only for the
    result, which is what ``bitgen.state`` takes.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not seeds.size:
        return [], []
    w0, w1, w2, w3 = seed_sequence_state([seeds & _MASK32, seeds >> 32], 4)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi + (x_lo < inc_lo)
    product_hi = _mulhi(x_lo, _PCG64_MULT_LO) + x_lo * _PCG64_MULT_HI + x_hi * _PCG64_MULT_LO
    state_lo = x_lo * _PCG64_MULT_LO + inc_lo
    state_hi = product_hi + inc_hi + (state_lo < inc_lo)
    states = [hi << 64 | lo for hi, lo in zip(state_hi.tolist(), state_lo.tolist())]
    return states, [hi << 64 | lo for hi, lo in zip(inc_hi.tolist(), inc_lo.tolist())]


def unit_gaussian_rows(seeds, width: int) -> np.ndarray:
    """One row per seed: v / |v| for v of ``width`` complex Gaussians, shape (B, width).

    Row b is what ``default_rng(seeds[b])`` gives with two ``normal(size=width)``
    calls, real parts first, then ``v / np.linalg.norm(v)``, bit for bit.  One
    PCG64 local to the call, seeded with the first seed, fills each row in
    place with one ``standard_normal(out=row)`` call (``normal(size=2 *
    width)`` returns ``0.0 + 1.0 * x`` of the same draws); before every
    later row it is set to that seed's start state from ``pcg64_states``.
    So a batch of one costs what ``default_rng`` does.
    The norm is ``np.linalg.norm``'s own complex formula, sqrt(re.re +
    im.im), with each square sum one stacked (1, width) @ (width, 1) matmul
    over the rows.  The operands must be the strided views ``v.real`` and
    ``v.imag``: a stacked matmul of them makes the same strided BLAS dot per
    row as ``np.linalg.norm`` does, while a contiguous copy (or a sum over
    the last axis) is summed in another order.  Checked byte for byte on
    numpy 2.4.6 (scipy-openblas) for widths 1-11, 16, 17, 32, 128 and 1024
    and batches of 1, 2, 45 and 250 rows.
    ``seeds`` is a nonempty sequence of ints in [0, 2**64);
    ``tests/test_seed_streams.py`` holds the rows to ``default_rng`` and
    ``np.linalg.norm`` byte for byte.
    """
    draws = np.empty((len(seeds), 2 * width))
    bitgen = np.random.PCG64(seeds[0])
    gen = np.random.Generator(bitgen)
    gen.standard_normal(out=draws[0])
    stream = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    states, incs = pcg64_states(seeds[1:])
    for row, state, inc in zip(draws[1:], states, incs):
        stream["state"], stream["inc"] = state, inc
        bitgen.state = full_state
        gen.standard_normal(out=row)
    v = draws[:, :width] + 1j * draws[:, width:]
    re2, im2 = [(x[:, None, :] @ x[:, :, None])[:, 0, 0] for x in (v.real, v.imag)]
    return v / np.sqrt(re2 + im2)[:, None]


def haar_amplitudes(n_qubits: int, seeds) -> np.ndarray:
    """The (B, 2**n) amplitudes of ``haar_random_state(n_qubits, seed)`` per seed, unchecked.

    The one definition of the Haar draw: normalized independent complex
    Gaussians from ``default_rng(seed)``, computed for a whole batch of seeds
    by ``unit_gaussian_rows`` with no Generator per seed.  Campaigns use the
    stack as it is; ``n_qubits`` must already lie in [1, MAX_QUBITS].
    """
    return unit_gaussian_rows(seeds, 2**n_qubits)


def haar_random_state(n_qubits: int, seed: int) -> StateVector:
    """Haar-random pure state via normalized independent complex Gaussians.

    Deterministic for a fixed seed in [0, 2**64): the one-row case of
    ``haar_amplitudes``.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SizeError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    return StateVector(haar_amplitudes(n_qubits, [seed])[0])


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_mixed_state(n_qubits: int, rank: int, seed: int) -> DensityMatrix:
    """Induced-measure mixed state: trace an ancilla out of a Haar pure state."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SizeError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    if rank < 1:
        raise SizeError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    v = v / np.linalg.norm(v)
    mat = v @ v.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat / np.trace(mat).real, default_labels(n_qubits))


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

JSON_NORM_ATOL = 1e-9


def state_from_dict(data: dict) -> StateVector:
    """Build a StateVector from the JSON wire format.

    Expected keys: ``n_qubits``, ``labels`` and ``amplitudes`` as
    ``[[re, im], ...]`` in tensor order.  Qubit counts that are not
    integers (``is_int``: not ``3.0``, ``"3"`` or ``true``) or lie outside
    [1, MAX_QUBITS], wrong-length arrays, non-finite amplitudes, real or
    imaginary parts above 1 + 1e-9 in modulus and norms outside 1 +/- 1e-9
    are rejected.  The amplitudes are divided by their norm only where
    StateVector would reject them, so a saved state loads back as itself.
    """
    try:
        n = data["n_qubits"]
        labels = tuple(str(x) for x in data["labels"])
        pairs = np.asarray(data["amplitudes"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoError(f"malformed state record: {exc}") from exc
    if not is_int(n):
        raise IoError(f"n_qubits must be an integer, got {n!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise IoError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n}")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] != 2**n:
        raise IoError(f"expected {2**n} [re, im] amplitude pairs, got shape {pairs.shape}")
    if len(labels) != n:
        raise IoError(f"expected {n} labels, got {len(labels)}")
    if not np.all(np.isfinite(pairs)):
        raise IoError("amplitudes must be finite numbers")
    # no real or imaginary part of a unit vector exceeds 1; checked before
    # the norm, whose squares overflow on huge amplitudes
    largest = float(np.max(np.abs(pairs)))
    if largest > 1.0 + JSON_NORM_ATOL:
        raise IoError(f"amplitude component of modulus {largest!r} exceeds 1 + {JSON_NORM_ATOL}")
    amps = pairs[:, 0] + 1j * pairs[:, 1]
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > JSON_NORM_ATOL:
        raise IoError(f"state norm {norm!r} outside 1 +/- {JSON_NORM_ATOL}")
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > NORM_ATOL:
        amps = amps / norm
    return StateVector(amps, labels)


def state_to_dict(psi: StateVector) -> dict:
    amps = psi.amplitudes
    return {
        "n_qubits": psi.n_qubits,
        "labels": list(psi.labels),
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }


def load_state(path) -> StateVector:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read state file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, an oversized integer
        raise IoError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_dict(data)


def save_state(psi: StateVector, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state_to_dict(psi), fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write state file {path}: {exc}") from exc
