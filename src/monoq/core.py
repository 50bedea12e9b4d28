"""Dense complex linear algebra for small multi-qubit systems.

States use the convention that the first label ("A") is the leftmost tensor
factor: bit i of a basis index, counted from the most significant bit,
addresses qubit i.  All structures are immutable values; random generation is
seeded explicitly and never touches global RNG state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    HermiticityError,
    InvalidSubsystemError,
    IoError,
    NormalizationError,
    PositivityError,
    SizeError,
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
        yield np.moveaxis(tensor, (1, 1 + q), (1, 2)).reshape(b, 4, -1)


def pair_marginal_stack(amplitudes: np.ndarray) -> np.ndarray:
    """Two-qubit marginals of a stack of pure states, shape (B, n-1, 4, 4).

    ``amplitudes`` is (B, 2**n).  Entry [b, k] is the marginal of state b on
    the first qubit (first factor) and qubit k + 1 (second factor),
    contracted straight from the amplitudes: rho = M M^H of ``pair_blocks``
    is summed over K pairwise, last traced qubit first.  That is the order
    ``partial_trace`` sums the projector in, so the entries equal the dense
    route's, without forming a 2^n x 2^n matrix or validating anything.
    """
    b, n = amplitudes.shape[0], int(amplitudes.shape[1]).bit_length() - 1
    out = np.empty((b, n - 1, 4, 4), dtype=complex)
    for k, block in enumerate(pair_blocks(amplitudes)):
        m = block[:, :, None, :]
        terms = m * m.conj().transpose(0, 2, 1, 3)
        while terms.shape[-1] > 1:
            terms = terms[..., 0::2] + terms[..., 1::2]
        out[:, k] = terms[..., 0]
    return out


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
    front = np.moveaxis(tensor, [1 + q for q in part], list(range(1, 1 + len(part))))
    matrix = front.reshape(b, 2 ** len(part), -1)
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
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of a hash constant, (count + 1, 1): init, init * mult, ..."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint64)[:, None]


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


def pcg64_states(seeds) -> tuple[list[int], list[int]]:
    """The 128-bit (state, inc) of ``PCG64(seed)`` per uint64 seed, as Python ints.

    ``SeedSequence(seed)`` gives four uint64 words, read as initstate =
    (w0, w1) and initseq = (w2, w3), high word first.  PCG64 then sets inc =
    2 initseq + 1 and state = (inc + initstate) * multiplier + inc, mod
    2**128.  A seed below 2**32 is one entropy word and any other two, but
    SeedSequence fills a short pool with hashed zero words, so every seed is
    hashed as (low word, high word).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not seeds.size:
        return [], []
    w0, w1, w2, w3 = seed_sequence_state([seeds & _MASK32, seeds >> 32], 4).astype(object)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULTIPLIER + inc) & _MASK128
    return state.tolist(), inc.tolist()


def unit_gaussian_rows(seeds, width: int) -> np.ndarray:
    """One row per seed: v / |v| for v of ``width`` complex Gaussians, shape (B, width).

    Row b is what ``default_rng(seeds[b])`` gives with two ``normal(size=width)``
    calls, real parts first, then ``v / np.linalg.norm(v)``, bit for bit.  One
    PCG64 local to the call, seeded with the first seed, draws each row in
    one ``normal(size=2 * width)`` call; before every later row it is set to
    that seed's start state from ``pcg64_states``.  So a batch of one costs
    what ``default_rng`` does.  The norm stays per row and is
    ``np.linalg.norm``'s own complex formula, sqrt(re.re + im.im) as two
    BLAS dots on the row's strided real and imaginary views, without its
    wrapper; a stacked sum would not keep the dots' summation order.
    ``seeds`` is a nonempty sequence of ints in [0, 2**64);
    ``tests/test_seed_streams.py`` holds the rows to ``default_rng`` and
    ``np.linalg.norm`` byte for byte.
    """
    draws = np.empty((len(seeds), 2 * width))
    bitgen = np.random.PCG64(seeds[0])
    gen = np.random.Generator(bitgen)
    draws[0] = gen.normal(size=2 * width)
    stream = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    states, incs = pcg64_states(seeds[1:])
    for row, state, inc in zip(draws[1:], states, incs):
        stream["state"], stream["inc"] = state, inc
        bitgen.state = full_state
        row[:] = gen.normal(size=2 * width)
    v = draws[:, :width] + 1j * draws[:, width:]
    norms = np.sqrt([row.real.dot(row.real) + row.imag.dot(row.imag) for row in v])
    return v / norms[:, None]


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
    ``[[re, im], ...]`` in tensor order.  Qubit counts outside
    [1, MAX_QUBITS], wrong-length arrays, non-finite amplitudes, real or
    imaginary parts above 1 + 1e-9 in modulus and norms outside 1 +/- 1e-9
    are rejected.  The amplitudes are divided by their norm only where
    StateVector would reject them, so a saved state loads back as itself.
    """
    try:
        n = int(data["n_qubits"])
        labels = tuple(str(x) for x in data["labels"])
        pairs = np.asarray(data["amplitudes"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IoError(f"malformed state record: {exc}") from exc
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
