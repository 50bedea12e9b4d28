"""Spin-flip lambdas of pure states straight from their amplitude blocks.

``PureFeatures.of`` reads the lambdas of each pair (first qubit, qubit q)
from a factor of the pair's marginal M M^H, where M is the pair's 4 x K
amplitude block (K = 2**(n-2)).  Up to 4 qubits the factor is M^H itself and
the lambdas are the singular values of T = M^T (YY) M, padded with zeros to
four.  From 5 qubits on it is the 4 x 4 R of the thin QR M^H = QR.  This is
the factor route.  It builds no marginal and calls no ``eigh`` at any n.
Here it is held to:

- the singular values of T accumulated in 80-bit precision, within 2e-15 up
  to 4 qubits and 1e-14 at 5-10 qubits;
- the eigen-factor route (``_spin_flip_lambdas`` of ``pair_marginal_stack``),
  which stays in use for mixed states;
- exact values on states whose lambdas are known in closed form, also after
  random local unitaries (which leave every pair's lambdas unchanged);
- ``np.linalg.svd`` for the closed form of a 2x2 complex symmetric matrix.

The eigen route itself is the noisier one.  It takes square roots of
eigenvalues that sit at the rounding floor, and on 20,000 Haar states per
qubit count it strayed from the 80-bit reference by up to 2e-14 (2 qubits)
and 6e-14 (3 qubits).  On near-product pairs it strays by about 1e-8.  So it
is compared within 1e-12 on Haar states, the tolerance of the dense-route
tests in ``test_engine``; everywhere else within 1e-14.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import core, harness, measures
from monoq.core import haar_amplitudes, haar_random_unitary, pair_blocks
from monoq.measures import PureFeatures, _spin_flip_lambdas, _symmetric_2x2_singular_values, _YY
from monoq.wclass import onehot_indices, wclass_coefficients

SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)


def pair_marginal_stack(amplitudes):
    """Two-qubit marginals (B, n-1, 4, 4) of the first qubit and each other qubit of a (B, 2**n) stack.

    rho = M M^H of ``pair_blocks`` is summed over K pairwise, last traced
    qubit first: the order ``partial_trace`` sums the projector in, without
    forming a 2^n x 2^n matrix.
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


def _eigen_route(amplitudes):
    return _spin_flip_lambdas(pair_marginal_stack(amplitudes))


def _extended_reference(amplitudes):
    """Singular values of T = M^T (YY) M, with T summed in 80-bit precision, padded to four."""
    m = np.stack(list(pair_blocks(amplitudes)), axis=1).astype(np.clongdouble)
    t = np.swapaxes(m, -1, -2) @ _YY.astype(np.clongdouble) @ m
    sv = np.linalg.svd(t.astype(complex), compute_uv=False)[..., :4]  # T has rank <= 4
    out = np.zeros(sv.shape[:-1] + (4,))
    out[..., : sv.shape[-1]] = sv
    return out


def _wclass_amplitudes(n_parties, seeds):
    coeffs = wclass_coefficients(n_parties, seeds)
    amps = np.zeros((len(seeds), 2**n_parties), dtype=complex)
    amps[:, onehot_indices(n_parties)] = coeffs
    return coeffs, amps


@settings(max_examples=30, deadline=None)
@given(n_qubits=st.sampled_from([2, 3, 4]), seeds=SEEDS)
def test_haar_factor_route_matches_reference_and_eigen_route(n_qubits, seeds):
    amps = haar_amplitudes(n_qubits, seeds)
    lam = PureFeatures.of(amps).pair_lambdas
    assert lam.shape == (len(seeds), n_qubits - 1, 4)
    np.testing.assert_allclose(lam, _extended_reference(amps), rtol=0, atol=2e-15)
    eigen_atol = 1e-14 if n_qubits == 4 else 1e-12
    np.testing.assert_allclose(lam, _eigen_route(amps), rtol=0, atol=eigen_atol)
    # at most K = 2**(n-2) lambdas are nonzero, and the padding is exact
    assert np.all(lam[..., 2 ** (n_qubits - 2):] == 0.0)


@pytest.mark.parametrize("n_qubits", range(5, 11))
def test_wide_haar_factor_route_matches_reference(n_qubits):
    # from 5 qubits on the factor is R of the thin QR of M^H
    amps = haar_amplitudes(n_qubits, harness.derive_seeds(n_qubits, 0, 4).tolist())
    lam = PureFeatures.of(amps).pair_lambdas
    assert lam.shape == (4, n_qubits - 1, 4)
    np.testing.assert_allclose(lam, _extended_reference(amps), rtol=0, atol=1e-14)
    np.testing.assert_allclose(lam, _eigen_route(amps), rtol=0, atol=1e-12)
    assert np.all(np.diff(lam, axis=-1) <= 0.0)


@settings(max_examples=30, deadline=None)
@given(n_parties=st.sampled_from([3, 4]), seeds=SEEDS)
def test_wclass_factor_route_is_exact(n_parties, seeds):
    # a W-class pair marginal has the single lambda 2|a||b_i|
    coeffs, amps = _wclass_amplitudes(n_parties, seeds)
    lam = PureFeatures.of(amps).pair_lambdas
    np.testing.assert_allclose(lam[..., 0], 2.0 * np.abs(coeffs[:, :1]) * np.abs(coeffs[:, 1:]),
                               rtol=0, atol=2e-15)
    assert np.all(lam[..., 1:] == 0.0)
    np.testing.assert_allclose(lam, _eigen_route(amps), rtol=0, atol=1e-14)
    np.testing.assert_allclose(lam, _extended_reference(amps), rtol=0, atol=2e-15)


def _basis_state(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return amps


def _structured(name, n):
    """(amplitudes, exact lambdas (n-1, 4)) of a state whose pair lambdas are known."""
    exact = np.zeros((n - 1, 4))
    if name == "product":
        return _basis_state(n, 0), exact
    if name == "ghz":
        amps = (_basis_state(n, 0) + _basis_state(n, 2**n - 1)) / np.sqrt(2.0)
        exact[:, :2] = (1.0, 0.0) if n == 2 else (0.5, 0.5)
        return amps, exact
    if name == "w":
        amps = np.zeros(2**n, dtype=complex)
        amps[onehot_indices(n)] = 1.0 / np.sqrt(n)
        exact[:, 0] = 2.0 / n
        return amps, exact
    if name == "bell-first-pair":
        # a Bell pair on the first two qubits: every other pair block is rank one
        amps = (_basis_state(n, 0) + _basis_state(n, 3 << (n - 2))) / np.sqrt(2.0)
        exact[0, 0] = 1.0
        return amps, exact
    # the first qubit in |0>, the rest entangled: every pair has T = 0
    assert name == "bell-after-first"
    amps = (_basis_state(n, 0) + _basis_state(n, 2 ** (n - 1) - 1)) / np.sqrt(2.0)
    return amps, exact


STRUCTURED = [(name, n) for name in ("product", "ghz", "w", "bell-first-pair") for n in (2, 3, 4)]
STRUCTURED += [("bell-after-first", n) for n in (3, 4)]
WIDE_STRUCTURED = [(name, n) for name in ("product", "ghz", "w") for n in range(5, 11)]


def _local_unitaries(amps, n, seed):
    """``amps`` after an independent Haar unitary on every qubit."""
    rng = np.random.default_rng(seed)
    tensor = amps.reshape((2,) * n)
    for q in range(n):
        u = haar_random_unitary(2, rng)
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [q])), 0, q)
    return tensor.reshape(1, -1)


@pytest.mark.parametrize("name, n", STRUCTURED)
def test_structured_states_exact(name, n):
    amps, exact = _structured(name, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zero blocks take no 0/0
        lam = PureFeatures.of(amps[None]).pair_lambdas[0]
    np.testing.assert_allclose(lam, exact, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lam, _eigen_route(amps[None])[0], rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(STRUCTURED), seed=st.integers(0, 2**32 - 1))
def test_structured_states_under_local_unitaries(case, seed):
    name, n = case
    amps, exact = _structured(name, n)
    rotated = _local_unitaries(amps, n, seed)
    np.testing.assert_allclose(PureFeatures.of(rotated).pair_lambdas[0], exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, n", WIDE_STRUCTURED)
def test_wide_structured_states_under_local_unitaries(name, n):
    # the eigen route strayed by about 1e-8 here on product pairs
    amps, exact = _structured(name, n)
    np.testing.assert_allclose(PureFeatures.of(amps[None]).pair_lambdas[0], exact, rtol=0, atol=1e-15)
    for seed in range(5):
        rotated = _local_unitaries(amps, n, 1000 * n + seed)
        np.testing.assert_allclose(PureFeatures.of(rotated).pair_lambdas[0], exact, rtol=0, atol=1e-14)


def _symmetric(a, b, d):
    return np.array([[[a, b], [b, d]]], dtype=complex)


def _assert_matches_svd(t):
    np.testing.assert_allclose(_symmetric_2x2_singular_values(t),
                               np.linalg.svd(t, compute_uv=False), rtol=0, atol=1e-14)


COMPLEX = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=COMPLEX, b=COMPLEX, d=COMPLEX)
def test_closed_form_matches_svd(a, b, d):
    _assert_matches_svd(_symmetric(a, b, d))


@settings(max_examples=100, deadline=None)
@given(u0=COMPLEX, u1=COMPLEX, scale=st.floats(0.0, 1.0))
def test_closed_form_rank_one(u0, u1, scale):
    u = np.array([u0, u1])
    t = scale * np.outer(u, u)[None]
    _assert_matches_svd(t)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0))
def test_closed_form_equal_singular_values(seed, scale):
    # scale * V V^T for a unitary V: both singular values equal scale, where
    # the gap sqrt(F^2 - 4 D^2) would cancel
    v = haar_random_unitary(2, np.random.default_rng(seed))
    t = scale * (v @ v.T)[None]
    _assert_matches_svd(t)
    # T itself carries a few ulps of rounding
    np.testing.assert_allclose(_symmetric_2x2_singular_values(t), [[scale, scale]], rtol=0, atol=4e-15)


def test_closed_form_of_zero_matrices_takes_no_division():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sv = _symmetric_2x2_singular_values(np.zeros((3, 5, 2, 2), dtype=complex))
    assert sv.shape == (3, 5, 2) and np.all(sv == 0.0)


@pytest.mark.parametrize("n_qubits", range(2, 7))
def test_stack_row_equals_batch_of_one(n_qubits):
    seeds = harness.derive_seeds(21, 0, 12).tolist()
    amps = haar_amplitudes(n_qubits, seeds)
    feats = PureFeatures.of(amps)
    for row in range(len(seeds)):
        alone = PureFeatures.of(amps[row:row + 1])
        assert alone.pair_lambdas[0].tobytes() == feats.pair_lambdas[row].tobytes()
        assert alone.cut_probs[0].tobytes() == feats.cut_probs[row].tobytes()


def test_small_states_take_no_marginal_and_no_eigh(monkeypatch):
    # pure states of every size: no eigh, in features and in campaigns; the
    # package has no pure-state marginal builder (the one above is the tests')
    calls = []

    def forbidden(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    assert not hasattr(core, "pair_marginal_stack") and not hasattr(measures, "pair_marginal_stack")
    monkeypatch.setattr(np.linalg, "eigh", forbidden("eigh", np.linalg.eigh))
    for n in range(2, 11):
        PureFeatures.of(haar_amplitudes(n, [1, 2, 3]))
        # ordering profiles need 3 qubits, and Haar ones exactly 3
        runs = [("ckw", "haar")] + [("monogamy", "haar")] * (n == 3) + [("polygamy", "wclass")] * (n > 2)
        for mode, state_class in runs:
            harness.run_campaign(harness.CampaignConfig(mode=mode, n_states=20, n_qubits=n,
                                                        seed=5, state_class=state_class))
    assert calls == []
