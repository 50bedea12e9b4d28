"""Closed-form features of single-excitation (W-class) states.

A row of n >= 3 qubits whose amplitudes are exactly 0 off the one-hot
indices is a W-class state a|10..0> + sum_i b_i |0..1_i..0>.
``PureFeatures.of`` gives it the cut probabilities (|a|^2, sum_i |b_i|^2),
in descending order, and the pair lambdas (2|a||b_i|, 0, 0, 0), with no SVD,
no pair marginal and no ``eigh``.  Here the closed form is held to:

- a dense reference within 1e-12 at 3-10 qubits: the SVD of the reshaped
  amplitudes for the cut, and for each pair the singular values of
  T = M^T (YY) M of its full 4 x K amplitude block M;
- one value 2|a||b_i| for each pair's concurrence and concurrence of
  assistance, bit for bit the value of ``WClassState.pair_concurrence``;
- the rest of its stack: in a stack that mixes W-class and Haar rows, each
  row equals that state alone, byte for byte;
- every route that reads W-class features: campaigns, replay, the public
  bound functions, ``eval`` and file-class campaigns call none of
  ``np.linalg.svd``/``eigh``/``eigvalsh``/``qr``;
- seeded campaigns and their replay: features straight from the (B, n)
  coefficients, never from a 2**n amplitude stack;
- the public cut measures: the first-qubit cut, either side named, reads the
  same features as ``reoa_cut`` and the bounds, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import (
    ALPHA_WINDOW,
    AlphaMu,
    CampaignConfig,
    PreconditionError,
    StateVector,
    WClassState,
    WitnessRecord,
    build_wclass,
    concurrence_pure,
    detect_ordering,
    haar_random_state,
    load_state,
    random_wclass,
    renyi_entanglement_pure,
    reoa_cut,
    replay_record,
    run_campaign,
    save_state,
    theorem3_bound,
    theorem_bound,
)
from monoq import measures
from monoq.cli import main
from monoq.harness import derive_seeds
from monoq.core import MAX_QUBITS, haar_amplitudes, pair_blocks, schmidt_probabilities
from monoq.measures import PureFeatures, _YY
from monoq.wclass import onehot_indices, single_excitation_rows

# moduli with exact zeros and near-product values next to ordinary ones
MODULI = st.one_of(st.just(0.0), st.floats(1e-10, 1e-8), st.floats(1e-3, 1.0))
PHASES = st.floats(0.0, 2.0 * np.pi)


@st.composite
def w_coefficients(draw, n=None):
    """(a, b_1..b_{n-1}): unit norm, any phases, a = 0 and b_i = 0 included."""
    n = draw(st.integers(3, MAX_QUBITS)) if n is None else n
    moduli = np.array(draw(st.lists(MODULI, min_size=n, max_size=n)))
    if draw(st.booleans()):
        moduli[0] = draw(st.sampled_from([0.0, 1e-9, 1.0]))
    if not np.any(moduli):
        moduli[draw(st.integers(0, n - 1))] = 1.0
    coeffs = moduli * np.exp(1j * np.array(draw(st.lists(PHASES, min_size=n, max_size=n))))
    return coeffs / np.linalg.norm(coeffs)


def _amplitudes(coeffs) -> np.ndarray:
    n = len(coeffs)
    amps = np.zeros((1, 2**n), dtype=complex)
    amps[0, onehot_indices(n)] = coeffs
    return amps


def _dense_lambdas(amplitudes) -> np.ndarray:
    """Four largest singular values of M^T (YY) M for each pair's full 4 x K block."""
    m = np.stack(list(pair_blocks(amplitudes)), axis=1)
    t = np.swapaxes(m, -1, -2) @ _YY @ m
    sv = np.linalg.svd(t, compute_uv=False)
    out = np.zeros(sv.shape[:-1] + (4,))
    width = min(4, sv.shape[-1])
    out[..., :width] = sv[..., :width]
    return out


@settings(max_examples=60, deadline=None)
@given(coeffs=w_coefficients())
def test_closed_form_matches_dense_route(coeffs):
    amps = _amplitudes(coeffs)
    assert single_excitation_rows(amps).tolist() == [True]
    feats = PureFeatures.of(amps)
    dense_cut = schmidt_probabilities(amps, (0,))
    np.testing.assert_allclose(feats.cut_probs, dense_cut, rtol=0, atol=1e-12)
    np.testing.assert_allclose(feats.pair_lambdas, _dense_lambdas(amps), rtol=0, atol=1e-12)
    assert feats.cut_probs[0, 0] >= feats.cut_probs[0, 1]


@settings(max_examples=60, deadline=None)
@given(coeffs=w_coefficients())
def test_pair_values_are_exactly_two_a_b(coeffs):
    # C and CoA of a W-class pair are one number, 2|a||b_i|, with no rounding
    # left over from a spectrum; near-product pairs (|b_i| ~ 1e-9) included
    feats = PureFeatures.of(_amplitudes(coeffs))
    pairs = feats.pair_concurrences[0]
    assert pairs.tobytes() == feats.pair_coas[0].tobytes()
    assert not np.any(feats.pair_lambdas[0, :, 1:])
    # the value WClassState.pair_concurrence gives, bit for bit
    w = WClassState(coeffs[0], tuple(coeffs[1:]))
    assert pairs.tolist() == [w.pair_concurrence(i) for i in range(1, len(coeffs))]
    # and within rounding of the correctly rounded moduli (math.hypot)
    moduli = np.array([math.hypot(z.real, z.imag) for z in coeffs])
    np.testing.assert_allclose(pairs, 2.0 * moduli[0] * moduli[1:], rtol=5e-16, atol=0)
    cut = sorted([moduli[0] ** 2, np.sum(moduli[1:] ** 2)])
    np.testing.assert_allclose(sorted(feats.cut_probs[0]), cut, rtol=0, atol=5e-16)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 8))
def test_mixed_stack_rows_equal_batches_of_one(data, n):
    # the closed-form rows and the dense rows of one stack are computed apart,
    # and neither depends on the other rows
    kinds = data.draw(st.lists(st.booleans(), min_size=1, max_size=7))
    rows = [
        _amplitudes(data.draw(w_coefficients(n)))[0] if wclass
        else haar_amplitudes(n, [data.draw(st.integers(0, 2**64 - 1))])[0]
        for wclass in kinds
    ]
    stack = np.array(rows)
    assert single_excitation_rows(stack).tolist() == kinds
    feats = PureFeatures.of(stack)
    for row in range(len(rows)):
        alone = PureFeatures.of(stack[row:row + 1])
        assert alone.cut_probs[0].tobytes() == feats.cut_probs[row].tobytes()
        assert alone.pair_lambdas[0].tobytes() == feats.pair_lambdas[row].tobytes()


def test_single_excitation_rows():
    w = random_wclass(4, seed=1).to_state_vector().amplitudes
    off = w.copy()
    off[3] = 1e-300  # any weight off the one-hot indices, however small, is not W-class
    first = w.copy()
    first[0] = 1e-300
    stack = np.array([w, off, first, haar_amplitudes(4, [5])[0]])
    assert single_excitation_rows(stack).tolist() == [True, False, False, False]
    # two qubits: a|10> + b|01> is no W-class state of the bounds
    bell = np.array([[0.0, 1.0, 1.0, 0.0]]) / np.sqrt(2.0)
    assert single_excitation_rows(bell).tolist() == [False]


@pytest.fixture
def no_spectra(monkeypatch):
    """Fail on any SVD, eigendecomposition or QR."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on single-excitation input")
        return call

    for name in ("svd", "eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))


@pytest.mark.parametrize("n", range(3, MAX_QUBITS + 1))
def test_features_take_no_spectra(n, no_spectra):
    amps = np.array([random_wclass(n, seed).to_state_vector().amplitudes for seed in range(5)])
    PureFeatures.of(amps)


def test_every_route_takes_no_spectra(no_spectra, tmp_path, capsys):
    for mode, ns, mu in (("monogamy", range(3, 9), 2.0), ("polygamy", range(3, 9), 0.5)):
        for n in ns:
            config = CampaignConfig(mode=mode, n_states=40, n_qubits=n, seed=n,
                                    state_class="wclass", mu_grid=(mu,))
            for record in run_campaign(config).records[:3]:
                replay_record(record)
    _, psi = build_wclass(np.sqrt(0.4), (np.sqrt(0.3), np.sqrt(0.2), np.sqrt(0.1)))
    profile = detect_ordering(psi)
    assert profile.satisfied
    theorem_bound(psi, profile, AlphaMu(0.9, 2.0))
    theorem3_bound(psi, profile, AlphaMu(0.9, 0.5))
    path = tmp_path / "w.json"
    save_state(StateVector(psi.amplitudes, ("W", "X", "Y", "Z")), path)
    for mu in ("2", "0.5"):
        assert main(["eval", str(path), "--mu", mu, "--out", str(tmp_path / "out.json")]) == 0
    for mode in ("monogamy", "polygamy"):
        assert main(["fuzz", "--mode", mode, "--class", "file", "--state", str(path)]) in (0, 1)
        result = run_campaign(CampaignConfig(mode=mode, state_class="file", state_file=str(path)))
        for record in result.records:
            assert replay_record(record, load_state(path)) == record.margin
    capsys.readouterr()


@pytest.mark.parametrize(
    "mode, ns, mu_grid",
    [("monogamy", range(3, 11), (2.0, 5.0)), ("polygamy", range(4, 11), (0.25, 1.0))],
)
def test_seeded_campaigns_and_replay_read_coefficients(mode, ns, mu_grid, monkeypatch):
    # a seeded W-class chunk goes from its (B, n) coefficients to its features:
    # no 2**n amplitude stack is built, so no row is tested for its support
    def detour(*args):
        raise AssertionError("a W-class state was expanded to 2**n amplitudes")

    monkeypatch.setattr(measures, "single_excitation_rows", detour)
    n_records = 0
    for n in ns:
        config = CampaignConfig(mode=mode, n_states=200, n_qubits=n, seed=1900 + n,
                                state_class="wclass", alpha_grid=ALPHA_WINDOW, mu_grid=mu_grid)
        result = run_campaign(config)
        for record in result.records:
            assert replay_record(record) == record.margin
        n_records += result.n_records
        if not result.n_records:  # wide states rarely pass; replay still draws the first one
            seed = int(derive_seeds(config.seed, 0, 1)[0])
            record = WitnessRecord(0, mode, "wclass", n, seed, ALPHA_WINDOW[0], mu_grid[0],
                                   0.0, 0.0, 0.0, 0.0)
            with pytest.raises(PreconditionError):
                replay_record(record)
    assert n_records


@pytest.mark.parametrize("n", range(3, 9))
def test_public_cut_measures_read_the_features(n):
    # either side of the first-qubit cut gives the value every bound reads
    states = [random_wclass(n, seed).to_state_vector() for seed in range(40)]
    states += [haar_random_state(n, seed) for seed in range(4)]
    for psi in states:
        cut_c = float(PureFeatures.of_state(psi).cut_concurrence[0])
        for part in ({psi.labels[0]}, set(psi.labels[1:])):
            assert concurrence_pure(psi, part).hex() == cut_c.hex()
            for alpha in (*ALPHA_WINDOW, 0.5, 1.0, 2.0):
                assert renyi_entanglement_pure(psi, part, alpha).hex() == reoa_cut(psi, alpha).hex()


def test_public_cut_measures_build_no_pair_lambdas(monkeypatch):
    # the cut reads take the features' cut code alone: no pair lambdas, no QR
    states = [haar_random_state(n, seed=n) for n in range(2, MAX_QUBITS + 1)]
    states += [random_wclass(n, seed=n).to_state_vector() for n in range(3, MAX_QUBITS + 1)]
    expected = [PureFeatures.of_state(psi) for psi in states]

    def refuse(*args, **kwargs):
        raise AssertionError("a cut read built pair lambdas")

    monkeypatch.setattr(measures, "_basis_lambdas", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    for psi, feats in zip(states, expected):
        for part in ({psi.labels[0]}, set(psi.labels[1:])):
            assert concurrence_pure(psi, part) == feats.cut_concurrence[0]
            assert renyi_entanglement_pure(psi, part, 0.9) == measures.renyi_entropy(feats.cut_probs[0], 0.9)
        assert reoa_cut(psi, 0.9) == measures.renyi_entropy(feats.cut_probs[0], 0.9)
