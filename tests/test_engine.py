"""Campaign margins from the amplitude-stack engine against the dense route.

Campaigns read every state's features (pair marginals, Wootters lambdas and
the focus-vs-rest Schmidt spectrum) from a stack of amplitudes.  Here each
margin is recomputed the dense way: the 2^n x 2^n projector |psi><psi|,
partial traces of it by einsum, eigenvalues of the reduced state for the cut,
and Wootters concurrence or assistance of each 4x4 marginal.  The ordering
hypothesis is decided again from those values, with W-class tails in closed
form.  Margins must agree within 1e-12, relative to the weighted right side
when that exceeds 1 (ladder weights (2^mu - 1)^k grow large).  The engine's
pair values f_alpha(C^2) are also checked against the decomposition-search
oracle, which never reads the analytic formula.

The campaign's fast path is also held bit for bit to the public per-state
route: the features of its sampled chunks to those of ``haar_random_state``
and ``random_wclass`` states (``tests/test_seed_streams.py`` holds the draws
to ``default_rng``), and its witness CSV rows to the reports of
``ckw_check``, ``lemma1_check``, ``theorem_bound`` and ``theorem3_bound``.
"""

import io
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import (
    FULL,
    AlphaMu,
    CampaignConfig,
    DensityMatrix,
    WitnessRecord,
    ckw_check,
    coa_two_qubit,
    convex_roof_oracle,
    detect_ordering,
    f_alpha,
    haar_random_state,
    lemma1_check,
    random_wclass,
    renyi_entropy,
    run_campaign,
    theorem3_bound,
    theorem_bound,
    wclass_from_state,
    weight_ladder,
    wootters_concurrence,
)
from monoq import harness
from monoq.harness import derive_seeds
from monoq.measures import PureFeatures

ALPHAS = (0.8229, 1.3027)
ATOL = 1e-12


def _reduced(psi, keep) -> np.ndarray:
    """Marginal of the projector on the qubit axes ``keep`` (in that order)."""
    n = psi.n_qubits
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape((2,) * (2 * n))
    rows = string.ascii_lowercase[:n]
    cols = [rows[q].upper() if q in keep else rows[q] for q in range(n)]
    out = "".join(rows[q] for q in keep) + "".join(cols[q] for q in keep)
    d = 2 ** len(keep)
    return np.einsum(f"{rows}{''.join(cols)}->{out}", rho).reshape(d, d)


def _dense(psi):
    """(cut spectrum, pair concurrences, pair CoAs) around qubit 0, partners in order."""
    cut = np.clip(np.linalg.eigvalsh(_reduced(psi, (0,))), 0.0, None)
    pairs = [DensityMatrix(_reduced(psi, (0, q))) for q in range(1, psi.n_qubits)]
    return cut, [wootters_concurrence(r) for r in pairs], [coa_two_qubit(r) for r in pairs]


def _ladder(psi, pairs):
    """(party order, split) of the ordering hypothesis, or None when it fails."""
    n = psi.n_qubits
    order = sorted(range(n - 1), key=lambda k: -pairs[k])
    if n == 3:
        tails = [pairs[order[1]]]
    else:
        w = wclass_from_state(psi)
        b2 = [abs(w.b[k]) ** 2 for k in order]
        tails = [2 * abs(w.a) * np.sqrt(sum(b2[i + 1:])) for i in range(n - 2)]
    ge = [pairs[order[i]] >= tails[i] - 1e-12 for i in range(n - 2)]
    le = [pairs[order[i]] <= tails[i] + 1e-12 for i in range(n - 2)]
    if all(ge):
        return order, FULL
    for m in range(n - 3, 0, -1):
        if all(ge[:m]) and all(le[m:]):
            return order, m
    return None


def _dense_margins(mode, psi, cells):
    """[(margin, scale)] per cell of ``psi``, or None when its hypothesis fails."""
    cut, pairs, coas = _dense(psi)
    c2_cut = 2.0 * (1.0 - np.sum(cut**2))
    if mode == "ckw":
        rhs = sum(c * c for c in pairs)
        return [(c2_cut - rhs, rhs)]
    if mode == "lemma1":
        c1, c2 = sorted(pairs, reverse=True)
        out = []
        for _, x in cells:
            rhs = c1**x + (2 ** (x / 2) - 1) * c2**x
            out.append((c2_cut ** (x / 2) - rhs, rhs))
        return out
    ladder = _ladder(psi, pairs)
    if ladder is None:
        return None
    order, split = ladder
    terms = coas if mode == "polygamy" else pairs
    out = []
    for alpha, mu in cells:
        weights = weight_ladder(psi.n_qubits, split, mu)
        rhs = sum(w * f_alpha(terms[k] ** 2, alpha) ** mu for w, k in zip(weights, order))
        lhs = renyi_entropy(cut, alpha) ** mu
        out.append((rhs - lhs if mode == "polygamy" else lhs - rhs, rhs))
    return out


CASES = (
    [("ckw", "haar", n, 4 if n < 8 else 2, (2.0,)) for n in range(3, 11)]
    + [
        ("lemma1", "haar", 3, 20, (2.0, 3.0, 4.0)),
        ("monogamy", "haar", 3, 20, (2.0, 3.0, 5.0)),
    ]
    + [("monogamy", "wclass", n, 40, (2.0, 5.0)) for n in range(4, 8)]
    + [("polygamy", "wclass", n, 40, (0.25, 1.0)) for n in range(3, 7)]
)


@pytest.mark.parametrize(
    "mode, state_class, n_qubits, n_states, mu_grid",
    CASES,
    ids=[f"{c[0]}-{c[1]}-q{c[2]}" for c in CASES],
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_campaign_margins_match_dense_route(mode, state_class, n_qubits, n_states, mu_grid, seed):
    config = CampaignConfig(
        mode=mode, n_states=n_states, n_qubits=n_qubits, seed=seed, state_class=state_class,
        alpha_grid=ALPHAS, mu_grid=mu_grid,
    )
    result = run_campaign(config)
    by_index: dict = {}
    for record in result.records:
        by_index.setdefault(record.index, []).append(record)
    cells = {index: [(r.alpha, r.mu) for r in records] for index, records in by_index.items()}
    n_satisfied = 0
    for index, state_seed in enumerate(derive_seeds(seed, 0, n_states).tolist()):
        if state_class == "haar":
            psi = haar_random_state(n_qubits, state_seed)
        else:
            psi = random_wclass(n_qubits, state_seed).to_state_vector()
        expected = _dense_margins(mode, psi, cells.get(index, [(a, m) for a in ALPHAS for m in mu_grid]))
        if expected is None:
            assert index not in by_index
            continue
        assert index in by_index
        n_satisfied += 1
        for record, (margin, scale) in zip(by_index[index], expected, strict=True):
            assert abs(record.margin - margin) <= ATOL * max(1.0, abs(scale)), (record, margin)
    assert result.n_satisfied == n_satisfied


def test_pair_values_match_decomposition_search():
    # pair marginals of 3-qubit pure states have rank <= 2; the oracle bounds
    # the convex roof from above and should close in on f_alpha(C^2)
    for k in range(20):
        psi = haar_random_state(3, seed=7000 + k)
        alpha = ALPHAS[k % 2]
        pairs = PureFeatures.of_state(psi).pair_concurrences[0]
        for partner, c in enumerate(pairs, start=1):
            marginal = DensityMatrix(_reduced(psi, (0, partner)))
            excess = convex_roof_oracle(marginal, alpha, n_trials=3000, seed=k) - f_alpha(c * c, alpha)
            assert -1e-9 <= excess <= 1e-3, (k, partner, excess)


@pytest.mark.parametrize(
    "state_class, n_qubits",
    [("haar", n) for n in range(2, 11)] + [("wclass", n) for n in range(3, 11)],
)
def test_sampled_stacks_match_public_constructors(state_class, n_qubits, monkeypatch):
    # three states per chunk, so rows come from several chunks; W-class chunks
    # come from coefficients, the public route from the expanded state
    monkeypatch.setattr(harness, "CHUNK_AMPLITUDES", 3 * harness._DRAW_WIDTH[state_class](n_qubits))
    config = CampaignConfig(mode="ckw" if state_class == "haar" else "monogamy", n_states=7,
                            n_qubits=n_qubits, seed=50 + n_qubits, state_class=state_class)
    indices = []
    for start, seeds, feats in harness._sampled_chunks(config):
        assert feats.cut_probs.shape == (len(seeds), 2)
        assert feats.pair_lambdas.shape == (len(seeds), n_qubits - 1, 4)
        for k, seed in enumerate(seeds):
            indices.append(start + k)
            assert type(seed) is int
            assert seed == int(np.random.SeedSequence([config.seed, start + k]).generate_state(1, np.uint64)[0])
            if state_class == "haar":
                psi = haar_random_state(n_qubits, seed)
            else:
                psi = random_wclass(n_qubits, seed).to_state_vector()
            expected = PureFeatures.of_state(psi)
            assert feats.cut_probs[k].tobytes() == expected.cut_probs[0].tobytes()
            assert feats.pair_lambdas[k].tobytes() == expected.pair_lambdas[0].tobytes()
    assert indices == list(range(7))


def _public_records(config):
    """The witness records of ``config``, each from a public per-state bound function."""
    for index, seed in enumerate(derive_seeds(config.seed, 0, config.n_states).tolist()):
        if config.state_class == "haar":
            psi = haar_random_state(config.n_qubits, seed)
        else:
            psi = random_wclass(config.n_qubits, seed).to_state_vector()
        reports = []
        if config.mode == "ckw":
            reports = [ckw_check(psi)]
        elif config.mode == "lemma1":
            reports = [lemma1_check(psi, mu) for mu in config.mu_grid]
        else:
            profile = detect_ordering(psi)
            if not profile.satisfied:
                continue
            bound = theorem3_bound if config.mode == "polygamy" else theorem_bound
            reports = [bound(psi, profile, AlphaMu(alpha, mu))
                       for alpha in config.alpha_grid for mu in config.mu_grid]
        for report in reports:
            yield WitnessRecord(
                index=index, mode=config.mode, state_class=config.state_class,
                n_qubits=config.n_qubits, state_seed=seed, alpha=report.alpha, mu=report.mu,
                lhs=report.lhs, rhs=report.rhs, margin=report.margin,
                baseline_rhs=report.baseline_rhs,
            )


@pytest.mark.parametrize(
    "mode, state_class, n_qubits, n_states",
    [("ckw", "haar", 3, 40), ("lemma1", "haar", 3, 40), ("monogamy", "haar", 3, 40)]
    + [(mode, "wclass", n, 60) for mode in ("monogamy", "polygamy") for n in (3, 4, 5, 6, 7)],
)
def test_campaign_rows_match_public_route(mode, state_class, n_qubits, n_states):
    config = CampaignConfig(mode=mode, n_states=n_states, n_qubits=n_qubits, seed=60 + n_qubits,
                            state_class=state_class)
    out = io.StringIO()
    run_campaign(config).write_records_csv(out)
    header, *lines = out.getvalue().splitlines()
    assert header == ",".join(WitnessRecord.CSV_COLUMNS)
    expected = [",".join(record.to_csv_row()) for record in _public_records(config)]
    assert expected
    assert lines == expected
