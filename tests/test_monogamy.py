import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import (
    FULL,
    AlphaMu,
    DomainError,
    ParameterError,
    PreconditionError,
    StateVector,
    UnsupportedStateClassError,
    WClassState,
    build_wclass,
    ckw_check,
    detect_ordering,
    haar_random_state,
    lemma1_check,
    random_wclass,
    scalar_weight_inequality,
    theorem_bound,
    w_state,
    weight_ladder,
)
from monoq.core import MAX_QUBITS
from monoq.harness import CampaignConfig, reference_schmidt_state, run_campaign
from monoq.measures import ALPHA_WINDOW, MU_MAX, PureFeatures, f_alpha
from monoq.monogamy import BOUNDS, ORDERING_ATOL, Orderings, bound_values, ladder_base, powers

ALPHA_LO, ALPHA_HI = ALPHA_WINDOW
SQRT6_OVER_6 = np.sqrt(6.0) / 6.0


class TestBoundValues:
    def test_terms_are_added_left_to_right(self):
        # sum() of floats compensates from Python 3.12 on and gives 1.0 here
        terms = np.array([[[1e16, 1.0, -1e16]]])
        block = bound_values(np.array([[0.5]]), np.ones_like(terms), terms, upper=False)
        assert block.tolist() == [[[0.5, 0.0, 0.5, 0.0]]]

    def test_weights_margins_and_signed_zeros(self):
        lhs = np.array([[1.0, 2.0]])
        weights = np.array([[[1.0, 3.0], [1.0, 7.0]]])
        terms = np.array([[[0.5, 0.25], [-0.0, -0.0]]])
        lower = bound_values(lhs, weights, terms, upper=False)
        upper = bound_values(lhs, weights, terms, upper=True)
        assert lower[0, 0].tolist() == [1.0, 1.25, -0.25, 0.75]
        assert upper[0, 0].tolist() == [1.0, 1.25, 0.25, 0.75]
        # 0 + (-0.0) is 0.0, as sum() gives it
        assert [math.copysign(1.0, v) for v in lower[0, 1, 1::2]] == [1.0, 1.0]


class TestWeightLadder:
    def test_three_party_full(self):
        np.testing.assert_allclose(weight_ladder(3, FULL, 2.0), [1.0, 3.0])

    def test_full_ladder_general(self):
        np.testing.assert_allclose(weight_ladder(5, FULL, 2.0), [1.0, 3.0, 9.0, 27.0])

    def test_split_ladder_four_parties(self):
        # split at m=1: head (2^mu-1)^0, middle block (2^mu-1)^(m+1), last (2^mu-1)^m
        np.testing.assert_allclose(weight_ladder(4, 1, 2.0), [1.0, 9.0, 3.0])

    def test_split_ladder_six_parties(self):
        base = 2.0**3 - 1.0
        expected = [1.0, base, base**3, base**3, base**2]
        np.testing.assert_allclose(weight_ladder(6, 2, 3.0), expected)

    def test_mu_zero_degenerates(self):
        np.testing.assert_allclose(weight_ladder(4, FULL, 0.0), [1.0, 0.0, 0.0])

    def test_invalid_split(self):
        with pytest.raises(ParameterError):
            weight_ladder(4, 2, 2.0)  # m must be <= N-3 = 1
        with pytest.raises(ParameterError):
            weight_ladder(3, 1, 2.0)  # split ladders need N >= 4
        with pytest.raises(ParameterError):
            weight_ladder(4, 0, 2.0)

    @pytest.mark.parametrize("n_parties, split", [(5, 1.5), (5, "1"), (5.0, FULL), (5, True), (True, FULL)])
    def test_non_integer_counts_and_splits_are_refused(self, n_parties, split):
        # 1.5 and "1" read as split 1, 5.0 failed in range(), True is no count
        with pytest.raises(ParameterError, match="integer"):
            weight_ladder(n_parties, split, 2.0)

    @pytest.mark.parametrize("mu", [None, "2", True])
    def test_a_power_that_is_no_number_is_refused(self, mu):
        # None and "2" escaped as a raw TypeError; True read as mu 1
        with pytest.raises(ParameterError, match="mu must be a number"):
            weight_ladder(5, FULL, mu)

    def test_power_cap_keeps_every_ladder_finite(self):
        # the largest weight is (2^mu - 1)^(N-2); past the cap, 2.0**mu overflowed
        for split in (FULL, *range(1, MAX_QUBITS - 2)):
            assert np.all(np.isfinite(weight_ladder(MAX_QUBITS, split, MU_MAX)))
        for mu in (MU_MAX + 1.0, 2000.0, float("nan")):
            with pytest.raises(ParameterError):
                weight_ladder(3, FULL, mu)
            with pytest.raises(ParameterError):
                scalar_weight_inequality(0.5, mu)

    def test_full_ladder_reaches_the_largest_finite_weight(self):
        # 31**206 is about 1e307; the unused middle weight 31**207 would overflow
        assert weight_ladder(208, FULL, 5.0).tolist() == [31.0**k for k in range(207)]

    @pytest.mark.parametrize("n, mu", [(14, 100.0), (209, 5.0)])
    def test_an_overflowing_ladder_is_refused(self, n, mu):
        # (2**100 - 1)**12 and 31**207 are beyond the largest float; the
        # refusal names the party count and the power
        with pytest.raises(ParameterError, match=f"of {n} parties at mu {mu}"):
            weight_ladder(n, FULL, mu)

    def test_monogamy_weights_at_least_one(self):
        for n in (3, 4, 5, 6):
            for mu in (2.0, 2.5, 3.0, 5.0):
                assert np.min(weight_ladder(n, FULL, mu)) >= 1.0
                for m in range(1, n - 2):
                    assert np.min(weight_ladder(n, m, mu)) >= 1.0

    def test_polygamy_weights_at_most_one(self):
        for n in (3, 4, 5):
            for mu in (0.25, 0.5, 0.75, 1.0):
                assert np.max(weight_ladder(n, FULL, mu)) <= 1.0


def _row_by_row(labels, pairs, relabel):
    """The per-state ordering rule as written before it ran on stacks: a Python
    sort, a running sum, ``math.sqrt`` and a scan over the split indices."""
    n = len(labels)
    pair_of = dict(zip(labels[1:], pairs))
    order = list(labels[1:])
    if relabel:
        order.sort(key=lambda lab: -pair_of[lab])
    pair_vals = tuple(pair_of[lab] for lab in order)
    tails, rest = [], 0.0
    for c in reversed(pair_vals[1:]):
        rest += c * c
        tails.append(math.sqrt(rest))
    tails = tuple(reversed(tails))
    ge = tuple(pair_vals[i] >= tails[i] - ORDERING_ATOL for i in range(n - 2))
    le = tuple(pair_vals[i] <= tails[i] + ORDERING_ATOL for i in range(n - 2))
    split = FULL if all(ge) else next(
        (m for m in range(n - 3, 0, -1) if all(ge[:m]) and all(le[m:])), None
    )
    return tuple(order), pair_vals, tails, ge, le, split


# pair concurrences with exact ties, zeros and near-threshold values
PAIR_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-13, 0.5 - 1e-13, 1.0]), st.floats(0.0, 1.0)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.floats(0.0, 100.0))
def test_powers_are_those_of_python_pow(values, x):
    got = powers(np.array(values).reshape(-1, 1), x)
    assert got.shape == (len(values), 1)
    assert [v.hex() for v in got.ravel().tolist()] == [(v**x).hex() for v in values]


class TestOrderingStack:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(3, MAX_QUBITS), relabel=st.booleans())
    def test_rows_match_the_per_state_rule(self, data, n, relabel):
        # every row of a stack decides exactly as the per-state rule: same
        # order, bit-identical tails, same flags and split
        rows = data.draw(st.lists(st.lists(PAIR_VALUES, min_size=n - 1, max_size=n - 1),
                                  min_size=1, max_size=6))
        labels = ("A",) + tuple(f"B{i}" for i in range(1, n))
        orderings = Orderings.of(np.array(rows), relabel)
        for row, pairs in enumerate(rows):
            order, pair_vals, tails, ge, le, split = _row_by_row(labels, pairs, relabel)
            profile = orderings.profile(row, labels, 0.5)
            assert profile == Orderings.of(np.array([pairs]), relabel).profile(0, labels, 0.5)
            assert profile.party_order == order
            assert [x.hex() for x in profile.pair_concurrences] == [x.hex() for x in pair_vals]
            assert [x.hex() for x in profile.tail_concurrences] == [x.hex() for x in tails]
            assert (profile.satisfied_ge, profile.satisfied_le) == (ge, le)
            assert profile.split_index == split
            assert type(profile.split_index) in (int, str, type(None))

    def test_split_codes(self):
        # FULL is code n - 2, a split at m is m, no ladder is 0
        stack = np.array([[0.6, 0.3, 0.2, 0.1], [0.6, 0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.6]])
        orderings = Orderings.of(stack, relabel=False)
        assert orderings.split.tolist() == [3, 1, 0]
        assert [orderings.split_index(i) for i in range(3)] == [FULL, 1, None]

    def test_needs_three_qubits(self):
        with pytest.raises(ParameterError):
            Orderings.of(np.array([[0.5]]))


class TestDetectOrdering:
    def test_reference_state_fully_ordered(self):
        profile = detect_ordering(reference_schmidt_state())
        assert profile.split_index == FULL
        np.testing.assert_allclose(profile.pair_concurrences, [SQRT6_OVER_6] * 2, atol=1e-12)
        # the only tail of a three-qubit profile is itself a pair concurrence
        np.testing.assert_allclose(profile.tail_concurrences, [SQRT6_OVER_6], atol=1e-12)
        np.testing.assert_allclose(profile.full_cut_concurrence, np.sqrt(0.5), atol=1e-12)

    def test_w_state_ties_count_as_ordered(self):
        profile = detect_ordering(w_state())
        np.testing.assert_allclose(profile.pair_concurrences, [2 / 3, 2 / 3], atol=1e-12)
        np.testing.assert_allclose(profile.tail_concurrences, [2 / 3], atol=1e-12)
        assert profile.split_index == FULL

    def test_product_state_trivially_ordered(self):
        psi = StateVector(np.kron(np.kron([1, 0], [1, 0]), [1 / np.sqrt(2), 1 / np.sqrt(2)]))
        profile = detect_ordering(psi)
        assert profile.split_index == FULL
        assert max(profile.pair_concurrences) < 1e-10

    def test_unordered_profile_without_relabel(self):
        _, psi = build_wclass(np.sqrt(0.5), (np.sqrt(0.1), np.sqrt(0.4)))
        profile = detect_ordering(psi, relabel=False)
        assert profile.split_index is None
        assert detect_ordering(psi, relabel=True).split_index == FULL

    def test_haar_four_qubit_rejected(self):
        with pytest.raises(UnsupportedStateClassError):
            detect_ordering(haar_random_state(4, seed=8))

    @pytest.mark.parametrize("relabel", [True, False])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_wclass_five_party_tails(self, n, relabel):
        # measured tails and split against the closed form 2|a| sqrt(sum_{j>i} |b_j|^2),
        # with the decision rule of perfbench/reference.py::wclass_satisfied
        forms = [random_wclass(n, seed=seed) for seed in range(6)]
        # partners in increasing modulus, so that relabel matters
        forms += [WClassState(w.a, w.b[::-1]) for w in forms[1::2]]
        # |b_k|^2 ~ 3^-k with the last two swapped: split n-3 in label order
        b2 = 3.0 ** -np.array([*range(1, n - 2), n - 1, n - 2])
        forms.append(WClassState(np.sqrt(0.5), tuple(np.sqrt(0.5 * b2 / b2.sum()))))
        for w in forms:
            profile = detect_ordering(w.to_state_vector(), relabel=relabel)
            b = np.abs([w.b[w.labels.index(lab) - 1] for lab in profile.party_order])
            pairs = 2 * abs(w.a) * b
            tails = [2 * abs(w.a) * np.sqrt(np.sum(b[i:] ** 2)) for i in range(1, n - 1)]
            np.testing.assert_allclose(profile.tail_concurrences, tails, rtol=0, atol=1e-12)
            ge = [pairs[i] >= tails[i] - ORDERING_ATOL for i in range(n - 2)]
            le = [pairs[i] <= tails[i] + ORDERING_ATOL for i in range(n - 2)]
            splits = [m for m in range(n - 3, 0, -1) if all(ge[:m]) and all(le[m:])]
            expected = FULL if all(ge) else (splits[0] if splits else None)
            assert profile.split_index == expected

    def test_wclass_tail_matches_decomposition_search(self):
        # two-term sweep over all rank-2 decompositions of the traced marginal
        w = random_wclass(4, seed=33)
        psi = w.to_state_vector()
        profile = detect_ordering(psi, relabel=False)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape([2] * 8)
        rho = np.trace(rho, axis1=1, axis2=5).reshape(8, 8)  # trace out B1
        vals, vecs = np.linalg.eigh(rho)
        keep = vals > 1e-12
        basis = (vecs[:, keep] * np.sqrt(vals[keep])).T
        assert basis.shape[0] == 2
        grid = 3000
        u = (np.arange(grid) + 0.5) / grid
        phase = (np.pi * (3 - np.sqrt(5)) * np.arange(grid)) % (2 * np.pi)
        ct, stheta = np.sqrt(u), np.sqrt(1 - u)
        e = np.exp(1j * phase)
        first = ct[:, None] * basis[0] + (stheta * e)[:, None] * basis[1]
        second = -(stheta * np.conj(e))[:, None] * basis[0] + ct[:, None] * basis[1]

        def subnorm_c(batch):  # q_j * C_j for a 2x4 pure cut
            m = batch.reshape(-1, 2, 4)
            q = np.einsum("tad,tad->t", m, m.conj()).real
            gram = np.einsum("tad,tbd->tab", m, m.conj())
            purity = np.einsum("tab,tba->t", gram, gram).real
            return np.sqrt(np.clip(2 * (q**2 - purity), 0, None))

        search = np.min(subnorm_c(first) + subnorm_c(second))
        assert abs(search - profile.tail_concurrences[0]) < 1e-6


class TestCkwCheck:
    def test_w_state_equality(self):
        report = ckw_check(w_state())
        assert abs(report.lhs - 8 / 9) < 1e-9
        assert abs(report.rhs - 8 / 9) < 1e-9
        assert abs(report.margin) < 1e-9

    def test_product_state(self):
        psi = StateVector(np.kron(np.kron([1, 0], [0, 1]), [1, 0]).astype(complex))
        report = ckw_check(psi)
        assert report.lhs < 1e-12 and report.rhs < 1e-12

    def test_haar_batch_nonnegative(self):
        for seed in range(300):
            assert ckw_check(haar_random_state(3, seed=seed)).margin >= -1e-10

    def test_one_qubit_has_no_partner(self):
        from monoq.errors import InvalidSubsystemError

        with pytest.raises(InvalidSubsystemError):
            ckw_check(haar_random_state(1, seed=0))


class TestLemma1:
    def test_w_state_equality_at_two(self):
        report = lemma1_check(w_state(), 2.0)
        assert abs(report.lhs - 8 / 9) < 1e-9
        assert abs(report.rhs - 8 / 9) < 1e-9
        assert abs(report.margin) < 1e-9

    def test_product_state_trivial(self):
        psi = StateVector(np.kron(np.kron([1, 0], [1, 0]), [1, 0]).astype(complex))
        report = lemma1_check(psi, 3.0)
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_haar_batch(self):
        for seed in range(200):
            psi = haar_random_state(3, seed=1000 + seed)
            for x in (2.0, 3.0, 4.0):
                assert lemma1_check(psi, x).margin >= -1e-10

    def test_partner_swap_is_automatic(self):
        _, psi = build_wclass(np.sqrt(0.5), (np.sqrt(0.1), np.sqrt(0.4)))
        report = lemma1_check(psi, 2.0)
        # first term must carry the larger pair concurrence
        assert report.rhs_terms[0][1] >= report.rhs_terms[1][1]
        assert report.margin >= -1e-10

    def test_power_below_two_rejected(self):
        with pytest.raises(ParameterError):
            lemma1_check(w_state(), 1.5)
        # checked after the type and before the qubit count
        with pytest.raises(ParameterError):
            lemma1_check(haar_random_state(4, seed=2), 1.5)
        with pytest.raises(UnsupportedStateClassError, match="StateVector, got WClassState"):
            lemma1_check(random_wclass(3, seed=2), 1.5)

    def test_four_qubits_rejected(self):
        with pytest.raises(UnsupportedStateClassError):
            lemma1_check(haar_random_state(4, seed=2), 2.0)

    @pytest.mark.parametrize("x", [2.0, 2.5, 3.0, 4.0, 7.3])
    def test_ladder_is_the_scalar_lemma_at_half_the_power(self, x):
        # the lemma at x / 2 on squared concurrences, not the paper's base at x
        for psi in (w_state(), reference_schmidt_state(), haar_random_state(3, seed=5)):
            assert [w for w, _ in lemma1_check(psi, x).rhs_terms] == [1.0, ladder_base(x / 2)]

    def test_campaign_rhs_is_the_sorted_pair_ladder(self):
        # bit for bit: 0.0 + 1.0 * C_1^x + (2^(x/2) - 1) * C_2^x with C_1 >= C_2
        xs = (2.0, 2.5, 3.0, 4.0, 7.3)
        result = run_campaign(CampaignConfig(mode="lemma1", n_states=40, n_qubits=3, seed=27, mu_grid=xs))
        assert len(result.records) == 40 * len(xs)
        unsorted = 0
        for record in result.records:
            pairs = PureFeatures.of_state(haar_random_state(3, record.state_seed)).pair_concurrences[0].tolist()
            unsorted += pairs[0] < pairs[1]
            c1, c2 = sorted(pairs, reverse=True)
            x = record.mu
            expected = 0.0 + 1.0 * math.pow(c1, x) + ladder_base(x / 2) * math.pow(c2, x)
            assert record.rhs.hex() == expected.hex()
        assert unsorted  # some states list the smaller pair first


NAN, INF = float("nan"), float("inf")


class TestBoundCells:
    """Each entry's ``cells`` checks every cell it builds, as the cell check it replaced did."""

    # per mode: (alpha, mu) cells and the error of each, None for a claimed cell
    CASES = {
        "monogamy": [((0.9, 2.0), None), ((2.0, 2.0), ParameterError), ((0.9, 1.0), ParameterError),
                     ((NAN, 2.0), ParameterError), ((0.9, NAN), ParameterError),
                     ((INF, 2.0), ParameterError), ((0.9, INF), ParameterError)],
        "polygamy": [((0.9, 0.5), None), ((0.9, 1.5), ParameterError), ((0.5, 0.5), ParameterError),
                     ((NAN, 0.5), ParameterError), ((0.9, NAN), ParameterError),
                     ((INF, 0.5), ParameterError), ((0.9, INF), ParameterError)],
        "lemma1": [((None, 2.0), None), ((None, 1.5), ParameterError), ((None, 101.0), ParameterError),
                   ((None, NAN), ParameterError), ((None, INF), ParameterError)],
        "ckw": [((None, None), None), ((NAN, NAN), None), ((INF, INF), None)],
    }

    @pytest.mark.parametrize("mode, cell, error", [(m, c, e) for m, cases in CASES.items() for c, e in cases])
    def test_refuses_exactly_the_cells_outside_the_theorem(self, mode, cell, error):
        bound, (alpha, mu) = BOUNDS[mode], cell
        if error is None:
            assert bound.cells((alpha,), (mu,)) == [(None, None) if mode == "ckw" else cell]
            return
        with pytest.raises(error):
            bound.cells((alpha,), (mu,))
        (good_alpha, good_mu), _ = self.CASES[mode][0]
        with pytest.raises(error):  # one bad cell refuses the grid
            bound.cells((good_alpha, alpha), (good_mu, mu))


class TestLadderColumns:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("mode", ["monogamy", "polygamy"])
    def test_no_splits_is_the_full_ladder(self, mode, n):
        # splits None reads as the full ladder at every party count, not as split 1
        feats = PureFeatures.of(np.stack([random_wclass(n, seed).to_state_vector().amplitudes for seed in range(4)]))
        bound, cells = BOUNDS[mode], [(0.9, 2.0), (1.2, 0.5)]
        _, weights, _ = bound.columns(feats.cut_probs, feats.pair_concurrences, None, cells)
        full = bound.columns(feats.cut_probs, feats.pair_concurrences, np.full(4, n - 2), cells)
        assert weights.tobytes() == full[1].tobytes()
        assert weights[0, 0].tolist() == weight_ladder(n, FULL, 2.0).tolist()


class TestTheoremBound:
    def test_reference_state_values(self):
        psi = reference_schmidt_state()
        profile = detect_ordering(psi)
        report = theorem_bound(psi, profile, AlphaMu(0.823, 2.0))
        assert abs(report.lhs - 0.654205**2) < 5e-6
        assert abs(report.rhs - 4 * 0.318620**2) < 5e-6
        assert report.margin > 0.02
        assert abs(report.baseline_rhs - 2 * 0.318620**2) < 5e-6
        assert abs(report.tightness_gain - (report.rhs - report.baseline_rhs)) < 1e-15

    def test_weights_match_full_ladder(self):
        psi = reference_schmidt_state()
        report = theorem_bound(psi, detect_ordering(psi), AlphaMu(ALPHA_LO, 3.0))
        assert [w for w, _ in report.rhs_terms] == [1.0, 7.0]

    @pytest.mark.parametrize("split", [0, 3, -1])
    def test_a_split_no_profile_has_is_rejected(self, split):
        # five qubits: splits 1 and 2, and "full"; code 3 would read as full
        psi = build_wclass(np.sqrt(0.295), (0.7, 0.3, 0.25, 0.25))[1]
        profile = detect_ordering(psi)
        assert profile.split_index == 1
        with pytest.raises(ParameterError, match="invalid for 5 parties"):
            theorem_bound(psi, dataclasses.replace(profile, split_index=split), AlphaMu(0.9, 2.0))

    def test_pair_terms_come_from_the_profile(self):
        # the bound reads its pair terms from the profile, so it refuses a
        # profile whose pair concurrences are not the state's own
        psi = reference_schmidt_state()
        profile = dataclasses.replace(detect_ordering(psi), pair_concurrences=(0.5, 0.25))
        with pytest.raises(ParameterError, match="not measured on this state"):
            theorem_bound(psi, profile, AlphaMu(0.9, 3.0))

    def test_product_state_zero_bound(self):
        psi = StateVector(np.kron(np.kron([1, 0], [1, 0]), [0, 1]).astype(complex))
        report = theorem_bound(psi, detect_ordering(psi), AlphaMu(0.9, 2.0))
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.margin == 0.0

    def test_precondition_enforced(self):
        _, psi = build_wclass(np.sqrt(0.5), (np.sqrt(0.1), np.sqrt(0.4)))
        profile = detect_ordering(psi, relabel=False)
        with pytest.raises(PreconditionError):
            theorem_bound(psi, profile, AlphaMu(0.9, 2.0))

    def test_parameters_validated(self):
        psi = w_state()
        profile = detect_ordering(psi)
        with pytest.raises(ParameterError):
            theorem_bound(psi, profile, AlphaMu(0.9, 1.0))  # mu < 2
        with pytest.raises(ParameterError):
            theorem_bound(psi, profile, AlphaMu(0.5, 2.0))  # alpha outside window

    def test_known_counterexample_at_w_state(self):
        # The fully ordered weighted lower bound fails at the W state even
        # though the ordering hypothesis holds with equality: the weighted
        # side 2^mu f(4/9)^mu exceeds f(8/9)^mu because f is subadditive.
        # This is a genuine property of the weighted relation, kept here as a
        # regression anchor; the fuzz harness reports such witnesses.
        psi = w_state()
        profile = detect_ordering(psi)
        assert profile.split_index == FULL
        report = theorem_bound(psi, profile, AlphaMu(0.823, 2.0))
        assert report.margin < -0.6
        expected = f_alpha(8 / 9, 0.823) ** 2 - 4 * f_alpha(4 / 9, 0.823) ** 2
        assert abs(report.margin - expected) < 1e-12
        # the unweighted baseline still holds on the same state
        assert report.lhs >= report.baseline_rhs

    def test_counterexample_survives_strict_ordering(self):
        # perturb away from the tie so the hypothesis holds strictly
        _, psi = build_wclass(1 / np.sqrt(3), (np.sqrt(1 / 3 + 0.02), np.sqrt(1 / 3 - 0.02)))
        profile = detect_ordering(psi)
        assert profile.split_index == FULL
        assert profile.pair_concurrences[0] > profile.tail_concurrences[0] + 1e-6
        report = theorem_bound(psi, profile, AlphaMu(0.823, 2.0))
        assert report.margin < -0.5


class TestScalarWeightInequality:
    def test_endpoint_t_one(self):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert abs(scalar_weight_inequality(1.0, x).margin) < 1e-12

    def test_endpoint_t_zero(self):
        for x in (1.0, 2.0, 5.0):
            assert abs(scalar_weight_inequality(0.0, x).margin) < 1e-12

    def test_grid_regimes(self):
        ts = np.linspace(0.01, 0.99, 50)
        for x in (1.0, 1.5, 2.0, 3.0, 5.0):
            for t in ts:
                check = scalar_weight_inequality(float(t), x)
                assert check.regime == "lower" and check.margin >= -1e-12
        for x in (0.0, 0.25, 0.5, 0.75):
            for t in ts:
                check = scalar_weight_inequality(float(t), x)
                assert check.regime == "upper" and check.margin <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            scalar_weight_inequality(1.5, 2.0)
        with pytest.raises(ParameterError):
            scalar_weight_inequality(0.5, -1.0)

    @pytest.mark.parametrize("t", [None, "0.5"])
    def test_a_t_that_is_no_number_is_refused(self, t):
        # a raw TypeError escaped from the comparison
        with pytest.raises(DomainError):
            scalar_weight_inequality(t, 2.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=300, deadline=None)
    def test_lower_regime_property(self, t, x):
        assert scalar_weight_inequality(t, x).margin >= -1e-12

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_upper_regime_property(self, t, x):
        assert scalar_weight_inequality(t, x).margin <= 1e-12
