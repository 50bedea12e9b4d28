import dataclasses

import numpy as np
import pytest

from monoq import (
    FULL,
    AlphaMu,
    DensityMatrix,
    NormalizationError,
    ParameterError,
    PreconditionError,
    SizeError,
    StateVector,
    UnsupportedStateClassError,
    WClassState,
    WitnessRecord,
    build_wclass,
    ckw_check,
    coa_polygamy_check,
    coa_two_qubit,
    concurrence_pure,
    detect_ordering,
    haar_random_state,
    lemma1_check,
    partial_trace,
    pure_to_density,
    random_wclass,
    renyi_entanglement_pure,
    reoa_cut,
    replay_record,
    theorem3_bound,
    theorem_bound,
    w_state,
    wclass_from_state,
    wootters_concurrence,
)
from monoq import wclass
from monoq.core import MAX_QUBITS
from monoq.errors import InvalidSubsystemError
from monoq.measures import ALPHA_WINDOW, f_alpha

ALPHA_LO, ALPHA_HI = ALPHA_WINDOW


class TestBuildWclass:
    def test_single_excitation_basis_state(self):
        _, psi = build_wclass(1.0, (0.0, 0.0))
        expected = np.zeros(8)
        expected[0b100] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_uniform_w_state(self):
        s = 1 / np.sqrt(3)
        _, psi = build_wclass(s, (s, s))
        np.testing.assert_allclose(psi.amplitudes, w_state().amplitudes, atol=1e-15)

    def test_random_phases_normalized(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z /= np.linalg.norm(z)
        w, psi = build_wclass(z[0], tuple(z[1:]))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        assert w.n_parties == 4

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            build_wclass(1.0, (0.5, 0.0))

    def test_roundtrip_from_state(self):
        w = random_wclass(4, seed=9)
        again = wclass_from_state(w.to_state_vector())
        np.testing.assert_allclose(again.b, w.b, atol=1e-12)

    def test_non_wclass_rejected(self):
        with pytest.raises(UnsupportedStateClassError):
            wclass_from_state(haar_random_state(3, seed=1))


class TestPairConcurrence:
    def test_w_state_pairs(self):
        w = wclass_from_state(w_state())
        for i in (1, 2):
            assert abs(w.pair_concurrence(i) - 2 / 3) < 1e-12

    def test_matches_wootters_and_coa(self):
        # equality of concurrence and assisted concurrence on every marginal
        for n in (3, 4, 5):
            for seed in range(30):
                w = random_wclass(n, seed=seed)
                psi = w.to_state_vector()
                rho = pure_to_density(psi)
                for i in range(1, n):
                    marginal = partial_trace(rho, {"A", f"B{i}"})
                    analytic = w.pair_concurrence(i)
                    assert abs(analytic - wootters_concurrence(marginal)) < 1e-10
                    assert abs(analytic - coa_two_qubit(marginal)) < 1e-10

    def test_zero_amplitude_cases(self):
        w, _ = build_wclass(np.sqrt(0.5), (np.sqrt(0.5), 0.0))
        assert w.pair_concurrence(2) == 0.0
        w0, _ = build_wclass(0.0, (np.sqrt(0.5), np.sqrt(0.5)))
        assert w0.pair_concurrence(1) == 0.0
        assert w0.pair_concurrence(2) == 0.0

    def test_index_range(self):
        w = wclass_from_state(w_state())
        with pytest.raises(InvalidSubsystemError):
            w.pair_concurrence(0)
        with pytest.raises(InvalidSubsystemError):
            w.pair_concurrence(3)


class TestReoaCut:
    def test_w_state_reference_value(self):
        assert abs(reoa_cut(w_state(), 0.823) - 0.932108) < 1e-6

    def test_product_state(self):
        # 0.0 without a sign: above alpha = 1, log2(1) / (1 - alpha) is -0.0
        _, psi = build_wclass(1.0, (0.0, 0.0))
        for alpha in (0.9, 1.2, 1.3):
            assert reoa_cut(psi, alpha) == 0.0 and not np.signbit(reoa_cut(psi, alpha))

    def test_bell_with_spectator(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b110] = 1 / np.sqrt(2)  # Bell on A,B1 with B2 idle
        assert abs(reoa_cut(StateVector(amps), 1.1) - 1.0) < 1e-12

    def test_mixed_input_rejected(self):
        rho = partial_trace(pure_to_density(w_state()), {"A", "B1"})
        with pytest.raises(UnsupportedStateClassError):
            reoa_cut(rho, 0.9)


class TestTheorem3Bound:
    def test_w_state_full_ladder(self):
        profile = detect_ordering(w_state())
        for mu in (0.25, 0.5, 0.75, 1.0):
            report = theorem3_bound(w_state(), profile, AlphaMu(0.823, mu))
            assert report.margin >= -1e-9
            assert report.lhs == pytest.approx(0.932108**mu, abs=1e-5)
            assert report.rhs == pytest.approx(2.0**mu * 0.607218**mu, abs=1e-5)

    def test_w_state_mu_one_ladders_coincide(self):
        report = theorem3_bound(w_state(), detect_ordering(w_state()), AlphaMu(0.823, 1.0))
        assert [wt for wt, _ in report.rhs_terms] == [1.0, 1.0]
        assert abs(report.rhs - report.baseline_rhs) < 1e-15
        assert report.lhs == pytest.approx(0.932108, abs=1e-6)
        assert report.rhs == pytest.approx(2 * 0.607218, abs=1e-5)

    def test_product_case_zero(self):
        _, psi = build_wclass(1.0, (0.0, 0.0))
        report = theorem3_bound(psi, detect_ordering(psi), AlphaMu(0.9, 0.5))
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_random_wclass_upper_bound_holds(self):
        checked = 0
        for n in (3, 4, 5):
            for seed in range(60):
                psi = random_wclass(n, seed=seed).to_state_vector()
                profile = detect_ordering(psi)
                if not profile.satisfied:
                    continue
                checked += 1
                for alpha in (0.8229, 1.3027):
                    for mu in (0.25, 0.5, 0.75, 1.0):
                        report = theorem3_bound(psi, profile, AlphaMu(alpha, mu))
                        assert report.margin >= -1e-9
                        # weighted bound never exceeds the unweighted one
                        assert report.rhs <= report.baseline_rhs + 1e-12
        assert checked > 50

    def test_mu_zero_reports_equality(self):
        # degenerate ladder (1, 0, ...) against lhs^0: evaluated, not asserted
        report = theorem3_bound(w_state(), detect_ordering(w_state()), AlphaMu(0.823, 0.0))
        assert report.lhs == 1.0 and report.rhs == 1.0 and report.margin == 0.0

    def test_parameters_validated(self):
        psi = w_state()
        profile = detect_ordering(psi)
        with pytest.raises(ParameterError):
            theorem3_bound(psi, profile, AlphaMu(0.823, 2.0))  # mu > 1
        with pytest.raises(ParameterError):
            theorem3_bound(psi, profile, AlphaMu(0.5, 0.5))  # alpha outside window

    def test_precondition_enforced(self):
        _, psi = build_wclass(np.sqrt(0.5), (np.sqrt(0.1), np.sqrt(0.4)))
        profile = detect_ordering(psi, relabel=False)
        with pytest.raises(PreconditionError):
            theorem3_bound(psi, profile, AlphaMu(0.9, 0.5))

    def test_reads_the_state_it_was_given(self):
        # a StateVector within the 1e-12 norm tolerance but not exactly unit:
        # the bound reads its own cut, as a campaign or replay of it does,
        # and not the cut of the renormalized W-class form
        _, exact = build_wclass(np.sqrt(0.6), (np.sqrt(0.25), np.sqrt(0.15)))
        psi = StateVector(exact.amplitudes * (1.0 + 4e-13))
        profile = detect_ordering(psi)
        params = AlphaMu(ALPHA_LO, 0.5)
        report = theorem3_bound(psi, profile, params)
        record = WitnessRecord(index=0, mode="polygamy", state_class="file", n_qubits=3,
                               state_seed=0, alpha=params.alpha, mu=params.mu, lhs=report.lhs,
                               rhs=report.rhs, margin=report.margin,
                               baseline_rhs=report.baseline_rhs)
        assert replay_record(record, psi) == report.margin
        exact_form = wclass_from_state(psi).to_state_vector()
        renormalized = theorem3_bound(exact_form, detect_ordering(exact_form), params)
        assert renormalized.lhs != report.lhs  # the two cuts differ, so the test can tell

    def test_left_side_is_reoa_cut(self):
        # one cut entanglement for both public routes, also where the closed
        # form and an SVD of the amplitudes round apart
        for n in (3, 5, 8):
            for seed in range(40):
                psi = random_wclass(n, seed=seed).to_state_vector()
                profile = detect_ordering(psi)
                if profile.satisfied:
                    report = theorem3_bound(psi, profile, AlphaMu(ALPHA_HI, 1.0))
                    assert report.lhs == reoa_cut(psi, ALPHA_HI)

    def test_split_ladder_four_parties(self):
        # force a split profile: pair 1 dominates, pairs 2..3 below their tails
        _, psi = build_wclass(np.sqrt(0.4), (np.sqrt(0.41), np.sqrt(0.09), np.sqrt(0.10)))
        profile = detect_ordering(psi, relabel=False)
        if profile.split_index not in (FULL, None):
            report = theorem3_bound(psi, profile, AlphaMu(0.9, 0.5))
            assert report.margin >= -1e-9


class TestCoaPolygamyCheck:
    def test_w_state_saturates(self):
        report = coa_polygamy_check(w_state())
        assert abs(report.lhs - 8 / 9) < 1e-9
        assert abs(report.rhs - 8 / 9) < 1e-9

    def test_product_state(self):
        psi = StateVector(np.kron(np.kron([1, 0], [1, 0]), [1, 0]).astype(complex))
        report = coa_polygamy_check(psi)
        assert report.lhs == 0.0 and abs(report.rhs) < 1e-12

    def test_haar_batch_four_qubits(self):
        for seed in range(100):
            report = coa_polygamy_check(haar_random_state(4, seed=seed))
            assert report.margin >= -1e-9

    def test_size_cap(self):
        with pytest.raises(SizeError):
            coa_polygamy_check(haar_random_state(7, seed=0))

    def test_size_cap_comes_before_the_features(self, monkeypatch):
        # from 5 qubits on every pair's lambdas take a QR; a refused state
        # must not get that far, while the type check still comes first
        psi, wide = haar_random_state(7, seed=0), random_wclass(7, seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("features computed before the size cap")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        with pytest.raises(SizeError, match="capped at 6 qubits, got 7"):
            coa_polygamy_check(psi)
        with pytest.raises(UnsupportedStateClassError):
            coa_polygamy_check(wide)


def test_wclass_state_validation():
    with pytest.raises(SizeError):
        WClassState(1.0, ())
    with pytest.raises(NormalizationError):
        WClassState(1.0, (0.1, 0.0))
    for bad in (float("nan"), complex(0.0, float("nan"))):  # NaN used to pass
        with pytest.raises(NormalizationError):
            WClassState(bad, (0.6, 0.8))
        with pytest.raises(NormalizationError):
            WClassState(0.6, (0.8, bad))


@pytest.mark.parametrize("n_parties", [2, MAX_QUBITS + 1, 10**6])
def test_random_wclass_refuses_a_size_before_drawing(n_parties, monkeypatch):
    # the draw of N parties holds 2N floats; a refused size must not reach it
    def no_draw(seeds, width):
        raise AssertionError(f"drew {width} amplitudes")

    monkeypatch.setattr(wclass, "unit_gaussian_rows", no_draw)
    with pytest.raises(SizeError, match=f"got {n_parties}"):
        random_wclass(n_parties, seed=0)


def test_theorem3_rejects_non_wclass_input():
    rho = DensityMatrix(np.eye(8) / 8)
    with pytest.raises(UnsupportedStateClassError):
        reoa_cut(rho, 0.9)
    with pytest.raises(UnsupportedStateClassError):  # the coefficient form is not a state
        reoa_cut(wclass_from_state(w_state()), 0.9)
    with pytest.raises(UnsupportedStateClassError):
        theorem3_bound(
            haar_random_state(3, seed=5),
            detect_ordering(w_state()),
            AlphaMu(0.9, 0.5),
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda w: theorem_bound(w, detect_ordering(w_state()), AlphaMu(0.9, 2.0)),
        lambda w: theorem3_bound(w, detect_ordering(w_state()), AlphaMu(0.9, 0.5)),
        detect_ordering,
        wclass_from_state,
        coa_polygamy_check,
        ckw_check,
        lambda w: lemma1_check(w, 2.0),
        lambda w: renyi_entanglement_pure(w, {"A"}, 0.9),
        lambda w: concurrence_pure(w, {"A"}),
        lambda w: reoa_cut(w, 0.9),
    ],
    ids=["theorem_bound", "theorem3_bound", "detect_ordering", "wclass_from_state",
         "coa_polygamy_check", "ckw_check", "lemma1_check", "renyi_entanglement_pure",
         "concurrence_pure", "reoa_cut"],
)
def test_the_coefficient_form_is_rejected(call):
    # neither the coefficient form nor a density matrix is the pure global
    # state; either used to fail with AttributeError on a missing field
    for state in (wclass_from_state(w_state()), pure_to_density(w_state())):
        with pytest.raises(UnsupportedStateClassError, match=f"StateVector, got {type(state).__name__}"):
            call(state)


def test_assisted_terms_match_f_alpha_route():
    # the pairwise assisted estimate is f_alpha at the squared pair CoA
    w = random_wclass(4, seed=77)
    psi = w.to_state_vector()
    profile = detect_ordering(psi)
    if profile.satisfied:
        report = theorem3_bound(psi, profile, AlphaMu(ALPHA_LO, 0.5))
        expected = [
            f_alpha(w.pair_concurrence(w.labels.index(lab)) ** 2, ALPHA_LO) ** 0.5
            for lab in profile.party_order
        ]
        np.testing.assert_allclose([t for _, t in report.rhs_terms], expected, atol=1e-12)


def test_bounds_reject_a_profile_of_another_focus():
    # a profile measured around B1 would pair B1's pair terms with A's cut
    _, psi = build_wclass(np.sqrt(0.5), (np.sqrt(0.3), np.sqrt(0.2)))
    other = detect_ordering(psi.permuted(("B1", "A", "B2")))
    assert other.focus == "B1" and other.satisfied
    for bound, mu in ((theorem_bound, 2.0), (theorem3_bound, 0.5)):
        with pytest.raises(UnsupportedStateClassError, match="focus must be the state's first"):
            bound(psi, other, AlphaMu(0.9, mu))
        bound(psi, detect_ordering(psi), AlphaMu(0.9, mu))  # its own profile is taken


def test_bounds_reject_a_profile_of_another_state():
    # a profile with the state's focus, measured on another state, would pair
    # that state's pair terms with this state's cut
    a, b = (random_wclass(4, seed).to_state_vector() for seed in (7, 5))
    other = detect_ordering(b)
    assert other.focus == a.labels[0] and other.satisfied
    unknown = dataclasses.replace(detect_ordering(a), party_order=("B1", "B2", "Z"))
    for bound, mu in ((theorem_bound, 2.0), (theorem3_bound, 0.5)):
        for profile in (other, unknown):
            with pytest.raises(ParameterError, match="not measured on this state"):
                bound(a, profile, AlphaMu(0.9, mu))
    # the state's own profile is taken with or without relabeling, here in
    # two party orders with two ladders
    _, psi = build_wclass(np.sqrt(0.36), (np.sqrt(0.4), np.sqrt(0.09), np.sqrt(0.15)))
    profiles = [detect_ordering(psi), detect_ordering(psi, relabel=False)]
    assert [p.party_order for p in profiles] == [("B1", "B3", "B2"), ("B1", "B2", "B3")]
    for bound, mu in ((theorem_bound, 2.0), (theorem3_bound, 0.5)):
        kinds = [bound(psi, p, AlphaMu(0.9, mu)).kind.split("-", 1)[1] for p in profiles]
        assert kinds == ["full", "split-1"]

