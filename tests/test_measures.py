import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoq import (
    ALPHA_WINDOW,
    AlphaMu,
    DensityMatrix,
    DomainError,
    ParameterError,
    SizeError,
    StateVector,
    coa_search,
    coa_two_qubit,
    concurrence_pure,
    convex_roof_oracle,
    f_alpha,
    haar_random_state,
    partial_trace,
    pure_to_density,
    random_mixed_state,
    renyi_entanglement_pure,
    renyi_entanglement_two_qubit,
    renyi_entropy,
    w_state,
    wootters_concurrence,
)
from monoq import measures
from monoq.errors import InvalidSubsystemError
from monoq.measures import (
    _COMPASS,
    ALPHA_MAX,
    MU_MAX,
    POLISH_XTOL,
    SEARCH_BLOCK,
    _decomposition_average,
    _random_isometry_blocks,
    _search_basis,
    _two_term_lattice,
    _two_term_polish,
    _two_term_states,
)
from monoq.harness import REFERENCE_ALPHA, reference_schmidt_state

ALPHA_LO, ALPHA_HI = ALPHA_WINDOW

# mpmath cross-checks, 30 significant digits
F_SIXTH_823 = 0.318619967382228888
F_HALF_823 = 0.654205127845905331
F_FOUR_NINTHS_823 = 0.607217561225096754
F_EIGHT_NINTHS_823 = 0.932107626871049128
F_HALF_EXACT = 0.654245275382445879
S_W_EXACT = 0.932117451946034941
F1_HALF_LIMIT = 0.600876036692856101


def bell_projector():
    amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return DensityMatrix(np.outer(amps, amps.conj()))


def w_marginal():
    return partial_trace(pure_to_density(w_state()), {"A", "B1"})


class TestRenyiEntropy:
    def test_pure_spectrum_is_zero(self):
        # 0.0 without a sign: above alpha = 1, log2(1) / (1 - alpha) is -0.0
        for alpha in (0.5, ALPHA_LO, 1.0, 1.2, 2.0):
            assert math.copysign(1.0, renyi_entropy([1.0, 0.0], alpha)) == 1.0
            assert renyi_entropy([1.0, 0.0], alpha) == 0.0
            assert np.signbit(renyi_entropy(np.array([[1.0, 0.0], [0.0, 1.0]]), alpha)).tolist() == [False] * 2

    def test_maximally_mixed_qubit(self):
        for alpha in (0.5, ALPHA_LO, 0.9999999, 2.0):
            assert abs(renyi_entropy([0.5, 0.5], alpha) - 1.0) < 1e-12

    def test_w_spectrum_reference_value(self):
        # quoted at order 0.823; the exact window endpoint shifts it to 0.9321174...
        assert abs(renyi_entropy([2 / 3, 1 / 3], 0.823) - 0.932108) < 1e-6
        assert abs(renyi_entropy([2 / 3, 1 / 3], ALPHA_LO) - S_W_EXACT) < 1e-12

    def test_stack_matches_rows_exactly(self):
        spectra = np.array([[1.0, 0.0], [0.5, 0.5], [2 / 3, 1 / 3], [0.9, 0.1], [0.7, 0.3]])
        for alpha in (0.823, 1.0, 1.3027):
            stacked = renyi_entropy(spectra, alpha)
            assert stacked.shape == (5,)
            assert stacked.tolist() == [renyi_entropy(row, alpha) for row in spectra]

    def test_continuity_at_one(self):
        spec = [0.6, 0.3, 0.1]
        vn = renyi_entropy(spec, 1.0)
        assert abs(renyi_entropy(spec, 1.0 + 1e-7) - vn) < 1e-5
        assert abs(renyi_entropy(spec, 1.0 - 1e-7) - vn) < 1e-5

    @pytest.mark.parametrize(
        "spectrum, alpha",
        [([float("nan"), 0.5], 0.9), ([float("inf"), 0.5], 2.0), ([0.5, float("-inf")], 1.0),
         ([0.3, 0.3], 0.9), ([0.6, 0.4 + 2e-9], 1.3), ([[0.5, 0.5], [0.3, 0.3]], 0.9),
         ([[0.5, 0.5], [float("nan"), 0.5]], 1.0)],
        ids=["nan", "inf", "-inf-von-neumann", "short", "long", "stack-short", "stack-nan"],
    )
    def test_rejects_non_finite_or_unnormalized_spectra(self, spectrum, alpha):
        # these gave -9.0, -inf, -5.63 and other finite numbers instead of an error
        with pytest.raises(DomainError):
            renyi_entropy(spectrum, alpha)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ParameterError):
            renyi_entropy([0.5, 0.5], 0.0)
        with pytest.raises(ParameterError):
            renyi_entropy([0.5, 0.5], -1.0)
        with pytest.raises(ParameterError):
            renyi_entropy([0.5, 0.5], float("inf"))


class TestFAlpha:
    def test_endpoints(self):
        for alpha in (ALPHA_LO, 0.9, 1.0, 1.1, ALPHA_HI):
            assert f_alpha(0.0, alpha) == 0.0
            assert abs(f_alpha(1.0, alpha) - 1.0) < 1e-12

    def test_reference_values(self):
        assert abs(f_alpha(0.5, 0.823) - F_HALF_823) < 1e-14
        assert abs(f_alpha(4 / 9, 0.823) - F_FOUR_NINTHS_823) < 1e-14
        assert abs(f_alpha(1 / 6, 0.823) - F_SIXTH_823) < 1e-14
        assert abs(f_alpha(0.5, ALPHA_LO) - F_HALF_EXACT) < 1e-14

    def test_order_cap(self):
        # at the cap no power sum underflows; above it the order is bad input
        assert f_alpha(1.0, ALPHA_MAX) == 1.0
        assert np.all(np.isfinite(f_alpha(np.linspace(0.0, 1.0, 1001), ALPHA_MAX)))
        assert abs(renyi_entropy(np.full(1024, 1 / 1024), ALPHA_MAX) - 10.0) < 1e-12
        for call in (lambda a: f_alpha(0.5, a), lambda a: renyi_entropy([0.5, 0.5], a),
                     lambda a: AlphaMu(a, 2.0)):
            with pytest.raises(ParameterError, match="at most 100"):
                call(ALPHA_MAX * (1 + 1e-15))

    def test_alpha_one_limit_branch(self):
        assert abs(f_alpha(0.5, 1.0) - F1_HALF_LIMIT) < 1e-12
        assert abs(f_alpha(0.5, 1.0 + 9e-7) - F1_HALF_LIMIT) < 1e-5

    def test_monotone_on_grid(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for alpha in np.linspace(ALPHA_LO, ALPHA_HI, 7):
            vals = f_alpha(xs, alpha)
            assert np.min(np.diff(vals)) >= -1e-12

    def test_squared_argument_convex_in_concurrence(self):
        cs = np.linspace(0.0, 1.0, 801)
        for alpha in (ALPHA_LO, 1.0, ALPHA_HI):
            vals = f_alpha(cs**2, alpha)
            second = np.diff(vals, 2)
            assert np.min(second) >= -1e-9

    def test_subadditive_in_squared_arguments(self):
        grid = np.linspace(0.0, 1.0, 201)
        xx, yy = np.meshgrid(grid, grid)
        mask = xx**2 + yy**2 <= 1.0
        x2, y2 = xx[mask] ** 2, yy[mask] ** 2
        for alpha in (ALPHA_LO, 1.3027):
            lhs = f_alpha(x2 + y2, alpha)
            rhs = f_alpha(x2, alpha) + f_alpha(y2, alpha)
            assert np.max(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.8229, 0.823, 1.0, 1.3027])
    def test_scalar_matches_array_exactly(self, alpha):
        # one pair evaluated alone must equal the same pair inside a stack
        xs = np.random.default_rng(0).uniform(0.0, 1.0, 4000)
        assert [f_alpha(float(x), alpha) for x in xs] == f_alpha(xs, alpha).tolist()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_alpha(-0.01, 0.9)
        with pytest.raises(DomainError):
            f_alpha(1.01, 0.9)
        with pytest.raises(DomainError):  # NaN used to come back as nan
            f_alpha(float("nan"), 0.9)
        with pytest.raises(DomainError):
            f_alpha(np.array([0.2, float("nan")]), 0.9)
        with pytest.raises(ParameterError):
            f_alpha(0.5, 0.0)
        with pytest.raises(ParameterError):
            f_alpha(0.5, float("inf"))

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.83, max_value=1.3))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, x, alpha):
        val = f_alpha(x, alpha)
        assert -1e-12 <= val <= 1.0 + 1e-10


class TestConcurrencePure:
    def test_product_state(self):
        psi = StateVector(np.kron([1, 0], [1 / np.sqrt(2), 1j / np.sqrt(2)]))
        assert concurrence_pure(psi, {"A"}) < 1e-10

    def test_bell_state(self):
        psi = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert abs(concurrence_pure(psi, {"A"}) - 1.0) < 1e-12

    def test_reference_state_cut(self):
        # 2 l0 sqrt(l2^2 + l3^2 + l4^2) = sqrt(1/2) for the reference parameters
        psi = reference_schmidt_state()
        assert abs(concurrence_pure(psi, {"A"}) - np.sqrt(0.5)) < 1e-12

    def test_trivial_partition_rejected(self):
        psi = w_state()
        with pytest.raises(InvalidSubsystemError):
            concurrence_pure(psi, set())
        with pytest.raises(InvalidSubsystemError):
            concurrence_pure(psi, {"A", "B1", "B2"})


class TestWoottersConcurrence:
    def test_maximally_mixed(self):
        assert wootters_concurrence(DensityMatrix(np.eye(4) / 4)) == 0.0

    def test_bell_projector(self):
        assert abs(wootters_concurrence(bell_projector()) - 1.0) < 1e-12

    def test_w_marginal(self):
        assert abs(wootters_concurrence(w_marginal()) - 2 / 3) < 1e-12

    def test_w_marginal_agrees_with_decomposition_search(self):
        # C = C^a on this marginal, so the assisted search pins the same value
        est = coa_search(w_marginal(), n_trials=4000, seed=5)
        assert abs(est - 2 / 3) < 1e-6

    def test_wrong_dimension(self):
        with pytest.raises(SizeError):
            wootters_concurrence(DensityMatrix(np.eye(2) / 2))

    def test_pure_states_match_cut_concurrence(self):
        for seed in range(10):
            psi = haar_random_state(2, seed=seed)
            rho = pure_to_density(psi)
            assert abs(wootters_concurrence(rho) - concurrence_pure(psi, {"A"})) < 1e-10


class TestCoaTwoQubit:
    def test_pure_state_equals_concurrence(self):
        for seed in range(10):
            rho = pure_to_density(haar_random_state(2, seed=seed))
            assert abs(coa_two_qubit(rho) - wootters_concurrence(rho)) < 1e-10

    def test_w_marginal(self):
        assert abs(coa_two_qubit(w_marginal()) - 2 / 3) < 1e-12

    def test_dominates_concurrence(self):
        for seed in range(200):
            rho = random_mixed_state(2, rank=np.random.default_rng(seed).integers(2, 5), seed=seed)
            assert coa_two_qubit(rho) >= wootters_concurrence(rho) - 1e-12

    def test_close_to_best_random_decomposition(self):
        for seed in range(10):
            rho = random_mixed_state(2, rank=2, seed=1000 + seed)
            est = coa_search(rho, n_trials=10_000, seed=seed)
            value = coa_two_qubit(rho)
            assert est <= value + 1e-9
            assert value - est <= 1e-3

    def test_wrong_dimension(self):
        with pytest.raises(SizeError):
            coa_two_qubit(DensityMatrix(np.eye(8) / 8))


class TestRenyiEntanglement:
    def test_product_marginal_zero(self):
        psi = StateVector(np.kron([1, 0], [0, 1]).astype(complex))
        rho = pure_to_density(psi)
        assert renyi_entanglement_two_qubit(rho, 0.9) == 0.0

    def test_reference_pair_value(self):
        rho = pure_to_density(reference_schmidt_state())
        for partner in ("B1", "B2"):
            marginal = partial_trace(rho, {"A", partner})
            assert abs(renyi_entanglement_two_qubit(marginal, 0.823) - 0.318620) < 1e-6

    def test_bell_is_one_for_any_alpha(self):
        assert abs(renyi_entanglement_two_qubit(bell_projector(), 1.3) - 1.0) < 1e-12

    def test_pure_cut_values(self):
        psi = reference_schmidt_state()
        assert abs(renyi_entanglement_pure(psi, {"A"}, 0.823) - 0.654205) < 1e-6
        assert abs(renyi_entanglement_pure(w_state(), {"A"}, 0.823) - 0.932108) < 1e-6

    def test_two_qubit_routes_agree_on_pure_states(self):
        for seed in range(20):
            psi = haar_random_state(2, seed=300 + seed)
            rho = pure_to_density(psi)
            via_formula = renyi_entanglement_two_qubit(rho, REFERENCE_ALPHA)
            via_spectrum = renyi_entanglement_pure(psi, {"A"}, REFERENCE_ALPHA)
            assert abs(via_formula - via_spectrum) < 1e-10


class TestConvexRoofOracle:
    def test_pure_input_exact(self):
        rho = pure_to_density(haar_random_state(2, seed=9))
        exact = renyi_entanglement_two_qubit(rho, ALPHA_LO)
        assert abs(convex_roof_oracle(rho, ALPHA_LO, n_trials=1, seed=0) - exact) < 1e-10

    def test_bell_projector(self):
        assert abs(convex_roof_oracle(bell_projector(), ALPHA_LO, 100, seed=0) - 1.0) < 1e-10

    def test_w_marginal_converges(self):
        # equality of assisted and plain concurrence pins the roof at f(4/9)
        val = convex_roof_oracle(w_marginal(), 0.823, n_trials=10_000, seed=1)
        assert abs(val - F_FOUR_NINTHS_823) < 1e-3
        assert val >= F_FOUR_NINTHS_823 - 1e-9

    def test_upper_bounds_analytic_value(self):
        for seed in range(5):
            rho = random_mixed_state(2, rank=2, seed=2000 + seed)
            analytic = renyi_entanglement_two_qubit(rho, ALPHA_LO)
            est = convex_roof_oracle(rho, ALPHA_LO, n_trials=3000, seed=seed)
            assert est >= analytic - 1e-9

    def test_rank_three_and_four_supported(self):
        for rank in (3, 4):
            rho = random_mixed_state(2, rank=rank, seed=40 + rank)
            analytic = renyi_entanglement_two_qubit(rho, ALPHA_LO)
            est = convex_roof_oracle(rho, ALPHA_LO, n_trials=2000, seed=rank)
            assert est >= analytic - 1e-9

    def test_polish_never_exceeds_lattice_minimum(self):
        for k in range(5):
            rho = random_mixed_state(2, rank=2, seed=3000 + k)
            for n_trials in (3, 300, 3000):
                rng = np.random.default_rng(k)
                u, phase = _two_term_lattice(max(1, 2 * n_trials // 3), rng)
                phi = _two_term_states(_search_basis(rho, n_trials), u, phase)
                lattice_min = float(np.min(_decomposition_average(phi, ALPHA_LO)))
                assert convex_roof_oracle(rho, ALPHA_LO, n_trials, seed=k) <= lattice_min

    def test_repeatable_for_a_seed(self):
        for rank in (2, 3, 4):
            rho = random_mixed_state(2, rank=rank, seed=50 + rank)
            first = convex_roof_oracle(rho, ALPHA_HI, n_trials=1000, seed=7)
            assert convex_roof_oracle(rho, ALPHA_HI, n_trials=1000, seed=7) == first
            first = coa_search(rho, n_trials=1000, seed=7)
            assert coa_search(rho, n_trials=1000, seed=7) == first

    # values of the search before its inner loop dropped the re-validation
    # of f_alpha and the unused isometry columns; each must stay bit for bit
    PINNED = {
        (2, 11): (["0x1.95fc888404810p-3", "0x1.6450639aa4ce4p-4", "0x1.db220e7fced96p-5",
                   "0x1.1cea736e78679p-5"], "0x1.c2e92cc1349f8p-2"),
        (3, 12): (["0x1.e64d8df5ba0fap-3", "0x1.d394b60b8a52bp-4", "0x1.5c3f2087cbaf9p-4",
                   "0x1.dc994b4e8d4adp-5"], "0x1.44fa28aeadfe5p-1"),
    }

    @pytest.mark.parametrize("rank, seed", list(PINNED))
    def test_pinned_values(self, rank, seed):
        rho = random_mixed_state(2, rank, seed=seed)
        roofs, coa = self.PINNED[rank, seed]
        for alpha, expected in zip((0.5, 0.823, 1.0, 1.3), roofs):
            assert convex_roof_oracle(rho, alpha, n_trials=400, seed=7) == float.fromhex(expected)
        assert coa_search(rho, n_trials=400, seed=7) == float.fromhex(coa)

    def test_bad_trial_count(self):
        with pytest.raises(ParameterError):
            convex_roof_oracle(bell_projector(), ALPHA_LO, n_trials=0, seed=0)
        with pytest.raises(ParameterError):
            convex_roof_oracle(bell_projector(), float("inf"), n_trials=10, seed=0)

    @pytest.mark.parametrize("n_trials", [10.5, 1e4, "100", None, -3, np.int64(0)])
    def test_trial_count_must_be_a_positive_integer(self, n_trials):
        for search in (lambda rho: convex_roof_oracle(rho, ALPHA_LO, n_trials, seed=0),
                       lambda rho: coa_search(rho, n_trials, seed=0)):
            for rank in (1, 2):
                with pytest.raises(ParameterError, match="n_trials"):
                    search(random_mixed_state(2, rank, seed=rank))

    def test_numpy_integer_trial_counts_accepted(self):
        rho = random_mixed_state(2, 2, seed=11)
        assert convex_roof_oracle(rho, ALPHA_LO, np.int64(400), seed=7) == \
            convex_roof_oracle(rho, ALPHA_LO, 400, seed=7)
        assert coa_search(rho, np.int32(400), seed=7) == coa_search(rho, 400, seed=7)

    # (rank, n_trials): roofs at alpha 0.5, 0.823, 1, 1.3 and the CoA search
    # of random_mixed_state(2, rank, seed=60 + rank) with seed=n_trials, as
    # computed when each search drew all its isometries at once
    BLOCK_PINNED = {
        (1, 1): ['0x1.650f7ed33cd17p-1', '0x1.1c459b83b5500p-1', '0x1.fab2012f0e37fp-2',
                 '0x1.a9ef96739867ap-2', '0x1.3e3d53072899bp-1'],
        (1, 400): ['0x1.650f7ed33cd17p-1', '0x1.1c459b83b5500p-1', '0x1.fab2012f0e37fp-2',
                   '0x1.a9ef96739867ap-2', '0x1.3e3d53072899bp-1'],
        (1, 3073): ['0x1.650f7ed33cd17p-1', '0x1.1c459b83b5500p-1', '0x1.fab2012f0e37fp-2',
                    '0x1.a9ef96739867ap-2', '0x1.3e3d53072899bp-1'],
        (2, 1): ['0x1.747082f70c8fcp-2', '0x1.ecb2975bb2a72p-3', '0x1.7e32211486c9fp-3',
                 '0x1.0e263a7ba9f19p-3', '0x1.9ee2fd9abee25p-1'],
        (2, 400): ['0x1.747082f73cb99p-2', '0x1.ecb2975bb2a5ap-3', '0x1.7e32211486ca0p-3',
                   '0x1.0e263a7ba9f12p-3', '0x1.a25f972554999p-1'],
        (2, 3073): ['0x1.747082f680a39p-2', '0x1.ecb2975bb2a6bp-3', '0x1.7e32211486ca1p-3',
                    '0x1.0e263a7ba9f0cp-3', '0x1.a2668dfbc2b52p-1'],
        (3, 1): ['0x1.d4986242bce3ep-2', '0x1.4105945745047p-2', '0x1.10da0cbdc7607p-2',
                 '0x1.b631704a60d4ap-3', '0x1.b5cd67b56df78p-1'],
        (3, 400): ['0x1.2c6000ded1320p-2', '0x1.3eb291e09aba2p-3', '0x1.e4a65b38d149cp-4',
                   '0x1.5256c07985478p-4', '0x1.c18cc48c23292p-1'],
        (3, 3073): ['0x1.1f08943b70b34p-2', '0x1.1d393bcd01812p-3', '0x1.9b9f22f71e010p-4',
                    '0x1.0d5b0e97b9e5cp-4', '0x1.c453553ff6ad6p-1'],
        (4, 1): ['0x1.57e4bf1ae4dd3p-1', '0x1.20e636733b987p-1', '0x1.0d8667a9348a7p-1',
                 '0x1.ed1293c878fefp-2', '0x1.3cccc24dea628p-1'],
        (4, 400): ['0x1.b2b2019d88d8fp-2', '0x1.137966db1f5b3p-2', '0x1.b477caeab7769p-3',
                   '0x1.3cbc56f871115p-3', '0x1.902cd06a11643p-1'],
        (4, 3073): ['0x1.5aac97f6a6221p-2', '0x1.8a7b214587f22p-3', '0x1.332410a6b7a06p-3',
                    '0x1.b71b9fe10b609p-4', '0x1.909723d84a558p-1'],
    }

    @pytest.mark.parametrize("block, trials", [(1, (1, 400)), (7, (1, 400, 3073)),
                                               (1024, (1, 400, 3073)), (SEARCH_BLOCK, (1, 400, 3073))])
    def test_values_do_not_depend_on_the_block_size(self, block, trials, monkeypatch):
        monkeypatch.setattr(measures, "SEARCH_BLOCK", block)
        for (rank, n_trials), expected in self.BLOCK_PINNED.items():
            if n_trials not in trials:
                continue
            rho = random_mixed_state(2, rank, seed=60 + rank)
            got = [convex_roof_oracle(rho, alpha, n_trials, seed=n_trials).hex()
                   for alpha in (0.5, 0.823, 1.0, 1.3)]
            assert got + [coa_search(rho, n_trials, seed=n_trials).hex()] == expected, (rank, n_trials)

    def test_traced_peak_holds_one_block(self):
        # at the benchmark's size each search holds one block of draws and
        # decompositions at a time, and the rank-2 lattice is gone before the
        # isometries are drawn: peaks of about 0.57e6 bytes, against 1.57e6
        # (roof) and 1.27e6 (CoA) with blocks of 1024 that outlived their turn
        rho = random_mixed_state(2, 2, seed=11)
        for search in (lambda: convex_roof_oracle(rho, 0.823, 10_000, seed=1),
                       lambda: coa_search(rho, 10_000, seed=1)):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.8e6, peak

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_no_decomposition_block_outlives_its_fold(self, rank, monkeypatch):
        # both searches fold the blocks of one generator; a fold that keeps
        # a block while the next is drawn (a loop variable, a generator
        # expression) holds two blocks at once
        draw = measures._decompositions
        watched = []

        class Watch:
            def __init__(self, blocks):
                self.blocks, self.last, self.count = blocks, None, 0
                watched.append(self)

            def __iter__(self):
                return self

            def __next__(self):
                assert self.last is None or self.last() is None, "a block outlived its fold"
                block = next(self.blocks)
                self.last, self.count = weakref.ref(block), self.count + 1
                return block

        monkeypatch.setattr(measures, "_decompositions", lambda *args: Watch(draw(*args)))
        rho = random_mixed_state(2, rank, seed=11)
        convex_roof_oracle(rho, 0.823, 10_000, seed=1)
        coa_search(rho, 10_000, seed=1)
        assert len(watched) == 2 and all(w.count > 2 for w in watched)

    def test_traced_peak_at_100k_trials(self):
        # with the draws in blocks, only the kept real halves and the rank-2
        # lattice grow with n_trials: peaks of about 4.4e6 bytes on rank 2 and
        # 6.2e6 on rank 3, against 22e6 to 54e6 with every draw held at once
        for rank in (2, 3):
            rho = random_mixed_state(2, rank, seed=11)
            for search in (lambda: convex_roof_oracle(rho, 0.823, 100_000, seed=1),
                           lambda: coa_search(rho, 100_000, seed=1)):
                tracemalloc.start()
                try:
                    search()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 8e6, (rank, peak)


def sequential_polish(basis, u, phase, values, step, alpha):
    """The compass search polling one step per round: the reference for the rung ladder."""
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


def polish_args(rho, alpha, n_trials, seed):
    """The oracle's polish arguments: basis, its lattice top-6 (u, phase, value), step and alpha."""
    basis = _search_basis(rho, n_trials)
    count = max(1, 2 * n_trials // 3)
    u, phase = _two_term_lattice(count, np.random.default_rng(seed))
    values = _decomposition_average(_two_term_states(basis, u, phase), alpha)
    top = np.argsort(values)[:6]
    return basis, u[top], phase[top], values[top], 1.0 / np.sqrt(count), alpha


def pole_state():
    """Rank 2 with product eigenvectors: its roof minimum is the eigen-decomposition, at u = 0 or 1."""
    rng = np.random.default_rng(5)
    local = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2)]
    unitary = np.kron(*local)
    return DensityMatrix(unitary @ np.diag([0.7, 0.0, 0.0, 0.3]) @ unitary.conj().T)


class TestRungLadderPolish:
    """The rung ladder takes the same moves as one compass step per round, bit for bit."""

    ALPHAS = (0.5, 0.823, 1.0, 1.3027)
    TRIALS = (1, 3, 400, 10_000)

    @staticmethod
    def assert_same(rho, n_trials, seed=0):
        for alpha in TestRungLadderPolish.ALPHAS:
            args = polish_args(rho, alpha, n_trials, seed)
            assert _two_term_polish(*args) == sequential_polish(*args), alpha

    @pytest.mark.parametrize("n_trials", TRIALS)
    @pytest.mark.parametrize("k", range(4))
    def test_random_rank_two_states(self, k, n_trials):
        self.assert_same(random_mixed_state(2, 2, seed=9000 + k), n_trials, seed=k)

    @pytest.mark.parametrize("n_trials", TRIALS)
    def test_w_marginal(self, n_trials):
        self.assert_same(w_marginal(), n_trials, seed=1)

    @pytest.mark.parametrize("n_trials", TRIALS)
    def test_polls_clipped_at_the_poles(self, n_trials):
        rho = pole_state()
        _, u, _, _, step, _ = polish_args(rho, 0.823, n_trials, 0)
        assert np.any((u < step) | (u > 1.0 - step))  # its first polls leave [0, 1]
        self.assert_same(rho, n_trials)

    @pytest.mark.parametrize("k", range(4))
    def test_states_match_the_stacked_terms(self, k):
        # the terms as built before they moved to a points-fast layout, byte for byte
        basis = _search_basis(random_mixed_state(2, 2, seed=9000 + k), 10)
        rng = np.random.default_rng(k)
        u = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 500)])
        phase = rng.uniform(-10.0, 10.0, u.size)
        ct, st = np.sqrt(u), np.sqrt(1.0 - u)
        e = np.exp(1j * phase)
        first = ct[:, None] * basis[0] + (st * e)[:, None] * basis[1]
        second = -(st * np.conj(e))[:, None] * basis[0] + ct[:, None] * basis[1]
        expected = np.stack([first, second], axis=1)
        assert _two_term_states(basis, u, phase).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(2))
    def test_every_candidate_alone(self, k):
        rho = random_mixed_state(2, 2, seed=9000 + k)
        for alpha in self.ALPHAS:
            basis, u, phase, values, step, _ = polish_args(rho, alpha, 400, k)
            for i in range(len(u)):
                one = (basis, u[i:i + 1], phase[i:i + 1], values[i:i + 1], step, alpha)
                assert _two_term_polish(*one) == sequential_polish(*one)


def random_isometries(count, size, rank, rng):
    """The blocks of ``_random_isometry_blocks`` joined into one (count, size, rank) array."""
    return np.concatenate(list(_random_isometry_blocks(count, size, rank, rng)))


class TestRandomIsometries:
    SHAPES = [(size, rank) for size in (2, 3, 4) for rank in range(1, size + 1)]

    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_isometry(self, size, rank):
        v = random_isometries(500, size, rank, np.random.default_rng(size * 10 + rank))
        assert v.shape == (500, size, rank)
        gram = np.swapaxes(v.conj(), -1, -2) @ v
        assert np.max(np.abs(gram - np.eye(rank))) <= 1e-12

    # 2051 draws: several blocks of SEARCH_BLOCK and a partial one
    @pytest.mark.parametrize("count", [500, 2051])
    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_matches_qr_of_the_same_draws(self, size, rank, count):
        # the Q factor with R's diagonal made positive, on the same generator stream
        rng = np.random.default_rng(rank)
        z = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
        q, r = np.linalg.qr(z)
        d = np.einsum("tii->ti", r)
        expected = (q * (d / np.abs(d))[:, None, :])[:, :, :rank]
        v = random_isometries(count, size, rank, np.random.default_rng(rank))
        assert v.shape == (count, size, rank)
        assert np.max(np.abs(v - expected)) <= 1e-12

    @pytest.mark.parametrize("count", [7, 2051])
    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_draws_full_blocks_whatever_the_rank(self, size, rank, count):
        # only `rank` columns are assembled, but both normal halves are drawn
        # in full, block by block, so the generator ends where two full
        # draws leave it
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        blocks = list(_random_isometry_blocks(count, size, rank, rng))
        assert [len(b) for b in blocks] == [min(SEARCH_BLOCK, count - lo)
                                            for lo in range(0, count, SEARCH_BLOCK)]
        ref.normal(size=(count, size, size)), ref.normal(size=(count, size, size))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestAlphaMu:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AlphaMu(0.0, 2.0)
        with pytest.raises(ParameterError):
            AlphaMu(0.9, -1.0)
        for alpha, mu in ((float("nan"), 2.0), (float("inf"), 2.0), (0.9, float("nan")),
                          (0.9, float("inf")), (0.9, MU_MAX + 1.0), (0.9, 2000.0)):
            with pytest.raises(ParameterError):
                AlphaMu(alpha, mu)
        assert AlphaMu(0.9, MU_MAX).mu == MU_MAX

    @given(st.floats(), st.floats())
    def test_any_float_constructs_or_raises_parameter_error(self, alpha, mu):
        try:
            params = AlphaMu(alpha, mu)
        except ParameterError:
            return
        assert np.isfinite(params.alpha) and params.alpha > 0
        assert np.isfinite(params.mu) and 0 <= params.mu <= MU_MAX

    def test_monogamy_mode(self):
        AlphaMu(0.9, 2.0).require_monogamy()
        with pytest.raises(ParameterError):
            AlphaMu(0.9, 1.5).require_monogamy()
        with pytest.raises(ParameterError):
            AlphaMu(0.5, 3.0).require_monogamy()

    def test_polygamy_mode(self):
        AlphaMu(1.3, 0.5).require_polygamy()
        with pytest.raises(ParameterError):
            AlphaMu(1.3, 1.5).require_polygamy()
        with pytest.raises(ParameterError):
            AlphaMu(2.0, 0.5).require_polygamy()

    def test_window(self):
        assert AlphaMu(0.8229, 2.0).in_theorem_window
        assert AlphaMu(1.3027, 2.0).in_theorem_window
        assert not AlphaMu(0.5, 2.0).in_theorem_window
