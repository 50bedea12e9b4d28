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
from monoq.errors import InvalidSubsystemError
from monoq.measures import (
    ALPHA_MAX,
    MU_MAX,
    _decomposition_average,
    _random_isometry_batch,
    _search_basis,
    _two_term_lattice,
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
        for alpha in (0.5, ALPHA_LO, 1.0, 2.0):
            assert renyi_entropy([1.0, 0.0], alpha) == 0.0

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


class TestRandomIsometries:
    SHAPES = [(size, rank) for size in (2, 3, 4) for rank in range(1, size + 1)]

    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_isometry(self, size, rank):
        v = _random_isometry_batch(500, size, rank, np.random.default_rng(size * 10 + rank))
        assert v.shape == (500, size, rank)
        gram = np.swapaxes(v.conj(), -1, -2) @ v
        assert np.max(np.abs(gram - np.eye(rank))) <= 1e-12

    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_matches_qr_of_the_same_draws(self, size, rank):
        # the Q factor with R's diagonal made positive, on the same generator stream
        rng = np.random.default_rng(rank)
        z = rng.normal(size=(500, size, size)) + 1j * rng.normal(size=(500, size, size))
        q, r = np.linalg.qr(z)
        d = np.einsum("tii->ti", r)
        expected = (q * (d / np.abs(d))[:, None, :])[:, :, :rank]
        v = _random_isometry_batch(500, size, rank, np.random.default_rng(rank))
        assert np.max(np.abs(v - expected)) <= 1e-12

    @pytest.mark.parametrize("size, rank", SHAPES)
    def test_draws_full_blocks_whatever_the_rank(self, size, rank):
        # only `rank` columns are assembled, but both normal blocks are drawn
        # in full, so the generator ends where a full draw leaves it
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        _random_isometry_batch(7, size, rank, rng)
        ref.normal(size=(7, size, size)), ref.normal(size=(7, size, size))
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
