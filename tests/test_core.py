import numpy as np
import pytest

from monoq import (
    DensityMatrix,
    HermiticityError,
    InvalidSubsystemError,
    IoError,
    NormalizationError,
    PositivityError,
    SizeError,
    StateVector,
    haar_random_state,
    haar_random_unitary,
    hermitian_spectrum,
    load_state,
    partial_trace,
    pure_to_density,
    random_mixed_state,
    save_state,
    state_from_dict,
    state_to_dict,
    w_state,
)
from monoq.core import haar_amplitudes, schmidt_probabilities
from monoq.harness import reference_schmidt_state


def bell_state():
    return StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestStateVector:
    def test_default_labels(self):
        psi = StateVector(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex))
        assert psi.labels == ("A", "B1", "B2")
        assert psi.n_qubits == 3

    def test_rejects_bad_norm(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SizeError):
            StateVector(np.ones(3) / np.sqrt(3))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf])
    def test_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(NormalizationError):
            StateVector(np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(NormalizationError):
            StateVector(np.array([1.0, 0.0, 0.0, bad]))

    def test_permuted_roundtrip(self):
        psi = haar_random_state(3, seed=11)
        swapped = psi.permuted(("B1", "A", "B2"))
        assert swapped.labels == ("B1", "A", "B2")
        back = swapped.permuted(("A", "B1", "B2"))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


class TestPureToDensity:
    def test_basis_state(self):
        rho = pure_to_density(StateVector(np.array([1.0, 0.0])))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_uniform_superposition(self):
        rho = pure_to_density(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_purity_identity_haar(self):
        rho = pure_to_density(haar_random_state(2, seed=7))
        purity = np.trace(rho.entries @ rho.entries).real
        assert abs(purity - 1.0) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        psi = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        reduced = partial_trace(pure_to_density(psi), {"A"})
        np.testing.assert_allclose(reduced.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(pure_to_density(bell_state()), {"A"})
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-15)

    def test_w_state_marginal(self):
        # expanding |W><W| by hand leaves diag(2/3, 1/3) on the first qubit
        reduced = partial_trace(pure_to_density(w_state()), {"A"})
        np.testing.assert_allclose(reduced.entries, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        spec = hermitian_spectrum(reduced)
        np.testing.assert_allclose(spec, [2 / 3, 1 / 3], atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = pure_to_density(bell_state())
        with pytest.raises(InvalidSubsystemError):
            partial_trace(rho, set())

    def test_unknown_label_rejected(self):
        rho = pure_to_density(bell_state())
        with pytest.raises(InvalidSubsystemError):
            partial_trace(rho, {"C"})

    def test_composition(self):
        # tracing out {B1, B2} in one shot equals tracing B2 then B1
        for seed in range(5):
            rho = pure_to_density(haar_random_state(3, seed=seed))
            joint = partial_trace(rho, {"A"})
            stepwise = partial_trace(partial_trace(rho, {"A", "B1"}), {"A"})
            np.testing.assert_allclose(joint.entries, stepwise.entries, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rho = pure_to_density(haar_random_state(4, seed=3))
        reduced = partial_trace(rho, {"B1", "B3"})
        assert reduced.labels == ("B1", "B3")
        assert abs(np.trace(reduced.entries) - 1.0) < 1e-12

    def test_schmidt_symmetry(self):
        # both sides of any pure bipartition share their nonzero spectrum
        for seed in range(5):
            psi = haar_random_state(4, seed=100 + seed)
            rho = pure_to_density(psi)
            left = hermitian_spectrum(partial_trace(rho, {"A", "B1"}))
            right = hermitian_spectrum(partial_trace(rho, {"B2", "B3"}))
            np.testing.assert_allclose(left, right, atol=1e-10)


class TestHermitianSpectrum:
    def test_maximally_mixed(self):
        spec = hermitian_spectrum(DensityMatrix(np.eye(2) / 2))
        np.testing.assert_allclose(spec, [0.5, 0.5])

    def test_diagonal(self):
        spec = hermitian_spectrum(DensityMatrix(np.diag([2 / 3, 1 / 3])))
        np.testing.assert_allclose(spec, [2 / 3, 1 / 3])

    def test_reference_state_marginal(self):
        # cut concurrence squared is 1/2, so the marginal spectrum is (1 +/- sqrt(1/2))/2
        rho = pure_to_density(reference_schmidt_state())
        spec = hermitian_spectrum(partial_trace(rho, {"A"}))
        np.testing.assert_allclose(
            spec,
            [0.8535533905932737, 0.14644660940672624],
            atol=1e-12,
        )

    def test_sum_matches_trace(self):
        rho = random_mixed_state(2, rank=3, seed=5)
        spec = hermitian_spectrum(rho)
        assert abs(np.sum(spec) - 1.0) < 1e-10

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(HermiticityError):
            hermitian_spectrum(mat)

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityError):
            hermitian_spectrum(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN used to pass the Hermiticity check and fail inside eigvalsh
        mat = np.diag([bad, 0.5]).astype(complex)
        with pytest.raises(HermiticityError):
            hermitian_spectrum(mat)


class TestHaarSampling:
    def test_shape_and_norm(self):
        psi = haar_random_state(1, seed=0)
        assert psi.amplitudes.shape == (2,)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_deterministic(self):
        a = haar_random_state(3, seed=42)
        b = haar_random_state(3, seed=42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_out_of_range(self):
        with pytest.raises(SizeError):
            haar_random_state(0, seed=1)
        with pytest.raises(SizeError):
            haar_random_state(11, seed=1)

    def test_unitary_is_unitary(self):
        u = haar_random_unitary(8, np.random.default_rng(3))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_mean_marginal_purity(self):
        # Haar 3-qubit states average tr rho_A^2 = (2+4)/(2*4+1) = 2/3; checked
        # against a doubled-count reference run of the same sampler.  The
        # purity is sum p^2 of the Schmidt probabilities of the A | BC cut.
        def mean_purity(n_samples, base):
            stack = haar_amplitudes(3, range(base, base + n_samples))
            return float(np.mean(np.sum(schmidt_probabilities(stack, (0,)) ** 2, axis=1)))

        m1 = mean_purity(10_000, base=0)
        m2 = mean_purity(20_000, base=50_000)
        assert abs(m1 - 2 / 3) < 0.01 * (2 / 3)
        assert abs(m1 - m2) < 0.01 * (2 / 3)

    def test_invariance_under_fixed_unitary(self):
        # applying one fixed unitary must not shift the purity statistics
        u = haar_random_unitary(8, np.random.default_rng(99))
        plain, rotated = 0.0, 0.0
        for k in range(2000):
            psi = haar_random_state(3, seed=7_000 + k)
            rho = partial_trace(pure_to_density(psi), {"A"})
            plain += np.trace(rho.entries @ rho.entries).real
            rotated_psi = StateVector(u @ psi.amplitudes)
            rho_r = partial_trace(pure_to_density(rotated_psi), {"A"})
            rotated += np.trace(rho_r.entries @ rho_r.entries).real
        assert abs(plain - rotated) / 2000 < 0.02


class TestRandomMixedState:
    def test_valid_density_matrix(self):
        rho = random_mixed_state(2, rank=2, seed=1)
        assert rho.dim == 4
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12

    def test_rank_controls_spectrum(self):
        rho = random_mixed_state(2, rank=2, seed=2)
        spec = hermitian_spectrum(rho)
        assert np.sum(spec > 1e-10) == 2


class TestStateFiles:
    def test_roundtrip(self, tmp_path):
        psi = haar_random_state(3, seed=17)
        path = tmp_path / "state.json"
        save_state(psi, path)
        again = load_state(path)
        assert again.labels == psi.labels
        np.testing.assert_allclose(again.amplitudes, psi.amplitudes, atol=1e-12)

    def test_dict_schema(self):
        data = state_to_dict(w_state())
        assert data["n_qubits"] == 3
        assert data["labels"] == ["A", "B1", "B2"]
        assert len(data["amplitudes"]) == 8
        assert all(len(pair) == 2 for pair in data["amplitudes"])

    def test_rejects_wrong_length(self):
        data = state_to_dict(w_state())
        data["amplitudes"] = data["amplitudes"][:-1]
        with pytest.raises(IoError):
            state_from_dict(data)

    def test_rejects_bad_norm(self):
        data = state_to_dict(w_state())
        data["amplitudes"][0] = [0.5, 0.0]
        with pytest.raises(IoError):
            state_from_dict(data)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(IoError):
            load_state(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_state(tmp_path / "absent.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_amplitude(self, bad):
        data = state_to_dict(w_state())
        data["amplitudes"][7] = [bad, 0.0]
        with pytest.raises(IoError):
            state_from_dict(data)

    @pytest.mark.parametrize("n", [-1, 0, 11, 20000, float("inf"), "x"])
    def test_rejects_qubit_count_out_of_range(self, n):
        # 2**20000 used to be formatted into the error text: a ValueError, not an IoError
        data = {"n_qubits": n, "labels": [], "amplitudes": [[1.0, 0.0]]}
        with pytest.raises(IoError):
            state_from_dict(data)

    def test_rejects_oversized_integer_in_file(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n_qubits": ' + "9" * 5000 + "}")
        with pytest.raises(IoError):
            load_state(path)

    def test_small_norm_drift_renormalized(self):
        data = state_to_dict(w_state())
        data["amplitudes"][1][0] *= 1 + 4e-10  # inside the 1e-9 gate
        psi = state_from_dict(data)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15


def test_density_matrix_validation():
    with pytest.raises(NormalizationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(HermiticityError):
        DensityMatrix(np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex))
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(PositivityError):
        DensityMatrix(bad)
    for value in (np.nan, np.inf):  # NaN used to raise a bare LinAlgError
        with pytest.raises(HermiticityError):
            DensityMatrix(np.diag([value, 0.5]).astype(complex))
        with pytest.raises(HermiticityError):
            DensityMatrix(np.array([[0.5, value], [value, 0.5]], dtype=complex))
