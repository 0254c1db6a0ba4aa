import numpy as np
import pytest

from qrelay.channels import Ensemble
from qrelay.protocol import _finish_rows, _norms_and_overlaps
from qrelay.statevec import (
    CapacityError,
    DensityMatrix,
    StateVector,
    trace_distance,
)

from conftest import brute_apply_1q, random_state
from dense_reference import apply_single_qubit, density_from_pure, make_basis_state, tensor

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestStateVector:
    def test_valid_construction(self):
        s = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        assert s.num_qubits == 2
        assert s.amps.shape == (4,)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1, 0, 0], dtype=complex))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1, 1], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nan"):
            StateVector(1, np.array([np.nan, 0], dtype=complex))

    def test_scalar_unit_allowed(self):
        # A full Bell projection of a 2-qubit state leaves zero qubits.
        s = StateVector(0, np.array([1.0], dtype=complex))
        assert s.num_qubits == 0

    def test_amps_are_read_only(self):
        s = make_basis_state("00")
        with pytest.raises(ValueError):
            s.amps[0] = 5.0


class TestBasisAndTensor:
    def test_basis_from_string(self):
        s = make_basis_state("010")
        assert s.amps[int("010", 2)] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_basis_from_bit_sequence(self):
        assert np.allclose(make_basis_state([1, 0]).amps, make_basis_state("10").amps)

    def test_tensor_order_qubit1_most_significant(self):
        # |1> tensor |0> must be |10>, i.e. index 2 of the joint register.
        joint = tensor(make_basis_state("1"), make_basis_state("0"))
        assert joint.num_qubits == 2
        assert joint.amps[2] == 1.0

    def test_tensor_matches_kron(self):
        rng = np.random.default_rng(3)
        a = StateVector(2, random_state(rng, 2))
        b = StateVector(1, random_state(rng, 1))
        # Bit for bit: the report and verdict bytes depend on it.
        assert tensor(a, b).amps.tobytes() == np.kron(a.amps, b.amps).tobytes()

    def test_tensor_capacity_cap(self):
        a = make_basis_state("00")
        with pytest.raises(CapacityError):
            tensor(a, a, cap=3)


class TestApplySingleQubit:
    @pytest.mark.parametrize("qubit", [1, 2, 3, 4])
    @pytest.mark.parametrize("mat", [X, Y, H], ids=["X", "Y", "H"])
    def test_matches_index_oracle(self, qubit, mat):
        rng = np.random.default_rng(qubit)
        s = StateVector(4, random_state(rng, 4))
        got = apply_single_qubit(s, qubit, mat)
        want = brute_apply_1q(s.amps, 4, qubit, mat)
        assert np.allclose(got.amps, want, atol=1e-12)

    def test_qubit_out_of_range(self):
        s = make_basis_state("00")
        with pytest.raises(ValueError):
            apply_single_qubit(s, 3, X)
        with pytest.raises(ValueError):
            apply_single_qubit(s, 0, X)


def fidelity(vec, target):
    """|<target|vec>|^2 as every run_end_to_end report computes it: the
    one finish on a live one-row block."""
    return _finish_rows(*_norms_and_overlaps(np.asarray(vec, dtype=complex)[None], np.asarray(target)), 1.0, 1.0)[1][0]


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(0)
        s = random_state(rng, 1)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero, one = make_basis_state("0").amps, make_basis_state("1").amps
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
        # A row null by raw or by joint probability has no fidelity.
        assert _finish_rows(*_norms_and_overlaps(np.array([zero, zero]), zero), np.array([1e15, 1.0]),
                            np.array([1e15, 1e-15]))[1] == [None, None]

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(1)
        a = random_state(rng, 1)
        b = random_state(rng, 1)
        assert type(fidelity(a, b)) is float
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
        assert fidelity(np.exp(0.7j) * a, b) == pytest.approx(fidelity(a, b), abs=1e-12)


class TestDensityMatrix:
    def test_from_pure_is_projector(self):
        rng = np.random.default_rng(2)
        s = StateVector(2, random_state(rng, 2))
        rho = density_from_pure(s)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_from_weighted_states(self):
        rho = Ensemble(((0.5, make_basis_state("0")), (0.5, make_basis_state("1")))).to_density()
        assert np.allclose(rho.entries, np.eye(2) / 2)
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_nan_trace(self):
        # Opposite infinities pass the Hermitian check and sum to a NaN trace.
        bad = np.array([[np.inf, 0.0], [0.0, -np.inf]], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, bad)

    def test_rejects_negative_eigenvalue(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(1, bad)


class TestTraceDistance:
    def test_zero_for_same_state(self):
        rng = np.random.default_rng(4)
        rho = density_from_pure(StateVector(2, random_state(rng, 2)))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_one_for_orthogonal_pure_states(self):
        r0 = density_from_pure(make_basis_state("0"))
        r1 = density_from_pure(make_basis_state("1"))
        assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)

    def test_known_diagonal_value(self):
        a = DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        b = DensityMatrix(1, np.diag([0.5, 0.5]).astype(complex))
        assert trace_distance(a, b) == pytest.approx(0.25, abs=1e-12)
