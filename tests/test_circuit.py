import numpy as np
import pytest

from latentvqe.ansatz import efficient_su2, strongly_entangling, uccsd_h2
from latentvqe.circuit import (
    Circuit, Gate, Param, bind_constants, gate_matrix, inverse, resource_counts, simulate,
)
from latentvqe.statevector import StateVector, zero_state


def random_circuit(rng, n_qubits, n_gates, n_params):
    gates = []
    kinds = ["U3", "U1", "RY", "RZ", "H", "X", "CNOT"]
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "CNOT":
            t = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(t[0]), int(t[1]))))
        else:
            q = int(rng.integers(n_qubits))
            arity = {"U3": 3, "U1": 1, "RY": 1, "RZ": 1}.get(kind, 0)
            params = tuple(Param.ref(int(rng.integers(n_params))) for _ in range(arity))
            gates.append(Gate(kind, (q,), params))
    # make sure every slot is referenced
    for s in range(n_params):
        gates.append(Gate("RZ", (int(rng.integers(n_qubits)),), (Param.ref(s),)))
    return Circuit(n_qubits, tuple(gates), n_params)


def matrix(kind: str, *angles) -> np.ndarray:
    """gate_matrix of a `kind` gate with constant `angles`."""
    return gate_matrix(Gate(kind, (0,), tuple(map(Param.const, angles))), np.zeros(0))


class TestGateMatrices:
    def test_u3_examples(self):
        assert np.allclose(matrix("U3", 0, 0, 0), np.eye(2))
        assert np.allclose(matrix("U3", np.pi, 0, np.pi), [[0, 1], [1, 0]], atol=1e-15)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(matrix("U3", np.pi / 2, 0, np.pi), hadamard, atol=1e-15)

    def test_u1_examples(self):
        assert np.allclose(matrix("U1", 0), np.eye(2))
        assert np.allclose(matrix("U1", np.pi), np.diag([1, -1]))
        assert np.allclose(matrix("U1", np.pi / 2), np.diag([1, 1j]))

    def test_non_finite_rejected(self):
        for kind, angles in (("U3", (np.nan, 0, 0)), ("U3", (0, 0, np.inf)), ("U1", (np.inf,)),
                             ("RY", (np.nan,)), ("RZ", (-np.inf,))):
            with pytest.raises(ValueError, match="finite"):
                matrix(kind, *angles)

    def test_all_constructed_matrices_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            angles = rng.uniform(-10, 10, 3)
            for u in (matrix("U3", *angles), matrix("U1", angles[0]), matrix("RY", angles[1]),
                      matrix("RZ", angles[2]), matrix("H"), matrix("X")):
                assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestSimulate:
    def test_empty_circuit(self):
        c = Circuit(2, (), 0)
        s = zero_state(2)
        assert np.array_equal(simulate(c, [], s).amplitudes, s.amplitudes)

    def test_single_hadamard(self):
        c = Circuit(1, (Gate("H", (0,)),), 0)
        out = simulate(c, [], zero_state(1))
        assert np.allclose(out.amplitudes, [1, 1] / np.sqrt(2))

    def test_bell_state(self):
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
        out = simulate(c, [], zero_state(2))
        assert np.allclose(out.amplitudes, [1, 0, 0, 1] / np.sqrt(2))

    def test_param_length_checked(self):
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),), 1)
        with pytest.raises(ValueError):
            simulate(c, [1.0, 2.0], zero_state(1))


class TestInverse:
    def test_hadamard_self_inverse(self):
        c = Circuit(1, (Gate("H", (0,)),), 0)
        out = simulate(inverse(c), [], simulate(c, [], zero_state(1)))
        assert np.allclose(out.amplitudes, [1, 0])

    def test_u1_inverse_negates(self):
        c = Circuit(1, (Gate("U1", (0,), (Param.ref(0),)),), 1)
        inv = inverse(c)
        lam = 0.81
        m = gate_matrix(inv.gates[0], np.array([lam]))
        assert np.allclose(m, matrix("U1", -lam))

    def test_random_circuit_round_trip(self):
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 4, 10, 5)
        p = rng.uniform(0, 2 * np.pi, 5)
        inv = inverse(c)
        for _ in range(5):
            amp = rng.normal(size=16) + 1j * rng.normal(size=16)
            s = StateVector(4, amp / np.linalg.norm(amp))
            back = simulate(inv, p, simulate(c, p, s))
            assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-10


class TestResourceCounts:
    def test_table_values(self):
        assert resource_counts(uccsd_h2())["n_params"] == 3
        assert resource_counts(efficient_su2(4, 3))["n_params"] == 32
        latent = strongly_entangling(2, 1)
        assert resource_counts(latent)["n_params"] == 12
        assert resource_counts(latent)["n_gates"] == 6

    def test_invariant_under_binding(self):
        c = strongly_entangling(2, 1)
        bound = bind_constants(c, np.linspace(0, 1, 12))
        assert resource_counts(bound)["n_gates"] == resource_counts(c)["n_gates"]
        assert resource_counts(bound)["n_two_qubit"] == resource_counts(c)["n_two_qubit"]


class TestValidation:
    def test_unreferenced_slot_rejected(self):
        with pytest.raises(ValueError, match="unreferenced"):
            Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),), 2)

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("RY", (0,), (Param.ref(3),)),), 1)

    def test_cnot_needs_distinct_targets(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_slot_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate("U3", (0,), (Param.ref(0),))
