"""Property tests over random circuits, states and Pauli strings (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latentvqe.ansatz import strongly_entangling
from latentvqe.circuit import (
    PARAM_ARITY, Circuit, Gate, Param, apply_circuit, apply_gates, inverse, simulate,
)
from latentvqe.optimize import batched_shift_gradient, energy_fn, staged_gate_optimize
from latentvqe.statevector import (
    PauliString, StateVector, pauli_sum_matrix, pauli_terms, zero_state,
)

N_QUBITS = 3
finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def params_(draw, coeffs=finite):
    """Either a constant angle or coeff * v[slot] + offset (slot drawn from 0..5)."""
    if draw(st.booleans()):
        return Param.const(draw(finite))
    coeff = draw(st.sampled_from([1.0, -1.0, 2.0])) if draw(st.booleans()) else draw(coeffs)
    offset = 0.0 if draw(st.booleans()) else draw(finite)
    return Param(draw(st.integers(0, 5)), coeff, offset)


@st.composite
def circuits(draw, max_gates=12, coeffs=finite):
    gates = []
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(sorted(PARAM_ARITY)))
        if kind == "CNOT":
            a, b = draw(st.permutations(range(N_QUBITS)))[:2]
            gates.append(Gate(kind, (a, b)))
        else:
            q = draw(st.integers(0, N_QUBITS - 1))
            angles = tuple(draw(params_(coeffs)) for _ in range(PARAM_ARITY[kind]))
            gates.append(Gate(kind, (q,), angles))
    # Renumber the slots that occur to 0..m-1 so that every slot is referenced.
    used = sorted({p.slot for g in gates for p in g.params if p.slot is not None})
    dense = {s: k for k, s in enumerate(used)}
    gates = [
        Gate(g.kind, g.targets, tuple(
            p if p.slot is None else Param(dense[p.slot], p.coeff, p.offset) for p in g.params
        ))
        for g in gates
    ]
    return Circuit(N_QUBITS, tuple(gates), len(used))


@settings(max_examples=100, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_inverse_undoes_simulate(circuit, seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, circuit.n_params)
    amp = rng.normal(size=1 << N_QUBITS) + 1j * rng.normal(size=1 << N_QUBITS)
    state = StateVector(N_QUBITS, amp / np.linalg.norm(amp))
    back = simulate(inverse(circuit), params, simulate(circuit, params, state))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(circuits(max_gates=20), st.integers(0, 2**32 - 1))
def test_compiled_plan_matches_gate_by_gate_reference(circuit, seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, circuit.n_params)
    amp = rng.normal(size=(1 << N_QUBITS, 2)) + 1j * rng.normal(size=(1 << N_QUBITS, 2))
    np.testing.assert_allclose(apply_circuit(amp, circuit, params),
                               apply_gates(amp, circuit.gates, params, circuit.n_qubits),
                               rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(circuits(max_gates=20, coeffs=st.floats(-2.0, 2.0)), st.integers(0, 2**32 - 1))
def test_gradient_matches_central_differences(circuit, seed):
    # partial U3 layers (the masked Kronecker case), shared slots, coefficients
    # and offsets all occur; the reference energy runs gate by gate
    rng = np.random.default_rng(seed)
    dim = 1 << N_QUBITS
    hmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hmat = (hmat + hmat.conj().T) / 4
    cols = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    cols /= np.linalg.norm(cols, axis=0)
    params = rng.uniform(-np.pi, np.pi, circuit.n_params)
    def energy(x):
        out = apply_gates(cols, circuit.gates, x, N_QUBITS)
        return np.mean(np.real(np.einsum("ib,ib->b", out.conj(), hmat @ out)))
    h = 1e-5
    fd = [(energy(params + h * e) - energy(params - h * e)) / (2 * h)
          for e in np.eye(circuit.n_params)]
    np.testing.assert_allclose(batched_shift_gradient(circuit, hmat, params, cols)[1],
                               np.reshape(fd, circuit.n_params), rtol=0, atol=1e-7)


pauli_strings = st.text(alphabet="IXYZ", min_size=3, max_size=3)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kronecker_pauli_sum(terms, n_qubits):
    """Dense matrix of a weighted Pauli sum by Kronecker products; qubit 0 innermost."""
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for term in terms:
        mat = np.array([[1.0 + 0j]])
        for c in term.ops:
            mat = np.kron(PAULI_MATRICES[c], mat)
        out += term.coefficient * mat
    return out


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(pauli_strings, finite, max_size=8), st.booleans())
def test_pauli_terms_inverts_pauli_sum_matrix(coeffs, dyadic):
    # exact for multiples of 1/8, whose sums and traces / 2^n are exact; 1e-12 otherwise
    if dyadic:
        coeffs = {ops: round(c * 8) / 8 for ops, c in coeffs.items()}
    m = pauli_sum_matrix([PauliString(ops, c) for ops, c in coeffs.items()], N_QUBITS)
    got = pauli_terms(m, N_QUBITS)
    expected = {ops: c for ops, c in coeffs.items() if c != 0}
    if dyadic:
        assert got == expected
    for ops in set(got) | set(expected):
        assert abs(got.get(ops, 0) - expected.get(ops, 0)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(pauli_strings, finite), max_size=8))
def test_pauli_sum_matrix_matches_kronecker_build(terms):
    terms = [PauliString(ops, c) for ops, c in terms]
    np.testing.assert_array_equal(pauli_sum_matrix(terms, N_QUBITS),
                                  kronecker_pauli_sum(terms, N_QUBITS))


two_qubit_strings = [a + b for a in "IXYZ" for b in "IXYZ"]


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=16, max_size=16), st.integers(0, 2**32 - 1))
def test_staged_solve_descends_and_respects_the_ground_energy(coeffs, seed):
    # a real combination of the 16 two-qubit Pauli strings is a random Hermitian 4 x 4 H
    terms = [PauliString(ops, c) for ops, c in zip(two_qubit_strings, coeffs)]
    circuit = strongly_entangling(2, 1)
    x0 = np.random.default_rng(seed).uniform(0, 2 * np.pi, circuit.n_params)
    res = staged_gate_optimize(circuit, terms, x0)
    floor = np.linalg.eigvalsh(kronecker_pauli_sum(terms, 2))[0]
    # the start is scored on another contraction path, so both sides carry rounding
    assert res["value"] <= energy_fn(circuit, terms, zero_state(2))(x0) + 1e-12
    assert res["value"] >= floor - 1e-12
