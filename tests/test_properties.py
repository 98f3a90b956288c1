"""Property tests over random circuits, states and Pauli strings (hypothesis)."""
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latentvqe.artifacts import canonical_json
from latentvqe.circuit import (
    PARAM_ARITY, Circuit, Gate, Param, circuit_from_dict, circuit_to_dict, inverse, simulate,
)
from latentvqe.hamiltonian import _string_product
from latentvqe.statevector import PauliString, StateVector, pauli_sum_matrix

N_QUBITS = 3
finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def params_(draw):
    """Either a constant angle or coeff * v[slot] + offset (slot drawn from 0..5)."""
    if draw(st.booleans()):
        return Param.const(draw(finite))
    coeff = draw(st.sampled_from([1.0, -1.0, 2.0])) if draw(st.booleans()) else draw(finite)
    offset = 0.0 if draw(st.booleans()) else draw(finite)
    return Param(draw(st.integers(0, 5)), coeff, offset)


@st.composite
def circuits(draw, max_gates=12):
    gates = []
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(sorted(PARAM_ARITY)))
        if kind == "CNOT":
            a, b = draw(st.permutations(range(N_QUBITS)))[:2]
            gates.append(Gate(kind, (a, b)))
        else:
            q = draw(st.integers(0, N_QUBITS - 1))
            gates.append(Gate(kind, (q,), tuple(draw(params_()) for _ in range(PARAM_ARITY[kind]))))
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


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_circuit_json_round_trip(circuit):
    text = canonical_json(circuit_to_dict(circuit))
    back = circuit_from_dict(json.loads(text))
    assert back == circuit
    assert canonical_json(circuit_to_dict(back)) == text


@settings(max_examples=100, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_inverse_undoes_simulate(circuit, seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, circuit.n_params)
    amp = rng.normal(size=1 << N_QUBITS) + 1j * rng.normal(size=1 << N_QUBITS)
    state = StateVector(N_QUBITS, amp / np.linalg.norm(amp))
    back = simulate(inverse(circuit), params, simulate(circuit, params, state))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


pauli_strings = st.text(alphabet="IXYZ", min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(pauli_strings, pauli_strings)
def test_string_product_matches_dense_product(a, b):
    dense = lambda ops: pauli_sum_matrix([PauliString(ops)], len(ops))
    phase, ops = _string_product(a, b)
    np.testing.assert_array_equal(dense(a) @ dense(b), phase * dense(ops))
