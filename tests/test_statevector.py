import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentvqe.artifacts import canonical_json
from latentvqe.circuit import (
    Circuit, Gate, Param, gate_matrix, simulate, swap_test_circuit,
)
from latentvqe.hamiltonian import (
    hamiltonian_for_distance, hamiltonian_from_json, hamiltonian_to_dict,
)
from latentvqe.statevector import (
    PauliString, StateVector, _apply_1q, _pauli_action, expectation, partial_trace,
    pauli_sum_matrix, pauli_terms, zero_state,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT01 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
# targets (0, 1): basis index = bit(q0) + 2*bit(q1); control q0 set flips q1.


# Reference gate application and overlap; the package applies gates through
# compiled plans (circuit.apply_circuit) and the stride kernel _apply_1q.

def _check_unitary(matrix: np.ndarray, tol: float = 1e-10) -> None:
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim not in (2, 4):
        raise ValueError("gate matrix must be 2x2 or 4x4")
    resid = matrix.conj().T @ matrix - np.eye(dim)
    if np.max(np.abs(resid)) > tol:
        raise ValueError("matrix is not unitary within 1e-10")


def _apply_2q(amp: np.ndarray, u: np.ndarray, targets, n: int) -> np.ndarray:
    t0, t1 = targets
    m0, m1 = 1 << t0, 1 << t1
    idx = np.arange(1 << n)
    base = idx[(idx & m0 == 0) & (idx & m1 == 0)]
    rows = np.stack([amp[base], amp[base | m0], amp[base | m1], amp[base | m0 | m1]])
    new = u @ rows.reshape(4, -1)
    new = new.reshape(rows.shape)
    out = amp.copy()
    out[base], out[base | m0], out[base | m1], out[base | m0 | m1] = new
    return out


def apply_gate(state: StateVector, unitary: np.ndarray, targets) -> StateVector:
    """Apply a 2x2 or 4x4 unitary to the given target qubits.

    For a two-qubit gate, targets = (t0, t1) with t0 the least-significant
    bit of the 4-dimensional gate basis.
    """
    unitary = np.asarray(unitary, dtype=complex)
    targets = tuple(int(t) for t in (targets if hasattr(targets, "__len__") else [targets]))
    n = state.n_qubits
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"target out of range for {n} qubits: {targets}")
    _check_unitary(unitary)
    if unitary.shape[0] != 1 << len(targets):
        raise ValueError("matrix size does not match target count")
    if len(targets) == 1:
        amp = _apply_1q(state.amplitudes, unitary, targets[0], n)
    else:
        amp = _apply_2q(state.amplitudes, unitary, targets, n)
    return StateVector(n, amp)


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("overlap requires equal qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def u3(theta, phi, lam) -> np.ndarray:
    """The U3 matrix of `gate_matrix` at constant angles."""
    return gate_matrix(Gate("U3", (0,), tuple(map(Param.const, (theta, phi, lam)))), np.zeros(0))


def random_state(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amp / np.linalg.norm(amp))


class TestZeroState:
    def test_examples(self):
        assert np.array_equal(zero_state(1).amplitudes, [1, 0])
        assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])
        s4 = zero_state(4)
        assert s4.amplitudes.size == 16 and s4.amplitudes[0] == 1

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            zero_state(0)
        with pytest.raises(ValueError):
            zero_state(13)


class TestApplyGate:
    def test_hadamard(self):
        out = apply_gate(zero_state(1), H, [0])
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cnot_flips_target(self):
        s = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))  # |q0=1, q1=0>
        out = apply_gate(s, CNOT01, (0, 1))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_u3_zero_is_identity(self):
        rng = np.random.default_rng(0)
        s = random_state(rng, 3)
        out = apply_gate(s, u3(0, 0, 0), [1])
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_gate(zero_state(1), np.array([[1, 0], [0, 2.0]]), [0])

    def test_rejects_bad_targets(self):
        s = zero_state(2)
        with pytest.raises(ValueError):
            apply_gate(s, CNOT01, (0, 0))
        with pytest.raises(ValueError):
            apply_gate(s, H, [2])

    def test_norm_preserved_random_circuits(self):
        # random circuits of up to 100 gates on up to 6 qubits
        rng = np.random.default_rng(42)
        for n in (2, 4, 6):
            s = random_state(rng, n)
            for _ in range(100):
                if rng.random() < 0.3 and n > 1:
                    t = rng.choice(n, size=2, replace=False)
                    s = apply_gate(s, CNOT01, tuple(int(x) for x in t))
                else:
                    u = u3(*rng.uniform(0, 2 * np.pi, 3))
                    s = apply_gate(s, u, [int(rng.integers(n))])
            assert abs(s.norm() - 1.0) < 1e-10

    def test_unitarity_round_trip(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 4)
        u = u3(*rng.uniform(0, 2 * np.pi, 3))
        back = apply_gate(apply_gate(s, u, [2]), u.conj().T, [2])
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-10


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(zero_state(1), [PauliString("Z")]) == pytest.approx(1.0)

    def test_z_on_plus(self):
        plus = apply_gate(zero_state(1), H, [0])
        assert expectation(plus, [PauliString("Z")]) == pytest.approx(0.0, abs=1e-12)

    def test_ground_state_energy_matches_oracle(self):
        from latentvqe.hamiltonian import exact_ground_energy, hamiltonian_for_distance

        h = hamiltonian_for_distance(0.735)
        res = exact_ground_energy(h)
        assert expectation(res["eigenvector"], h.terms) == pytest.approx(res["energy"], abs=1e-10)

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        terms_a = [PauliString("XYZ", 0.3), PauliString("ZZI", -1.2)]
        terms_b = [PauliString("IIX", 0.7), PauliString("YXZ", 2.0)]
        total = expectation(s, terms_a + terms_b)
        assert total == pytest.approx(
            expectation(s, terms_a) + expectation(s, terms_b), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(zero_state(2), [PauliString("Z")])


class TestPauliActionCache:
    def test_shared_arrays_are_read_only(self):
        action = _pauli_action("XYZI", 16)
        assert _pauli_action("XYZI", 16) is action
        for a in action:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[1]


def reference_pauli_sum_matrix(terms, n_qubits):
    """The term-by-term scatter-add that `pauli_sum_matrix`'s table replaces."""
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for term in terms:
        idx, flipped, phase = _pauli_action(term.ops, 1 << n_qubits)
        out[flipped, idx] += term.coefficient * phase
    return out


@st.composite
def term_lists(draw):
    """1-6 qubits; Y-heavy strings, in no order, some terms repeated later in the list."""
    n = draw(st.integers(1, 6))
    ops = st.lists(st.sampled_from("IXYZYY"), min_size=n, max_size=n).map("".join)
    coeff = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.builds(PauliString, ops, coeff), max_size=10))
    repeats = draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    return n, terms + repeats


class TestPauliSumMatrix:
    @settings(max_examples=150, deadline=None)
    @given(term_lists())
    def test_bit_identical_to_scatter_add(self, case):
        n, terms = case
        assert pauli_sum_matrix(terms, n).tobytes() == reference_pauli_sum_matrix(terms, n).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.2, 5.0))
    def test_json_round_trip_hamiltonian_bit_identical(self, r):
        h = hamiltonian_from_json(canonical_json(hamiltonian_to_dict(hamiltonian_for_distance(r))))
        got = pauli_sum_matrix(h.terms, 4)
        assert got.tobytes() == reference_pauli_sum_matrix(h.terms, 4).tobytes()
        assert got.tobytes() == hamiltonian_for_distance(r).matrix.tobytes()

    def test_no_terms_is_zero_and_length_is_checked(self):
        assert pauli_sum_matrix([], 2).tobytes() == np.zeros((4, 4), dtype=complex).tobytes()
        with pytest.raises(ValueError, match="length"):
            pauli_sum_matrix([PauliString("ZZ", 1.0), PauliString("Z", 1.0)], 2)


class TestPauliTerms:
    # the round trip through pauli_sum_matrix is a property test in test_properties.py
    def test_identity_and_shape_check(self):
        assert pauli_terms(np.eye(8), 3) == {"III": 1}
        assert pauli_terms(np.zeros((4, 4)), 2) == {}
        with pytest.raises(ValueError, match="3 qubits"):
            pauli_terms(np.eye(4), 3)


class TestPauliStringValidation:
    @pytest.mark.parametrize("ops", ["x", "Zz", "XA", "IXYZQ", "X Y", "1"])
    def test_rejects_lowercase_or_unknown_letters(self, ops):
        with pytest.raises(ValueError, match="invalid Pauli characters"):
            PauliString(ops, 1.0)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_rejects_nonfinite_coefficients(self, coeff):
        with pytest.raises(ValueError, match="finite"):
            PauliString("XZ", coeff)

    @pytest.mark.parametrize("coeff", [np.float64(-0.25), np.float32(1.5), 2, 0.0])
    def test_accepts_numpy_and_python_reals(self, coeff):
        assert PauliString("IXYZ", coeff).coefficient == coeff


class TestPartialTrace:
    def test_keep_first_of_00(self):
        rho = partial_trace(zero_state(2), keep=[0])
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_bell_state_is_maximally_mixed(self):
        bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        rho = partial_trace(bell, keep=[0])
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_state_keeps_plus_factor(self):
        # |0> on qubit 0, |+> on qubit 1
        amp = np.kron([1, 1] / np.sqrt(2), [1, 0]).astype(complex)
        rho = partial_trace(StateVector(2, amp), keep=[1])
        assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-12)

    def test_product_state_consistency(self):
        rng = np.random.default_rng(5)
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        joint = StateVector(4, np.kron(b.amplitudes, a.amplitudes))
        rho = partial_trace(joint, keep=[0, 1])
        assert np.max(np.abs(rho - np.outer(a.amplitudes, a.amplitudes.conj()))) < 1e-12

    def test_invalid_keep(self):
        with pytest.raises(ValueError):
            partial_trace(zero_state(2), keep=[])
        with pytest.raises(ValueError):
            partial_trace(zero_state(2), keep=[0, 1])


class TestOverlap:
    def test_basis_overlaps(self):
        zero = zero_state(1)
        one = StateVector(1, np.array([0, 1], dtype=complex))
        assert overlap(zero, zero) == pytest.approx(1)
        assert overlap(zero, one) == pytest.approx(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(zero_state(1), zero_state(2))


class TestSwapTest:
    def test_reproduces_overlap_for_20_random_pairs(self):
        rng = np.random.default_rng(11)
        circ = swap_test_circuit(2)
        assert circ.n_qubits == 5
        for _ in range(20):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            joint = np.kron([1, 0], np.kron(b.amplitudes, a.amplitudes))
            out = simulate(circ, [], StateVector(5, joint))
            probs = np.abs(out.amplitudes) ** 2
            p0 = probs[np.arange(32) & 16 == 0].sum()
            assert abs((2 * p0 - 1) - abs(overlap(a, b)) ** 2) < 1e-10

    def test_large_register(self):
        # 2N+1 = 11 qubits still runs through the stride-based simulator
        rng = np.random.default_rng(2)
        circ = swap_test_circuit(5)
        a = random_state(rng, 5)
        joint = np.kron([1, 0], np.kron(a.amplitudes, a.amplitudes))
        out = simulate(circ, [], StateVector(11, joint))
        probs = np.abs(out.amplitudes) ** 2
        p0 = probs[np.arange(1 << 11) & (1 << 10) == 0].sum()
        assert abs(2 * p0 - 1 - 1.0) < 1e-10
