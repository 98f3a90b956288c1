import dataclasses
import json

import numpy as np
import pytest

from latentvqe.hamiltonian import (
    ANGSTROM_TO_BOHR, JacobiConvergenceError, QubitHamiltonian, build_qubit_hamiltonian,
    dense_matrix, exact_ground_energy, hamiltonian_for_distance, hamiltonian_from_json,
    hamiltonian_to_json, hartree_fock_state, jacobi_eigh, sto3g_integrals,
)
from latentvqe.statevector import PauliString, StateVector, expectation

GRID = np.linspace(0.3, 2.85, 25)


class TestIntegrals:
    def test_overlap_in_unit_interval_and_decreasing(self):
        values = [sto3g_integrals(r).overlap_s12 for r in (0.4, 0.8, 1.5, 2.5, 4.0)]
        assert all(0.0 < s < 1.0 for s in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nuclear_repulsion_at_one_bohr(self):
        ints = sto3g_integrals(1.0 / ANGSTROM_TO_BOHR)
        assert ints.e_nuclear == pytest.approx(1.0, abs=1e-12)

    def test_h_mo_symmetric(self):
        ints = sto3g_integrals(0.9)
        assert np.allclose(ints.h_mo, ints.h_mo.T, atol=1e-12)

    def test_g_mo_eightfold_symmetry(self):
        for r in GRID[::6]:
            g = sto3g_integrals(float(r)).g_mo
            assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-12)
            assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-12)
            assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-12)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            sto3g_integrals(0.1)
        with pytest.raises(ValueError):
            sto3g_integrals(5.5)


class TestQubitHamiltonian:
    def test_compact_term_structure(self):
        h = hamiltonian_for_distance(0.735)
        assert h.n_qubits == 4
        assert len(h.terms) <= 15
        assert all(len(t.ops) == 4 for t in h.terms)

    def test_identity_term_carries_nuclear_repulsion(self):
        ints = sto3g_integrals(0.9)
        shifted = dataclasses.replace(ints, e_nuclear=ints.e_nuclear + 0.25)
        c0 = dict((t.ops, t.coefficient) for t in build_qubit_hamiltonian(ints).terms)
        c1 = dict((t.ops, t.coefficient) for t in build_qubit_hamiltonian(shifted).terms)
        assert c1["IIII"] - c0["IIII"] == pytest.approx(0.25, abs=1e-14)

    def test_dense_matrix_hermitian(self):
        m = dense_matrix(hamiltonian_for_distance(1.1))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestExactGroundEnergy:
    def test_single_z_term(self):
        h = QubitHamiltonian(4, (PauliString("ZIII", 1.0),), 0.0)
        assert exact_ground_energy(h)["energy"] == pytest.approx(-1.0, abs=1e-12)

    def test_identity_scalar(self):
        h = QubitHamiltonian(4, (PauliString("IIII", -0.42),), 0.0)
        assert exact_ground_energy(h)["energy"] == pytest.approx(-0.42, abs=1e-12)

    def test_equilibrium_energy_and_curve_shape(self):
        energies = np.array(
            [exact_ground_energy(hamiltonian_for_distance(float(r)))["energy"] for r in GRID]
        )
        i_min = int(np.argmin(energies))
        assert 0.70 <= GRID[i_min] <= 0.78
        assert -1.15 <= energies[i_min] <= -1.12
        # single interior minimum, then a flat repulsive tail ~0.2 Ha above
        assert np.all(np.diff(energies[:i_min + 1]) < 0)
        assert np.all(np.diff(energies[i_min:]) > 0)
        e4 = exact_ground_energy(hamiltonian_for_distance(4.0))["energy"]
        assert e4 - energies[i_min] == pytest.approx(0.2, abs=0.05)

    def test_flat_dissociation_tail(self):
        e45 = exact_ground_energy(hamiltonian_for_distance(4.5))["energy"]
        e50 = exact_ground_energy(hamiltonian_for_distance(5.0))["energy"]
        assert abs(e50 - e45) < 5e-3

    def test_variational_lower_bound(self):
        h = hamiltonian_for_distance(1.3)
        ground = exact_ground_energy(h)["energy"]
        rng = np.random.default_rng(0)
        for _ in range(25):
            amp = rng.normal(size=16) + 1j * rng.normal(size=16)
            s = StateVector(4, amp / np.linalg.norm(amp))
            assert expectation(s, h.terms) >= ground - 1e-10


class TestScipyCrossCheck:
    def test_scipy_eigh_matches_jacobi_oracle_on_acceptance_grid(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for r in np.linspace(0.3, 2.85, 100):
            h = hamiltonian_for_distance(float(r))
            lowest = scipy_linalg.eigh(dense_matrix(h), eigvals_only=True)[0]
            assert exact_ground_energy(h)["energy"] == pytest.approx(lowest, abs=1e-10)


class TestHartreeFock:
    def test_is_a_basis_state(self):
        hf = hartree_fock_state()
        assert np.count_nonzero(hf.amplitudes) == 1
        assert hf.amplitudes[0b0101] == 1.0

    def test_above_ground_energy_everywhere(self):
        hf = hartree_fock_state()
        for r in GRID[::4]:
            h = hamiltonian_for_distance(float(r))
            assert expectation(hf, h.terms) >= exact_ground_energy(h)["energy"] - 1e-10

    def test_correlation_gap_at_equilibrium(self):
        h = hamiltonian_for_distance(0.735)
        gap = expectation(hartree_fock_state(), h.terms) - exact_ground_energy(h)["energy"]
        assert 0.0 < gap < 0.03


class TestJacobi:
    def test_matches_independent_method_on_random_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            m = (m + m.conj().T) / 2
            evals, evecs = jacobi_eigh(m)
            assert np.max(np.abs(evals - np.linalg.eigvalsh(m))) < 1e-9
            assert np.max(np.abs(m @ evecs - evecs @ np.diag(evals))) < 1e-9

    def test_real_symmetric_case(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        m = (m + m.T) / 2
        evals, _ = jacobi_eigh(m.astype(complex))
        assert np.max(np.abs(evals - np.linalg.eigvalsh(m))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_qubit_guard(self):
        h = QubitHamiltonian(7, (PauliString("IIIIIII", 1.0),), 0.0)
        with pytest.raises(ValueError):
            exact_ground_energy(h)


class TestSerialization:
    def test_round_trip(self):
        h = hamiltonian_for_distance(0.735)
        back = hamiltonian_from_json(hamiltonian_to_json(h))
        assert back == h
        assert hamiltonian_to_json(back) == hamiltonian_to_json(h)

    def test_schema_mismatch_rejected(self):
        doc = json.loads(hamiltonian_to_json(hamiltonian_for_distance(0.9)))
        doc["schema_version"] = "other/1"
        with pytest.raises(ValueError, match="schema"):
            hamiltonian_from_json(json.dumps(doc))
