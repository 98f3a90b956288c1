import numpy as np
import pytest

from latentvqe.ansatz import efficient_su2, qae_encoder, strongly_entangling, uccsd_h2
from latentvqe.circuit import resource_counts, simulate
from latentvqe.hamiltonian import exact_ground_energy, hamiltonian_for_distance
from latentvqe.optimize import OptimizerConfig, optimize_vqe
from latentvqe.statevector import PauliString, pauli_sum_matrix, zero_state

NUMBER_OP = (
    PauliString("IIII", 2.0), PauliString("ZIII", -0.5), PauliString("IZII", -0.5),
    PauliString("IIZI", -0.5), PauliString("IIIZ", -0.5),
)


class TestStronglyEntangling:
    def test_counts_match_closed_forms(self):
        for n in range(2, 7):
            for layers in range(1, 5):
                rc = resource_counts(strongly_entangling(n, layers))
                assert rc["n_params"] == 6 * n * layers
                if n == 2:
                    assert rc["n_gates"] == 6 * layers
                    assert rc["n_two_qubit"] == 2 * layers
                else:
                    assert rc["n_gates"] == 4 * n * layers
                    assert rc["n_two_qubit"] == 2 * n * layers

    def test_paper_counts(self):
        assert resource_counts(strongly_entangling(4, 1)) == {
            "n_gates": 16, "n_params": 24, "n_two_qubit": 8,
        }
        assert resource_counts(strongly_entangling(2, 1)) == {
            "n_gates": 6, "n_params": 12, "n_two_qubit": 2,
        }

    def test_zero_angles_fix_vacuum(self):
        c = strongly_entangling(2, 1)
        out = simulate(c, np.zeros(12), zero_state(2))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            strongly_entangling(1, 1)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        c = strongly_entangling(4, 2)
        out = simulate(c, rng.uniform(0, 2 * np.pi, c.n_params), zero_state(4))
        assert abs(out.norm() - 1) < 1e-12


class TestEfficientSu2:
    def test_param_count(self):
        for n in (2, 3, 4):
            for reps in (1, 2, 3):
                assert resource_counts(efficient_su2(n, reps))["n_params"] == 2 * n * (reps + 1)

    def test_zero_angles_fix_vacuum(self):
        c = efficient_su2(4, 3)
        out = simulate(c, np.zeros(32), zero_state(4))
        assert np.allclose(out.amplitudes, zero_state(4).amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        c = efficient_su2(4, 3)
        out = simulate(c, rng.uniform(0, 2 * np.pi, 32), zero_state(4))
        assert abs(out.norm() - 1) < 1e-12


class TestUccsd:
    def test_zero_parameters_give_hartree_fock(self):
        out = simulate(uccsd_h2(), np.zeros(3), zero_state(4))
        hartree_fock = np.zeros(16)
        hartree_fock[0b0101] = 1.0  # sigma_g up (qubit 0) and sigma_g down (qubit 2)
        assert np.allclose(out.amplitudes, hartree_fock, atol=1e-12)

    def test_particle_number_conserved(self):
        c = uccsd_h2()
        nmat = pauli_sum_matrix(NUMBER_OP, 4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = simulate(c, rng.uniform(0, 2 * np.pi, 3), zero_state(4))
            mean = np.vdot(s.amplitudes, nmat @ s.amplitudes).real
            second = np.vdot(s.amplitudes, nmat @ (nmat @ s.amplitudes)).real
            assert mean == pytest.approx(2.0, abs=1e-10)
            assert second - mean**2 == pytest.approx(0.0, abs=1e-10)

    def test_support_only_on_two_particle_states(self):
        rng = np.random.default_rng(8)
        s = simulate(uccsd_h2(), rng.uniform(0, 2 * np.pi, 3), zero_state(4))
        for idx in range(16):
            if bin(idx).count("1") != 2:
                assert abs(s.amplitudes[idx]) < 1e-12

    def test_optimized_energy_matches_oracle(self):
        h = hamiltonian_for_distance(0.735)
        res = optimize_vqe(
            uccsd_h2(), h,
            OptimizerConfig(max_iterations=3000, tolerance=1e-12),
            initial=np.zeros(3),
        )
        assert res["value"] - exact_ground_energy(h)["energy"] < 1e-6


class TestQaeEncoder:
    def test_default_compression_template(self):
        rc = resource_counts(qae_encoder(4, 2))
        assert rc == {"n_gates": 32, "n_params": 48, "n_two_qubit": 16}

    def test_identity_initialization_keeps_vacuum_trash(self):
        from latentvqe.qae import trash_cost

        enc = qae_encoder(4, 2)
        assert trash_cost(enc, np.zeros(48), [zero_state(4)]) == pytest.approx(0.0, abs=1e-14)
