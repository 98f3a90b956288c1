import numpy as np
import pytest

from latentvqe.ansatz import qae_encoder, strongly_entangling
from latentvqe.artifacts import canonical_json
from latentvqe.circuit import Circuit, resource_counts, simulate
from latentvqe.hamiltonian import exact_ground_energy, hamiltonian_for_distance
from latentvqe.optimize import OptimizerConfig, adam_minimize
from latentvqe.qae import (
    DEFAULT_TRAINING_BOND_LENGTHS, ENCODER, LATENT_PQC, QaeModel, QaeTrainingError,
    _batched_trash_cost_fn, _trash_empty, _trash_objective, decoder_circuit, latent_vqe_circuit, qae_from_json, qae_to_dict, reconstruct, train_qae,
    training_states_for, trash_cost,
)
from latentvqe.statevector import (
    PauliString, StateVector, expectation, pauli_sum_matrix, zero_state,
)


@pytest.fixture(scope="module")
def trained_model():
    return train_qae()


def random_4q_state(rng):
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    return StateVector(4, amp / np.linalg.norm(amp))


class TestTrashCost:
    def test_vacuum_with_identity_encoder(self):
        identity = Circuit(4, (), 0)
        assert trash_cost(identity, np.zeros(0), [zero_state(4)]) == pytest.approx(0.0)

    def test_excited_trash_with_identity_encoder(self):
        identity = Circuit(4, (), 0)
        amp = np.zeros(16, dtype=complex)
        amp[0b1100] = 1.0  # qubits 2 and 3 occupied
        assert trash_cost(identity, np.zeros(0), [StateVector(4, amp)]) == pytest.approx(1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            trash_cost(Circuit(4, (), 0), np.zeros(0), [])

    def test_batched_path_matches_reference(self):
        rng = np.random.default_rng(2)
        enc = qae_encoder(4, 2)
        states = [random_4q_state(rng) for _ in range(4)]
        cost, _ = _batched_trash_cost_fn(enc, states)
        p = rng.uniform(0, 2 * np.pi, enc.n_params)
        assert cost(p) == pytest.approx(trash_cost(enc, p, states), abs=1e-12)

    def test_fused_objective_is_bitwise_equal_to_cost_and_grad(self):
        # the cost from the gradient's forward pass against a separate run of the plan
        states = training_states_for(DEFAULT_TRAINING_BOND_LENGTHS)
        fun = _trash_objective(ENCODER, states)
        cost, grad = _batched_trash_cost_fn(ENCODER, states)
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = rng.uniform(-2 * np.pi, 2 * np.pi, ENCODER.n_params)
            value, gradient = fun(p)
            assert isinstance(value, float) and value.hex() == cost(p).hex()
            assert gradient.tobytes() == grad(p).tobytes()

    def test_projector_from_mask_is_the_pauli_sum(self):
        # |00><00| on qubits 2, 3 is prod_t (I + Z_t) / 2
        terms = [PauliString(ops, 0.25) for ops in ("IIII", "IIZI", "IIIZ", "IIZZ")]
        proj = np.diag(_trash_empty(4).astype(complex))
        assert proj.tobytes() == pauli_sum_matrix(terms, 4).tobytes()

    def test_single_state_compresses_to_machine_precision(self):
        rng = np.random.default_rng(9)
        enc = qae_encoder(4, 2)
        fun = _trash_objective(enc, [random_4q_state(rng)])
        res = adam_minimize(
            fun, rng.uniform(0, 2 * np.pi, enc.n_params),
            OptimizerConfig(max_iterations=800, tolerance=1e-16),
            stop_below=1e-13,
        )
        assert res["value"] < 1e-12


class TestTraining:
    def test_reaches_target_on_default_set(self, trained_model):
        assert trained_model.achieved_trash_infidelity < 1e-8
        assert trained_model.training_bond_lengths == (0.4, 0.7, 1.0, 1.5, 2.0, 2.5)

    def test_reconstruction_energies_on_training_set(self, trained_model):
        errors = []
        for r in trained_model.training_bond_lengths:
            h = hamiltonian_for_distance(r)
            res = exact_ground_energy(h)
            rec = reconstruct(trained_model, res["eigenvector"])
            errors.append(abs(expectation(rec, h.terms) - res["energy"]))
        assert np.mean(errors) < 1e-5

    def test_reconstruction_fidelity_bounded_by_trash_cost(self, trained_model):
        cost = trained_model.achieved_trash_infidelity
        for r in trained_model.training_bond_lengths:
            state = exact_ground_energy(hamiltonian_for_distance(r))["eigenvector"]
            fid = abs(np.vdot(state.amplitudes, reconstruct(trained_model, state).amplitudes)) ** 2
            assert fid >= 1.0 - 10.0 * max(cost, 1e-12)

    def test_held_out_bond_length_reconstructs(self, trained_model):
        state = exact_ground_energy(hamiltonian_for_distance(1.25))["eigenvector"]
        fid = abs(np.vdot(state.amplitudes, reconstruct(trained_model, state).amplitudes)) ** 2
        assert fid > 1.0 - 1e-6

    def test_needs_two_bond_lengths(self):
        with pytest.raises(ValueError):
            train_qae(bond_lengths=(0.7,))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QaeTrainingError):
            train_qae(config=OptimizerConfig(max_iterations=1, tolerance=1e-16, restarts=1))


class TestDecoder:
    def test_decoder_inverts_encoder_for_any_parameters(self):
        rng = np.random.default_rng(1)
        enc = qae_encoder(4, 2)
        params = rng.uniform(0, 2 * np.pi, enc.n_params)
        model = QaeModel(enc, params, 0.0, (0.5, 1.0))
        dec = decoder_circuit(model)
        for _ in range(5):
            s = random_4q_state(rng)
            out = simulate(dec, np.zeros(0), simulate(enc, params, s))
            assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-10


class TestLatentVqeCircuit:
    def test_free_parameter_count(self, trained_model):
        circ = latent_vqe_circuit(trained_model, strongly_entangling(2, 1))
        assert circ.n_params == 12
        assert resource_counts(strongly_entangling(2, 1))["n_gates"] == 6

    def test_default_pqc_is_the_one_datasets_name(self, trained_model):
        assert LATENT_PQC == strongly_entangling(2, 1)
        assert latent_vqe_circuit(trained_model) == latent_vqe_circuit(trained_model, LATENT_PQC)

    def test_qubit_count_mismatch_rejected(self, trained_model):
        with pytest.raises(ValueError):
            latent_vqe_circuit(trained_model, strongly_entangling(3, 1))

    def test_perfect_latent_state_recovers_oracle_energy(self, trained_model):
        # decode (latent <- encoded ground state, trash <- |00>): the energy
        # must match the oracle up to a small multiple of the trash cost
        for r in (0.7, 1.5):
            h = hamiltonian_for_distance(r)
            res = exact_ground_energy(h)
            rec = reconstruct(trained_model, res["eigenvector"])
            err = abs(expectation(rec, h.terms) - res["energy"])
            assert err <= 10.0 * max(trained_model.achieved_trash_infidelity, 1e-12)


class TestSerialization:
    def test_round_trip(self, trained_model):
        doc = qae_to_dict(trained_model)
        assert set(doc) == {"schema_version", "encoder_params", "achieved_trash_infidelity",
                            "training_bond_lengths"}
        text = canonical_json(doc)
        back = qae_from_json(text)
        assert canonical_json(qae_to_dict(back)) == text
        assert np.array_equal(back.encoder_params, trained_model.encoder_params)
        circ = latent_vqe_circuit(back, strongly_entangling(2, 1))
        assert circ.n_params == 12

    def test_schema_mismatch(self, trained_model):
        import json

        doc = qae_to_dict(trained_model)
        doc["schema_version"] = "nope/9"
        with pytest.raises(ValueError, match="schema"):
            qae_from_json(json.dumps(doc))


class TestModelChecks:
    def test_other_encoder_rejected(self):
        enc = qae_encoder(4, 1)
        with pytest.raises(ValueError, match="encoder"):
            QaeModel(enc, np.zeros(enc.n_params), 0.0, (0.5, 1.0))

    @pytest.mark.parametrize("params", [np.zeros(47), np.zeros(49), np.zeros((48, 1)),
                                        np.full(48, np.nan), np.full(48, np.inf)],
                             ids=["47", "49", "column", "nan", "inf"])
    def test_encoder_params_must_be_48_finite_angles(self, params):
        with pytest.raises(ValueError, match="encoder_params"):
            QaeModel(qae_encoder(4, 2), params, 0.0, (0.5, 1.0))
