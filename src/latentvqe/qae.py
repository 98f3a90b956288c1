"""Quantum autoencoder: trash-state training and latent-VQE assembly.

The encoder compresses 4-qubit H2 ground states into the latent qubits
{0, 1}; training drives the trash qubits {2, 3} to |00>. The decoder is the
exact inverse of the trained encoder, so the latent VQE circuit is
PQC(theta) on the latent wires followed by the frozen decoder.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ansatz import qae_encoder
from .artifacts import SCHEMA_VERSION, require_schema
from .circuit import Circuit, apply_circuit, bind_constants, inverse, simulate
from .hamiltonian import exact_ground_energy, hamiltonian_for_distance
from .optimize import (
    LATENT_PQC, OptimizerConfig, adam_minimize, batched_energies, batched_shift_gradient,
    best_of_starts,
)
from .statevector import StateVector, partial_trace

LATENT_QUBITS = (0, 1)
TRASH_QUBITS = (2, 3)
# the one encoder: every QaeModel carries exactly this circuit, and qae.json only its angles
ENCODER = qae_encoder(len(LATENT_QUBITS) + len(TRASH_QUBITS), 2)
DEFAULT_TRAINING_BOND_LENGTHS = (0.4, 0.7, 1.0, 1.5, 2.0, 2.5)
# Adam budget, gradient stop and restart budget of QAE training, and the trash cost it aims below
QAE_CONFIG = OptimizerConfig(max_iterations=1200, tolerance=1e-13, restarts=20)
QAE_TARGET = 1e-8


class QaeTrainingError(RuntimeError):
    """Restart budget exhausted with the encoder still badly inexpressive."""


@dataclass(frozen=True)
class QaeModel:
    encoder: Circuit
    encoder_params: np.ndarray
    achieved_trash_infidelity: float
    training_bond_lengths: tuple[float, ...]

    def __post_init__(self):
        if self.encoder != ENCODER:
            raise ValueError("the encoder must be qae_encoder(4, 2)")
        params = self.encoder_params
        if params.shape != (ENCODER.n_params,) or not np.all(np.isfinite(params)):
            raise ValueError(f"encoder_params must be {ENCODER.n_params} finite angles, got shape "
                             f"{params.shape} with {np.sum(~np.isfinite(params))} not finite")
        if not 0.0 <= self.achieved_trash_infidelity <= 1.0:
            raise ValueError("trash infidelity must lie in [0, 1]")


def _trash_empty(n_qubits: int) -> np.ndarray:
    """Mask of the basis states whose trash qubits all read 0."""
    mask = sum(1 << t for t in TRASH_QUBITS)
    return (np.arange(1 << n_qubits) & mask) == 0


def trash_cost(encoder: Circuit, encoder_params, training_states) -> float:
    """Mean over states of 1 - <00|Tr_latent[E rho E+]|00>, by partial trace.

    The reference for the batched training cost, which projects with
    `_trash_empty` instead.
    """
    training_states = list(training_states)
    if not training_states:
        raise ValueError("empty training set")
    total = 0.0
    for state in training_states:
        encoded = simulate(encoder, encoder_params, state)
        total += 1.0 - float(partial_trace(encoded, TRASH_QUBITS)[0, 0].real)
    return total / len(training_states)


def _trash_objective(encoder: Circuit, states):
    """params -> (trash cost, gradient) of one `Plan.gradient` call on all states as columns,
    the cost 1 - mean <psi|P|psi> (P the trash projector) from its forward pass."""
    cols = np.stack([s.amplitudes for s in states], axis=1)
    proj = np.diag(_trash_empty(encoder.n_qubits).astype(complex))

    def fun(params):
        energy, grad = batched_shift_gradient(encoder, proj, params, cols)
        return 1.0 - energy, -grad

    return fun


def _batched_trash_cost_fn(encoder: Circuit, states):
    """(cost, grad) of `_trash_objective`, the cost from a separate run of the plan."""
    fun = _trash_objective(encoder, states)
    cols = np.stack([s.amplitudes for s in states], axis=1)
    proj = np.diag(_trash_empty(encoder.n_qubits).astype(complex))
    cost = lambda params: 1.0 - float(np.mean(batched_energies(
        apply_circuit(cols, encoder, params), proj)))
    return cost, lambda params: fun(params)[1]


def training_states_for(bond_lengths) -> list[StateVector]:
    return [
        exact_ground_energy(hamiltonian_for_distance(r))["eigenvector"]
        for r in bond_lengths
    ]


def train_qae(
    bond_lengths=DEFAULT_TRAINING_BOND_LENGTHS,
    config: OptimizerConfig = QAE_CONFIG,
    target: float = QAE_TARGET,
) -> QaeModel:
    """Train the 2-layer encoder on exact ground states at the given bond lengths.

    Each of up to config.restarts random starts (`best_of_starts`) runs Adam on
    `_trash_objective`, stopping below target / 10 (see `adam_minimize`); the
    starts end once the best cost beats `target`. If none did, raises
    QaeTrainingError when the best cost is still above 1e-4.
    """
    bond_lengths = tuple(float(r) for r in bond_lengths)
    if len(bond_lengths) < 2:
        raise ValueError("need at least 2 training bond lengths")
    states = training_states_for(bond_lengths)
    fun = _trash_objective(ENCODER, states)
    best = best_of_starts(lambda x0: adam_minimize(fun, x0, config, stop_below=target / 10.0),
                          ENCODER.n_params, np.random.default_rng(config.seed), config.restarts,
                          stop_below=target)
    if best["value"] >= target and best["value"] > 1e-4:  # every restart ran
        raise QaeTrainingError(
            f"trash cost {best['value']:.3e} after {config.restarts} restarts; "
            "encoder is not expressive enough"
        )
    exact_cost = trash_cost(ENCODER, best["params"], states)
    return QaeModel(
        encoder=ENCODER,
        encoder_params=np.asarray(best["params"], dtype=float),
        achieved_trash_infidelity=max(exact_cost, 0.0),
        training_bond_lengths=bond_lengths,
    )


def decoder_circuit(model: QaeModel) -> Circuit:
    """Inverse of the encoder with the trained parameters frozen in."""
    return inverse(bind_constants(model.encoder, model.encoder_params))


def latent_vqe_circuit(model: QaeModel, pqc: Circuit | None = None) -> Circuit:
    """PQC(theta) on the latent qubits of |0000>, then the frozen decoder.

    The PQC defaults to LATENT_PQC, the one the pipeline optimizes.
    """
    pqc = LATENT_PQC if pqc is None else pqc
    if pqc.n_qubits != len(LATENT_QUBITS):
        raise ValueError(
            f"PQC acts on {pqc.n_qubits} qubits but the latent space has {len(LATENT_QUBITS)}"
        )
    # the PQC's wires 0, 1 are the latent wires as they stand, since LATENT_QUBITS == (0, 1),
    # and the frozen decoder reads no parameter slot
    decoder = decoder_circuit(model)
    return Circuit(decoder.n_qubits, pqc.gates + decoder.gates, pqc.n_params)


def reconstruct(model: QaeModel, state: StateVector) -> StateVector:
    """Encode, reset the trash register to |00> (post-select), decode."""
    encoded = simulate(model.encoder, model.encoder_params, state)
    amp = encoded.amplitudes.copy()
    amp[~_trash_empty(encoded.n_qubits)] = 0.0
    norm = np.linalg.norm(amp)
    if norm < 1e-12:
        raise ValueError("encoded state has no support on |00> trash")
    projected = StateVector(encoded.n_qubits, amp / norm)
    return simulate(decoder_circuit(model), np.zeros(0), projected)


# --- serialization ----------------------------------------------------------

def qae_to_dict(model: QaeModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "encoder_params": [float(x) for x in model.encoder_params],
        "achieved_trash_infidelity": model.achieved_trash_infidelity,
        "training_bond_lengths": list(model.training_bond_lengths),
    }


def qae_from_dict(doc: dict) -> QaeModel:
    require_schema(doc, "QAE")
    return QaeModel(
        encoder=ENCODER,
        encoder_params=np.array(doc["encoder_params"], dtype=float),
        achieved_trash_infidelity=float(doc["achieved_trash_infidelity"]),
        training_bond_lengths=tuple(float(r) for r in doc["training_bond_lengths"]),
    )


def qae_from_json(text: str) -> QaeModel:
    return qae_from_dict(json.loads(text))
