"""Quantum autoencoder: trash-state training and latent-VQE assembly.

The encoder compresses 4-qubit H2 ground states into the latent qubits
{0, 1}; training drives the trash qubits {2, 3} to |00>. The decoder is the
exact inverse of the trained encoder, so the latent VQE circuit is
PQC(theta) on the latent wires followed by the frozen decoder.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import qae_encoder
from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .circuit import (
    Circuit, apply_circuit, bind_constants, circuit_from_dict, circuit_to_dict, concat,
    inverse, remap_qubits, simulate,
)
from .hamiltonian import exact_ground_energy, hamiltonian_for_distance
from .optimize import (
    ADAM_PARAM_SHIFT, OptimizerConfig, adam_minimize, batched_energies,
    batched_shift_gradient, minimize,
)
from .statevector import (
    PauliString, StateVector, fidelity_with_zero, partial_trace, pauli_sum_matrix,
)

LATENT_QUBITS = (0, 1)
TRASH_QUBITS = (2, 3)
DEFAULT_TRAINING_BOND_LENGTHS = (0.4, 0.7, 1.0, 1.5, 2.0, 2.5)


class QaeTrainingError(RuntimeError):
    """Restart budget exhausted with the encoder still badly inexpressive."""


@dataclass(frozen=True)
class QaeModel:
    encoder: Circuit
    encoder_params: np.ndarray
    achieved_trash_infidelity: float
    training_bond_lengths: tuple[float, ...]
    latent_qubits: tuple[int, ...] = LATENT_QUBITS
    trash_qubits: tuple[int, ...] = TRASH_QUBITS

    def __post_init__(self):
        n = self.encoder.n_qubits
        if sorted(self.latent_qubits + self.trash_qubits) != list(range(n)):
            raise ValueError("latent and trash qubits must partition the register")
        if not 0.0 <= self.achieved_trash_infidelity <= 1.0:
            raise ValueError("trash infidelity must lie in [0, 1]")


def trash_projector(n_qubits: int, trash_qubits=TRASH_QUBITS) -> tuple[PauliString, ...]:
    """|0..0><0..0| on the trash qubits as a Pauli sum: prod (I + Z_t)/2."""
    strings = [("I" * n_qubits, 1.0)]
    for t in trash_qubits:
        grown = []
        for ops, c in strings:
            grown.append((ops, c * 0.5))
            grown.append((ops[:t] + "Z" + ops[t + 1:], c * 0.5))
        strings = grown
    return tuple(PauliString(ops, c) for ops, c in strings)


def trash_cost(encoder: Circuit, encoder_params, training_states) -> float:
    """Mean over states of 1 - <00|Tr_latent[E rho E+]|00>."""
    training_states = list(training_states)
    if not training_states:
        raise ValueError("empty training set")
    total = 0.0
    for state in training_states:
        encoded = simulate(encoder, encoder_params, state)
        rho = partial_trace(encoded, TRASH_QUBITS)
        total += 1.0 - fidelity_with_zero(rho)
    return total / len(training_states)


def _batched_trash_cost_fn(encoder: Circuit, states):
    """Fast training path: all states as columns, projector as a dense matrix."""
    cols = np.stack([s.amplitudes for s in states], axis=1)
    proj = pauli_sum_matrix(trash_projector(encoder.n_qubits), encoder.n_qubits)

    def cost(params):
        amp = apply_circuit(cols, encoder, np.asarray(params, dtype=float))
        return 1.0 - float(np.mean(batched_energies(amp, proj)))

    def grad(params):
        return -batched_shift_gradient(encoder, proj, params, cols)

    return cost, grad


def training_states_for(bond_lengths) -> list[StateVector]:
    return [
        exact_ground_energy(hamiltonian_for_distance(r))["eigenvector"]
        for r in bond_lengths
    ]


def train_qae(
    bond_lengths=DEFAULT_TRAINING_BOND_LENGTHS,
    config: OptimizerConfig | None = None,
    target: float = 1e-8,
) -> QaeModel:
    """Train the 2-layer encoder on exact ground states at the given bond lengths.

    Each restart runs Adam from a fresh random initialization, then a short
    Nelder-Mead polish if Adam stopped short of `target`. Restarts continue
    until the trash cost beats `target` or the restart budget
    (config.restarts, default 20) runs out; raises QaeTrainingError if the
    best cost is still above 1e-4 then.
    """
    bond_lengths = tuple(float(r) for r in bond_lengths)
    if len(bond_lengths) < 2:
        raise ValueError("need at least 2 training bond lengths")
    encoder = qae_encoder(4, 2)
    config = config or OptimizerConfig(
        method=ADAM_PARAM_SHIFT, max_iterations=1200, tolerance=1e-13,
        restarts=20, learning_rate=0.1,
    )
    states = training_states_for(bond_lengths)
    cost, grad = _batched_trash_cost_fn(encoder, states)
    rng = np.random.default_rng(config.seed)

    best_params = None
    best_cost = math.inf
    for _ in range(max(1, config.restarts)):
        x0 = rng.uniform(0.0, 2.0 * math.pi, encoder.n_params)
        res = adam_minimize(cost, grad, x0, config, stop_below=target / 10.0)
        if res["value"] >= target:
            # squeeze the tail with a short simplex polish around the optimum
            res = minimize(
                cost, res["params"], config=OptimizerConfig(max_iterations=400, tolerance=1e-15)
            )
        if res["value"] < best_cost:
            best_cost = res["value"]
            best_params = res["params"]
        if best_cost < target:
            break

    if best_cost > 1e-4:
        raise QaeTrainingError(
            f"trash cost {best_cost:.3e} after {config.restarts} restarts; "
            "encoder is not expressive enough"
        )
    exact_cost = trash_cost(encoder, best_params, states)
    return QaeModel(
        encoder=encoder,
        encoder_params=np.asarray(best_params, dtype=float),
        achieved_trash_infidelity=max(exact_cost, 0.0),
        training_bond_lengths=bond_lengths,
    )


def decoder_circuit(model: QaeModel) -> Circuit:
    """Inverse of the encoder with the trained parameters frozen in."""
    return inverse(bind_constants(model.encoder, model.encoder_params))


def latent_vqe_circuit(model: QaeModel, pqc: Circuit) -> Circuit:
    """PQC(theta) on the latent qubits of |0000>, then the frozen decoder."""
    if pqc.n_qubits != len(model.latent_qubits):
        raise ValueError(
            f"PQC acts on {pqc.n_qubits} qubits but the latent space has "
            f"{len(model.latent_qubits)}"
        )
    n = model.encoder.n_qubits
    mapping = {i: q for i, q in enumerate(model.latent_qubits)}
    embedded = remap_qubits(pqc, mapping, n)
    return concat(embedded, decoder_circuit(model))


def reconstruct(model: QaeModel, state: StateVector) -> StateVector:
    """Encode, reset the trash register to |00> (post-select), decode."""
    encoded = simulate(model.encoder, model.encoder_params, state)
    amp = encoded.amplitudes.copy()
    mask = 0
    for t in model.trash_qubits:
        mask |= 1 << t
    idx = np.arange(amp.size)
    amp[(idx & mask) != 0] = 0.0
    norm = np.linalg.norm(amp)
    if norm < 1e-12:
        raise ValueError("encoded state has no support on |00> trash")
    projected = StateVector(encoded.n_qubits, amp / norm)
    return simulate(decoder_circuit(model), np.zeros(0), projected)


# --- serialization ----------------------------------------------------------

def qae_to_dict(model: QaeModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "encoder": circuit_to_dict(model.encoder),
        "encoder_params": [float(x) for x in model.encoder_params],
        "latent_qubits": list(model.latent_qubits),
        "trash_qubits": list(model.trash_qubits),
        "achieved_trash_infidelity": model.achieved_trash_infidelity,
        "training_bond_lengths": list(model.training_bond_lengths),
    }


def qae_from_dict(doc: dict) -> QaeModel:
    require_schema(doc, "QAE")
    return QaeModel(
        encoder=circuit_from_dict(doc["encoder"]),
        encoder_params=np.array(doc["encoder_params"], dtype=float),
        achieved_trash_infidelity=float(doc["achieved_trash_infidelity"]),
        training_bond_lengths=tuple(float(r) for r in doc["training_bond_lengths"]),
        latent_qubits=tuple(doc["latent_qubits"]),
        trash_qubits=tuple(doc["trash_qubits"]),
    )


def qae_to_json(model: QaeModel) -> str:
    return canonical_json(qae_to_dict(model))


def qae_from_json(text: str) -> QaeModel:
    return qae_from_dict(json.loads(text))
