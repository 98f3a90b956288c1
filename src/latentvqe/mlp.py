"""Dense feedforward network mapping bond length to latent-PQC angles.

Written from scratch on numpy: tanh hidden layers, linear output, and a
periodicity-aware loss that compares angles through their Cartesian
embedding, (cos a - cos b)^2 + (sin a - sin b)^2, so a prediction 2*pi away
from the target costs nothing. Trained with full-batch (or mini-batch)
gradient descent with momentum.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import strongly_entangling
from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .hamiltonian import exact_ground_energy, hamiltonian_for_distance
from .optimize import NumericalError, ParameterDataset, dataset_to_csv, energy_fn
from .qae import QaeModel, latent_vqe_circuit
from .statevector import zero_state

HIDDEN = (30, 30, 30, 30)   # tanh hidden-layer widths
MOMENTUM = 0.9


@dataclass(frozen=True)
class MlpModel:
    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]      # weights[k]: (layer_sizes[k], layer_sizes[k+1])
    biases: tuple[np.ndarray, ...]
    input_min: float
    input_max: float
    activation: str = "tanh"
    seed: int = 0
    dataset_hash: str = ""

    def __post_init__(self):
        if self.input_min >= self.input_max:
            raise ValueError("input normalization range must have min < max")
        for k, w in enumerate(self.weights):
            if w.shape != (self.layer_sizes[k], self.layer_sizes[k + 1]):
                raise ValueError("weight shape mismatch with layer sizes")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 60000
    batch_size: int = 0            # 0 = full batch
    train_fraction: float = 0.7
    seed: int = 0
    loss: str = "circular"         # or "cosine"

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1:
            raise ValueError("learning_rate must be > 0 and epochs >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.loss not in ("circular", "cosine"):
            raise ValueError(f"unknown loss {self.loss!r}")


def _angle_pair(predicted, target):
    predicted = np.asarray(predicted, dtype=float)
    target = np.asarray(target, dtype=float)
    if predicted.shape != target.shape:
        raise ValueError("angle vectors must have equal length")
    return predicted, target


def circular_loss(predicted, target) -> float:
    """Mean over parameters of (cos t - cos p)^2 + (sin t - sin p)^2 = 2 (1 - cos(p - t))."""
    return _loss_and_delta(*_angle_pair(predicted, target), "circular")[0]


def cosine_loss(predicted, target) -> float:
    """1 - mean cosine of the angle differences (the alternative loss flag)."""
    return _loss_and_delta(*_angle_pair(predicted, target), "cosine")[0]


def _glorot_init(rng: np.random.Generator, sizes):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(x, weights, biases):
    """Returns activations per layer; hidden layers tanh, output linear."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if k == last else np.tanh(z)
        acts.append(h)
    return acts


def _loss_and_delta(pred, target, kind):
    # Both losses reduce to functions of sin(pred - target); they differ by a
    # constant factor of 2 and share the gradient direction.
    diff = pred - target
    if kind == "circular":
        loss = float(np.mean(2.0 * (1.0 - np.cos(diff))))
        delta = 2.0 * np.sin(diff) / diff.size
    else:
        loss = float(np.mean(1.0 - np.cos(diff)))
        delta = np.sin(diff) / diff.size
    return loss, delta


def loss_gradients(weights, biases, x, y, kind="circular"):
    """Loss and its analytic weight/bias gradients for one batch (backprop)."""
    acts = _forward(x, weights, biases)
    loss, delta = _loss_and_delta(acts[-1], y, kind)
    grad = delta
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for k in range(len(weights) - 1, -1, -1):
        grads_w[k] = acts[k].T @ grad
        grads_b[k] = grad.sum(axis=0)
        if k > 0:
            grad = (grad @ weights[k].T) * (1.0 - acts[k] ** 2)
    return loss, grads_w, grads_b


def train(dataset: ParameterDataset, config: TrainConfig | None = None) -> dict:
    """Fit the angle regressor on a parameter dataset.

    Flagged records are excluded; inputs are min/max scaled to [0, 1]; the
    train/test split uses a seeded shuffle. Returns the model, the per-epoch
    training-loss trace, and the held-out loss.
    """
    config = config or TrainConfig()
    records = [r for r in dataset.records if not r.flag]
    if len(records) < 20:
        raise ValueError(f"need at least 20 unflagged records, got {len(records)}")

    x_raw = np.array([r.bond_length for r in records])
    y = np.stack([r.angles for r in records])
    x_min, x_max = float(x_raw.min()), float(x_raw.max())
    x = ((x_raw - x_min) / (x_max - x_min)).reshape(-1, 1)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(records))
    n_train = max(1, int(round(config.train_fraction * len(records))))
    train_idx, test_idx = order[:n_train], order[n_train:]

    sizes = (1, *HIDDEN, y.shape[1])
    weights, biases = _glorot_init(rng, sizes)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    xt, yt = x[train_idx], y[train_idx]
    trace = np.empty(config.epochs)
    batch = len(train_idx) if config.batch_size in (0, None) else min(config.batch_size, len(train_idx))
    last = len(weights) - 1

    for epoch in range(config.epochs):
        if batch == len(train_idx):
            xb, yb = xt, yt
        else:
            pick = rng.choice(len(train_idx), size=batch, replace=False)
            xb, yb = xt[pick], yt[pick]
        loss, grads_w, grads_b = loss_gradients(weights, biases, xb, yb, config.loss)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at epoch {epoch} (learning rate too high?)")
        trace[epoch] = loss
        for k in range(last, -1, -1):
            vel_w[k] = MOMENTUM * vel_w[k] - config.learning_rate * grads_w[k]
            vel_b[k] = MOMENTUM * vel_b[k] - config.learning_rate * grads_b[k]
            weights[k] = weights[k] + vel_w[k]
            biases[k] = biases[k] + vel_b[k]

    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        input_min=x_min,
        input_max=x_max,
        seed=config.seed,
        dataset_hash=dataset_fingerprint(dataset),
    )
    test_loss = float("nan")
    if len(test_idx):
        pred = _forward(x[test_idx], weights, biases)[-1]
        test_loss, _ = _loss_and_delta(pred, y[test_idx], config.loss)
    final_train, _ = _loss_and_delta(_forward(xt, weights, biases)[-1], yt, config.loss)
    return {
        "model": model,
        "train_loss_trace": trace,
        "final_train_loss": final_train,
        "test_loss": test_loss,
        "train_indices": train_idx,
        "test_indices": test_idx,
    }


def predict(model: MlpModel, bond_length: float) -> np.ndarray:
    """Angles in [0, 2*pi) for one bond length; rejects far extrapolation."""
    span = model.input_max - model.input_min
    if not model.input_min - 0.1 * span <= bond_length <= model.input_max + 0.1 * span:
        raise ValueError(
            f"bond length {bond_length} outside the trained range "
            f"[{model.input_min}, {model.input_max}] (+/- 10%)"
        )
    x = np.array([[(bond_length - model.input_min) / span]])
    out = _forward(x, model.weights, model.biases)[-1][0]
    return np.mod(out, 2.0 * math.pi)


def evaluate_energy_mae(model: MlpModel, qae: QaeModel, bond_lengths) -> dict:
    """Energy error of predicted angles against the exact oracle, per point."""
    circuit = latent_vqe_circuit(qae, strongly_entangling(2, 1))
    points = []
    for r in bond_lengths:
        h = hamiltonian_for_distance(float(r))
        cost = energy_fn(circuit, h, zero_state(circuit.n_qubits))
        angles = predict(model, float(r))
        energy = cost(angles)
        oracle = exact_ground_energy(h)["energy"]
        points.append({
            "bond_length": float(r),
            "energy": energy,
            "oracle_energy": oracle,
            "error": energy - oracle,
        })
    mae = float(np.mean([abs(p["error"]) for p in points]))
    return {"mae": mae, "per_point_errors": points}


def dataset_fingerprint(dataset: ParameterDataset) -> str:
    return hashlib.sha256(dataset_to_csv(dataset).encode()).hexdigest()[:16]


# --- serialization ----------------------------------------------------------

def model_to_dict(model: MlpModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "activation": model.activation,
        "input_normalization": {"min": model.input_min, "max": model.input_max},
        "seed": model.seed,
        "dataset_hash": model.dataset_hash,
    }


def model_from_dict(doc: dict) -> MlpModel:
    require_schema(doc, "model")
    return MlpModel(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=tuple(np.array(w) for w in doc["weights"]),
        biases=tuple(np.array(b) for b in doc["biases"]),
        input_min=float(doc["input_normalization"]["min"]),
        input_max=float(doc["input_normalization"]["max"]),
        activation=doc["activation"],
        seed=int(doc["seed"]),
        dataset_hash=doc["dataset_hash"],
    )


def model_to_json(model: MlpModel) -> str:
    return canonical_json(model_to_dict(model))


def model_from_json(text: str) -> MlpModel:
    return model_from_dict(json.loads(text))
