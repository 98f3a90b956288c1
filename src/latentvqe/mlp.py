"""Dense feedforward network mapping bond length to latent-PQC angles.

Written from scratch on numpy: tanh hidden layers, linear output, and a
periodicity-aware loss that compares angles through their Cartesian
embedding, (cos a - cos b)^2 + (sin a - sin b)^2, so a prediction 2*pi away
from the target costs nothing. Trained full-batch by L-BFGS (Liu and
Nocedal, Math. Prog. 45, 503 (1989)), which stops once every gradient
component is at most GRADIENT_TOL or after the iteration cap.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .hamiltonian import exact_ground_energy, hamiltonian_for_distance
from .optimize import NumericalError, ParameterDataset, energy_fn
from .qae import QaeModel, latent_vqe_circuit
from .statevector import zero_state

HIDDEN = (30, 30, 30, 30)   # tanh hidden-layer widths
GRADIENT_TOL = 1e-5         # stop at max |d loss / d weight| <= this (SciPy L-BFGS-B's pgtol)
MEMORY = 10                 # L-BFGS curvature pairs kept
ARMIJO_C1, CURVATURE_C2 = 1e-4, 0.9    # weak Wolfe line-search constants
MAX_TRIALS = 60             # line-search evaluations per iteration


@dataclass(frozen=True)
class MlpModel:
    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]      # weights[k]: (layer_sizes[k], layer_sizes[k+1])
    biases: tuple[np.ndarray, ...]
    input_min: float
    input_max: float
    seed: int = 0

    def __post_init__(self):
        if self.input_min >= self.input_max:
            raise ValueError("input normalization range must have min < max")
        if self.layer_sizes[:1] != (1,):
            raise ValueError("the network takes one input, the bond length")
        if not len(self.weights) == len(self.biases) == len(self.layer_sizes) - 1:
            raise ValueError("need one weight matrix and one bias vector per layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.layer_sizes[k], self.layer_sizes[k + 1]):
                raise ValueError("weight shape mismatch with layer sizes")
            if b.shape != (self.layer_sizes[k + 1],):
                raise ValueError("bias shape mismatch with layer sizes")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60000         # L-BFGS iteration cap
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def circular_loss(predicted, target) -> float:
    """Mean over parameters of (cos t - cos p)^2 + (sin t - sin p)^2 = 2 (1 - cos(p - t))."""
    predicted, target = np.asarray(predicted, dtype=float), np.asarray(target, dtype=float)
    if predicted.shape != target.shape:
        raise ValueError("angle vectors must have equal length")
    return _loss_and_delta(predicted, target)[0]


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


def _loss_and_delta(pred, target):
    """Circular loss and its gradient with respect to `pred`."""
    diff = pred - target
    loss = float(np.mean(2.0 * (1.0 - np.cos(diff))))
    return loss, 2.0 * np.sin(diff) / diff.size


def loss_gradients(weights, biases, x, y):
    """Loss and its analytic weight/bias gradients for one batch (backprop)."""
    acts = _forward(x, weights, biases)
    loss, grad = _loss_and_delta(acts[-1], y)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for k in range(len(weights) - 1, -1, -1):
        grads_w[k] = acts[k].T @ grad
        grads_b[k] = grad.sum(axis=0)
        if k > 0:
            grad = (grad @ weights[k].T) * (1.0 - acts[k] ** 2)
    return loss, grads_w, grads_b


def lbfgs(fun, x: np.ndarray, max_iterations: int) -> dict:
    """Minimize in place over the flat vector `x`; `fun(x)` returns (value, gradient).

    Direction: the two-loop recursion over the last MEMORY pairs (Nocedal and
    Wright, Alg. 7.4). Step: the weak Wolfe conditions, found by doubling
    while the slope stays steep and bisecting once a step overshoots; the
    first trial is 1, or min(1, 1/|d|) before any pair is stored, as in SciPy.
    The curvature condition keeps s.y > 0; under an Armijo-only search, steps
    with s.y <= 0 are skipped and the memory can freeze. Stops with "gradient"
    once max |gradient| <= GRADIENT_TOL, or "budget" after `max_iterations`;
    `trace` holds the value at the start of each iteration run, `x` ends at
    the last accepted point.
    """
    n = x.size
    s_hist, y_hist, rho, alpha = np.zeros((MEMORY, n)), np.zeros((MEMORY, n)), {}, {}
    d, s, accepted = np.empty(n), np.empty(n), x.copy()
    pairs = []                                  # memory slots, oldest first
    value, grad = fun(x)
    trace, reason = [], "budget"
    for it in range(max_iterations):
        if not math.isfinite(value):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if np.max(np.abs(grad)) <= GRADIENT_TOL:
            reason = "gradient"
            break
        trace.append(value)
        np.negative(grad, out=d)
        for i in reversed(pairs):
            alpha[i] = rho[i] * (s_hist[i] @ d)
            d -= alpha[i] * y_hist[i]
        if pairs:
            d *= 1.0 / (rho[pairs[-1]] * (y_hist[pairs[-1]] @ y_hist[pairs[-1]]))
        for i in pairs:
            d += (alpha[i] - rho[i] * (y_hist[i] @ d)) * s_hist[i]
        slope = grad @ d
        step, lo, hi = (1.0 if pairs else min(1.0, 1.0 / np.linalg.norm(d))), 0.0, math.inf
        for _ in range(MAX_TRIALS):
            np.add(accepted, np.multiply(d, step, out=s), out=x)
            new_value, new_grad = fun(x)
            if not new_value <= value + ARMIJO_C1 * step * slope:
                hi = step
            elif new_grad @ d < CURVATURE_C2 * slope:
                lo = step
            else:
                break
            step = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        else:
            raise NumericalError(f"line search found no Wolfe step at iteration {it}")
        y = new_grad - grad
        sy = s @ y
        if sy > 0:                              # holds at a Wolfe step unless rounding intervenes
            slot = pairs.pop(0) if len(pairs) == MEMORY else len(pairs)
            s_hist[slot], y_hist[slot], rho[slot] = s, y, 1.0 / sy
            pairs.append(slot)
        accepted[:] = x
        value, grad = new_value, new_grad
    return {"stop_reason": reason, "iterations": len(trace), "trace": np.array(trace)}


def train(dataset: ParameterDataset, config: TrainConfig | None = None) -> dict:
    """Fit the angle regressor on a parameter dataset.

    Flagged records are excluded; inputs are min/max scaled to [0, 1]; the
    train/test split uses a seeded shuffle. Returns the model, the training
    loss at the start of each L-BFGS iteration, the iteration count, why
    training stopped ("gradient" or "budget"), and the held-out loss.
    """
    config = config or TrainConfig()
    records = [r for r in dataset.records if not r.flag]
    if len(records) < 20:
        raise ValueError(f"need at least 20 unflagged records, got {len(records)}")

    x_raw = np.array([r.bond_length for r in records])
    y = np.stack([r.angles for r in records])
    x_min, x_max = float(x_raw.min()), float(x_raw.max())
    if x_min == x_max:
        raise ValueError(f"all {len(records)} unflagged records share bond length {x_min}; "
                         "the input scaling needs at least two")
    x = ((x_raw - x_min) / (x_max - x_min)).reshape(-1, 1)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(records))
    n_train = max(1, int(round(config.train_fraction * len(records))))
    train_idx, test_idx = order[:n_train], order[n_train:]

    sizes = (1, *HIDDEN, y.shape[1])
    weights, biases = _glorot_init(rng, sizes)
    # the weights and biases become views into `theta`, which L-BFGS moves in place
    arrays = weights + biases
    theta = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    views = [theta[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]
    weights, biases = views[:len(weights)], views[len(weights):]
    xt, yt = x[train_idx], y[train_idx]

    def loss_and_gradient(_):
        loss, grads_w, grads_b = loss_gradients(weights, biases, xt, yt)
        return loss, np.concatenate([g.ravel() for g in grads_w + grads_b])

    run = lbfgs(loss_and_gradient, theta, config.epochs)

    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        input_min=x_min,
        input_max=x_max,
        seed=config.seed,
    )
    test_loss = float("nan")
    if len(test_idx):
        pred = _forward(x[test_idx], weights, biases)[-1]
        test_loss, _ = _loss_and_delta(pred, y[test_idx])
    final_train, _ = _loss_and_delta(_forward(xt, weights, biases)[-1], yt)
    return {
        "model": model,
        "train_loss_trace": run.pop("trace"),
        **run,
        "final_train_loss": final_train,
        "test_loss": test_loss,
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
    circuit = latent_vqe_circuit(qae)
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


# --- serialization ----------------------------------------------------------

def model_to_dict(model: MlpModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_normalization": {"min": model.input_min, "max": model.input_max},
        "seed": model.seed,
    }


def model_from_dict(doc: dict) -> MlpModel:
    require_schema(doc, "model")
    model = MlpModel(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=tuple(np.array(w) for w in doc["weights"]),
        biases=tuple(np.array(b) for b in doc["biases"]),
        input_min=float(doc["input_normalization"]["min"]),
        input_max=float(doc["input_normalization"]["max"]),
        seed=int(doc["seed"]),
    )
    if not all(np.all(np.isfinite(a)) for a in (*model.weights, *model.biases,
                                                 model.input_min, model.input_max)):
        raise ValueError("model weights, biases and input normalization must be finite")
    return model


def model_to_json(model: MlpModel) -> str:
    return canonical_json(model_to_dict(model))


def model_from_json(text: str) -> MlpModel:
    return model_from_dict(json.loads(text))
