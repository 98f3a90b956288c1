"""Kernel microbenchmarks on fixed, deterministic inputs.

Every input is built from constants or a fixed-seed generator, so the work
per call is identical on every run. Each kernel first runs in growing
batches until one lasts BATCH_S seconds (which also lets caches fill), then
that batch size is timed REPEATS times; the reported value is the median
per-call time.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

BATCH_S = 0.05
REPEATS = 5


def per_call_s(fn, repeats: int = REPEATS) -> float:
    calls = 1
    while True:  # the first batch also lets caches fill; it is not reported
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= BATCH_S or calls >= 1 << 20:
            break
        calls *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _latent_circuit(rng):
    from latentvqe.ansatz import qae_encoder, strongly_entangling
    from latentvqe.qae import DEFAULT_TRAINING_BOND_LENGTHS, QaeModel, latent_vqe_circuit

    encoder = qae_encoder(4, 2)
    model = QaeModel(encoder, rng.uniform(0, 2 * np.pi, encoder.n_params), 0.0,
                     DEFAULT_TRAINING_BOND_LENGTHS)
    return latent_vqe_circuit(model, strongly_entangling(2, 1))


def run() -> dict:
    from latentvqe import mlp
    from latentvqe.ansatz import efficient_su2, qae_encoder, uccsd_h2
    from latentvqe.circuit import Circuit, Gate, Param, apply_circuit
    from latentvqe.hamiltonian import (
        exact_ground_energy, hamiltonian_for_distance, sto3g_integrals,
    )
    from latentvqe.optimize import (
        DatasetRecord, OptimizerConfig, ParameterDataset, energy_fn,
        parameter_shift_gradient, staged_gate_optimize,
    )
    from latentvqe.qae import (
        DEFAULT_TRAINING_BOND_LENGTHS, _batched_trash_cost_fn, training_states_for,
    )
    from latentvqe.statevector import zero_state

    rng = np.random.default_rng(20241115)
    out = {}

    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    stack = rng.normal(size=(16, 6)) + 1j * rng.normal(size=(16, 6))
    u3 = Circuit(4, (Gate("U3", (1,), (Param.ref(0), Param.ref(1), Param.ref(2))),), 3)
    cnot = Circuit(4, (Gate("CNOT", (0, 2)),), 0)
    angles = np.array([0.3, 0.7, 1.1])
    none = np.zeros(0)
    out["statevector.gate_1q_us"] = 1e6 * per_call_s(lambda: apply_circuit(state, u3, angles))
    out["statevector.gate_1q_batch6_us"] = 1e6 * per_call_s(lambda: apply_circuit(stack, u3, angles))
    out["circuit.cnot_us"] = 1e6 * per_call_s(lambda: apply_circuit(state, cnot, none))

    h = hamiltonian_for_distance(0.735)
    zero = zero_state(4)
    latent = _latent_circuit(rng)
    for name, circ in (("latent", latent), ("su2", efficient_su2(4, 3)), ("uccsd", uccsd_h2())):
        cost = energy_fn(circ, h, zero)
        x = rng.uniform(0, 2 * np.pi, circ.n_params)
        out[f"optimize.energy_eval_us.{name}"] = 1e6 * per_call_s(lambda: cost(x))
    out["optimize.energy_fn_build_us"] = 1e6 * per_call_s(lambda: energy_fn(latent, h, zero))
    x = rng.uniform(0, 2 * np.pi, latent.n_params)
    out["optimize.param_shift_grad_ms.latent"] = 1e3 * per_call_s(
        lambda: parameter_shift_gradient(latent, h, x, zero))

    # One sweep step: a converged anchor, then the bounded staged solve at the
    # next acceptance-grid point with the first-step window (delta = 0).
    config = OptimizerConfig(tolerance=1e-11, max_iterations=400)
    anchor = staged_gate_optimize(latent, hamiltonian_for_distance(0.3 + 17 * 2.55 / 99),
                                  rng.uniform(0, 2 * np.pi, latent.n_params), config)["params"]
    h_next = hamiltonian_for_distance(0.3 + 18 * 2.55 / 99)
    box = (anchor - 0.025, anchor + 0.025)
    out["optimize.staged_step_ms"] = 1e3 * per_call_s(
        lambda: staged_gate_optimize(latent, h_next, anchor, config, bounds=box), repeats=2)

    encoder = qae_encoder(4, 2)
    _, grad = _batched_trash_cost_fn(encoder, training_states_for(DEFAULT_TRAINING_BOND_LENGTHS))
    p = rng.uniform(0, 2 * np.pi, encoder.n_params)
    out["qae.trash_grad_ms"] = 1e3 * per_call_s(lambda: grad(p))

    bonds = np.linspace(0.5, 1.1, 24)
    records = tuple(DatasetRecord(float(r), rng.uniform(0, 2 * np.pi, 12), 0.0, 0.0)
                    for r in bonds)
    dataset = ParameterDataset(records, 12)
    epochs = 1000
    out["mlp.epoch_us_fixed"] = 1e6 / epochs * per_call_s(
        lambda: mlp.train(dataset, mlp.TrainConfig(epochs=epochs)), repeats=3)

    out["hamiltonian.integrals_ms"] = 1e3 * per_call_s(lambda: sto3g_integrals(0.735))
    out["hamiltonian.build_ms"] = 1e3 * per_call_s(lambda: hamiltonian_for_distance(0.735))
    out["hamiltonian.oracle_ms"] = 1e3 * per_call_s(lambda: exact_ground_energy(h))
    return out
