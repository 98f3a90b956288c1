"""Compiled evaluation plans (`apply_circuit`) against the gate-by-gate reference `apply_gates`."""
import numpy as np
import pytest

from latentvqe.ansatz import efficient_su2, qae_encoder, uccsd_h2
from latentvqe.circuit import (
    _U3_PHASES, Circuit, ConstantStep, Gate, LayerStep, Param, apply_circuit, apply_gates,
    compile_plan, simulate, swap_test_circuit,
)
from latentvqe.hamiltonian import hamiltonian_for_distance
from latentvqe import optimize
from latentvqe.optimize import batched_shift_gradient, energy_fn, parameter_shift_gradient
from latentvqe.qae import (
    DEFAULT_TRAINING_BOND_LENGTHS, QaeModel, _batched_trash_cost_fn, latent_vqe_circuit,
    training_states_for,
)
from latentvqe.statevector import StateVector, expectation, zero_state


def random_amplitudes(rng, n, *batch):
    amp = rng.normal(size=(1 << n, *batch)) + 1j * rng.normal(size=(1 << n, *batch))
    return amp / np.linalg.norm(amp, axis=0)


def latent_circuit(seed=0):
    encoder = qae_encoder(4, 2)
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, encoder.n_params)
    return latent_vqe_circuit(QaeModel(encoder, params, 0.0, DEFAULT_TRAINING_BOND_LENGTHS))


CIRCUITS = {
    "uccsd": uccsd_h2,
    "su2": lambda: efficient_su2(4, 3),
    "latent": latent_circuit,
    "qae_encoder": lambda: qae_encoder(4, 2),
    "swap_test": lambda: swap_test_circuit(2),
    "mixed_width": lambda: mixed_width_circuit(),
}


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_plan_matches_reference(name):
    circuit = CIRCUITS[name]()
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = rng.uniform(-2 * np.pi, 2 * np.pi, circuit.n_params)
        for amp in (random_amplitudes(rng, circuit.n_qubits),
                    random_amplitudes(rng, circuit.n_qubits, 3)):
            np.testing.assert_allclose(
                apply_circuit(amp, circuit, params),
                apply_gates(amp, circuit.gates, params, circuit.n_qubits), rtol=0, atol=1e-12)


def test_plan_shapes():
    # UCCSD is 12 RZ rotations inside 13 constant Clifford frames
    steps = compile_plan(uccsd_h2()).steps
    assert [isinstance(s, ConstantStep) for s in steps] == [True, False] * 12 + [True]
    assert all(s.kind == "phase" and len(s.gates) == 1 for s in steps[1::2])
    # SU2: an RY layer and an RZ layer per block, each CNOT block as one step
    steps = compile_plan(efficient_su2(4, 3)).steps
    assert [getattr(s, "kind", "constant") for s in steps] == (
        ["RY", "phase", "constant"] * 3 + ["RY", "phase"])
    # latent: U3 layer, CNOT, U3 layer, then CNOT plus the frozen decoder as one matrix
    steps = compile_plan(latent_circuit()).steps
    assert [type(s) for s in steps] == [LayerStep, ConstantStep, LayerStep, ConstantStep]
    # RY and U3 layers of unequal widths, masked where they leave a qubit out
    steps = compile_plan(mixed_width_circuit()).steps
    assert [(s.kind, len(s.gates), s.mask is not None) for s in steps
            if s.kind in ("RY", "U3")] == [("RY", 3, False), ("RY", 1, True), ("U3", 2, True),
                                           ("U3", 3, False), ("RY", 1, True)]


@pytest.mark.parametrize("seed", range(5))
def test_cnot_x_runs_are_exact(seed):
    rng = np.random.default_rng(seed)
    n = 4
    gates = []
    for _ in range(int(rng.integers(1, 30))):
        if rng.random() < 0.5:
            gates.append(Gate("X", (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(a), int(b))))
    circuit = Circuit(n, tuple(gates), 0)
    (step,) = compile_plan(circuit).steps
    for amp in (random_amplitudes(rng, n), random_amplitudes(rng, n, 2)):
        assert np.array_equal(step.matrix @ amp, apply_gates(amp, gates, np.zeros(0), n))
        # the transpose undoes the run, as the backward walk needs
        assert np.array_equal(step.matrix.T @ (step.matrix @ amp), amp)
    # the plan gathers rows instead of multiplying: the same bytes, zero amplitudes included
    for amp in (random_amplitudes(rng, n), random_amplitudes(rng, n, 3), zero_state(n).amplitudes):
        assert (apply_circuit(amp, circuit, np.zeros(0)).tobytes()
                == (step.matrix @ amp).tobytes())
        assert (step.backward(amp, None, step.op, None, None, None).tobytes()
                == (step.matrix.conj().T @ amp).tobytes())
    # with an H or a constant U1 in the run, the plan multiplies by the dense matrix
    for extra in (Gate("H", (1,)), Gate("U1", (2,), (Param.const(0.3),))):
        mixed = Circuit(n, (*gates, extra, *gates), 0)
        (step,) = compile_plan(mixed).steps
        assert step.op is step.matrix
        for amp in (random_amplitudes(rng, n), random_amplitudes(rng, n, 3)):
            assert (apply_circuit(amp, mixed, np.zeros(0)).tobytes()
                    == (step.matrix @ amp).tobytes())
            assert (step.backward(amp, None, step.op, None, None, None).tobytes()
                    == (step.matrix.conj().T @ amp).tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    for circuit in (uccsd_h2(), efficient_su2(4, 3), latent_circuit()):
        params = np.zeros(circuit.n_params)
        params[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            apply_circuit(zero_state(4).amplitudes, circuit, params)
        h = hamiltonian_for_distance(0.735)
        with pytest.raises(ValueError, match="finite"):
            energy_fn(circuit, h, zero_state(4))(params)
        with pytest.raises(ValueError, match="finite"):
            parameter_shift_gradient(circuit, h, params, zero_state(4))


@pytest.mark.parametrize("shape", [(3,), (11,), (13,), (1, 12), ()])
def test_parameter_shape_must_match_the_circuit(shape):
    # the latent circuit reads slots 0-11 only; too long a vector used to pass
    # silently and too short a one to end in an IndexError
    plan = compile_plan(latent_circuit())
    with pytest.raises(ValueError, match="12 parameters"):
        plan.angles(np.zeros(shape))
    assert plan.angles(np.zeros(12)).shape == (12,)


@pytest.mark.parametrize("name", ["uccsd", "su2", "latent"])
def test_energy_fn_matches_pauli_string_expectation(name):
    circuit = CIRCUITS[name]()
    # UCCSD and latent end in a constant step, SU2 in a layer; energy_fn runs all of it
    assert isinstance(compile_plan(circuit).steps[-1], ConstantStep) == (name != "su2")
    rng = np.random.default_rng(3)
    for r in (0.5, 0.735, 2.0):
        h = hamiltonian_for_distance(r)
        for cost in (energy_fn(circuit, h, zero_state(4)),
                     energy_fn(circuit, h.terms, zero_state(4))):
            for _ in range(5):
                params = rng.uniform(-np.pi, np.pi, circuit.n_params)
                reference = expectation(simulate(circuit, params, zero_state(4)), h.terms)
                assert abs(cost(params) - reference) < 1e-12


def test_energy_fn_from_a_non_vacuum_state():
    # UCCSD's plan starts with a constant step, applied to the given state
    circuit = uccsd_h2()
    rng = np.random.default_rng(5)
    amp = random_amplitudes(rng, 4)
    initial = StateVector(4, amp)
    h = hamiltonian_for_distance(1.2)
    params = rng.uniform(-np.pi, np.pi, 3)
    reference = expectation(simulate(circuit, params, initial), h.terms)
    assert abs(energy_fn(circuit, h, initial)(params) - reference) < 1e-12


def partial_u3_circuit():
    gates = (
        Gate("U3", (0,), (Param(0, -1.5, 0.3), Param.const(0.7), Param(1, 2.0, -0.4))),
        Gate("RY", (1,), (Param(1, 0.5, 1.1),)),
        Gate("RZ", (0,), (Param(0, 3.0, -0.2),)),
        Gate("U1", (1,), (Param(1, -1.0, 0.9),)),
        Gate("H", (2,)),
        Gate("U1", (2,), (Param(0, 1.0, 0.25),)),
    )
    return Circuit(3, gates, 2)


def test_offsets_and_coefficients_enter_every_layer_kind():
    circuit = partial_u3_circuit()
    gates = circuit.gates
    # U3 layer, RY layer, one phase layer for RZ and U1, the constant H, a phase layer
    assert len(compile_plan(circuit).steps) == 5
    rng = np.random.default_rng(11)
    amp = random_amplitudes(rng, 3)
    params = np.array([0.8, -1.3])
    np.testing.assert_allclose(apply_circuit(amp, circuit, params),
                               apply_gates(amp, gates, params, 3), rtol=0, atol=1e-12)
    # the adjoint gradient through the same layers, the U3 layer being partial (masked)
    hmat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    hmat = hmat + hmat.conj().T
    cols = random_amplitudes(rng, 3, 2)
    def cost(x):
        out = apply_gates(cols, gates, x, 3)
        return np.mean(np.real(np.einsum("ib,ib->b", out.conj(), hmat @ out)))
    h = 1e-5
    fd = [(cost(params + h * e) - cost(params - h * e)) / (2 * h) for e in np.eye(2)]
    np.testing.assert_allclose(batched_shift_gradient(circuit, hmat, params, cols)[1], fd,
                               rtol=0, atol=1e-7)


def mixed_width_circuit():
    """RY and U3 layers of different widths, some masked, so the stacked index pads."""
    ry = lambda q, slot: Gate("RY", (q,), (Param.ref(slot),))
    u3 = lambda q, a, b, c: Gate("U3", (q,), (Param.ref(a), Param.ref(b), Param(c, -1.0, 0.4)))
    gates = (
        ry(0, 0), ry(1, 1), ry(2, 2), Gate("CNOT", (0, 1)), ry(1, 3),
        u3(0, 4, 5, 6), u3(2, 7, 8, 9), Gate("RZ", (1,), (Param.ref(10),)),
        Gate("CNOT", (2, 0)), u3(1, 1, 10, 3), u3(0, 2, 4, 8), u3(2, 5, 0, 6),
        Gate("H", (2,)), ry(0, 9),
    )
    return Circuit(3, gates, 11)


def reference_entries(step, angles):
    """A rotation layer's 2x2 entries and their theta derivatives, built from its own angles."""
    a, phases = angles[step.lo:step.hi], 1.0
    if step.kind == "U3":
        a = a.reshape(-1, 3)
        phases = np.exp(1j * (a[:, 1:] @ _U3_PHASES))
        a = a[:, 0]
    c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    return (np.stack([c, -s, s, c], axis=1) * phases,
            0.5 * np.stack([-s, -c, c, -s], axis=1) * phases)


def is_rotation(step):
    return isinstance(step, LayerStep) and step.kind != "phase"


def reference_operator(step, angles):
    """A step's operator built from its own gates: a matrix, or a phase vector."""
    if isinstance(step, ConstantStep):
        return step.matrix
    if step.kind == "phase":
        return np.exp(1j * (step.weights @ angles[step.lo:step.hi]))
    entries, _ = reference_entries(step, angles)
    return step._masked(entries.reshape(-1)[step.index].prod(axis=0))


def reference_step(step, amp, angles):
    op = reference_operator(step, angles)
    if op.ndim == 2:
        return op @ amp
    return (op[:, None] if amp.ndim > 1 else op) * amp


def reference_apply(plan, amp, params):
    """`Plan.apply` with every step building its own operator."""
    angles = plan.angles(params)
    for step in plan.steps:
        amp = reference_step(step, amp, angles)
    return amp


def reference_backward(step, lam, pre, angles, dangles):
    entries, dtheta = reference_entries(step, angles)
    factors = entries.reshape(-1)[step.index]
    ones = np.ones_like(factors[:1])
    before = np.concatenate([ones, np.cumprod(factors[:-1], axis=0)])
    after = np.concatenate([np.cumprod(factors[:0:-1], axis=0)[::-1], ones])
    weighted = step._masked(before * after * (lam.conj() @ pre.T)).ravel()
    index, size = step.index.ravel(), entries.size
    env = (np.bincount(index, weighted.real, size)
           + 1j * np.bincount(index, weighted.imag, size)).reshape(entries.shape)
    grads = np.real(np.sum(env * dtheta, axis=1))[:, None]
    if step.kind == "U3":
        grads = np.hstack([grads, -((env * entries) @ _U3_PHASES.T).imag])
    dangles[step.lo:step.hi] = grads.ravel()
    return step._masked(before[-1] * factors[-1]).conj().T @ lam


def reference_gradient(plan, amp, params, observable):
    """`Plan.gradient` with every step building its own operator."""
    angles = plan.angles(params)
    states = [amp]
    for step in plan.steps:
        states.append(reference_step(step, states[-1], angles))
    lam = observable @ states.pop()
    dangles = np.zeros_like(angles)
    for step, pre in zip(reversed(plan.steps), reversed(states)):
        if is_rotation(step):
            lam = reference_backward(step, lam, pre, angles, dangles)
        else:
            op = reference_operator(step, angles)
            lam = step.backward(lam, pre, op, angles, dangles, None)
    grad = np.zeros(plan.n_params)
    np.add.at(grad, plan._slots, 2.0 * plan._coeffs * dangles)
    return grad


BITWISE_CIRCUITS = dict(CIRCUITS, partial_u3=partial_u3_circuit, mixed_width=mixed_width_circuit)


@pytest.mark.parametrize("name", ["uccsd", "su2", "qae_encoder", "latent", "partial_u3",
                                  "mixed_width"])
def test_tables_are_bitwise_equal_to_per_layer_entries(name):
    # one operator build per call reads the same cos/sin/phase values and products
    # as each layer building its own
    circuit = BITWISE_CIRCUITS[name]()
    plan, n = compile_plan(circuit), circuit.n_qubits
    rng = np.random.default_rng(17)
    hmat = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    hmat = hmat + hmat.conj().T
    for _ in range(5):
        params = rng.uniform(-2 * np.pi, 2 * np.pi, circuit.n_params)
        for amp in (random_amplitudes(rng, n), random_amplitudes(rng, n, 1),
                    random_amplitudes(rng, n, 3)):
            assert (plan.apply(amp, params).tobytes()
                    == reference_apply(plan, amp, params).tobytes())
        cols = random_amplitudes(rng, n, 3)
        energies, grad = plan.gradient(cols, params, hmat)
        assert grad.tobytes() == reference_gradient(plan, cols, params, hmat).tobytes()
        # the energies of the gradient's forward pass are those of a separate run
        assert (energies.tobytes()
                == optimize.batched_energies(plan.apply(cols, params), hmat).tobytes())


def two_term_rule(cost, params):
    """[E(x + pi/2 e_k) - E(x - pi/2 e_k)] / 2 for each slot k."""
    return np.array([(cost(params + e) - cost(params - e)) / 2
                     for e in 0.5 * np.pi * np.eye(params.size)])


@pytest.mark.parametrize("name", ["su2", "latent", "qae_encoder"])
def test_gradient_matches_two_term_rule(name):
    # every slot enters one angle with coefficient +-1, so the two-term rule
    # is the exact derivative and the gradient must agree to rounding
    circuit = CIRCUITS[name]()
    slots = [p.slot for g in circuit.gates for p in g.params if p.slot is not None]
    assert sorted(slots) == list(range(circuit.n_params))
    assert all(abs(p.coeff) == 1.0 for g in circuit.gates for p in g.params if p.slot is not None)
    rng = np.random.default_rng(13)
    if name == "qae_encoder":
        # the trash cost on the six training states, as qae train evaluates it
        cost, grad = _batched_trash_cost_fn(
            circuit, training_states_for(DEFAULT_TRAINING_BOND_LENGTHS))
        problems = [(cost, grad)] * 3
    else:
        problems = []
        for r in (0.5, 0.735, 2.0):
            h = hamiltonian_for_distance(r)
            problems.append((energy_fn(circuit, h, zero_state(4)), lambda x, h=h:
                             parameter_shift_gradient(circuit, h, x, zero_state(4))))
    for cost, grad in problems:
        params = rng.uniform(-2 * np.pi, 2 * np.pi, circuit.n_params)
        np.testing.assert_allclose(grad(params), two_term_rule(cost, params), rtol=0, atol=1e-12)


def test_plan_is_compiled_once_per_circuit():
    # energy_fn rebuilt for equal circuits, as each CLI command in one process does (the
    # benchmark runs many), compiles nothing new
    x = np.zeros(latent_circuit().n_params)
    energy_fn(latent_circuit(seed=4), hamiltonian_for_distance(0.5), zero_state(4))(x)
    misses = compile_plan.cache_info().misses
    for r in (0.6, 0.9, 1.4):
        energy_fn(latent_circuit(seed=4), hamiltonian_for_distance(r), zero_state(4))(x)
    assert compile_plan.cache_info().misses == misses


@pytest.mark.parametrize("name", ["uccsd", "su2", "latent"])
def test_energy_fn_runs_apply_circuit_once_per_evaluation(name, monkeypatch):
    # the whole circuit goes through apply_circuit, so a wrapper on
    # optimize.apply_circuit sees every energy evaluation
    circuit = CIRCUITS[name]()
    seen = []
    def counting(amp, circ, params):
        seen.append(len(circ.gates))
        return apply_circuit(amp, circ, params)
    monkeypatch.setattr(optimize, "apply_circuit", counting)
    cost = energy_fn(circuit, hamiltonian_for_distance(0.735), zero_state(4))
    for x in np.random.default_rng(1).uniform(-np.pi, np.pi, (3, circuit.n_params)):
        cost(x)
    assert seen == [len(circuit.gates)] * 3


@pytest.mark.parametrize("name", ["uccsd", "su2", "latent"])
def test_energy_fn_is_the_whole_plan_vdot(name):
    # energy_fn is Re vdot(psi, H psi) of the whole plan, bit for bit
    circuit = CIRCUITS[name]()
    h = hamiltonian_for_distance(1.1)
    rng = np.random.default_rng(11)
    for initial in (zero_state(4), StateVector(4, random_amplitudes(rng, 4))):
        cost = energy_fn(circuit, h, initial)
        for x in rng.uniform(-np.pi, np.pi, (4, circuit.n_params)):
            amp = apply_circuit(initial.amplitudes, circuit, x)
            assert cost(x) == float(np.real(np.vdot(amp, h.matrix @ amp)))


def test_staged_start_energy_is_the_whole_plan_vdot(monkeypatch):
    # the staged solve takes its start energy from energy_fn, once, at the start angles
    circuit = latent_circuit()
    h = hamiltonian_for_distance(1.1)
    x0 = np.random.default_rng(12).uniform(-np.pi, np.pi, circuit.n_params)
    starts = []
    def recording(*args):
        cost = energy_fn(*args)
        def record(x):
            starts.append((x.copy(), cost(x)))
            return starts[-1][1]
        return record
    monkeypatch.setattr(optimize, "energy_fn", recording)
    optimize.staged_gate_optimize(circuit, h, x0)
    [(x, value)] = starts
    np.testing.assert_array_equal(x, x0)
    amp = apply_circuit(zero_state(4).amplitudes, circuit, x0)
    assert value == float(np.real(np.vdot(amp, h.matrix @ amp)))
