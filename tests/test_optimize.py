import math

import numpy as np
import pytest

from latentvqe import optimize
from latentvqe.ansatz import strongly_entangling
from latentvqe.artifacts import SCHEMA_VERSION
from latentvqe.circuit import Circuit, Gate, Param, gate_matrix
from latentvqe.hamiltonian import QubitHamiltonian, exact_ground_energy
from latentvqe.optimize import (
    DatasetRecord, OptimizerConfig, ParameterDataset, StepConstraint, adam_minimize,
    batched_shift_gradient, best_of_starts, constrained_sweep, dataset_from_csv, dataset_to_csv,
    energy_fn, first_step_delta, minimize, optimize_vqe, parameter_shift_gradient,
    staged_gate_optimize, whole_gate_optimize,
)
from latentvqe.optimize import (
    _FIT, _SHIFTS, _check_u3_slots, _fourier_argmin, _free_gate_walk, _sinusoid_argmin,
    _u3_angles, _u3_quaternion, _whole_gate_form,
)
from latentvqe.statevector import PauliString, _apply_1q, pauli_sum_matrix, zero_state


def toy_hamiltonians(xs):
    """Smooth 2-qubit family standing in for the molecular curve."""
    out = []
    for x in xs:
        terms = (
            PauliString("ZI", float(np.cos(x))),
            PauliString("XX", float(np.sin(x))),
            PauliString("ZZ", 0.2),
        )
        out.append(QubitHamiltonian(2, terms, float(x)))
    return out


def reference_minimize(cost, initial, config):
    """Nelder-Mead on a list of vertices with a stable `sorted`: `minimize`'s reference."""
    x0 = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    n = x0.size
    xtol = math.sqrt(config.tolerance)
    evals = 0
    def f(x):
        nonlocal evals
        evals += 1
        return float(cost(x))

    verts = [x0] + [x0 + 0.1 * e for e in np.eye(n)]
    values = [f(v) for v in verts]
    for _ in range(config.max_iterations):
        order = sorted(range(n + 1), key=lambda k: values[k])
        verts = [verts[k] for k in order]
        values = [values[k] for k in order]
        if (values[-1] - values[0] < config.tolerance
                and np.max(np.abs(np.asarray(verts) - verts[0])) <= xtol):
            break
        centroid = np.mean(verts[:-1], axis=0)
        xr = centroid + (centroid - verts[-1])
        fr = f(xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = f(xe)
            verts[-1], values[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            verts[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = centroid + 0.5 * (xr - centroid)
                fc = f(xc)
                if fc <= fr:
                    verts[-1], values[-1] = xc, fc
                    continue
            else:
                xc = centroid + 0.5 * (verts[-1] - centroid)
                fc = f(xc)
                if fc < values[-1]:
                    verts[-1], values[-1] = xc, fc
                    continue
            for k in range(1, n + 1):
                verts[k] = verts[0] + 0.5 * (verts[k] - verts[0])
                values[k] = f(verts[k])
    best = int(np.argmin(values))
    return {"params": verts[best], "value": values[best], "evaluations": evals}


def _su2_problem():
    from latentvqe.ansatz import efficient_su2
    from latentvqe.hamiltonian import hamiltonian_for_distance

    circuit = efficient_su2(4, 3)
    cost = energy_fn(circuit, hamiltonian_for_distance(0.735), zero_state(4))
    x0 = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, circuit.n_params)
    return cost, x0, OptimizerConfig(max_iterations=300, tolerance=1e-10)


def _uccsd_problem():
    from latentvqe.ansatz import uccsd_h2
    from latentvqe.hamiltonian import hamiltonian_for_distance

    cost = energy_fn(uccsd_h2(), hamiltonian_for_distance(0.735), zero_state(4))
    return cost, np.zeros(3), OptimizerConfig(max_iterations=2000, tolerance=1e-10)


def _plateau_problem():
    # a step function: contractions fail on its plateaus, so the simplex shrinks
    cost = lambda x: float(np.floor(4.0 * np.sum((x - 0.7) ** 2)))
    return cost, np.zeros(3), OptimizerConfig(max_iterations=200, tolerance=1e-10)


def _quantised_problem():
    # a smooth cost rounded to 3 decimals: new vertices tie with kept ones, so where the
    # sorted simplex puts a tied vertex matters, and contractions that tie shrink
    cost = lambda x: float(np.round(np.sum((x - 0.7) ** 2) + 0.3 * x[0] * x[1], 3))
    return cost, np.zeros(4), OptimizerConfig(max_iterations=300, tolerance=1e-10)


class TestNelderMead:
    @pytest.mark.parametrize("problem", [_su2_problem, _uccsd_problem, _plateau_problem,
                                         _quantised_problem])
    def test_bitwise_equal_to_list_reference(self, problem):
        cost, x0, config = problem()
        ours = minimize(cost, x0, config)
        ref = reference_minimize(cost, x0, config)
        assert np.array_equal(ours["params"], ref["params"])
        assert ours["value"] == ref["value"]
        assert ours["evaluations"] == ref["evaluations"]
        if problem is _plateau_problem:
            # n + 1 start vertices, then 1 or 2 evaluations per iteration unless it shrinks
            assert ours["evaluations"] - x0.size - 1 > 2 * ours["iterations"]
        if problem is _quantised_problem:
            values = []
            minimize(lambda x: values.append(cost(x)) or values[-1], x0, config)
            assert len(set(values)) < len(values) / 2  # most values tie with an earlier one
            assert ours["evaluations"] - x0.size - 1 > 2 * ours["iterations"]  # it shrank

    def test_stop_reasons(self):
        cost = lambda x: (x[0] - 3.0) ** 2
        res = minimize(cost, [0.0], OptimizerConfig(max_iterations=500, tolerance=1e-14))
        assert res["stop_reason"] == "tolerance" and 0 < res["iterations"] < 500
        res = minimize(cost, [0.0], OptimizerConfig(max_iterations=4, tolerance=1e-14))
        assert (res["stop_reason"], res["iterations"]) == ("budget", 4)

    def test_quadratic(self):
        res = minimize(lambda x: (x[0] - 3.0) ** 2, [0.0],
                       config=OptimizerConfig(max_iterations=500, tolerance=1e-14))
        assert abs(res["params"][0] - 3.0) < 1e-6
        assert res["evaluations"] > 0

    def test_uccsd_vqe_from_zero_init(self):
        from latentvqe.ansatz import uccsd_h2
        from latentvqe.hamiltonian import hamiltonian_for_distance

        h = hamiltonian_for_distance(0.735)
        cost = energy_fn(uccsd_h2(), h, zero_state(4))
        res = minimize(cost, np.zeros(3),
                       config=OptimizerConfig(max_iterations=3000, tolerance=1e-12))
        assert res["value"] - exact_ground_energy(h)["energy"] < 1e-6

    def test_non_finite_cost_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            minimize(lambda x: float("nan"), [0.0])

    def test_deterministic(self):
        cost = lambda x: (x[0] - 1) ** 2 + 0.5 * (x[1] + 2) ** 4
        a = minimize(cost, [0.3, 0.7])
        b = minimize(cost, [0.3, 0.7])
        assert np.array_equal(a["params"], b["params"])
        assert a["evaluations"] == b["evaluations"]

    def test_agrees_with_scipy_nelder_mead_on_quadratic(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")

        def cost(x):
            a, b = x[0] - 2.5, x[1] + 0.4
            return a * a + 2.0 * b * b + 0.5 * a * b

        ours = minimize(cost, [-0.5, 0.5],
                        config=OptimizerConfig(max_iterations=2000, tolerance=1e-14))
        ref = scipy_optimize.minimize(cost, [-0.5, 0.5], method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        assert ref.success
        np.testing.assert_allclose(ours["params"], ref.x, atol=1e-6)
        assert ours["value"] == pytest.approx(ref.fun, abs=1e-10)
        np.testing.assert_allclose(ours["params"], [2.5, -0.4], atol=1e-6)


class TestParameterShift:
    def test_ry_gradient_at_zero_and_quarter_turn(self):
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),), 1)
        z = [PauliString("Z", 1.0)]
        g0 = parameter_shift_gradient(c, z, np.array([0.0]), zero_state(1))
        assert g0[0] == pytest.approx(0.0, abs=1e-12)
        g1 = parameter_shift_gradient(c, z, np.array([np.pi / 2]), zero_state(1))
        assert g1[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences_on_random_circuits(self):
        rng = np.random.default_rng(21)
        # U1, RY and RZ gates, a U3 angle with a coefficient and an offset,
        # and slot 0 read by two angle positions of the same U3
        mixed = Circuit(2, (
            Gate("RY", (1,), (Param.ref(3, 2.0),)),
            Gate("H", (0,)),
            Gate("U3", (0,), (Param(0, -1.5, 0.3), Param.ref(1), Param(0, 0.5, -0.2))),
            Gate("CNOT", (0, 1)),
            Gate("U1", (1,), (Param.ref(2),)),
            Gate("RZ", (0,), (Param.ref(1),)),
            Gate("CNOT", (1, 0)),
            Gate("U3", (1,), (Param.ref(4), Param.const(0.7), Param.ref(2, -1.0))),
        ), 5)
        z = [PauliString("ZI", 0.8), PauliString("XY", -0.4), PauliString("ZZ", 0.3)]
        for c in (strongly_entangling(2, 1), mixed):
            cost = energy_fn(c, z, zero_state(2))
            for _ in range(20):
                p = rng.uniform(0, 2 * np.pi, c.n_params)
                g = parameter_shift_gradient(c, z, p, zero_state(2))
                fd = np.zeros_like(p)
                h = 1e-5
                for k in range(p.size):
                    dp = np.zeros_like(p)
                    dp[k] = h
                    fd[k] = (cost(p + dp) - cost(p - dp)) / (2 * h)
                scale = max(np.max(np.abs(fd)), 1e-9)
                assert np.max(np.abs(g - fd)) / scale < 1e-4

    def test_shared_slots_accumulate(self):
        # two RY gates on one wire sharing a slot: d<Z>/dt for RY(2t) total
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),
                        Gate("RY", (0,), (Param.ref(0),))), 1)
        z = [PauliString("Z", 1.0)]
        t = 0.3
        g = parameter_shift_gradient(c, z, np.array([t]), zero_state(1))
        assert g[0] == pytest.approx(-2.0 * np.sin(2 * t), abs=1e-10)

    def test_scaled_slot_chain_rule(self):
        # RY(-2t)|0>: <Z> = cos 2t, so d<Z>/dt = -2 sin 2t; a chain rule that
        # dropped the coefficient's sign would give +2 sin 2t
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0, coeff=-2.0),)),), 1)
        z = [PauliString("Z", 1.0)]
        t = 0.4
        g = parameter_shift_gradient(c, z, np.array([t]), zero_state(1))
        assert g[0] == pytest.approx(-2.0 * np.sin(2 * t), abs=1e-10)
        cost = energy_fn(c, z, zero_state(1))
        h = 1e-5
        fd = (cost(np.array([t + h])) - cost(np.array([t - h]))) / (2 * h)
        assert g[0] == pytest.approx(fd, abs=1e-8)


def reference_adam(cost, grad, x0, config, stop_below=None):
    """Adam with a separate cost and gradient call per step: `adam_minimize`'s reference."""
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    step, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    best_x, best_f = x.copy(), float(cost(x))
    evals = 1
    for t in range(1, config.max_iterations + 1):
        g = grad(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - step * mhat / (np.sqrt(vhat) + eps)
        fx = float(cost(x))
        evals += 1
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        if stop_below is not None and best_f < stop_below:
            break
        if np.max(np.abs(grad(x))) < config.tolerance:
            break
    return {"params": best_x, "value": best_f, "evaluations": evals}


def _bowl_tolerance_problem():
    cost = lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2)
    grad = lambda x: np.array([2 * (x[0] - 1.0), 2 * (x[1] + 0.5)])
    return (cost, grad, lambda x: (cost(x), grad(x)), np.zeros(2),
            OptimizerConfig(max_iterations=2000, tolerance=1e-3), None, "tolerance")


def _qae_problem(max_iterations, stop_below, stop):
    from latentvqe.qae import (
        DEFAULT_TRAINING_BOND_LENGTHS, ENCODER, _batched_trash_cost_fn, _trash_objective,
        training_states_for,
    )
    states = training_states_for(DEFAULT_TRAINING_BOND_LENGTHS)
    cost, grad = _batched_trash_cost_fn(ENCODER, states)
    x0 = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, ENCODER.n_params)
    return (cost, grad, _trash_objective(ENCODER, states), x0,
            OptimizerConfig(max_iterations=max_iterations, tolerance=1e-13), stop_below, stop)


class TestAdam:
    def test_converges_on_smooth_bowl(self):
        fun = lambda x: (float((x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2),
                         np.array([2 * (x[0] - 1.0), 2 * (x[1] + 0.5)]))
        res = adam_minimize(fun, np.zeros(2),
                            OptimizerConfig(max_iterations=2000, tolerance=1e-12))
        assert res["value"] < 1e-10

    def test_best_so_far_trace_monotone(self):
        seen = []
        cost = lambda x: float((x[0] - 1.0) ** 2)
        def tracking_fun(x):
            v = cost(x)
            seen.append(v)
            return v, np.array([2 * (x[0] - 1.0)])
        adam_minimize(tracking_fun, np.zeros(1),
                      OptimizerConfig(max_iterations=200, tolerance=1e-14))
        best = np.minimum.accumulate(seen)
        assert np.all(np.diff(best) <= 0)

    @pytest.mark.parametrize("problem", [
        _bowl_tolerance_problem,
        lambda: _qae_problem(1200, 1e-3, "stop_below"),
        lambda: _qae_problem(30, None, "budget"),
    ], ids=["tolerance", "stop_below", "budget"])
    def test_bitwise_equal_to_two_callable_reference(self, problem):
        # one fun(x) -> (value, gradient) call per step against a cost and a gradient call
        cost, grad, fun, x0, config, stop_below, stop = problem()
        ours = adam_minimize(fun, x0, config, stop_below=stop_below)
        ref = reference_adam(cost, grad, x0, config, stop_below=stop_below)
        assert ours["params"].tobytes() == ref["params"].tobytes()
        assert ours["value"] == ref["value"]
        assert ours["evaluations"] == ref["evaluations"]
        # the problem stops the way it is named for
        at_budget = ours["evaluations"] == config.max_iterations + 1
        below = stop_below is not None and ours["value"] < stop_below
        assert {"tolerance": not at_budget and not below, "stop_below": below,
                "budget": at_budget and not below}[stop]


class TestStaged:
    def test_single_u3_reaches_global_optimum(self):
        c = Circuit(1, (Gate("U3", (0,), (Param.ref(0), Param.ref(1), Param.ref(2))),), 3)
        res = staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(3))
        assert res["value"] == pytest.approx(-1.0, abs=1e-8)

    def test_deterministic(self):
        hams = toy_hamiltonians([0.9])
        c = strongly_entangling(2, 1)
        x0 = np.full(12, 0.3)
        a = staged_gate_optimize(c, hams[0], x0)
        b = staged_gate_optimize(c, hams[0], x0)
        assert np.array_equal(a["params"], b["params"])

    def test_energy_matches_full_circuit_evaluation(self):
        # trials are scored through cached prefix states and folded suffix
        # observables; the result must agree with a full circuit run
        hams = toy_hamiltonians([0.7])
        c = strongly_entangling(2, 2)
        res = staged_gate_optimize(c, hams[0], np.full(24, 0.4))
        full = energy_fn(c, hams[0], zero_state(2))(res["params"])
        assert res["value"] == pytest.approx(full, abs=1e-12)
        assert res["value"] - exact_ground_energy(hams[0])["energy"] < 1e-6

    def test_rejects_slot_shared_across_gates(self):
        u3 = lambda q: Gate("U3", (q,), (Param.ref(0), Param.ref(1), Param.ref(2)))
        c = Circuit(2, (u3(0), u3(1)), 3)
        with pytest.raises(ValueError, match="single U3"):
            staged_gate_optimize(c, [PauliString("ZZ", 1.0)], np.zeros(3))

    def test_rejects_non_u3_free_parameters(self):
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),), 1)
        with pytest.raises(ValueError, match="U3"):
            staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(1))

    def test_rejects_u3_with_a_constant_angle(self):
        u3 = Gate("U3", (0,), (Param.ref(0), Param.ref(1), Param.const(0.3)))
        c = Circuit(1, (u3,), 2)
        with pytest.raises(ValueError, match="U3 gate 0 on qubit 0"):
            staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(2))

    def test_rejects_u3_reading_one_slot_twice(self):
        u3 = Gate("U3", (0,), (Param.ref(0), Param.ref(1), Param.ref(0)))
        c = Circuit(1, (u3,), 2)
        with pytest.raises(ValueError, match="three distinct slots"):
            staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(2))

    def test_rejects_u3_angle_with_a_coefficient(self):
        # the closed-form phases assume a 2 pi period in each slot
        u3 = Gate("U3", (0,), (Param.ref(0, 2.0), Param.ref(1), Param.ref(2)))
        c = Circuit(1, (u3,), 3)
        with pytest.raises(ValueError, match="coefficient 1"):
            staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(3))

    def test_offsets_are_allowed(self):
        shifted = lambda q, k: Gate("U3", (q,), tuple(Param(k + i, 1.0, 0.1 * (i + 1))
                                                    for i in range(3)))
        c = Circuit(2, (shifted(0, 0), shifted(1, 3), Gate("CNOT", (0, 1)),
                        shifted(0, 6), shifted(1, 9)), 12)
        h = toy_hamiltonians([0.8])[0]
        cost = energy_fn(c, h, zero_state(2))
        res = staged_gate_optimize(c, h, np.full(12, 0.5))
        assert res["value"] == pytest.approx(cost(res["params"]), abs=1e-12)
        assert res["value"] < cost(np.full(12, 0.5))
        assert res["value"] - exact_ground_energy(h)["energy"] < 1e-3

    def test_bounded_solve_stays_in_box_and_never_rises(self):
        h = toy_hamiltonians([1.1])[0]
        c = strongly_entangling(2, 1)
        x0 = np.random.default_rng(3).uniform(0, 2 * np.pi, 12)
        lo, hi = x0 - 0.2, x0 + 0.1
        res = staged_gate_optimize(c, h, x0, bounds=(lo, hi))
        assert np.all(res["params"] >= lo) and np.all(res["params"] <= hi)
        assert res["value"] <= energy_fn(c, h, zero_state(2))(x0)


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def _quaternion_matrix(q):
    """q0 I - i (q1 X + q2 Y + q3 Z), from the Pauli matrices."""
    return q[0] * _PAULIS[0] - 1j * sum(qk * p for qk, p in zip(q[1:], _PAULIS[1:]))


def _u3(angles):
    return gate_matrix(Gate("U3", (0,), tuple(Param.ref(k) for k in range(3))),
                       np.asarray(angles, dtype=float))


def _random_unit(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _offset_circuit(scale=1.0):
    # strongly_entangling(2, 1)'s layout with an offset on every angle (none at scale 0)
    offset = lambda k: scale * (0.1 + 0.05 * k)
    shifted = lambda q, k: Gate("U3", (q,), tuple(Param(k + i, 1.0, offset(k + i))
                                                for i in range(3)))
    return Circuit(2, (shifted(0, 0), shifted(1, 3), Gate("CNOT", (0, 1)),
                       shifted(0, 6), shifted(1, 9), Gate("CNOT", (1, 0))), 12)


class TestWholeGate:
    def test_angle_map_round_trip(self):
        # U3 at the mapped angles is q0 I - i q . sigma up to a global phase, from any `near`
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = _random_unit(rng)
            angles = _u3_angles(q, rng.uniform(-10.0, 10.0, 3))
            u, target = _u3(angles), _quaternion_matrix(q)
            phase = np.trace(target.conj().T @ u) / 2
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(u - phase * target)) < 1e-12
            back = _u3_quaternion(*angles)
            assert min(np.max(np.abs(back - q)), np.max(np.abs(back + q))) < 1e-12

    def test_quaternion_of_angles_is_the_u3_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            angles = rng.uniform(-7.0, 7.0, 3)
            q = _u3_quaternion(*angles)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)
            phase = np.exp(0.5j * (angles[1] + angles[2]))
            assert np.max(np.abs(_u3(angles) - phase * _quaternion_matrix(q))) < 1e-12

    def test_angle_map_takes_the_nearest_branch(self):
        # against every branch and shift in a window: (theta + 4 pi a, phi + 2 pi b,
        # lambda + 2 pi c) and (-theta + 4 pi a, phi + pi + 2 pi b, lambda - pi + 2 pi c)
        rng = np.random.default_rng(7)
        shifts = np.array([(a, b, c) for a in range(-3, 4) for b in range(-3, 4)
                           for c in range(-3, 4)], dtype=float) * [4 * np.pi, 2 * np.pi, 2 * np.pi]
        for _ in range(100):
            q, near = _random_unit(rng), rng.uniform(-12.0, 12.0, 3)
            theta = 2 * np.arctan2(np.hypot(q[2], q[1]), np.hypot(q[0], q[3]))
            alpha, beta = np.arctan2(q[3], q[0]), np.arctan2(q[1], q[2])
            bases = [(theta, alpha - beta, alpha + beta),
                     (-theta, alpha - beta + np.pi, alpha + beta - np.pi)]
            candidates = np.concatenate([np.add(b, shifts) for b in bases])
            best = np.min(np.sum((candidates - near) ** 2, axis=1))
            chosen = np.array(_u3_angles(q, near))
            assert np.sum((chosen - near) ** 2) == pytest.approx(best, rel=1e-12, abs=1e-12)
            # each component lies within half a period of `near`
            assert np.all(np.abs(chosen - near) <= [2 * np.pi, np.pi, np.pi] + np.full(3, 1e-12))

    def test_form_is_the_energy_at_every_unit_q(self):
        # q^T M q against energy_fn with the gate's slots set to q's angles less their offsets
        c = _offset_circuit()
        h = toy_hamiltonians([1.3])[0]
        cost = energy_fn(c, h, zero_state(2))
        rng = np.random.default_rng(8)
        params = rng.uniform(0, 2 * np.pi, 12)
        for gate, prefix, kmat in _free_gate_walk(c, h.matrix, params, zero_state(2).amplitudes):
            m = _whole_gate_form(gate, prefix, kmat)
            assert np.max(np.abs(m - m.T)) < 1e-14
            for _ in range(10):
                q = _random_unit(rng)
                trial = params.copy()
                near = [p.value(params) for p in gate.params]
                for p, angle in zip(gate.params, _u3_angles(q, near)):
                    trial[p.slot] = angle - p.offset
                assert q @ m @ q == pytest.approx(cost(trial), abs=1e-12)

    def test_one_gate_matches_a_multistart_search(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        # one free U3 between fixed gates: one whole-gate solve is the global optimum
        rng = np.random.default_rng(9)
        fixed = lambda q: Gate("U3", (q,), tuple(Param.const(a) for a in rng.uniform(0, 6, 3)))
        free = Gate("U3", (1,), (Param.ref(0), Param.ref(1), Param.ref(2)))
        c = Circuit(2, (fixed(0), fixed(1), Gate("CNOT", (0, 1)), free,
                        Gate("CNOT", (1, 0)), fixed(0)), 3)
        terms = [PauliString(s, float(w)) for s, w in
                 zip(("ZI", "IZ", "XX", "YY", "ZZ", "XZ"), rng.normal(size=6))]
        cost = energy_fn(c, terms, zero_state(2))
        res = whole_gate_optimize(c, terms, np.zeros(3))
        search = min(scipy_optimize.minimize(cost, x0, method="L-BFGS-B").fun
                     for x0 in rng.uniform(0, 2 * np.pi, (40, 3)))
        assert res["value"] == pytest.approx(search, abs=1e-9)
        assert res["sweeps"] == 2 and res["stop_reason"] == "tolerance"
        assert res["evaluations"] == 1 + 10 * 2

    def test_never_above_its_start_and_deterministic(self):
        c = strongly_entangling(2, 2)
        for x, seed in ((0.4, 0), (1.1, 1), (2.2, 2)):
            h = toy_hamiltonians([x])[0]
            x0 = np.random.default_rng(seed).uniform(0, 2 * np.pi, 24)
            a = whole_gate_optimize(c, h, x0)
            b = whole_gate_optimize(c, h, x0)
            assert a["params"].tobytes() == b["params"].tobytes() and a["value"] == b["value"]
            assert a["value"] <= energy_fn(c, h, zero_state(2))(x0)
            assert a["value"] == energy_fn(c, h, zero_state(2))(a["params"])
            assert np.array_equal(x0, np.random.default_rng(seed).uniform(0, 2 * np.pi, 24))

    @pytest.mark.parametrize("x", [0.3, 0.9, 1.7, 2.6])
    def test_best_of_five_starts_reaches_the_ground_energy(self, x):
        # coordinate descent can crawl from a single start, as the CLI's restarts allow for
        h = toy_hamiltonians([x])[0]
        c = strongly_entangling(2, 1)
        best = min(whole_gate_optimize(c, h, np.random.default_rng(s).uniform(0, 2 * np.pi, 12))
                   ["value"] for s in range(5))
        assert abs(best - exact_ground_energy(h)["energy"]) < 1e-9

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_offsets_are_written_back(self, seed):
        # the same gate angles with and without offsets make the same solve; the angles
        # themselves may part where a gate's optimum is not unique (a Z angle on |0>)
        h = toy_hamiltonians([0.8])[0]
        offsets = np.array([0.1 + 0.05 * k for k in range(12)])
        x0 = np.random.default_rng(seed).uniform(0, 2 * np.pi, 12)
        shifted = whole_gate_optimize(_offset_circuit(), h, x0)
        plain = whole_gate_optimize(_offset_circuit(0.0), h, x0 + offsets)
        assert shifted["value"] == pytest.approx(plain["value"], abs=1e-12)

    @pytest.mark.parametrize("solve", [staged_gate_optimize, whole_gate_optimize])
    def test_stop_reasons(self, solve, monkeypatch):
        c = strongly_entangling(2, 1)
        h = toy_hamiltonians([0.9])[0]
        x0 = np.random.default_rng(0).uniform(0, 2 * np.pi, 12)
        done = solve(c, h, x0)
        assert done["stop_reason"] == "tolerance" and done["sweeps"] < 30
        monkeypatch.setattr(optimize, "_SWEEP_CAP", 2)
        capped = solve(c, h, x0)
        assert capped["stop_reason"] == "sweep_cap" and capped["sweeps"] == 2

    @pytest.mark.parametrize("gates, n_params, rejected", [
        ((("U3", 0, (0, 1, 2)), ("U3", 1, (0, 1, 2))), 3, True),
        ((("RY", 0, (0,)),), 1, True),
        ((("U3", 0, (0, 1, None)),), 2, True),
        ((("U3", 0, (0, 1, 0)),), 2, True),
        ((("U3", 0, (0, "2x", 2)),), 3, True),
        ((("U3", 0, (0, 1, 2)), ("H", 1, ()), ("U3", 1, (3, 4, 5))), 6, False),
        ((("U1", 0, (None,)), ("U3", 1, (0, 1, 2))), 3, False),
    ], ids=["shared_slot", "ry", "constant_angle", "slot_read_twice", "coefficient",
            "two_u3", "constant_u1"])
    def test_rejects_what_the_staged_solve_rejects(self, gates, n_params, rejected):
        def param(slot):
            if slot is None:
                return Param.const(0.3)
            return Param.ref(1, 2.0) if slot == "2x" else Param.ref(slot)
        c = Circuit(2, tuple(Gate(kind, (q,), tuple(param(s) for s in slots))
                             for kind, q, slots in gates), n_params)
        h = [PauliString("ZZ", 1.0)]
        messages = []
        for check in (_check_u3_slots, lambda c: staged_gate_optimize(c, h, np.zeros(n_params)),
                      lambda c: whole_gate_optimize(c, h, np.zeros(n_params))):
            try:
                check(c)
                messages.append(None)
            except ValueError as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1] == messages[2]
        assert (messages[0] is not None) == rejected


def _sinusoid_value(coef, u):
    return coef[0] + coef[1] * np.cos(u) + coef[2] * np.sin(u)


def reference_optimize_vqe(circuit, hamiltonian, config, rng, initial=None):
    """The restart loop that `optimize_vqe` ran on its own: its reference."""
    cost = energy_fn(circuit, hamiltonian, zero_state(circuit.n_qubits))
    best, evaluations = None, 0
    for attempt in range(config.restarts):
        x0 = (np.asarray(initial, dtype=float) if attempt == 0 and initial is not None
              else rng.uniform(0.0, 2.0 * math.pi, circuit.n_params))
        res = minimize(cost, x0, config=config)
        evaluations += res["evaluations"]
        if best is None or res["value"] < best["value"]:
            best = res
    return {**best, "evaluations": evaluations}


class TestBestOfStarts:
    @staticmethod
    def scripted(values):
        """A solve whose k-th call returns values[k]; `starts` keeps each x0."""
        starts = []
        def solve(x0):
            starts.append(x0)
            return {"params": x0, "value": values[len(starts) - 1], "evaluations": len(starts)}
        return solve, starts

    @pytest.mark.parametrize("first", [None, [0.5, -1.0, 2.0]])
    def test_first_start_draws_nothing(self, first):
        solve, starts = self.scripted([3.0, 2.0, 1.0])
        best_of_starts(solve, 3, np.random.default_rng(7), 3, first=first)
        rng = np.random.default_rng(7)
        given = [] if first is None else [np.array(first)]
        expected = given + [rng.uniform(0.0, 2.0 * math.pi, 3) for _ in range(3 - len(given))]
        assert [x.tobytes() for x in starts] == [x.tobytes() for x in expected]

    @pytest.mark.parametrize("values, winner", [
        ((1.0, 1.0, 1.0), 0), ((3.0, 1.0, 1.0, 2.0), 1), ((2.0, 0.5, 0.7, 0.5), 1),
    ])
    def test_lowest_value_wins_and_ties_keep_the_earlier_start(self, values, winner):
        solve, starts = self.scripted(values)
        best = best_of_starts(solve, 2, np.random.default_rng(0), len(values))
        assert best["params"] is starts[winner] and best["value"] == values[winner]
        assert best["evaluations"] == sum(range(1, len(values) + 1))

    @pytest.mark.parametrize("stop_below, made", [(-math.inf, 4), (1.0, 3), (2.5, 2), (9.0, 1)])
    def test_stop_below_ends_early_and_counts_only_starts_made(self, stop_below, made):
        solve, starts = self.scripted([3.0, 2.0, 0.5, 0.1])
        best = best_of_starts(solve, 2, np.random.default_rng(0), 4, stop_below=stop_below)
        assert len(starts) == made
        assert best["value"] == min([3.0, 2.0, 0.5, 0.1][:made])
        assert best["evaluations"] == sum(range(1, made + 1))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        solve, starts = self.scripted([1.0])
        with pytest.raises(ValueError, match="restarts"):
            best_of_starts(solve, 2, np.random.default_rng(0), restarts)
        assert starts == []

    @pytest.mark.parametrize("ansatz", ["uccsd", "su2"])
    def test_optimize_vqe_matches_its_own_restart_loop(self, ansatz):
        from latentvqe.ansatz import efficient_su2, uccsd_h2
        from latentvqe.hamiltonian import hamiltonian_for_distance
        h = hamiltonian_for_distance(0.9)
        if ansatz == "uccsd":
            circuit, initial, config = uccsd_h2(), np.zeros(3), OptimizerConfig(restarts=3)
        else:
            circuit, initial = efficient_su2(4, 3), None
            config = OptimizerConfig(max_iterations=150, restarts=2)
        ours = optimize_vqe(circuit, h, config, rng=np.random.default_rng(5), initial=initial)
        ref = reference_optimize_vqe(circuit, h, config, np.random.default_rng(5), initial)
        assert ours.keys() == ref.keys()
        assert ours["params"].tobytes() == ref["params"].tobytes()
        assert all(ours[k] == ref[k] for k in ref if k != "params")


class TestClosedFormSolves:
    """The 1-D and 2-D solves against independent minimizers of the same functions."""

    @pytest.mark.parametrize("box", ["contains", "excludes", "unbounded"])
    def test_sinusoid_argmin_matches_dense_grid(self, box):
        rng = np.random.default_rng({"contains": 1, "excludes": 2, "unbounded": 3}[box])
        for _ in range(40):
            c, a, b = rng.normal(size=3)
            coef = [c, a, b]
            # the minimum of c + a cos u + b sin u nearest 0 builds the box, not the check
            minimum = np.remainder(np.arctan2(b, a) + 2 * np.pi, 2 * np.pi) - np.pi
            if box == "unbounded":
                lo, hi = -np.inf, np.inf
                grid = np.linspace(-np.pi, np.pi, 20_001)
            else:
                if box == "contains":
                    lo = min(minimum, 0.0) - rng.uniform(0, 1)
                    hi = max(minimum, 0.0) + rng.uniform(0, 1)
                else:  # 0 inside, every 2 pi image of the minimum outside
                    above = minimum if minimum > 0 else minimum + 2 * np.pi
                    lo = rng.uniform(0.01, 0.99) * (above - 2 * np.pi)
                    hi = rng.uniform(0.01, 0.99) * above
                grid = np.linspace(lo, hi, 20_001)
            u = _sinusoid_argmin(coef, lo, hi)
            assert lo <= u <= hi
            # the grid minimum lies above the true one by at most R (spacing / 2)^2 / 2
            best = _sinusoid_value(coef, grid).min()
            assert _sinusoid_value(coef, u) <= best + 1e-9
            assert _sinusoid_value(coef, u) >= best - 2e-8 * np.hypot(a, b)

    def test_sinusoid_argmin_stays_without_a_gain(self):
        # a flat fit (an angle the energy does not depend on) never moves
        assert _sinusoid_argmin([0.7, 0.0, 0.0], -1.0, 1.0) == 0.0
        assert _sinusoid_argmin([0.7, 0.0, 0.0], -np.inf, np.inf) == 0.0
        assert _sinusoid_argmin([0.7, 0.0, 0.0], -1.0, 1.0, at=0.3) == 0.3
        assert _sinusoid_argmin([0.0, 1.0, 0.0], 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("box", ["unbounded", "wide", "narrow"])
    def test_fourier_argmin_matches_lbfgsb_on_the_energy(self, box):
        # E(theta, phi) of one U3 on a random 2-qubit state under a random
        # Hermitian H; the 9 grid energies fit it exactly, and L-BFGS-B from
        # a 5 x 5 grid of starts minimizes the energy itself on the same box
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng({"unbounded": 4, "wide": 5, "narrow": 6}[box])
        for _ in range(12):
            hmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            hmat = hmat + hmat.conj().T
            pre = rng.normal(size=4) + 1j * rng.normal(size=4)
            pre /= np.linalg.norm(pre)
            qubit = int(rng.integers(2))
            theta, phi, lam = rng.uniform(-np.pi, np.pi, 3)
            def energy(x):
                u3 = Gate("U3", (qubit,), tuple(map(Param.const, (theta + x[0], phi + x[1], lam))))
                psi = _apply_1q(pre, gate_matrix(u3, np.zeros(0)), qubit, 2)
                return float(np.real(np.vdot(psi, hmat @ psi)))
            grid = np.array([[energy((s, t)) for t in _SHIFTS] for s in _SHIFTS])
            if box == "unbounded":
                lo, hi = [-np.inf] * 2, [np.inf] * 2
            else:
                width = rng.uniform(0.5, 4.0, 2) if box == "wide" else rng.uniform(0.02, 0.5, 2)
                lo = list(-rng.uniform(0, 1, 2) * width)
                hi = [lo[0] + width[0], lo[1] + width[1]]
            u, v = _fourier_argmin(_FIT @ grid @ _FIT.T, lo, hi)
            assert lo[0] <= u <= hi[0] and lo[1] <= v <= hi[1]
            starts = [np.linspace(max(l, -np.pi), min(h, np.pi), 5) for l, h in zip(lo, hi)]
            scipy_bounds = None if box == "unbounded" else list(zip(lo, hi))
            best = min(scipy_optimize.minimize(energy, [s, t], method="L-BFGS-B",
                                               bounds=scipy_bounds,
                                               options={"ftol": 1e-15, "gtol": 1e-12}).fun
                       for s in starts[0] for t in starts[1])
            assert energy((u, v)) == pytest.approx(best, abs=1e-9)


class TestStepConstraint:
    def test_window_arithmetic(self):
        con = StepConstraint(alpha=0.5, gamma=0.05)
        lo, hi = con.bounds(np.array([1.0]), np.array([0.1]))
        assert lo[0] == pytest.approx(1.025)
        assert hi[0] == pytest.approx(1.175)

    def test_first_step_window(self):
        con = StepConstraint(alpha=0.5, gamma=0.05)
        lo, hi = con.bounds(np.array([2.0]), np.array([0.0]))
        assert lo[0] == pytest.approx(1.975)
        assert hi[0] == pytest.approx(2.025)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            StepConstraint(alpha=0.5, gamma=0.0)


class TestConstrainedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        xs = np.linspace(0.5, 1.5, 9)
        hams = toy_hamiltonians(xs)
        circuit = strongly_entangling(2, 1)
        anchor_idx = 4
        best = best_of_starts(lambda x0: staged_gate_optimize(circuit, hams[anchor_idx], x0),
                              12, np.random.default_rng(0), 6)
        ds = constrained_sweep(circuit, hams, anchor_idx, best["params"],
                               StepConstraint(0.5, 0.05))
        return ds, hams, anchor_idx

    def test_bound_admissibility_and_smoothness(self, sweep):
        ds, hams, anchor_idx = sweep
        con = StepConstraint(0.5, 0.05)
        angles = ds.angle_matrix()
        for direction in (+1, -1):
            prev = angles[anchor_idx]
            prev2 = None
            idx = anchor_idx + direction
            while 0 <= idx < len(ds.records):
                if prev2 is None:  # first step: the tangent predictor at the anchor
                    delta = first_step_delta(strongly_entangling(2, 1), hams[idx], prev)
                else:
                    delta = prev - prev2
                lo, hi = con.bounds(prev, delta)
                assert np.all(angles[idx] >= lo - 1e-12)
                assert np.all(angles[idx] <= hi + 1e-12)
                assert np.all(
                    np.abs(angles[idx] - prev)
                    <= np.abs(delta) + con.alpha * (con.gamma + np.abs(delta)) + 1e-12
                )
                prev2, prev = prev, angles[idx]
                idx += direction

    def test_variational_bound_on_every_record(self, sweep):
        ds, hams, _ = sweep
        for rec, h in zip(ds.records, hams):
            assert rec.energy >= exact_ground_energy(h)["energy"] - 1e-10

    def test_warm_start_tracks_anchor_quality(self, sweep):
        ds, _, anchor_idx = sweep
        anchor_err = max(ds.records[anchor_idx].error, 1e-12)
        good = sum(r.error <= 10 * anchor_err for r in ds.records)
        assert good >= 0.9 * len(ds.records)

    def test_first_step_delta_approaches_neighbour_ground_energy(self, sweep):
        ds, hams, anchor_idx = sweep
        circuit = strongly_entangling(2, 1)
        anchor = ds.angle_matrix()[anchor_idx]
        for idx in (anchor_idx - 1, anchor_idx + 1):
            cost = energy_fn(circuit, hams[idx], zero_state(2))
            exact = exact_ground_energy(hams[idx])["energy"]
            delta = first_step_delta(circuit, hams[idx], anchor)
            assert cost(anchor + delta) - exact <= 0.01 * (cost(anchor) - exact)

    def test_anchor_must_be_on_grid(self, sweep):
        _, hams, _ = sweep
        with pytest.raises(ValueError):
            constrained_sweep(strongly_entangling(2, 1), hams, 99, np.zeros(12),
                              StepConstraint())


class TestDatasetCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        records = tuple(
            DatasetRecord(0.3 + 0.1 * i, rng.uniform(0, 2 * np.pi, 12),
                          -1.0 + 1e-8, -1.0, False)
            for i in range(5)
        )
        ds = ParameterDataset(records, 2)
        text = dataset_to_csv(ds)
        back = dataset_from_csv(text)
        assert back.anchor_index == 2
        assert np.array_equal(back.angle_matrix(), ds.angle_matrix())
        assert dataset_to_csv(back) == text

    def test_header_layout(self):
        ds = ParameterDataset(
            (DatasetRecord(0.5, np.zeros(3), -1.0, -1.0, False),), 0)
        lines = dataset_to_csv(ds).splitlines()
        assert lines[0] == f'# {SCHEMA_VERSION} parameter-dataset {{"anchor_index":0}}'
        assert lines[1] == "bond_length,energy,oracle_energy,flag,theta_0,theta_1,theta_2"

    def test_variational_violation_rejected(self):
        with pytest.raises(ValueError, match="variational"):
            ParameterDataset(
                (DatasetRecord(0.5, np.zeros(3), -2.0, -1.0, False),), 0)

    @pytest.mark.parametrize("n_angles", [1, 2, 4])
    def test_row_width_must_match_header(self, n_angles):
        # the header names theta_0..theta_2; a row with any other angle count is refused
        ds = ParameterDataset((DatasetRecord(0.5, np.zeros(3), -1.0, -1.0, False),), 0)
        head, row = dataset_to_csv(ds).splitlines()[:2], "0.5,-1,-1,0" + ",0" * n_angles
        with pytest.raises(ValueError, match="header names 7"):
            dataset_from_csv("\n".join(head + [row]) + "\n")

    @pytest.mark.parametrize("anchor", [-1, 2])
    def test_anchor_index_inside_records(self, anchor):
        records = tuple(DatasetRecord(0.5 + 0.1 * i, np.zeros(3), -1.0, -1.0) for i in range(2))
        with pytest.raises(ValueError, match="anchor_index"):
            ParameterDataset(records, anchor)
        assert ParameterDataset((), anchor).n_params == 0

    def test_schema_line_required(self):
        with pytest.raises(ValueError, match="schema"):
            dataset_from_csv("bond_length,energy,oracle_energy,flag,theta_0\n")


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=restarts)
