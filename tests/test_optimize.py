import numpy as np
import pytest

from latentvqe.ansatz import AnsatzSpec, strongly_entangling
from latentvqe.circuit import Circuit, Gate, Param
from latentvqe.hamiltonian import QubitHamiltonian, exact_ground_energy
from latentvqe.optimize import (
    DatasetRecord, OptimizerConfig, ParameterDataset, StepConstraint, adam_minimize,
    batched_shift_gradient, constrained_sweep, dataset_from_csv, dataset_to_csv,
    energy_fn, first_step_delta, minimize, optimize_vqe, parameter_shift_gradient,
    staged_gate_optimize,
)
from latentvqe.statevector import PauliString, pauli_sum_matrix, zero_state


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


class TestNelderMead:
    def test_quadratic(self):
        res = minimize(lambda x: (x[0] - 3.0) ** 2, [0.0],
                       config=OptimizerConfig(max_iterations=500, tolerance=1e-14))
        assert abs(res["params"][0] - 3.0) < 1e-6
        assert res["evaluations"] > 0

    def test_active_bound(self):
        res = minimize(
            lambda x: x[0] ** 2 + x[1] ** 2, [1.5, 0.5],
            bounds=[(1.0, 2.0), (-1.0, 1.0)],
            config=OptimizerConfig(max_iterations=800, tolerance=1e-14),
        )
        assert abs(res["params"][0] - 1.0) < 1e-6
        assert abs(res["params"][1]) < 1e-6

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

    def test_agrees_with_scipy_nelder_mead_on_bounded_quadratic(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        # The unconstrained minimum (2.5, -0.4) lies outside the box, so the bounded
        # optimum lies on the face x[0] = 1.

        def cost(x):
            a, b = x[0] - 2.5, x[1] + 0.4
            return a * a + 2.0 * b * b + 0.5 * a * b

        bounds = [(-1.0, 1.0), (-1.0, 1.0)]
        # From (0.2, 0.3) SciPy's clipped simplex collapses onto the x1 = -1 face instead.
        ours = minimize(cost, [-0.5, 0.5], bounds=bounds,
                        config=OptimizerConfig(max_iterations=2000, tolerance=1e-14))
        ref = scipy_optimize.minimize(cost, [-0.5, 0.5], method="Nelder-Mead", bounds=bounds,
                                      options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        assert ref.success
        np.testing.assert_allclose(ours["params"], ref.x, atol=1e-6)
        assert ours["value"] == pytest.approx(ref.fun, abs=1e-10)
        # on that face, d/dx[1] = 4 (x[1] + 0.4) - 0.75 = 0
        np.testing.assert_allclose(ours["params"], [1.0, -0.4 + 0.75 / 4.0], atol=1e-6)


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
        c = strongly_entangling(2, 1)
        z = [PauliString("ZI", 0.8), PauliString("XY", -0.4), PauliString("ZZ", 0.3)]
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


class TestAdam:
    def test_converges_on_smooth_bowl(self):
        cost = lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2)
        grad = lambda x: np.array([2 * (x[0] - 1.0), 2 * (x[1] + 0.5)])
        res = adam_minimize(cost, grad, np.zeros(2),
                            OptimizerConfig(max_iterations=2000, tolerance=1e-12,
                                            learning_rate=0.05))
        assert res["value"] < 1e-10

    def test_best_so_far_trace_monotone(self):
        seen = []
        cost = lambda x: float((x[0] - 1.0) ** 2)
        def tracking_cost(x):
            v = cost(x)
            seen.append(v)
            return v
        adam_minimize(tracking_cost, lambda x: np.array([2 * (x[0] - 1.0)]), np.zeros(1),
                      OptimizerConfig(max_iterations=200, tolerance=1e-14, learning_rate=0.3))
        best = np.minimum.accumulate(seen)
        assert np.all(np.diff(best) <= 0)


class TestStaged:
    def test_single_u3_reaches_global_optimum(self):
        c = Circuit(1, (Gate("U3", (0,), (Param.ref(0), Param.ref(1), Param.ref(2))),), 3)
        res = staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(3))
        assert res["energy"] == pytest.approx(-1.0, abs=1e-8)

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
        assert res["energy"] == pytest.approx(full, abs=1e-12)
        assert res["energy"] - exact_ground_energy(hams[0])["energy"] < 1e-6

    def test_rejects_slot_shared_across_gates(self):
        u3 = lambda q: Gate("U3", (q,), (Param.ref(0), Param.ref(1), Param.ref(2)))
        c = Circuit(2, (u3(0), u3(1)), 3)
        with pytest.raises(ValueError, match="single U3"):
            staged_gate_optimize(c, [PauliString("ZZ", 1.0)], np.zeros(3))

    def test_rejects_non_u3_free_parameters(self):
        c = Circuit(1, (Gate("RY", (0,), (Param.ref(0),)),), 1)
        with pytest.raises(ValueError, match="U3"):
            staged_gate_optimize(c, [PauliString("Z", 1.0)], np.zeros(1))


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
        rng = np.random.default_rng(0)
        best = None
        for _ in range(6):
            res = staged_gate_optimize(
                circuit, hams[anchor_idx], rng.uniform(0, 2 * np.pi, 12),
                OptimizerConfig(tolerance=1e-11, max_iterations=300),
            )
            if best is None or res["energy"] < best["energy"]:
                best = res
        ds = constrained_sweep(
            circuit, hams, anchor_idx, best["params"], StepConstraint(0.5, 0.05),
            OptimizerConfig(tolerance=1e-11, max_iterations=300),
            pqc_spec=AnsatzSpec("STRONGLY_ENTANGLING", 2, 1),
        )
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
        ds = ParameterDataset(records, 2, AnsatzSpec("STRONGLY_ENTANGLING", 2, 1))
        text = dataset_to_csv(ds)
        back = dataset_from_csv(text)
        assert back.anchor_index == 2
        assert back.pqc_spec == ds.pqc_spec
        assert np.array_equal(back.angle_matrix(), ds.angle_matrix())
        assert dataset_to_csv(back) == text

    def test_header_layout(self):
        ds = ParameterDataset(
            (DatasetRecord(0.5, np.zeros(3), -1.0, -1.0, False),), 0, None)
        lines = dataset_to_csv(ds).splitlines()
        assert lines[0].startswith("# latentvqe/1 parameter-dataset")
        assert lines[1] == "bond_length,energy,oracle_energy,flag,theta_0,theta_1,theta_2"

    def test_variational_violation_rejected(self):
        with pytest.raises(ValueError, match="variational"):
            ParameterDataset(
                (DatasetRecord(0.5, np.zeros(3), -2.0, -1.0, False),), 0, None)

    def test_schema_line_required(self):
        with pytest.raises(ValueError, match="schema"):
            dataset_from_csv("bond_length,energy,oracle_energy,flag,theta_0\n")


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="BFGS")
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
