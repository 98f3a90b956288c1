import json

import numpy as np
import pytest

from latentvqe.mlp import (
    GRADIENT_TOL, MEMORY, MlpModel, TrainConfig, _forward, circular_loss, lbfgs,
    loss_gradients, model_from_json, model_to_json, predict, train,
)
from latentvqe.optimize import DatasetRecord, ParameterDataset


def make_dataset(n=40, n_angles=4, fn=None, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.3, 2.8, n)
    records = []
    for x in xs:
        if fn is None:
            angles = np.full(n_angles, 1.234)
        else:
            angles = fn(x)
        records.append(DatasetRecord(float(x), angles, -1.0 + 1e-9, -1.0, False))
    return ParameterDataset(tuple(records), n // 2)


class TestCircularLoss:
    def test_examples(self):
        assert circular_loss([0.7, 1.1], [0.7, 1.1]) == 0.0
        assert circular_loss([np.pi], [0.0]) == pytest.approx(4.0)
        assert circular_loss([2 * np.pi], [0.0]) == pytest.approx(0.0, abs=1e-28)

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-10, 10, 8)
        for k in (-2, -1, 1, 3):
            assert circular_loss(theta + 2 * np.pi * k, theta) < 1e-28

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circular_loss([0.0], [0.0, 1.0])


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        sizes = (1, 4, 2)
        weights = [rng.normal(scale=0.7, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(scale=0.3, size=b) for b in sizes[1:]]
        x = rng.uniform(0, 1, size=(7, 1))
        y = rng.uniform(0, 2 * np.pi, size=(7, 2))
        _, gw, gb = loss_gradients(weights, biases, x, y)

        h = 1e-6
        for k in range(len(weights)):
            for idx in np.ndindex(*weights[k].shape):
                wp = [w.copy() for w in weights]
                wm = [w.copy() for w in weights]
                wp[k][idx] += h
                wm[k][idx] -= h
                lp, _, _ = loss_gradients(wp, biases, x, y)
                lm, _, _ = loss_gradients(wm, biases, x, y)
                fd = (lp - lm) / (2 * h)
                assert gw[k][idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)
            for j in range(biases[k].size):
                bp = [b.copy() for b in biases]
                bm = [b.copy() for b in biases]
                bp[k][j] += h
                bm[k][j] -= h
                lp, _, _ = loss_gradients(weights, bp, x, y)
                lm, _, _ = loss_gradients(weights, bm, x, y)
                fd = (lp - lm) / (2 * h)
                assert gb[k][j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def flat_problem(weights, biases, x, y):
    """loss_gradients as a function of one flat parameter vector."""
    shapes = [a.shape for a in weights + biases]

    def fun(theta):
        parts, start = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            parts.append(theta[start:start + size].reshape(shape))
            start += size
        loss, gw, gb = loss_gradients(parts[:len(weights)], parts[len(weights):], x, y)
        return loss, np.concatenate([g.ravel() for g in gw + gb])

    return fun, np.concatenate([a.ravel() for a in weights + biases])


class TestLbfgs:
    def test_matches_scipy_on_small_network(self):
        from scipy.optimize import minimize

        # the (1, 4, 2) start of TestBackprop; its random targets have no
        # minimum that both optimizers reach (the weights grow without bound
        # along this path), so fit a perturbed copy of the network instead
        rng = np.random.default_rng(5)
        sizes = (1, 4, 2)
        weights = [rng.normal(scale=0.7, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(scale=0.3, size=b) for b in sizes[1:]]
        noise = np.random.default_rng(1)
        teacher_w = [w + noise.normal(scale=0.2, size=w.shape) for w in weights]
        teacher_b = [b + noise.normal(scale=0.2, size=b.shape) for b in biases]
        x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        fun, start = flat_problem(weights, biases, x, _forward(x, teacher_w, teacher_b)[-1])

        theta = start.copy()
        ours = lbfgs(fun, theta, 10000)
        ref = minimize(fun, start, jac=True, method="L-BFGS-B",
                       options={"maxcor": MEMORY, "gtol": GRADIENT_TOL, "ftol": 0.0,
                                "maxiter": 10000})
        assert ours["stop_reason"] == "gradient"
        assert np.max(np.abs(fun(theta)[1])) <= GRADIENT_TOL
        assert ref.success and np.max(np.abs(ref.jac)) <= GRADIENT_TOL
        assert abs(fun(theta)[0] - ref.fun) < 1e-8
        assert ours["iterations"] < 2 * ref.nit

    @pytest.mark.parametrize("start", [[-1.2, 1.0], [1.3, 0.7, 0.8, 1.9, 1.2], [-1.0] * 10])
    def test_reaches_rosenbrock_minimum(self, start):
        from scipy.optimize import rosen, rosen_der

        x = np.array(start)
        out = lbfgs(lambda v: (rosen(v), rosen_der(v)), x, 1000)
        assert out["stop_reason"] == "gradient"
        assert np.max(np.abs(x - 1.0)) < 1e-6
        assert rosen(x) < 1e-12

    def test_budget_stop_keeps_last_accepted_point(self):
        from scipy.optimize import rosen, rosen_der

        x = np.array([-1.2, 1.0])
        out = lbfgs(lambda v: (rosen(v), rosen_der(v)), x, 3)
        assert out["stop_reason"] == "budget" and out["iterations"] == 3
        assert rosen(x) < out["trace"][-1]


class TestTrain:
    def test_constant_dataset_learned_exactly(self):
        out = train(make_dataset(), TrainConfig(epochs=3000, seed=0))
        assert out["test_loss"] < 1e-6

    def test_smooth_synthetic_angles(self):
        fn = lambda x: np.array([np.sin(x), 0.5 * np.cos(2 * x) + 1.0, 0.2 * x, 2.0])
        out = train(make_dataset(fn=fn), TrainConfig(epochs=20000, seed=1))
        assert out["test_loss"] < 1e-3
        model = out["model"]
        for rec in (make_dataset(fn=fn).records[5], make_dataset(fn=fn).records[30]):
            pred = predict(model, rec.bond_length)
            assert circular_loss(pred, rec.angles) < 1e-2

    def test_loss_trace_never_rises(self):
        # every accepted step meets the Armijo condition, so the loss at the
        # start of each iteration is at most the one before it
        fn = lambda x: np.array([np.sin(x), np.cos(x)])
        out = train(make_dataset(fn=fn, n_angles=2), TrainConfig(epochs=5000, seed=2))
        trace = out["train_loss_trace"]
        assert len(trace) == out["iterations"] > 10
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) <= 0.0)
        assert out["final_train_loss"] <= trace[-1]

    def test_stop_reasons(self):
        fn = lambda x: np.array([np.sin(x), np.cos(x)])
        capped = train(make_dataset(fn=fn, n_angles=2), TrainConfig(epochs=5, seed=2))
        assert capped["stop_reason"] == "budget"
        assert capped["iterations"] == len(capped["train_loss_trace"]) == 5
        done = train(make_dataset(fn=fn, n_angles=2), TrainConfig(epochs=5000, seed=2))
        assert done["stop_reason"] == "gradient"
        assert done["iterations"] < 5000

    def test_flagged_records_excluded(self):
        ds = make_dataset(n=40)
        flagged = tuple(
            DatasetRecord(r.bond_length, r.angles, r.energy, r.oracle_energy, i < 25)
            for i, r in enumerate(ds.records)
        )
        # 25 of 40 records flagged leaves 15 usable, below the minimum of 20
        with pytest.raises(ValueError, match="unflagged"):
            train(ParameterDataset(flagged, 0), TrainConfig(epochs=10))

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(make_dataset(n=10), TrainConfig(epochs=10))

    def test_single_bond_length_rejected(self):
        # the input scaling divides by the range of bond lengths, which is 0 here
        one = tuple(DatasetRecord(1.0, r.angles, r.energy, r.oracle_energy, False)
                    for r in make_dataset(n=20).records)
        with pytest.raises(ValueError, match="share bond length 1.0"):
            train(ParameterDataset(one, 0), TrainConfig(epochs=10))

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(epochs=500, seed=3)
        a = train(make_dataset(), cfg)["model"]
        b = train(make_dataset(), cfg)["model"]
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_nonfinite_loss_raises(self):
        # the circular loss itself is bounded, so drive the guard with a
        # corrupt record instead of a huge learning rate
        ds = make_dataset()
        bad = list(ds.records)
        bad[3] = DatasetRecord(bad[3].bond_length, np.full(4, np.inf), -1.0, -1.0, False)
        with pytest.raises(ValueError, match="non-finite"):
            train(ParameterDataset(tuple(bad), 0), TrainConfig(epochs=10))


class TestPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return train(make_dataset(), TrainConfig(epochs=2000))["model"]

    def test_output_range(self, model):
        p = predict(model, 1.0)
        assert np.all(p >= 0.0) and np.all(p < 2 * np.pi)

    def test_deterministic(self, model):
        assert np.array_equal(predict(model, 1.3), predict(model, 1.3))

    def test_extrapolation_guard(self, model):
        span = model.input_max - model.input_min
        predict(model, model.input_max + 0.09 * span)  # inside the 10% margin
        with pytest.raises(ValueError, match="outside"):
            predict(model, model.input_max + 0.2 * span)

    def test_normalization_round_trip(self, model):
        xs = np.linspace(model.input_min, model.input_max, 11)
        norm = (xs - model.input_min) / (model.input_max - model.input_min)
        back = norm * (model.input_max - model.input_min) + model.input_min
        assert np.max(np.abs(back - xs)) < 1e-12


class TestSerialization:
    def test_bit_for_bit_round_trip(self):
        model = train(make_dataset(), TrainConfig(epochs=200))["model"]
        back = model_from_json(model_to_json(model))
        assert model_to_json(back) == model_to_json(model)
        assert np.array_equal(predict(back, 1.1), predict(model, 1.1))

    def test_schema_mismatch(self):
        model = train(make_dataset(), TrainConfig(epochs=50))["model"]
        doc = json.loads(model_to_json(model))
        doc["schema_version"] = "x"
        with pytest.raises(ValueError, match="schema"):
            model_from_json(json.dumps(doc))

    def test_file_with_dataset_hash_still_loads(self):
        # nn.json files written before the field was dropped carry "dataset_hash"
        doc = self.small_doc()
        assert "dataset_hash" not in doc
        old = model_from_json(json.dumps({**doc, "dataset_hash": "0123456789abcdef"}))
        assert model_to_json(old) == model_to_json(model_from_json(json.dumps(doc)))

    @staticmethod
    def small_doc():
        rng = np.random.default_rng(0)
        sizes = (1, 4, 3)
        model = MlpModel(sizes, tuple(rng.normal(size=p) for p in zip(sizes, sizes[1:])),
                         tuple(np.zeros(n) for n in sizes[1:]), 0.5, 1.5)
        return json.loads(model_to_json(model))

    @pytest.mark.parametrize("malform", ["short_last_bias", "bias_missing", "extra_weight",
                                         "two_inputs"])
    def test_malformed_model_rejected(self, malform):
        doc = self.small_doc()
        assert "activation" not in doc     # the schema tag fixes the hidden layers to tanh
        model_from_json(json.dumps(doc))
        if malform == "short_last_bias":
            doc["biases"][-1] = [0.0]
        elif malform == "bias_missing":
            doc["biases"].pop()
        elif malform == "extra_weight":
            doc["weights"].append([[0.0]] * 3)
        else:
            doc["layer_sizes"][0] = 2
            doc["weights"][0] *= 2
        with pytest.raises(ValueError, match="shape|layer|input"):
            model_from_json(json.dumps(doc))
