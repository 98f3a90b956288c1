import numpy as np
import pytest

from latentvqe.ansatz import AnsatzSpec
from latentvqe.mlp import (
    MlpModel, TrainConfig, circular_loss, loss_gradients,
    model_from_json, model_to_json, predict, train,
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
    return ParameterDataset(tuple(records), n // 2, AnsatzSpec("STRONGLY_ENTANGLING", 2, 1))


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


class TestTrain:
    def test_constant_dataset_learned_exactly(self):
        out = train(make_dataset(), TrainConfig(epochs=3000, learning_rate=0.1, seed=0))
        assert out["test_loss"] < 1e-6

    def test_smooth_synthetic_angles(self):
        fn = lambda x: np.array([np.sin(x), 0.5 * np.cos(2 * x) + 1.0, 0.2 * x, 2.0])
        out = train(make_dataset(fn=fn), TrainConfig(epochs=20000, learning_rate=0.05, seed=1))
        assert out["test_loss"] < 1e-3
        model = out["model"]
        for rec in (make_dataset(fn=fn).records[5], make_dataset(fn=fn).records[30]):
            pred = predict(model, rec.bond_length)
            assert circular_loss(pred, rec.angles) < 1e-2

    def test_loss_trace_moving_average_non_increasing(self):
        fn = lambda x: np.array([np.sin(x), np.cos(x)])
        out = train(make_dataset(fn=fn, n_angles=2),
                    TrainConfig(epochs=5000, learning_rate=0.05, seed=2))
        trace = out["train_loss_trace"]
        assert np.all(np.isfinite(trace))
        window = np.convolve(trace, np.ones(50) / 50, mode="valid")
        assert np.all(np.diff(window) <= 1e-12)

    def test_flagged_records_excluded(self):
        ds = make_dataset(n=40)
        flagged = tuple(
            DatasetRecord(r.bond_length, r.angles, r.energy, r.oracle_energy, i < 25)
            for i, r in enumerate(ds.records)
        )
        # 25 of 40 records flagged leaves 15 usable, below the minimum of 20
        with pytest.raises(ValueError, match="unflagged"):
            train(ParameterDataset(flagged, 0, None), TrainConfig(epochs=10))

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(make_dataset(n=10), TrainConfig(epochs=10))

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(epochs=500, learning_rate=0.05, seed=3)
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
            train(ParameterDataset(tuple(bad), 0, None), TrainConfig(epochs=10))


class TestPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return train(make_dataset(), TrainConfig(epochs=2000, learning_rate=0.1))["model"]

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
        model = train(make_dataset(), TrainConfig(epochs=200, learning_rate=0.05))["model"]
        back = model_from_json(model_to_json(model))
        assert model_to_json(back) == model_to_json(model)
        assert np.array_equal(predict(back, 1.1), predict(model, 1.1))

    def test_schema_mismatch(self):
        import json

        model = train(make_dataset(), TrainConfig(epochs=50))["model"]
        doc = json.loads(model_to_json(model))
        doc["schema_version"] = "x"
        with pytest.raises(ValueError, match="schema"):
            model_from_json(json.dumps(doc))
