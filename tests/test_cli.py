import json

import numpy as np
import pytest

from latentvqe.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_UPSTREAM, EXIT_USAGE, main


def run(*argv):
    return main([str(a) for a in argv])


class TestHamBuild:
    def test_single_distance(self, tmp_path):
        out = tmp_path / "ham.json"
        assert run("ham", "build", "--distance", 0.735, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "latentvqe/1"
        assert doc["n_qubits"] == 4
        assert "ordering" in doc
        assert (tmp_path / "ham.json.manifest.json").exists()

    def test_grid_writes_files_and_index(self, tmp_path):
        out = tmp_path / "grid"
        assert run("ham", "build", "--grid", "0.4:0.8:5", "--out", out) == EXIT_OK
        index = json.loads((out / "index.json").read_text())
        assert len(index["files"]) == 5
        for name in index["files"]:
            assert (out / name).exists()

    def test_deterministic_rebuild(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("ham", "build", "--distance", 1.0, "--out", a)
        run("ham", "build", "--distance", 1.0, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("ham", "build", "--grid", "2.0:1.0:5", "--out", tmp_path / "x")
        assert err.value.code == EXIT_USAGE


@pytest.fixture(scope="module")
def ham(tmp_path_factory):
    path = tmp_path_factory.mktemp("ham") / "ham.json"
    run("ham", "build", "--distance", 0.735, "--out", path)
    return path


class TestVqeRun:
    def test_uccsd_single_point(self, ham, tmp_path):
        out = tmp_path / "uccsd.json"
        assert run("vqe", "run", "--ansatz", "uccsd", "--ham", ham,
                   "--seed", 1, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "vqe-result"
        assert abs(doc["error"]) < 1e-6
        assert doc["n_params"] == 3
        assert len(doc["params"]) == 3
        assert doc["evaluations"] > 0

    def test_same_seed_reproduces_bytes(self, ham, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("vqe", "run", "--ansatz", "uccsd", "--ham", ham, "--seed", 3, "--out", a)
        run("vqe", "run", "--ansatz", "uccsd", "--ham", ham, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_latent_requires_qae_model(self, ham, tmp_path):
        code = run("vqe", "run", "--ansatz", "latent", "--ham", ham,
                   "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM

    def test_missing_ham_is_upstream_error(self, tmp_path):
        code = run("vqe", "run", "--ansatz", "uccsd", "--ham", tmp_path / "none.json",
                   "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM

    @pytest.mark.parametrize("malform", ["terms_not_a_list", "coeff_is_a_list", "top_level_array",
                                         "grid_files_not_a_list", "grid_files_empty"])
    def test_malformed_ham_is_upstream_error(self, ham, tmp_path, malform):
        doc = json.loads(ham.read_text())
        if malform == "terms_not_a_list":
            doc["terms"] = 5
        elif malform == "coeff_is_a_list":
            doc["terms"][0]["coeff"] = [1.0, 2.0]
        elif malform == "top_level_array":
            doc = [doc]
        else:
            doc = {"schema_version": "latentvqe/1", "kind": "hamiltonian-grid",
                   "files": 5 if malform == "grid_files_not_a_list" else []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run("vqe", "run", "--ansatz", "uccsd", "--ham", bad, "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM


class TestQaeTrainCli:
    def test_budget_exhaustion_is_numerical_failure(self, tmp_path):
        code = run("qae", "train", "--max-iterations", 1, "--restarts", 1,
                   "--target", 1e-12, "--seed", 5, "--out", tmp_path / "qae.json")
        assert code == EXIT_NUMERICAL


class TestNnTrainCli:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_angle_is_numerical_failure(self, tmp_path):
        lines = ["# latentvqe/1 parameter-dataset {\"anchor_index\": 0}",
                 "bond_length,energy,oracle_energy,flag,theta_0,theta_1"]
        for i, r in enumerate(np.linspace(0.5, 1.5, 22)):
            theta_1 = "inf" if i == 7 else "0.5"
            lines.append(f"{r:.17g},-1.0,-1.0,0,{0.1 * i:.17g},{theta_1}")
        dataset = tmp_path / "ds.csv"
        dataset.write_text("\n".join(lines) + "\n")
        code = run("nn", "train", "--dataset", dataset, "--epochs", 5,
                   "--out", tmp_path / "nn.json")
        assert code == EXIT_NUMERICAL


class TestReport:
    def _result(self, path, method, mae, points=None):
        doc = {
            "schema_version": "latentvqe/1",
            "kind": "vqe-result",
            "method": method,
            "mae": mae,
            "n_gates": 10,
            "n_params": 3,
            "points": points or [],
        }
        path.write_text(json.dumps(doc))

    def test_merges_rows(self, tmp_path, capsys):
        files = []
        for i, method in enumerate(("uccsd", "su2", "latent", "nn-ae-vqe")):
            p = tmp_path / f"{method}.json"
            self._result(p, method, 10.0 ** (-i),
                         points=[{"bond_length": 0.7, "energy": -1.1,
                                  "oracle_energy": -1.13, "error": 0.03}])
            files.append(p)
        out = tmp_path / "table.csv"
        assert run("report", *files, "--out", out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "method,mae,n_gates,n_params"
        assert len(lines) == 5
        assert (tmp_path / "table.csv.txt").exists()
        assert (tmp_path / "table.csv_uccsd.dat").exists()
        text = (tmp_path / "table.csv_uccsd.dat").read_text().split()
        assert float(text[0]) == 0.7

    def test_empty_input_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("report", "--out", tmp_path / "t.csv")
        assert err.value.code == EXIT_USAGE

    def test_schema_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": "other/2", "kind": "vqe-result"}))
        assert run("report", p, "--out", tmp_path / "t.csv") == EXIT_UPSTREAM


@pytest.mark.slow
class TestMiniPipeline:
    def test_end_to_end_small_grid(self, tmp_path):
        qae_path = tmp_path / "qae.json"
        assert run("qae", "train", "--seed", 0, "--out", qae_path) == EXIT_OK

        ds_path = tmp_path / "ds.csv"
        assert run("dataset", "generate", "--qae", qae_path, "--grid", "0.5:2.0:30",
                   "--restarts", 4, "--seed", 0, "--out", ds_path) == EXIT_OK

        nn_path = tmp_path / "nn.json"
        assert run("nn", "train", "--dataset", ds_path, "--epochs", 15000,
                   "--seed", 0, "--out", nn_path) == EXIT_OK

        eval_path = tmp_path / "eval.csv"
        assert run("nn", "eval", "--model", nn_path, "--qae", qae_path,
                   "--grid", "0.6:1.9:7", "--seed", 0, "--out", eval_path) == EXIT_OK
        summary = json.loads((tmp_path / "eval.csv.summary.json").read_text())
        assert summary["mae"] < 1.59e-3
        assert summary["n_params"] == 12 and summary["n_gates"] == 6

        lines = eval_path.read_text().splitlines()
        assert lines[0] == "bond_length,energy,oracle_energy,abs_error"
        assert len(lines) == 8

        table = tmp_path / "table.csv"
        assert run("report", tmp_path / "eval.csv.summary.json", "--out", table) == EXIT_OK
        assert "nn-ae-vqe" in table.read_text()
