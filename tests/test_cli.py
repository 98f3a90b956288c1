import json
import warnings

import numpy as np
import pytest

from latentvqe import hamiltonian, mlp
from latentvqe.ansatz import qae_encoder
from latentvqe.artifacts import SCHEMA_VERSION
from latentvqe.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_UPSTREAM, EXIT_USAGE, build_parser, main
from latentvqe.qae import QaeModel, qae_to_dict


def run(*argv):
    return main([str(a) for a in argv])


def test_option_defaults():
    # the CLI reads these from the library; the values themselves must not move
    def parsed(*argv):
        return build_parser().parse_args([*argv, "--out", "x"])

    q = parsed("qae", "train")
    assert (q.bond_lengths, q.target, q.restarts, q.max_iterations) == (
        "0.4,0.7,1.0,1.5,2.0,2.5", 1e-8, 20, 1200)
    v = parsed("vqe", "run", "--ansatz", "su2", "--ham", "ham.json")
    assert (v.restarts, v.max_iterations) == (1, None)
    d = parsed("dataset", "generate", "--qae", "qae.json")
    assert (d.anchor, d.alpha, d.gamma, d.restarts) == (0.735, 0.5, 0.05, 10)
    n = parsed("nn", "train", "--dataset", "ds.csv")
    assert (n.epochs, n.train_fraction) == (60000, 0.7)


@pytest.mark.parametrize("command", [
    ["vqe", "run", "--ansatz", "uccsd", "--ham", "{dir}"],
    ["vqe", "run", "--ansatz", "latent", "--ham", "{ham}", "--qae", "{dir}"],
    ["dataset", "generate", "--qae", "{dir}"],
    ["nn", "train", "--dataset", "{dir}"],
    ["nn", "eval", "--model", "{dir}", "--qae", "{dir}", "--grid", "0.6:1.2:3"],
    ["report", "{dir}"],
], ids=["ham", "qae", "dataset_generate_qae", "dataset", "model", "report_input"])
def test_directory_as_input_is_upstream_error(tmp_path, ham, command):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = [a.format(dir=inputs, ham=ham) for a in command]
    assert run(*argv, "--out", tmp_path / "out") == EXIT_UPSTREAM
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out", [
    (["ham", "build", "--distance", "0.735"], "{file}/ham.json"),
    (["ham", "build", "--distance", "0.735"], "{dir}"),
    (["ham", "build", "--grid", "0.4:0.8:2"], "{file}/grid"),
    (["vqe", "run", "--ansatz", "su2", "--ham", "{ham}", "--max-iterations", "1"], "{dir}"),
], ids=["under_a_file", "a_directory", "grid_under_a_file", "vqe_run_to_a_directory"])
def test_unwritable_out_is_usage_error(tmp_path, ham, capsys, command, out):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    paths = {"file": tmp_path / "afile", "dir": tmp_path / "adir", "ham": ham}
    out = out.format(**paths)
    assert run(*[a.format(**paths) for a in command], "--out", out) == EXIT_USAGE
    assert f"cannot write {out}" in capsys.readouterr().err


OLD_SCHEMA_READERS = {
    "hamiltonian": ["vqe", "run", "--ansatz", "uccsd", "--ham", "{old}"],
    "grid_index": ["vqe", "run", "--ansatz", "uccsd", "--ham", "{old}"],
    "qae": ["vqe", "run", "--ansatz", "latent", "--ham", "{ham}", "--qae", "{old}"],
    "model": ["nn", "eval", "--model", "{old}", "--qae", "{qae}", "--grid", "0.6:1.2:3"],
    "dataset": ["nn", "train", "--dataset", "{old}"],
    "result": ["report", "{old}"],
}


@pytest.mark.parametrize("kind", OLD_SCHEMA_READERS)
def test_older_schema_is_upstream_error(tmp_path, ham, qae_doc, capsys, kind):
    # the tag names the whole format, so a file written under an earlier tag is refused
    qae = tmp_path / "qae.json"
    qae.write_text(json.dumps(qae_doc))
    if kind == "hamiltonian":
        source = tmp_path / "ham.json"
        source.write_text(ham.read_text())
    elif kind == "grid_index":
        run("ham", "build", "--grid", "0.6:0.8:2", "--out", tmp_path / "grid")
        source = tmp_path / "grid" / "index.json"
    elif kind == "qae":
        source = qae
    elif kind == "model":
        source = tmp_path / "nn.json"
        source.write_text(json.dumps(mlp_doc(12)))
    elif kind == "dataset":
        source = TestNnTrainCli.smooth_dataset(tmp_path)
    else:
        source = tmp_path / "uccsd.json"
        assert run("vqe", "run", "--ansatz", "uccsd", "--ham", ham, "--out", source) == EXIT_OK
    old = source.with_name(f"old_{source.name}")
    old.write_text(source.read_text().replace(SCHEMA_VERSION, "latentvqe/1"))
    argv = [a.format(old=old, ham=ham, qae=qae) for a in OLD_SCHEMA_READERS[kind]]
    assert run(*argv, "--out", tmp_path / "out") == EXIT_UPSTREAM
    assert "schema" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestHamBuild:
    def test_single_distance(self, tmp_path):
        out = tmp_path / "ham.json"
        assert run("ham", "build", "--distance", 0.735, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
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


@pytest.fixture(scope="module")
def qae_doc():
    encoder = qae_encoder(4, 2)
    params = np.random.default_rng(0).uniform(0, 2 * np.pi, encoder.n_params)
    return qae_to_dict(QaeModel(encoder, params, 0.0, (0.5, 1.0)))


def malformed_qae(qae_doc, malform):
    doc = json.loads(json.dumps(qae_doc))
    if malform == "47_params":
        doc["encoder_params"].pop()
    else:
        doc["encoder_params"][5] = float("nan")
    return doc


class TestVqeRun:
    def test_uccsd_single_point(self, ham, tmp_path):
        out = tmp_path / "uccsd.json"
        assert run("vqe", "run", "--ansatz", "uccsd", "--ham", ham,
                   "--seed", 1, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "vqe-result"
        assert doc["n_params"] == 3
        (point,) = doc["points"]
        assert "energy" not in doc     # one point is listed like many, with no top-level copy
        assert abs(point["error"]) < 1e-6
        assert len(point["params"]) == 3
        assert point["evaluations"] > 0

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

    @pytest.mark.parametrize("malform", ["terms_not_a_list", "coeff_is_a_list", "pauli_is_a_list",
                                         "top_level_array",
                                         "grid_files_not_a_list", "grid_files_empty",
                                         "n_qubits_too_large", "pauli_string_too_short",
                                         "two_qubit_hamiltonian", "eight_qubit_hamiltonian",
                                         "terms_empty", "coefficient_sum_overflows",
                                         "nan_bond_length", "inf_bond_length"])
    def test_malformed_ham_is_upstream_error(self, ham, tmp_path, malform):
        doc = json.loads(ham.read_text())
        if malform == "terms_not_a_list":
            doc["terms"] = 5
        elif malform == "coeff_is_a_list":
            doc["terms"][0]["coeff"] = [1.0, 2.0]
        elif malform == "pauli_is_a_list":
            doc["terms"][1]["pauli"] = list(doc["terms"][1]["pauli"])
        elif malform == "n_qubits_too_large":
            doc["n_qubits"] = 5
        elif malform == "pauli_string_too_short":
            doc["terms"][-1]["pauli"] = "XXZ"
        elif malform == "two_qubit_hamiltonian":
            doc["n_qubits"] = 2
            for t in doc["terms"]:
                t["pauli"] = t["pauli"][:2]
        elif malform == "eight_qubit_hamiltonian":
            doc["n_qubits"] = 8
            for t in doc["terms"]:
                t["pauli"] += "IIII"
        elif malform == "terms_empty":
            doc["terms"] = []
        elif malform == "coefficient_sum_overflows":
            doc["terms"] += [{"pauli": "IIII", "coeff": 1e308}] * 2
        elif malform == "nan_bond_length":   # would end up in the result as NaN, not JSON
            doc["bond_length_angstrom"] = float("nan")
        elif malform == "inf_bond_length":
            doc["bond_length_angstrom"] = float("inf")
        elif malform == "top_level_array":
            doc = [doc]
        else:
            doc = {"schema_version": SCHEMA_VERSION, "kind": "hamiltonian-grid",
                   "files": 5 if malform == "grid_files_not_a_list" else []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run("vqe", "run", "--ansatz", "uccsd", "--ham", bad, "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM

    @pytest.mark.parametrize("malform", ["47_params", "nan_param"])
    def test_latent_rejects_malformed_qae(self, ham, qae_doc, tmp_path, capsys, malform):
        path = tmp_path / "qae.json"
        path.write_text(json.dumps(malformed_qae(qae_doc, malform)))
        code = run("vqe", "run", "--ansatz", "latent", "--ham", ham, "--qae", path,
                   "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM
        assert "QAE model" in capsys.readouterr().err

    def test_latent_rejects_max_iterations(self, ham, qae_doc, tmp_path, capsys):
        # the flag bounds the uccsd/su2 simplex; the whole-gate latent solve would ignore it
        path = tmp_path / "qae.json"
        path.write_text(json.dumps(qae_doc))
        out = tmp_path / "x.json"
        code = run("vqe", "run", "--ansatz", "latent", "--ham", ham, "--qae", path,
                   "--max-iterations", 50, "--out", out)
        assert code == EXIT_USAGE
        assert "--max-iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_max_iterations_bounds_the_simplex(self, ham, tmp_path):
        out = tmp_path / "su2.json"
        assert run("vqe", "run", "--ansatz", "su2", "--ham", ham, "--max-iterations", 5,
                   "--out", out) == EXIT_OK
        # 33 vertices, then at most 5 iterations of at most 33 evaluations (a shrink)
        assert json.loads(out.read_text())["points"][0]["evaluations"] <= 33 + 5 * 33

    def test_manifest_records_stop_reason(self, ham, tmp_path):
        def stops(ansatz, *extra):
            out = tmp_path / f"{ansatz}.json"
            assert run("vqe", "run", "--ansatz", ansatz, "--ham", ham, *extra,
                       "--out", out) == EXIT_OK
            manifest = json.loads((tmp_path / f"{ansatz}.json.manifest.json").read_text())
            return manifest["result"]["points"]

        assert stops("su2", "--max-iterations", 5) == [
            {"bond_length": 0.735, "iterations": 5, "stop_reason": "budget"}]
        (point,) = stops("uccsd")
        assert point["stop_reason"] == "tolerance" and 0 < point["iterations"] < 2000

    def test_latent_records_whole_gate_solve(self, ham, qae_doc, tmp_path):
        qae = tmp_path / "qae.json"
        qae.write_text(json.dumps(qae_doc))
        out = tmp_path / "latent.json"
        assert run("vqe", "run", "--ansatz", "latent", "--ham", ham, "--qae", qae,
                   "--restarts", 2, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["optimizer"] == "whole-gate"
        (point,) = doc["points"]
        manifest = json.loads((tmp_path / "latent.json.manifest.json").read_text())
        assert manifest["config"]["optimizer"] == "whole-gate"
        (stop,) = manifest["result"]["points"]
        assert stop["bond_length"] == point["bond_length"] == 0.735
        assert stop["stop_reason"] in ("tolerance", "sweep_cap") and 1 <= stop["sweeps"] <= 30
        # two starts, each 1 + 10 per gate solve: 4 gates per sweep
        assert (point["evaluations"] - 2) % 40 == 0

    def test_default_simplex_budget_is_2000(self, ham, tmp_path):
        out = tmp_path / "su2.json"
        assert run("vqe", "run", "--ansatz", "su2", "--ham", ham, "--out", out) == EXIT_OK
        manifest = json.loads((tmp_path / "su2.json.manifest.json").read_text())
        assert manifest["result"]["points"] == [
            {"bond_length": 0.735, "iterations": 2000, "stop_reason": "budget"}]

    def test_jacobi_budget_exhaustion_is_numerical_failure(self, ham, tmp_path, monkeypatch):
        monkeypatch.setattr(hamiltonian, "JACOBI_MAX_SWEEPS", 1)
        code = run("vqe", "run", "--ansatz", "uccsd", "--ham", ham, "--out", tmp_path / "x.json")
        assert code == EXIT_NUMERICAL
        assert not (tmp_path / "x.json").exists()

    def test_manifest_hashes_every_grid_point_file(self, tmp_path):
        grid = tmp_path / "grid"
        run("ham", "build", "--grid", "0.6:0.8:2", "--out", grid)

        def point_hashes():
            out = tmp_path / "uccsd.json"
            assert run("vqe", "run", "--ansatz", "uccsd", "--ham", grid / "index.json",
                       "--out", out) == EXIT_OK
            manifest = json.loads((tmp_path / "uccsd.json.manifest.json").read_text())
            return manifest["input_hashes"]

        before = point_hashes()
        edited = grid / "ham_001.json"
        assert str(edited) in before
        edited.write_text(json.dumps(json.loads(edited.read_text()), indent=1))
        after = point_hashes()
        assert after[str(edited)] != before[str(edited)]
        assert {k: v for k, v in after.items() if k != str(edited)} == \
            {k: v for k, v in before.items() if k != str(edited)}

    @pytest.mark.parametrize("listed", [[5.0, 9.0], [0.8, 0.6], [0.6], None, ["0.6", "0.8"],
                                        "0.6 0.8"],
                             ids=["other_lengths", "reordered", "too_short", "missing",
                                  "strings", "not_a_list"])
    def test_grid_index_must_list_its_files_bond_lengths(self, tmp_path, capsys, listed):
        grid = tmp_path / "grid"
        run("ham", "build", "--grid", "0.6:0.8:2", "--out", grid)
        index = json.loads((grid / "index.json").read_text())
        assert index["bond_lengths_angstrom"] == [0.6, 0.8]
        if listed is None:
            del index["bond_lengths_angstrom"]
        else:
            index["bond_lengths_angstrom"] = listed
        (grid / "index.json").write_text(json.dumps(index))
        code = run("vqe", "run", "--ansatz", "uccsd", "--ham", grid / "index.json",
                   "--out", tmp_path / "x.json")
        assert code == EXIT_UPSTREAM
        assert "bond lengths" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestQaeTrainCli:
    def test_budget_exhaustion_is_numerical_failure(self, tmp_path):
        code = run("qae", "train", "--max-iterations", 1, "--restarts", 1,
                   "--target", 1e-12, "--seed", 5, "--out", tmp_path / "qae.json")
        assert code == EXIT_NUMERICAL

    def test_met_target_above_the_floor_succeeds(self, tmp_path):
        # the first start reaches 9.05e-4 < 0.01 and stops there; that cost is above the
        # 1e-4 bar that applies only once every restart has missed the target
        out = tmp_path / "qae.json"
        assert run("qae", "train", "--target", 0.01, "--seed", 2, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert 1e-4 < doc["achieved_trash_infidelity"] < 0.01


MALFORMED_OPTIONS = {
    "vqe run": ["vqe", "run", "--ansatz", "uccsd", "--ham", "ham.json"],
    "qae train": ["qae", "train"],
    "dataset generate": ["dataset", "generate", "--qae", "qae.json"],
}


@pytest.mark.parametrize("command, option, value", [
    *[(c, "--restarts", v) for c in MALFORMED_OPTIONS for v in ("0", "-1")],
    ("dataset generate", "--anchor", "nan"),
    ("qae train", "--target", "nan"),
    ("qae train", "--target", "0"),
])
def test_malformed_option_is_usage_error(tmp_path, capsys, command, option, value):
    # rejected by the parser, before any artifact is read or any work starts
    with pytest.raises(SystemExit) as err:
        run(*MALFORMED_OPTIONS[command], option, value, "--out", tmp_path / "out")
    assert err.value.code == EXIT_USAGE
    assert option in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestNnTrainCli:
    @pytest.mark.parametrize("column, value", [(5, "inf"), (4, "nan"), (0, "nan"), (1, "nan"),
                                               (3, "7")],
                             ids=["inf_angle", "nan_angle", "nan_bond_length", "nan_energy",
                                  "flag_7"])
    def test_malformed_cell_is_upstream_error(self, tmp_path, column, value):
        # refused by the dataset loader; the trainer's own non-finite stop is
        # tested in test_mlp.py
        dataset = self.smooth_dataset(tmp_path)
        lines = dataset.read_text().splitlines()
        cells = lines[5].split(",")
        cells[column] = value
        lines[5] = ",".join(cells)
        dataset.write_text("\n".join(lines) + "\n")
        code = run("nn", "train", "--dataset", dataset, "--out", tmp_path / "nn.json")
        assert code == EXIT_UPSTREAM
        assert not (tmp_path / "nn.json").exists()

    def test_single_bond_length_is_usage_error(self, tmp_path, capsys):
        # what `dataset generate --grid 1:1:20` writes: 20 records at one bond length
        dataset = self.smooth_dataset(tmp_path)
        lines = dataset.read_text().splitlines()
        lines[2:] = ["1," + ln.split(",", 1)[1] for ln in lines[2:]]
        dataset.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the zero range on the way
            code = run("nn", "train", "--dataset", dataset, "--out", tmp_path / "nn.json")
        assert code == EXIT_USAGE
        assert "share bond length 1.0" in capsys.readouterr().err
        assert not (tmp_path / "nn.json").exists()

    @staticmethod
    def smooth_dataset(tmp_path):
        lines = [f"# {SCHEMA_VERSION} parameter-dataset {{\"anchor_index\": 0}}",
                 "bond_length,energy,oracle_energy,flag,theta_0,theta_1"]
        for r in np.linspace(0.5, 1.5, 22):
            lines.append(f"{r:.17g},-1.0,-1.0,0,{np.sin(r):.17g},{0.3 * r:.17g}")
        dataset = tmp_path / "ds.csv"
        dataset.write_text("\n".join(lines) + "\n")
        return dataset

    def test_manifest_records_stop_reason(self, tmp_path, capsys):
        out = tmp_path / "nn.json"
        assert run("nn", "train", "--dataset", self.smooth_dataset(tmp_path), "--epochs", 5,
                   "--out", out) == EXIT_OK
        manifest = json.loads((tmp_path / "nn.json.manifest.json").read_text())
        assert manifest["config"] == {"epochs": 5, "train_fraction": 0.7}
        assert manifest["result"] == {"iterations": 5, "stop_reason": "budget"}
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("final train loss: ") and len(stdout[0].split(";")) == 2
        assert stdout[1] == "stopped on budget after 5 iterations"

    def test_learning_rate_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("nn", "train", "--dataset", self.smooth_dataset(tmp_path), "--lr", 0.1,
                "--out", tmp_path / "nn.json")
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("anchor", [22, -1])
    def test_anchor_index_outside_records_is_upstream_error(self, tmp_path, anchor):
        dataset = self.smooth_dataset(tmp_path)
        text = dataset.read_text().replace('{"anchor_index": 0}', f'{{"anchor_index": {anchor}}}')
        dataset.write_text(text)
        code = run("nn", "train", "--dataset", dataset, "--out", tmp_path / "nn.json")
        assert code == EXIT_UPSTREAM

    @pytest.mark.parametrize("truncation", ["schema_line_only", "short_row",
                                            "rows_narrower_than_header"])
    def test_truncated_dataset_is_upstream_error(self, tmp_path, truncation):
        lines = [f"# {SCHEMA_VERSION} parameter-dataset {{\"anchor_index\":0}}"]
        if truncation == "short_row":
            lines += ["bond_length,energy,oracle_energy,flag,theta_0", "0.5,-1.0,-1.0"]
        elif truncation == "rows_narrower_than_header":
            # three angles in the header over rows of one used to train a 1-output model
            lines.append("bond_length,energy,oracle_energy,flag,theta_0,theta_1,theta_2")
            lines += [f"{r:.3f},-1.0,-1.0,0,{0.3 * r:.3f}" for r in np.linspace(0.5, 1.5, 22)]
        dataset = tmp_path / "ds.csv"
        dataset.write_text("\n".join(lines) + "\n")
        code = run("nn", "train", "--dataset", dataset, "--out", tmp_path / "nn.json")
        assert code == EXIT_UPSTREAM


def mlp_doc(width):
    rng = np.random.default_rng(width)
    sizes = (1, 8, width)
    model = mlp.MlpModel(sizes, tuple(rng.normal(size=p) for p in zip(sizes, sizes[1:])),
                         tuple(np.zeros(n) for n in sizes[1:]), 0.5, 2.0)
    return mlp.model_to_dict(model)


class TestNnEvalCli:
    @staticmethod
    def evaluate(tmp_path, qae_doc, model_doc):
        qae_path, nn_path = tmp_path / "qae.json", tmp_path / "nn.json"
        qae_path.write_text(json.dumps(qae_doc))
        nn_path.write_text(json.dumps(model_doc))
        return run("nn", "eval", "--model", nn_path, "--qae", qae_path, "--grid", "0.6:1.2:3",
                   "--out", tmp_path / "eval.csv")

    def test_latent_pqc_width_is_evaluated(self, qae_doc, tmp_path):
        assert self.evaluate(tmp_path, qae_doc, mlp_doc(12)) == EXIT_OK
        assert len((tmp_path / "eval.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("width", [3, 14])
    def test_wrong_output_width_is_upstream_error(self, qae_doc, tmp_path, capsys, width):
        # 3 angles used to end in an IndexError, 14 in an eval of the first 12
        assert self.evaluate(tmp_path, qae_doc, mlp_doc(width)) == EXIT_UPSTREAM
        assert f"predicts {width} angles" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("malform", ["short_last_bias", "nan_bias", "inf_weight",
                                         "nan_input_min"])
    def test_malformed_model_is_upstream_error(self, qae_doc, tmp_path, malform):
        doc = mlp_doc(12)
        if malform == "short_last_bias":
            doc["biases"][-1] = [0.0]   # would broadcast over all 12 outputs
        elif malform == "nan_bias":
            doc["biases"][0][3] = float("nan")
        elif malform == "inf_weight":
            doc["weights"][1][2][5] = float("inf")
        else:   # passes the min < max check
            doc["input_normalization"]["min"] = float("nan")
        assert self.evaluate(tmp_path, qae_doc, doc) == EXIT_UPSTREAM


class TestReport:
    def _result(self, path, method, mae, points=None):
        doc = {
            "schema_version": SCHEMA_VERSION,
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

    @pytest.mark.parametrize("malform", ["no_method", "point_without_energy", "mae_not_a_number",
                                         "method_with_a_path", "method_starting_with_a_dot",
                                         "n_gates_with_a_row", "n_gates_negative",
                                         "n_params_a_float", "n_params_a_bool"])
    def test_malformed_result_is_upstream_error(self, tmp_path, malform):
        # the method names <out>_<method>.dat, so a path in it would write outside --out's folder
        work = tmp_path / "a" / "b"
        work.mkdir(parents=True)
        p = work / "r.json"
        self._result(p, "uccsd", 1e-3, points=[{"bond_length": 0.7, "energy": -1.1}])
        doc = json.loads(p.read_text())
        if malform == "no_method":
            del doc["method"]
        elif malform == "point_without_energy":
            del doc["points"][0]["energy"]
        elif malform == "method_with_a_path":
            doc["method"] = "../../escaped"
        elif malform == "method_starting_with_a_dot":
            doc["method"] = ".hidden"
        elif malform == "n_gates_with_a_row":  # would add a forged row to the CSV
            doc["n_gates"] = "3\ninjected,row,1,2"
        elif malform == "n_gates_negative":
            doc["n_gates"] = -1
        elif malform == "n_params_a_float":
            doc["n_params"] = 12.0
        elif malform == "n_params_a_bool":
            doc["n_params"] = True
        else:
            doc["mae"] = "small"
        p.write_text(json.dumps(doc))
        assert run("report", p, "--out", work / "t.csv") == EXIT_UPSTREAM
        assert sorted(f.relative_to(tmp_path).as_posix() for f in tmp_path.rglob("*")) == [
            "a", "a/b", "a/b/r.json"]

    def test_duplicate_method_is_usage_error(self, tmp_path, capsys):
        # both would write table.csv_uccsd.dat, the second over the first
        files = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
        for p, method, energy in zip(files, ("uccsd", "su2", "uccsd"), (-1.1, -1.0, -0.9)):
            self._result(p, method, 1e-3, points=[{"bond_length": 0.7, "energy": energy}])
        assert run("report", *files, "--out", tmp_path / "table.csv") == EXIT_USAGE
        assert "'uccsd'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "c.json"]

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
