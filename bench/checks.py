"""Output checks: per-operation acceptance tolerances, quality numbers, determinism.

An operation is one trained model or one bond-length point. It fails when
its command exits non-zero, its artifact is missing or unreadable, or its
output breaks a tolerance taken from `tests/test_acceptance.py`:

- QAE trash infidelity < 1e-8 (criterion 4);
- sweep points unflagged with |error| < 1e-5 (criterion 5, per point);
- UCCSD |error| < 1e-6 (criterion 2, per point);
- SU2 mean |error| in [1e-4, 5e-2] (criterion 3 bounds the MAE; when the
  band is broken every point of the stage fails);
- latent equilibrium and NN evaluation |error| < 1.59e-3 (criterion 6);
- no energy more than 1e-10 below the ground energy (criterion 8).

Ground energies come from numpy's dense `eigvalsh`, independent of the
program's Jacobi oracle; the oracle energy written in each artifact must
agree with it to ORACLE_AGREEMENT.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

QAE_INFIDELITY = 1e-8
SWEEP_ERROR = 1e-5
UCCSD_ERROR = 1e-6
SU2_MAE = (1e-4, 5e-2)
CHEMICAL_ACCURACY = 1.59e-3
VARIATIONAL_SLACK = 1e-10
ORACLE_AGREEMENT = 1e-9

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_ground_energy(terms) -> float:
    """Lowest eigenvalue of sum c * P from (ops, coeff) pairs; qubit 0 innermost."""
    dim = 1 << len(terms[0][0])
    mat = np.zeros((dim, dim), dtype=complex)
    for ops, coeff in terms:
        term = np.ones((1, 1), dtype=complex)
        for c in ops:
            term = np.kron(_PAULI[c], term)
        mat += coeff * term
    return float(np.linalg.eigvalsh(mat)[0])


class Oracle:
    """Independent ground energies per bond length, memoized within one check."""

    def __init__(self):
        from latentvqe.hamiltonian import hamiltonian_for_distance

        self._build = hamiltonian_for_distance
        self._cache: dict[float, float] = {}

    def __call__(self, bond_length: float) -> float:
        if bond_length not in self._cache:
            h = self._build(bond_length)
            self._cache[bond_length] = dense_ground_energy(
                [(t.ops, t.coefficient) for t in h.terms])
        return self._cache[bond_length]


def _point_failures(bond, energy, oracle_energy, tol, oracle):
    """Reasons one bond-length point fails (|error| >= tol and more); empty when it passes."""
    reasons = []
    exact = oracle(bond)
    if abs(oracle_energy - exact) > ORACLE_AGREEMENT:
        reasons.append(f"R={bond:.6f}: oracle {oracle_energy!r} vs eigvalsh {exact!r}")
    if energy < exact - VARIATIONAL_SLACK:
        reasons.append(f"R={bond:.6f}: energy {energy!r} below ground {exact!r}")
    err = abs(energy - exact)
    if err >= tol:
        reasons.append(f"R={bond:.6f}: |error| {err:.3e} breaks {tol:g}")
    return reasons


def _errors(points) -> dict:
    errs = [abs(p["energy"] - p["oracle_energy"]) for p in points]
    return {"mae": float(np.mean(errs)), "max_abs_error": float(np.max(errs))}


def _check_ham(step, root: Path, oracle, stdout):
    path = root / step.outputs[0]
    if path.is_dir():
        index = json.loads((path / "index.json").read_text())
        files = [path / f for f in index["files"]]
    else:
        files = [path]
    reasons = []
    for f in files:
        doc = json.loads(f.read_text())
        if doc["n_qubits"] != 4 or not doc["terms"]:
            reasons.append(f"{f.name}: malformed Hamiltonian")
    n = step.expect.get("points", 1)
    if len(files) != n:
        reasons.append(f"count: {len(files)} Hamiltonian files, expected {n}")
    return len(files), reasons, {"points": len(files)}


def _check_qae(step, root: Path, oracle, stdout):
    doc = json.loads((root / "qae.json").read_text())
    infidelity = float(doc["achieved_trash_infidelity"])
    reasons = [] if infidelity < QAE_INFIDELITY else [
        f"trash infidelity {infidelity:.3e} >= {QAE_INFIDELITY:g}"]
    return 1, reasons, {"trash_infidelity": infidelity}


def _check_vqe(step, root: Path, oracle, stdout):
    doc = json.loads((root / step.outputs[0]).read_text())
    points = doc["points"]
    tol = {"vqe_latent": CHEMICAL_ACCURACY, "vqe_uccsd": UCCSD_ERROR,
           "vqe_su2": float("inf")}[step.name]
    reasons = []
    for p in points:
        reasons += _point_failures(p["bond_length"], p["energy"], p["oracle_energy"],
                                   tol, oracle)
    n = step.expect.get("points", 1)
    if len(points) != n:
        reasons.append(f"count: {len(points)} points, expected {n}")
    quality = _errors(points)
    if step.name == "vqe_su2" and not SU2_MAE[0] <= quality["mae"] <= SU2_MAE[1]:
        reasons += [f"R={p['bond_length']:.6f}: stage MAE {quality['mae']:.3e} outside {SU2_MAE}"
                    for p in points]
    quality["evaluations"] = int(sum(p["evaluations"] for p in points))
    return len(points), reasons, quality


def _check_dataset(step, root: Path, oracle, stdout):
    from latentvqe.optimize import dataset_from_csv

    ds = dataset_from_csv((root / step.outputs[0]).read_text())
    reasons = []
    for r in ds.records:
        if r.flag:
            reasons.append(f"R={r.bond_length:.6f}: flagged")
        reasons += _point_failures(r.bond_length, r.energy, r.oracle_energy,
                                   SWEEP_ERROR, oracle)
    n = step.expect["points"]
    if len(ds.records) != n:
        reasons.append(f"count: {len(ds.records)} sweep records, expected {n}")
    points = [{"energy": r.energy, "oracle_energy": r.oracle_energy} for r in ds.records]
    quality = _errors(points)
    quality["flags"] = int(sum(r.flag for r in ds.records))
    quality["anchor_error"] = float(ds.records[ds.anchor_index].error)
    return len(ds.records), reasons, quality


def _check_nn_train(step, root: Path, oracle, stdout):
    from latentvqe.mlp import model_from_json

    model_from_json((root / "nn.json").read_text())
    quality = {}
    for line in stdout.splitlines():
        if line.startswith("final train loss:"):
            train, test = line.split(";")
            quality["train_loss"] = float(train.split(":")[1])
            quality["test_loss"] = float(test.split(":")[1])
    reasons = [] if "test_loss" in quality else ["no loss line on stdout"]
    return 1, reasons, quality


def _check_nn_eval(step, root: Path, oracle, stdout):
    doc = json.loads((root / "eval.csv.summary.json").read_text())
    points = doc["points"]
    reasons = []
    for p in points:
        reasons += _point_failures(p["bond_length"], p["energy"], p["oracle_energy"],
                                   CHEMICAL_ACCURACY, oracle)
    n = step.expect["points"]
    if len(points) != n:
        reasons.append(f"count: {len(points)} points, expected {n}")
    return len(points), reasons, _errors(points)


CHECKERS = {
    "ham_eq": _check_ham,
    "ham_uccsd": _check_ham,
    "ham_su2": _check_ham,
    "qae_train": _check_qae,
    "vqe_latent": _check_vqe,
    "vqe_uccsd": _check_vqe,
    "vqe_su2": _check_vqe,
    "dataset_nn": _check_dataset,
    "dataset_generate": _check_dataset,
    "nn_train": _check_nn_train,
    "nn_eval": _check_nn_eval,
}


def check_step(step, root: Path, exit_code: int, stdout: str, oracle) -> dict:
    """{"attempted", "failed", "reasons", "quality"} for one command's output."""
    expected = step.expect.get("points", 1)
    if exit_code != 0:
        return {"attempted": expected, "failed": expected,
                "reasons": [f"exit code {exit_code}"], "quality": {}}
    try:
        found, reasons, quality = CHECKERS[step.name](step, root, oracle, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {"attempted": expected, "failed": expected,
                "reasons": [f"unreadable artifact: {exc!r}"], "quality": {}}
    # A point fails once however many reasons it has; missing points fail;
    # any other reason fails one operation.
    failed_points = {r.split(":")[0] for r in reasons if r.startswith("R=")}
    other = any(not r.startswith(("R=", "count:")) for r in reasons)
    failed = len(failed_points) + max(0, expected - found) + int(other)
    return {"attempted": expected, "failed": min(failed, expected),
            "reasons": reasons, "quality": quality}


def artifact_hashes(step, root: Path) -> dict:
    """sha256 of every file a step wrote, manifests left out."""
    out = {}
    for rel in step.outputs:
        path = root / rel
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and not f.name.endswith(".manifest.json"):
                out[str(f.relative_to(root))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out

