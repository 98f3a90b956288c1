"""Command-line pipeline orchestration with persistent artifacts.

Verbs: ham build, vqe run, qae train, dataset generate, nn train, nn eval,
report. Every command writes its artifact plus a <out>.manifest.json run
manifest. All randomness flows from --seed through named streams, so a rerun
with the same inputs and seed reproduces every artifact byte for byte
(manifests record wall time and are the one exception).

Exit codes: 0 success, 2 usage error, 3 missing/invalid upstream artifact,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import mlp
from .ansatz import AnsatzSpec, build_ansatz, efficient_su2, strongly_entangling, uccsd_h2
from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .circuit import resource_counts
from .hamiltonian import (
    JacobiConvergenceError, exact_ground_energy, hamiltonian_for_distance,
    hamiltonian_from_json, hamiltonian_to_dict,
)
from .optimize import (
    NumericalError, OptimizerConfig, StepConstraint, constrained_sweep, dataset_from_csv,
    dataset_to_csv, optimize_vqe, staged_gate_optimize,
)
from .qae import QaeTrainingError, latent_vqe_circuit, qae_from_json, qae_to_dict, train_qae
from .rng import named_rng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UPSTREAM = 3
EXIT_NUMERICAL = 4


class UpstreamArtifactError(RuntimeError):
    pass


def _subseed(seed: int, stream: str) -> int:
    return int(named_rng(seed, stream).integers(2**31 - 1))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc: dict) -> None:
    _write(path, canonical_json(doc) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_artifact(path: Path, loader, what: str):
    if not path.exists():
        raise UpstreamArtifactError(f"{what} not found: {path}")
    try:
        return loader(path.read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UpstreamArtifactError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: Path, what: str) -> dict:
    return _read_artifact(path, lambda text: require_schema(json.loads(text), what), what)


def _write_manifest(out: Path, command: str, config: dict, inputs, outputs, seed, t0: float):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "input_hashes": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "wall_time_seconds": round(time.time() - t0, 3),
    }
    for p in outputs:
        if not Path(p).exists():
            raise RuntimeError(f"declared output missing: {p}")
    _write_json(Path(str(out) + ".manifest.json"), manifest)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {spec!r}") from exc
    if count < 1 or stop < start:
        raise argparse.ArgumentTypeError(f"invalid grid {spec!r}")
    return np.linspace(start, stop, count)


# --- ham build ---------------------------------------------------------------

def cmd_ham_build(args) -> int:
    t0 = time.time()
    out = Path(args.out)
    if args.grid is not None:
        grid = args.grid
        files = [f"ham_{i:03d}.json" for i in range(len(grid))]
        for r, name in zip(grid, files):
            _write_json(out / name, hamiltonian_to_dict(hamiltonian_for_distance(float(r))))
        index = {
            "schema_version": SCHEMA_VERSION,
            "kind": "hamiltonian-grid",
            "bond_lengths_angstrom": [float(r) for r in grid],
            "files": files,
        }
        _write_json(out / "index.json", index)
        outputs = [out / f for f in files] + [out / "index.json"]
        _write_manifest(out / "index.json", "ham build", {"grid": [float(r) for r in grid]},
                        [], outputs, args.seed, t0)
    else:
        _write_json(out, hamiltonian_to_dict(hamiltonian_for_distance(args.distance)))
        _write_manifest(out, "ham build", {"distance": args.distance}, [], [out], args.seed, t0)
    return EXIT_OK


def _load_ham_points(path: Path):
    """Returns [(bond_length, QubitHamiltonian)] from a single file or grid index."""
    doc = _read_json(path, "hamiltonian file")
    if doc.get("kind") == "hamiltonian-grid":
        names = doc.get("files")
        if not names or not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise UpstreamArtifactError(f"grid index {path} lists no hamiltonian file names")
        out = []
        for name in names:
            h = _read_artifact(path.parent / name, hamiltonian_from_json, "hamiltonian file")
            out.append((h.bond_length, h))
        return out
    h = _read_artifact(path, hamiltonian_from_json, "hamiltonian file")
    return [(h.bond_length, h)]


# --- vqe run -----------------------------------------------------------------

_STAGED = OptimizerConfig(tolerance=1e-11, max_iterations=400)


def _best_staged(circuit, hamiltonian, rng, restarts: int) -> dict:
    """Best of `restarts` staged solves from random starts (ties keep the earlier one)."""
    best = None
    evals = 0
    for _ in range(max(1, restarts)):
        x0 = rng.uniform(0.0, 2.0 * math.pi, circuit.n_params)
        res = staged_gate_optimize(circuit, hamiltonian, x0, _STAGED)
        evals += res["evaluations"]
        if best is None or res["energy"] < best["energy"]:
            best = res
    return {"params": best["params"], "energy": best["energy"], "evaluations": evals}


def _latent_circuit_from(args):
    if not args.qae:
        raise UpstreamArtifactError("--ansatz latent requires --qae MODEL_PATH")
    model = _read_artifact(Path(args.qae), qae_from_json, "QAE model")
    return latent_vqe_circuit(model, strongly_entangling(2, 1))


def cmd_vqe_run(args) -> int:
    t0 = time.time()
    points = _load_ham_points(Path(args.ham))
    inputs = [args.ham] + ([args.qae] if args.ansatz == "latent" else [])

    if args.ansatz == "uccsd":
        circuit = uccsd_h2()
    elif args.ansatz == "su2":
        circuit = efficient_su2(4, 3)
    else:
        circuit = _latent_circuit_from(args)
    counts = resource_counts(circuit)
    if args.ansatz == "latent":
        counts = resource_counts(strongly_entangling(2, 1))  # the PQC itself; decoder is frozen

    method = args.optimizer or ("staged" if args.ansatz == "latent" else "nm")
    results = []
    for i, (bond, h) in enumerate(points):
        rng = named_rng(args.seed, f"vqe/{args.ansatz}/{i}")
        oracle = exact_ground_energy(h)["energy"]
        if method == "staged":
            res = _best_staged(circuit, h, rng, args.restarts)
        else:
            cfg = OptimizerConfig(
                method="ADAM_PARAM_SHIFT" if method == "adam" else "NELDER_MEAD",
                max_iterations=args.max_iterations,
                tolerance=1e-10,
                restarts=args.restarts,
                learning_rate=0.05,
            )
            initial = np.zeros(circuit.n_params) if args.ansatz == "uccsd" else None
            res = optimize_vqe(circuit, h, cfg, rng=rng, initial=initial)
        results.append({
            "bond_length": bond,
            "energy": res["energy"],
            "oracle_energy": oracle,
            "error": res["energy"] - oracle,
            "params": [float(x) for x in res["params"]],
            "evaluations": res["evaluations"],
        })

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "vqe-result",
        "method": args.ansatz,
        "optimizer": method,
        "mae": float(np.mean([abs(r["error"]) for r in results])),
        "n_gates": counts["n_gates"],
        "n_params": counts["n_params"],
        "seed": args.seed,
        "points": results,
    }
    if len(results) == 1:
        doc.update({k: results[0][k] for k in
                    ("bond_length", "energy", "oracle_energy", "error", "params", "evaluations")})
    out = Path(args.out)
    _write_json(out, doc)
    _write_manifest(out, "vqe run",
                    {"ansatz": args.ansatz, "optimizer": method, "restarts": args.restarts},
                    inputs, [out], args.seed, t0)
    return EXIT_OK


# --- qae train ---------------------------------------------------------------

def cmd_qae_train(args) -> int:
    t0 = time.time()
    bond_lengths = tuple(float(x) for x in args.bond_lengths.split(","))
    config = OptimizerConfig(
        method="ADAM_PARAM_SHIFT",
        max_iterations=args.max_iterations,
        tolerance=1e-13,
        restarts=args.restarts,
        seed=_subseed(args.seed, "qae"),
        learning_rate=0.1,
    )
    model = train_qae(bond_lengths, config=config, target=args.target)
    out = Path(args.out)
    _write_json(out, qae_to_dict(model))
    _write_manifest(out, "qae train",
                    {"bond_lengths": list(bond_lengths), "target": args.target,
                     "restarts": args.restarts},
                    [], [out], args.seed, t0)
    print(f"trash infidelity: {model.achieved_trash_infidelity:.3e}")
    return EXIT_OK


# --- dataset generate ----------------------------------------------------------

def cmd_dataset_generate(args) -> int:
    t0 = time.time()
    model = _read_artifact(Path(args.qae), qae_from_json, "QAE model")
    pqc_spec = AnsatzSpec("STRONGLY_ENTANGLING", 2, 1)
    circuit = latent_vqe_circuit(model, build_ansatz(pqc_spec))

    grid = args.grid
    anchor_idx = int(np.argmin(np.abs(grid - args.anchor)))
    hams = [hamiltonian_for_distance(float(r)) for r in grid]
    gt = exact_ground_energy(hams[anchor_idx])["energy"]

    best = _best_staged(circuit, hams[anchor_idx], named_rng(args.seed, "dataset/anchor"),
                        args.restarts)
    anchor_error = best["energy"] - gt

    dataset = constrained_sweep(
        circuit, hams, anchor_idx, best["params"],
        StepConstraint(alpha=args.alpha, gamma=args.gamma), _STAGED, pqc_spec=pqc_spec,
    )
    out = Path(args.out)
    _write(out, dataset_to_csv(dataset))
    _write_manifest(out, "dataset generate",
                    {"grid": [float(r) for r in grid], "anchor": float(grid[anchor_idx]),
                     "alpha": args.alpha, "gamma": args.gamma, "restarts": args.restarts},
                    [args.qae], [out], args.seed, t0)
    flags = sum(r.flag for r in dataset.records)
    print(f"anchor error: {anchor_error:.3e}; flagged points: {flags}")
    return EXIT_OK


# --- nn train / nn eval ---------------------------------------------------------

def cmd_nn_train(args) -> int:
    t0 = time.time()
    dataset = _read_artifact(Path(args.dataset), dataset_from_csv, "parameter dataset")
    config = mlp.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        train_fraction=args.train_fraction,
        seed=_subseed(args.seed, "nn"),
        loss=args.loss,
    )
    result = mlp.train(dataset, config)
    out = Path(args.out)
    _write_json(out, mlp.model_to_dict(result["model"]))
    _write_manifest(out, "nn train",
                    {"epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
                     "train_fraction": args.train_fraction, "loss": args.loss},
                    [args.dataset], [out], args.seed, t0)
    print(f"final train loss: {result['final_train_loss']:.3e}; "
          f"test loss: {result['test_loss']:.3e}")
    return EXIT_OK


def cmd_nn_eval(args) -> int:
    t0 = time.time()
    model = _read_artifact(Path(args.model), mlp.model_from_json, "MLP model")
    qmodel = _read_artifact(Path(args.qae), qae_from_json, "QAE model")
    grid = args.grid
    ev = mlp.evaluate_energy_mae(model, qmodel, [float(r) for r in grid])

    pqc_counts = resource_counts(strongly_entangling(2, 1))
    lines = ["bond_length,energy,oracle_energy,abs_error"]
    for p in ev["per_point_errors"]:
        lines.append(
            f"{p['bond_length']:.17g},{p['energy']:.17g},"
            f"{p['oracle_energy']:.17g},{abs(p['error']):.17g}"
        )
    out = Path(args.out)
    _write(out, "\n".join(lines) + "\n")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "nn-eval-summary",
        "method": "nn-ae-vqe",
        "mae": ev["mae"],
        "n_gates": pqc_counts["n_gates"],
        "n_params": pqc_counts["n_params"],
        "seed": args.seed,
        "points": [
            {"bond_length": p["bond_length"], "energy": p["energy"],
             "oracle_energy": p["oracle_energy"], "error": p["error"]}
            for p in ev["per_point_errors"]
        ],
    }
    summary_path = Path(str(out) + ".summary.json")
    _write_json(summary_path, summary)
    _write_manifest(out, "nn eval", {"grid": [float(r) for r in grid]},
                    [args.model, args.qae], [out, summary_path], args.seed, t0)
    print(f"energy MAE: {ev['mae']:.3e}")
    return EXIT_OK


# --- report -------------------------------------------------------------------

def _load_result(path: Path) -> dict:
    doc = _read_json(path, "result file")
    if doc.get("kind") not in ("vqe-result", "nn-eval-summary"):
        raise UpstreamArtifactError(f"{path} is not a result file (kind={doc.get('kind')!r})")
    return doc


def cmd_report(args) -> int:
    t0 = time.time()
    docs = [_load_result(Path(p)) for p in args.results]
    rows = [
        {"method": d["method"], "mae": d["mae"],
         "n_gates": d["n_gates"], "n_params": d["n_params"]}
        for d in docs
    ]
    out = Path(args.out)
    csv_lines = ["method,mae,n_gates,n_params"]
    for r in rows:
        csv_lines.append(f"{r['method']},{r['mae']:.17g},{r['n_gates']},{r['n_params']}")
    _write(out, "\n".join(csv_lines) + "\n")

    headers = ("method", "mae", "n_gates", "n_params")
    cells = [[r["method"], f"{r['mae']:.6e}", str(r["n_gates"]), str(r["n_params"])] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    table = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    table.append("  ".join("-" * w for w in widths))
    for c in cells:
        table.append("  ".join(c[i].ljust(widths[i]) for i in range(len(headers))))
    txt_path = Path(str(out) + ".txt")
    _write(txt_path, "\n".join(table) + "\n")

    outputs = [out, txt_path]
    for d in docs:
        if "points" in d and d["points"]:
            dat = [f"{p['bond_length']:.17g} {p['energy']:.17g}" for p in d["points"]]
            dat_path = Path(f"{out}_{d['method']}.dat")
            _write(dat_path, "\n".join(dat) + "\n")
            outputs.append(dat_path)
    _write_manifest(out, "report", {"inputs": list(args.results)},
                    list(args.results), outputs, None, t0)
    print("\n".join(table))
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentvqe",
        description="Compressed-ansatz VQE pipeline for H2 (statevector simulation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ham = sub.add_parser("ham", help="Hamiltonian artifacts").add_subparsers(
        dest="subcommand", required=True)
    build = ham.add_parser("build", help="build qubit Hamiltonian file(s)")
    g = build.add_mutually_exclusive_group(required=True)
    g.add_argument("--distance", type=float, help="bond length in Angstrom")
    g.add_argument("--grid", type=_parse_grid, help="start:stop:count in Angstrom")
    build.add_argument("--out", required=True)
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(fn=cmd_ham_build)

    vqe = sub.add_parser("vqe", help="variational runs").add_subparsers(
        dest="subcommand", required=True)
    run = vqe.add_parser("run", help="optimize an ansatz against a Hamiltonian file")
    run.add_argument("--ansatz", choices=("uccsd", "su2", "latent"), required=True)
    run.add_argument("--ham", required=True)
    run.add_argument("--qae", help="QAE model path (latent ansatz only)")
    run.add_argument("--optimizer", choices=("nm", "adam", "staged"))
    run.add_argument("--restarts", type=int, default=1)
    run.add_argument("--max-iterations", type=int, default=2000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_vqe_run)

    qae_p = sub.add_parser("qae", help="quantum autoencoder").add_subparsers(
        dest="subcommand", required=True)
    qtrain = qae_p.add_parser("train", help="train the 4->2 encoder on ground states")
    qtrain.add_argument("--bond-lengths", default="0.4,0.7,1.0,1.5,2.0,2.5")
    qtrain.add_argument("--target", type=float, default=1e-8)
    qtrain.add_argument("--restarts", type=int, default=20)
    qtrain.add_argument("--max-iterations", type=int, default=1200)
    qtrain.add_argument("--seed", type=int, default=0)
    qtrain.add_argument("--out", required=True)
    qtrain.set_defaults(fn=cmd_qae_train)

    ds = sub.add_parser("dataset", help="training data").add_subparsers(
        dest="subcommand", required=True)
    gen = ds.add_parser("generate", help="constrained sweep over the bond-length grid")
    gen.add_argument("--qae", required=True)
    gen.add_argument("--grid", type=_parse_grid, default=_parse_grid("0.3:2.85:100"))
    gen.add_argument("--anchor", type=float, default=0.735)
    gen.add_argument("--alpha", type=float, default=0.5)
    gen.add_argument("--gamma", type=float, default=0.05)
    gen.add_argument("--restarts", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_dataset_generate)

    nn = sub.add_parser("nn", help="angle predictor").add_subparsers(
        dest="subcommand", required=True)
    ntrain = nn.add_parser("train", help="fit the MLP on a parameter dataset")
    ntrain.add_argument("--dataset", required=True)
    ntrain.add_argument("--epochs", type=int, default=60000)
    ntrain.add_argument("--lr", type=float, default=0.05)
    ntrain.add_argument("--batch-size", type=int, default=0)
    ntrain.add_argument("--train-fraction", type=float, default=0.7)
    ntrain.add_argument("--loss", choices=("circular", "cosine"), default="circular")
    ntrain.add_argument("--seed", type=int, default=0)
    ntrain.add_argument("--out", required=True)
    ntrain.set_defaults(fn=cmd_nn_train)
    neval = nn.add_parser("eval", help="energy errors of predicted angles")
    neval.add_argument("--model", required=True)
    neval.add_argument("--qae", required=True)
    neval.add_argument("--grid", type=_parse_grid, required=True)
    neval.add_argument("--seed", type=int, default=0)
    neval.add_argument("--out", required=True)
    neval.set_defaults(fn=cmd_nn_eval)

    rep = sub.add_parser("report", help="merge result files into a comparison table")
    rep.add_argument("results", nargs="+")
    rep.add_argument("--out", required=True)
    rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UpstreamArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UPSTREAM
    except (JacobiConvergenceError, QaeTrainingError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
