"""Command-line pipeline orchestration with persistent artifacts.

Verbs: ham build, vqe run, qae train, dataset generate, nn train, nn eval,
report. Each cmd_* function writes its artifacts and returns (manifest path,
config, inputs, outputs, result); `main` writes these as <out>.manifest.json.
Option defaults that the library also uses are read from it. All randomness
flows from --seed through named streams, so a rerun with the same inputs and
seed reproduces every artifact byte for byte (manifests record wall time and
are the one exception).

Exit codes: 0 success, 2 usage error, 3 missing/invalid upstream artifact,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import mlp
from .ansatz import efficient_su2, uccsd_h2
from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .circuit import resource_counts
from .hamiltonian import (
    JacobiConvergenceError, exact_ground_energy, hamiltonian_for_distance,
    hamiltonian_from_json, hamiltonian_to_dict,
)
from .optimize import (
    NumericalError, OptimizerConfig, StepConstraint, best_of_starts, constrained_sweep,
    dataset_from_csv, dataset_to_csv, optimize_vqe, staged_gate_optimize, whole_gate_optimize,
)
from .qae import (
    DEFAULT_TRAINING_BOND_LENGTHS, LATENT_PQC, QAE_CONFIG, QAE_TARGET, QaeTrainingError,
    latent_vqe_circuit, qae_from_json, qae_to_dict, train_qae,
)
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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    _write(path, canonical_json(doc) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_artifact(path: Path, loader, what: str):
    if not path.exists():
        raise UpstreamArtifactError(f"{what} not found: {path}")
    try:
        return loader(path.read_text())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UpstreamArtifactError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: Path, what: str) -> dict:
    return _read_artifact(path, lambda text: require_schema(json.loads(text), what), what)


def _write_manifest(out: Path, command: str, config: dict, inputs, outputs, seed, t0: float,
                    result: dict | None):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        **({"result": result} if result else {}),
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


def _checked(convert, ok, need: str):
    """An argparse type: `convert` the text, then reject the value (exit 2) unless `ok`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse says "invalid int value" if convert raises
    return parse


_RESTARTS = _checked(int, lambda v: v >= 1, "at least 1")
_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number above 0")


# --- ham build ---------------------------------------------------------------

def cmd_ham_build(args):
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
        return out / "index.json", {"grid": [float(r) for r in grid]}, [], outputs, None
    _write_json(out, hamiltonian_to_dict(hamiltonian_for_distance(args.distance)))
    return out, {"distance": args.distance}, [], [out], None


def _load_ham_points(path: Path):
    """([(bond_length, QubitHamiltonian)], per-point files) from a single file or grid index.

    The per-point files are the ones a grid index lists; a single file has none. The
    index's bond lengths must be the files' own, in order (UpstreamArtifactError).
    """
    doc = _read_json(path, "hamiltonian file")
    if doc.get("kind") != "hamiltonian-grid":
        h = _read_artifact(path, hamiltonian_from_json, "hamiltonian file")
        return [(h.bond_length, h)], []
    names = doc.get("files")
    if not names or not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise UpstreamArtifactError(f"grid index {path} lists no hamiltonian file names")
    files = [path.parent / name for name in names]
    hams = [_read_artifact(f, hamiltonian_from_json, "hamiltonian file") for f in files]
    listed, held = doc.get("bond_lengths_angstrom"), [h.bond_length for h in hams]
    if listed != held:  # also a missing list, or one that is not numbers
        raise UpstreamArtifactError(f"grid index {path} lists bond lengths {listed!r}, "
                                    f"but its files hold {held}")
    return [(h.bond_length, h) for h in hams], files


# --- vqe run -----------------------------------------------------------------

def _latent_circuit_from(args):
    if not args.qae:
        raise UpstreamArtifactError("--ansatz latent requires --qae MODEL_PATH")
    return latent_vqe_circuit(_read_artifact(Path(args.qae), qae_from_json, "QAE model"))


def cmd_vqe_run(args):
    if args.ansatz == "latent" and args.max_iterations is not None:
        raise ValueError("--max-iterations bounds the Nelder-Mead simplex of uccsd/su2 only; "
                         "the whole-gate latent solve does not take it")
    points, point_files = _load_ham_points(Path(args.ham))
    inputs = [args.ham] + point_files + ([args.qae] if args.ansatz == "latent" else [])

    if args.ansatz == "uccsd":
        circuit = uccsd_h2()
    elif args.ansatz == "su2":
        circuit = efficient_su2(4, 3)
    else:
        circuit = _latent_circuit_from(args)
    for bond, h in points:
        if h.n_qubits != circuit.n_qubits:
            raise UpstreamArtifactError(f"hamiltonian at R={bond} acts on {h.n_qubits} "
                                        f"qubits, the {args.ansatz} circuit on {circuit.n_qubits}")
    # the latent circuit counts only its PQC; the decoder is frozen
    counts = resource_counts(LATENT_PQC if args.ansatz == "latent" else circuit)

    method = "whole-gate" if args.ansatz == "latent" else "nm"
    budget = {} if args.max_iterations is None else {"max_iterations": args.max_iterations}
    config = OptimizerConfig(restarts=args.restarts, **budget)
    results, stops = [], []
    for i, (bond, h) in enumerate(points):
        rng = named_rng(args.seed, f"vqe/{args.ansatz}/{i}")
        oracle = exact_ground_energy(h)["energy"]
        if method == "whole-gate":
            res = best_of_starts(lambda x0: whole_gate_optimize(circuit, h, x0),
                                 circuit.n_params, rng, args.restarts)
            count = {"sweeps": res["sweeps"]}
        else:
            initial = np.zeros(circuit.n_params) if args.ansatz == "uccsd" else None
            res = optimize_vqe(circuit, h, config, rng=rng, initial=initial)
            count = {"iterations": res["iterations"]}
        stops.append({"bond_length": bond, **count, "stop_reason": res["stop_reason"]})
        results.append({
            "bond_length": bond,
            "energy": res["value"],
            "oracle_energy": oracle,
            "error": res["value"] - oracle,
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
    out = Path(args.out)
    _write_json(out, doc)
    return (out, {"ansatz": args.ansatz, "optimizer": method, "restarts": args.restarts},
            inputs, [out], {"points": stops})


# --- qae train ---------------------------------------------------------------

def cmd_qae_train(args):
    bond_lengths = tuple(float(x) for x in args.bond_lengths.split(","))
    config = dataclasses.replace(QAE_CONFIG, max_iterations=args.max_iterations,
                                 restarts=args.restarts, seed=_subseed(args.seed, "qae"))
    model = train_qae(bond_lengths, config=config, target=args.target)
    out = Path(args.out)
    _write_json(out, qae_to_dict(model))
    print(f"trash infidelity: {model.achieved_trash_infidelity:.3e}")
    return (out, {"bond_lengths": list(bond_lengths), "target": args.target,
                  "restarts": args.restarts}, [], [out], None)


# --- dataset generate ----------------------------------------------------------

def cmd_dataset_generate(args):
    model = _read_artifact(Path(args.qae), qae_from_json, "QAE model")
    circuit = latent_vqe_circuit(model)

    grid = args.grid
    anchor_idx = int(np.argmin(np.abs(grid - args.anchor)))
    hams = [hamiltonian_for_distance(float(r)) for r in grid]
    best = best_of_starts(lambda x0: staged_gate_optimize(circuit, hams[anchor_idx], x0),
                          circuit.n_params, named_rng(args.seed, "dataset/anchor"), args.restarts)
    dataset = constrained_sweep(circuit, hams, anchor_idx, best["params"],
                                StepConstraint(alpha=args.alpha, gamma=args.gamma))
    out = Path(args.out)
    _write(out, dataset_to_csv(dataset))
    flags = sum(r.flag for r in dataset.records)
    print(f"anchor error: {dataset.records[anchor_idx].error:.3e}; flagged points: {flags}")
    return (out, {"grid": [float(r) for r in grid], "anchor": float(grid[anchor_idx]),
                  "alpha": args.alpha, "gamma": args.gamma, "restarts": args.restarts},
            [args.qae], [out], None)


# --- nn train / nn eval ---------------------------------------------------------

def cmd_nn_train(args):
    dataset = _read_artifact(Path(args.dataset), dataset_from_csv, "parameter dataset")
    config = mlp.TrainConfig(
        epochs=args.epochs,
        train_fraction=args.train_fraction,
        seed=_subseed(args.seed, "nn"),
    )
    result = mlp.train(dataset, config)
    out = Path(args.out)
    _write_json(out, mlp.model_to_dict(result["model"]))
    print(f"final train loss: {result['final_train_loss']:.3e}; "
          f"test loss: {result['test_loss']:.3e}")
    print(f"stopped on {result['stop_reason']} after {result['iterations']} iterations")
    stop = {"iterations": result["iterations"], "stop_reason": result["stop_reason"]}
    return (out, {"epochs": args.epochs, "train_fraction": args.train_fraction},
            [args.dataset], [out], stop)


def cmd_nn_eval(args):
    model = _read_artifact(Path(args.model), mlp.model_from_json, "MLP model")
    if model.layer_sizes[-1] != LATENT_PQC.n_params:
        raise UpstreamArtifactError(f"MLP model {args.model} predicts {model.layer_sizes[-1]} "
                                    f"angles; the latent PQC takes {LATENT_PQC.n_params}")
    qmodel = _read_artifact(Path(args.qae), qae_from_json, "QAE model")
    grid = args.grid
    ev = mlp.evaluate_energy_mae(model, qmodel, [float(r) for r in grid])

    pqc_counts = resource_counts(LATENT_PQC)
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
        "points": ev["per_point_errors"],
    }
    summary_path = Path(str(out) + ".summary.json")
    _write_json(summary_path, summary)
    print(f"energy MAE: {ev['mae']:.3e}")
    return (out, {"grid": [float(r) for r in grid]}, [args.model, args.qae],
            [out, summary_path], None)


# --- report -------------------------------------------------------------------

def _result_row(text: str) -> dict:
    """The fields of a vqe-result or nn-eval-summary file that `report` reads."""
    doc = require_schema(json.loads(text), "result file")
    if doc.get("kind") not in ("vqe-result", "nn-eval-summary"):
        raise ValueError(f"not a result file (kind={doc.get('kind')!r})")
    method = doc["method"]
    if not isinstance(method, str) or not re.fullmatch(r"[\w-][\w.-]*", method, re.ASCII):
        # it names <out>_<method>.dat, which must stay beside <out>
        raise ValueError(f"method must be letters, digits, '.', '_' or '-', not starting "
                         f"with '.', got {method!r}")
    counts = {key: doc[key] for key in ("n_gates", "n_params")}
    for key, value in counts.items():
        if type(value) is not int or value < 0:  # also bool; it is written into the CSV as is
            raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return {"method": method, "mae": float(doc["mae"]), **counts,
            "points": [(float(p["bond_length"]), float(p["energy"]))
                       for p in doc.get("points") or []]}


def cmd_report(args):
    rows = [_read_artifact(Path(p), _result_row, "result file") for p in args.results]
    methods = [r["method"] for r in rows]
    for method in methods:
        if methods.count(method) > 1:  # each method's points go to one <out>_<method>.dat
            raise ValueError(f"more than one result file has method {method!r}")
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
    for r in rows:
        if r["points"]:
            dat_path = Path(f"{out}_{r['method']}.dat")
            dat = "".join(f"{bond:.17g} {energy:.17g}\n" for bond, energy in r["points"])
            _write(dat_path, dat)
            outputs.append(dat_path)
    print("\n".join(table))
    return out, {"inputs": list(args.results)}, list(args.results), outputs, None


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
    run.add_argument("--restarts", type=_RESTARTS, default=OptimizerConfig().restarts)
    run.add_argument("--max-iterations", type=int, default=None,
                     help="Nelder-Mead budget per start for uccsd/su2 "
                          f"(default {OptimizerConfig().max_iterations})")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_vqe_run)

    qae_p = sub.add_parser("qae", help="quantum autoencoder").add_subparsers(
        dest="subcommand", required=True)
    qtrain = qae_p.add_parser("train", help="train the 4->2 encoder on ground states")
    qtrain.add_argument("--bond-lengths",
                        default=",".join(str(r) for r in DEFAULT_TRAINING_BOND_LENGTHS))
    qtrain.add_argument("--target", type=_POSITIVE, default=QAE_TARGET)
    qtrain.add_argument("--restarts", type=_RESTARTS, default=QAE_CONFIG.restarts)
    qtrain.add_argument("--max-iterations", type=int, default=QAE_CONFIG.max_iterations)
    qtrain.add_argument("--seed", type=int, default=0)
    qtrain.add_argument("--out", required=True)
    qtrain.set_defaults(fn=cmd_qae_train)

    ds = sub.add_parser("dataset", help="training data").add_subparsers(
        dest="subcommand", required=True)
    gen = ds.add_parser("generate", help="constrained sweep over the bond-length grid")
    gen.add_argument("--qae", required=True)
    gen.add_argument("--grid", type=_parse_grid, default=_parse_grid("0.3:2.85:100"))
    gen.add_argument("--anchor", type=_FINITE, default=0.735)
    gen.add_argument("--alpha", type=float, default=StepConstraint().alpha)
    gen.add_argument("--gamma", type=float, default=StepConstraint().gamma)
    gen.add_argument("--restarts", type=_RESTARTS, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_dataset_generate)

    nn = sub.add_parser("nn", help="angle predictor").add_subparsers(
        dest="subcommand", required=True)
    ntrain = nn.add_parser("train", help="fit the MLP on a parameter dataset")
    ntrain.add_argument("--dataset", required=True)
    ntrain.add_argument("--epochs", type=int, default=mlp.TrainConfig().epochs,
                        help="L-BFGS iteration cap; training stops earlier once every "
                             f"loss-gradient component is at most {mlp.GRADIENT_TOL:g}")
    ntrain.add_argument("--train-fraction", type=float, default=mlp.TrainConfig().train_fraction)
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
    t0 = time.time()
    try:
        out, config, inputs, outputs, result = args.fn(args)
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        _write_manifest(out, command, config, inputs, outputs, getattr(args, "seed", None), t0,
                        result)
        return EXIT_OK
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
