"""Fast self-check of the harness on tiny inputs (a few seconds).

    python3 bench/run.py --self-check

Checks the tracer's self-time arithmetic, sweep-step statistics and
overhead estimate on synthetic spans, that install/uninstall rebinds and
restores every import of a wrapped function, that a traced tiny CLI pass
writes the same bytes as an untraced one and counts exactly the evaluations
the artifacts report, that later rounds re-run only the timed commands and
report their median sample, that the output checks fail known-bad outputs,
and that the independent oracle agrees with the program's. Prints one line
per check; exits 1 if any fails.
"""
from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import sys
from pathlib import Path

import checks
import run
import tracing
from workloads import Step


def _spans_arithmetic() -> bool:
    t = tracing.Tracer()
    t.spans = [["cli.x", 0, 100, -1], ["optimize.a", 10, 60, 0], ["circuit.b", 20, 50, 1],
               ["cli.y", 100, 130, -1], ["mlp.c", 105, 125, 3]]
    b = t.breakdown()
    return (b["cli.x"]["self_s"] == {"circuit": 30e-9, "cli": 50e-9, "optimize": 20e-9}
            and b["cli.y"]["self_s"] == {"cli": 10e-9, "mlp": 20e-9}
            and all(abs(sum(v["self_s"].values()) - v["wall_s"]) < 1e-15 for v in b.values()))


def _sweep_step_and_overhead() -> bool:
    t = tracing.Tracer()
    t.spans = [["optimize.constrained_sweep", 0, 100, -1]]
    for k, ns in enumerate((30, 10, 20)):
        t.spans.append(["optimize.staged_gate_optimize", k, k + ns, 0])
        t._after_staged(k + 1, (), {}, {"sweeps": 2})
    m = t.layer_metrics()
    per_call = tracing.overhead_per_call()
    return (m["optimize.sweep_step_s.median"] == 20e-9 and m["optimize.sweep_step_s.high"] == 30e-9
            and per_call["span_s"] > 0 and per_call["apply_span_s"] > 0
            and tracing.overhead_s(t, per_call) == 4 * per_call["span_s"])


def _install_restores() -> bool:
    from latentvqe import circuit, cli, optimize

    before = (circuit.apply_circuit, optimize.apply_circuit, cli.staged_gate_optimize)
    t = tracing.Tracer()
    t.install()
    try:
        wrapped = (circuit.apply_circuit is not before[0]
                   and optimize.apply_circuit is circuit.apply_circuit
                   and cli.staged_gate_optimize is optimize.staged_gate_optimize
                   and cli.staged_gate_optimize is not before[2])
    finally:
        t.uninstall()
    after = (circuit.apply_circuit, optimize.apply_circuit, cli.staged_gate_optimize)
    return wrapped and after == before


def _tiny_steps(root: Path):
    index = str(root / "hams" / "index.json")
    return [
        Step("ham_uccsd", ("ham", "build", "--grid", "0.6:0.9:2", "--out", str(root / "hams")),
             ("hams",), None, {"points": 2}),
        Step("vqe_uccsd", ("vqe", "run", "--ansatz", "uccsd", "--ham", index,
                           "--out", str(root / "uccsd.json")),
             ("uccsd.json",), "stage.vqe_uccsd_s", {"points": 2}),
    ]


def _traced_pass_identical(work: Path):
    oracle = checks.Oracle()
    plain = run.run_pass(_tiny_steps(work / "a"), work / "a", 8.0, 2, oracle)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(_tiny_steps(work / "b"), work / "b", 0.0, 1, oracle, tracer)
    finally:
        tracer.uninstall()
    same = [r["hashes"] for r in plain["steps"]] == [r["hashes"] for r in traced["steps"]]
    evaluations = sum(p["evaluations"] for p in
                      json.loads((work / "b" / "uccsd.json").read_text())["points"])
    m = tracer.layer_metrics()
    counted = (m["optimize.energy_evals"] == evaluations == m["optimize.nm_evals"]
               and m["hamiltonian.build_calls"] == 2 and m["circuit.apply_calls"] == evaluations)
    passed = all(r["failed"] == 0 for r in plain["steps"] + traced["steps"])
    ham, vqe = plain["steps"]
    rounds = (ham["samples"] == 1 and vqe["samples"] >= 2
              and vqe["wall_s"] == statistics.median(vqe["walls_s"]))
    return same, counted, passed, rounds


def _checks_catch_bad_outputs(work: Path) -> bool:
    oracle = checks.Oracle()
    step = Step("vqe_uccsd", (), ("bad.json",), "stage.vqe_uccsd_s", {"points": 2})
    ground = oracle(0.735)
    points = [
        {"bond_length": 0.735, "energy": ground - 1e-6, "oracle_energy": ground, "evaluations": 1},
        {"bond_length": 0.735, "energy": ground + 1e-12, "oracle_energy": ground, "evaluations": 1},
    ]
    (work / "bad.json").write_text(json.dumps({"points": points}))
    below = checks.check_step(step, work, 0, "", oracle)
    crashed = checks.check_step(step, work, 4, "", oracle)
    missing = checks.check_step(Step("vqe_su2", (), ("none.json",), None, {"points": 5}),
                                work, 0, "", oracle)
    passes = [{"steps": [{"step": "s", "hashes": {"f": "1"}, "attempted": 3, "failed": 0,
                          "reasons": []}]},
              {"steps": [{"step": "s", "hashes": {"f": "2"}, "attempted": 3, "failed": 0,
                          "reasons": []}]}]
    mism = run.mark_nondeterminism(passes)
    return (below["failed"] == 1 and below["attempted"] == 2
            and crashed["failed"] == 2 and missing["failed"] == 5
            and len(mism) == 1 and passes[1]["steps"][0]["failed"] == 3)


def _oracle_agrees() -> bool:
    from latentvqe.hamiltonian import exact_ground_energy, hamiltonian_for_distance

    oracle = checks.Oracle()
    return all(abs(oracle(r) - exact_ground_energy(hamiltonian_for_distance(r))["energy"]) < 1e-9
               for r in (0.5, 0.735, 2.0))


def run_checks() -> int:
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        same, counted, passed, rounds = _traced_pass_identical(work)
        results = {
            "span self-time arithmetic": _spans_arithmetic(),
            "sweep-step statistics and overhead estimate": _sweep_step_and_overhead(),
            "install/uninstall restores imports": _install_restores(),
            "traced pass writes identical bytes": same,
            "tracer counts match artifact evaluations": counted,
            "tiny pass meets tolerances": passed,
            "second round re-runs only timed commands": rounds,
            "checks fail known-bad outputs": _checks_catch_bad_outputs(work),
            "eigvalsh oracle agrees with Jacobi": _oracle_agrees(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    for name, ok in results.items():
        print(f"self-check {'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(run_checks())
