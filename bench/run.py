#!/usr/bin/env python3
"""Pipeline benchmark for latentvqe: time-to-solution per CLI stage.

Usage, from the repository root:

    python3 bench/run.py --workload latent --seed 1 --seconds 58 --trace 0
    python3 bench/run.py --workload all --seed 1          # both workloads
    python3 bench/run.py --self-check                     # harness check, tiny inputs

One run is one fresh Python process. Set-up (import plus building the inputs)
is timed in SETUP_REPEATS fresh interpreters and reported as the median. The
run then executes the workload's closed loop of CLI commands (workloads.py)
in this process, in rounds (at least MIN_ROUNDS), while the next command
still ends within `--seconds`; each stage reports the median of its samples,
scaled to a reference machine speed measured by calibration sweeps between
the commands (unit `ref_s`; see run_pass). `setup_s` and the raw wall times
in the report are not scaled.
Every command's output is checked against the acceptance tolerances
(checks.py), and every re-run must rewrite byte-identical artifacts.

With `--trace 1` the run makes one untraced and one traced round
(tracing.py), checks that both wrote identical bytes, runs the kernel
microbenchmarks (micro.py) and reports the per-layer metrics; the tracing
overhead is the number of spans times the microbenchmarked cost of one
(tracing.overhead_per_call), because the difference of two solve times on a
shared machine is mostly noise.

Stdout ends with one JSON line {"correct", "attempted", "failed", "metrics"};
the metrics and their units are those named in BENCHMARK.json, and
failed / attempted is the share of operations that missed a tolerance. A
full report (machine facts, every sample's wall and CPU time, quality
numbers, check failures, per-stage layer breakdown) goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
SHORT_S = 0.35
CAL_SWEEPS = 100
CAL_REPEATS = 3
CAL_REF_S = 1.5e-3  # the sweep's time in a quiet phase of a 2-vCPU Xeon VM
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="latent", help="latent, baselines or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=58.0,
                    help="measuring budget: re-run timed commands until this much has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int) -> int:
    """Set-up work of one run: import the package and build the inputs."""
    import latentvqe.cli  # noqa: F401
    import workloads

    workloads.build(workload, seed, WORK / "probe")
    return 0


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters doing the set-up."""
    samples = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_command(step, tracer=None) -> tuple[int, float, float, str]:
    """(exit code, wall s, CPU s, captured stdout) of one CLI command."""
    from latentvqe.cli import main

    buf = io.StringIO()
    span = tracer.open(f"cli.{step.name}") if tracer else None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(step.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        code = 1
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer:
            tracer.close(span)
    return code, wall, cpu, buf.getvalue()


def calibration_s() -> float:
    """Median wall time of CAL_REPEATS fixed 4-qubit gate sweeps on 16 amplitudes.

    The sweep is the benchmark's own einsum code, the same kind of work as
    the program's hot path but none of its code, so no change to the program
    moves it: it moves only with the speed the machine gives this process.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    gates = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
             for _ in range(8)]
    samples = []
    for _ in range(CAL_REPEATS):
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        t0 = time.perf_counter()
        for r in range(CAL_SWEEPS):
            for q in range(4):
                t = psi.reshape(2 ** (3 - q), 2, 2 ** q)
                psi = np.einsum("ab,ibj->iaj", gates[(r + q) % 8], t).reshape(16)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(steps, pass_dir: Path, seconds: float, rounds: int, oracle, tracer=None) -> dict:
    """Run the closed loop in rounds and check every command's output.

    Round 1 runs every command once, in order, untimed preparation included.
    Each later round runs every timed command again in the same order, and
    after each one that takes SHORT_S or more it runs every shorter timed
    command once more, so that short stages are sampled as often as the
    machine's speed changes. After `rounds` whole rounds, commands go on in
    the same order while the next one, as long as its median so far, still
    ends within `seconds` of the start. Every re-run must rewrite
    byte-identical artifacts.

    A stage's time (`ref_s`) is the median of its wall-time samples scaled
    to the reference speed: times CAL_REF_S / c, where c is the median of
    the calibration sweeps (calibration_s) made before the first and after
    every command of the pass. Other tenants of a shared machine make this
    process run up to 1.7x slower for tens of seconds to minutes at a
    stretch; raw wall medians of ten runs then spread by a third of their
    median, and neither the fastest nor the median sample removes a slow
    phase that lasts a whole run. Raw wall times stay in the report
    (`wall_s`, `walls_s`).
    """
    import checks

    state = {s.name: {"walls": [], "cpus": [], "hashes": None, "mismatch": False,
                      "exit": 0, "stdout": ""} for s in steps}
    cal = [calibration_s()]  # the sweep's time before the first and after every command

    def sample(step):
        st = state[step.name]
        code, wall, cpu, st["stdout"] = run_command(step, tracer)
        st["walls"].append(wall)
        st["cpus"].append(cpu)
        st["exit"] = st["exit"] or code
        cal.append(calibration_s())
        if code == 0:
            now = checks.artifact_hashes(step, pass_dir)
            st["mismatch"] |= st["hashes"] is not None and now != st["hashes"]
            st["hashes"] = st["hashes"] or now

    t0 = time.perf_counter()
    for step in steps:
        sample(step)
    done = 1
    while True:
        timed = [s for s in steps if s.stage and state[s.name]["exit"] == 0]
        short = [s for s in timed if statistics.median(state[s.name]["walls"]) < SHORT_S]
        plan = [x for s in timed for x in ([s] if s in short else [s, *short])]
        for step in plan:
            next_end = time.perf_counter() - t0 + statistics.median(state[step.name]["walls"])
            if done >= rounds and next_end > seconds:
                break
            sample(step)
        else:
            done += 1
            if plan:
                continue
        break
    speed = CAL_REF_S / statistics.median(cal)
    records = []
    for step in steps:
        st = state[step.name]
        rec = {"step": step.name, "stage": step.stage, "exit": st["exit"],
               "samples": len(st["walls"]),
               "ref_s": statistics.median(st["walls"]) * speed,
               "wall_s": statistics.median(st["walls"]), "cpu_s": statistics.median(st["cpus"]),
               "walls_s": st["walls"], "cpus_s": st["cpus"],
               "hashes": st["hashes"]}
        rec.update(checks.check_step(step, pass_dir, st["exit"], st["stdout"], oracle))
        if st["mismatch"]:
            rec["failed"] = rec["attempted"]
            rec["reasons"].append("re-runs wrote different artifact bytes")
        records.append(rec)
    timed = [r for r in records if r["stage"]]
    return {"solve_s": sum(r["ref_s"] for r in timed),
            "wall_solve_s": sum(r["wall_s"] for r in timed), "rounds": done,
            "calibration_s": cal,
            "steps": records,
            "bytes_written": sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())}


def mark_nondeterminism(passes) -> list[str]:
    """Fails every operation of a step whose artifacts differ from pass 0's."""
    mismatches = []
    for k, p in enumerate(passes[1:], start=1):
        for ref, rec in zip(passes[0]["steps"], p["steps"]):
            if rec["hashes"] != ref["hashes"]:
                mismatches.append(f"pass {k}: {rec['step']} artifacts differ from pass 0")
                rec["failed"] = rec["attempted"]
                rec["reasons"].append("artifact bytes differ from pass 0")
    return mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads

    threads = os.environ.pop("LATENTVQE_THREADS", None)
    facts = machine_facts()
    facts["LATENTVQE_THREADS"] = "unset" if threads is None else f"{threads} (removed for the run)"
    facts["loadavg_before"] = os.getloadavg()

    setup = time_setup(workload, seed)
    from latentvqe import cli  # noqa: F401  (imported before the first timed command)

    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    oracle = checks.Oracle()
    micro_metrics = {}
    try:
        steps = workloads.build(workload, seed, work / "pass0")
        if not trace:
            passes = [run_pass(steps, work / "pass0", seconds, MIN_ROUNDS, oracle)]
        else:  # one untraced and one traced round
            import micro
            import tracing

            passes = [run_pass(steps, work / "pass0", 0.0, 1, oracle)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                steps = workloads.build(workload, seed, work / "pass1")
                passes.append(run_pass(steps, work / "pass1", 0.0, 1, oracle, tracer))
            finally:
                tracer.uninstall()
            micro_metrics = micro.run()
            overhead = tracing.overhead_per_call()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    mismatches = mark_nondeterminism(passes)
    facts["loadavg_after"] = os.getloadavg()

    attempted = sum(r["attempted"] for p in passes for r in p["steps"])
    failed = sum(r["failed"] for p in passes for r in p["steps"])
    timed = passes[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": timed["solve_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for r in timed["steps"]:
        if r["stage"]:
            metrics[r["stage"]] = r["ref_s"]
    report = {"workload": workload, "seed": seed, "trace": int(trace), "facts": facts,
              "setup_samples_s": setup, "determinism": mismatches or "identical",
              "passes": [{**p, "steps": [{k: v for k, v in r.items() if k != "hashes"}
                                         for r in p["steps"]]} for p in passes]}
    OUT.mkdir(exist_ok=True)
    if trace:
        traced = passes[1]
        metrics.update(tracer.layer_metrics())
        metrics["cli.bytes_written"] = traced["bytes_written"]
        metrics["trace.overhead_s"] = tracing.overhead_s(tracer, overhead)
        metrics.update(micro_metrics)
        report["trace_overhead"] = {
            "per_call_s": overhead, "spans": len(tracer.spans),
            "traced_minus_untraced_wall_s": traced["wall_solve_s"] - timed["wall_solve_s"]}
        report["breakdown"] = tracer.breakdown()
        tracer.dump(OUT / f"{workload}-seed{seed}.spans.csv")
    report["metrics"] = metrics
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_summary(workload: str, res: dict, declared) -> None:
    rep = res["report"]
    print(f"== {workload} seed={rep['seed']} trace={rep['trace']}  "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"failed_ratio={res['failed'] / res['attempted']:.4f}")
    print("   facts: " + ", ".join(f"{k}={v}" for k, v in rep["facts"].items()))
    for k, p in enumerate(rep["passes"]):
        print(f"   pass {k}: {p['rounds']} round(s), solve {p['solve_s']:.3f} ref_s, "
              f"{p['wall_solve_s']:.3f} s wall")
        for r in p["steps"]:
            quality = ", ".join(f"{q}={v:.4g}" for q, v in r["quality"].items())
            print(f"     {r['step']:<17} exit={r['exit']} ref={r['ref_s']:7.3f} wall={r['wall_s']:7.3f} s "
                  f"cpu={r['cpu_s']:8.3f} s  x{r['samples']:<2} ops={r['attempted']:>3} "
                  f"failed={r['failed']}"
                  f"  {quality}")
            for reason in r["reasons"][:5]:
                print(f"       ! {reason}")
    if rep["determinism"] != "identical":
        for line in rep["determinism"]:
            print(f"   ! {line}")
    if "breakdown" in rep:
        print("   traced stage breakdown (self seconds by layer; sum vs stage wall):")
        for stage, b in rep["breakdown"].items():
            total = sum(b["self_s"].values())
            layers = ", ".join(f"{k}={v:.3f}" for k, v in b["self_s"].items())
            print(f"     {stage:<21} wall={b['wall_s']:.3f} "
                  f"sum={total:.3f}  {layers}")
    for m in declared:
        print(f"   {m['name']:<40} {res['metrics'][m['name']]:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latentvqe" / "cli.py").is_file():
        print(f"error: latentvqe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.self_check:
        import selfcheck

        return selfcheck.run_checks()

    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
        if missing:
            print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
            return 1
        print_summary(name, res, declared)
        prefix = f"{name}/" if len(names) > 1 else ""
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for m in declared:
            combined["metrics"][prefix + m["name"]] = {
                "value": res["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
