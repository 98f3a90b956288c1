"""The two closed-loop workloads: CLI command lists built from a workload seed.

Each workload runs every pipeline stage one after another through
`latentvqe.cli.main`, one client, closed loop: each command waits for the
previous one's artifact. Every workload runs every stage, because every run
reports every end-to-end metric; the workloads differ in where the work
sits:

- `latent`: the compressed-ansatz path at the equilibrium geometry: QAE
  training, the staged latent VQE, the anchor plus one sweep step, MLP
  training and a 30-point cold evaluation, about 80% of `solve_s`. The
  baselines run once, at the equilibrium geometry.
- `baselines`: full-circuit, unbounded Nelder-Mead for UCCSD (8 points) and
  SU2 (2 points) across the whole acceptance range, where stretched bonds
  make the simplex work hardest: about 46% of `solve_s`, against 20% on
  `latent`. The latent path runs at its smallest size.

So `stage.vqe_uccsd_s` and `stage.vqe_su2_s` never touch the QAE, the staged
optimizer, the sweep or the MLP, and `stage.nn_train_s` touches nothing but
the MLP: each planned optimization has stages that bypass it.

Every timed stage is a command of a few seconds at most, so that a run of
`--seconds` holds several samples of each (see run.run_pass). The MLP needs
at least 20 sweep records, more than a short stage can make, so each
workload first runs a 20-point sweep at half the acceptance spacing
(`dataset_nn`, untimed, checked like every command); `nn train` fits it.

The workload seed shifts every bond-length input by up to JITTER of a grid
step, and is passed as `--seed` to the commands whose work does not depend
on it (ham build, nn train, nn eval, UCCSD from its all-zero start). The
commands that restart from random angles run at a fixed `--seed`: between
CLI seeds their restart lottery changed the work of qae train 8x and of
dataset generate 2.6x, which no stage timing could absorb. `qae train` runs
at `--seed 2`, whose first restart reaches the 1e-8 target (1.2 s instead of
the 9.7 s of seed 0); the others run at `--seed 0`, the acceptance fixture's.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Acceptance grid 0.3:2.85:100; the equilibrium anchor is its point 17.
GRID_START = 0.3
GRID_STEP = 2.55 / 99
ANCHOR = 0.735
ANCHOR_POINT = GRID_START + 17 * GRID_STEP
JITTER = 0.1
QAE_SEED = "2"
RESTART_SEED = "0"
RESTARTS = "1"            # one random start for vqe latent and the sweep anchor
NN_POINTS = 20            # the MLP's minimum number of sweep records


@dataclass(frozen=True)
class Step:
    """One CLI command; `stage` names its end-to-end metric (None: untimed)."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]          # artifact paths relative to the pass directory
    stage: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    nn_epochs: int
    eval_points: int
    uccsd_points: int         # 1: the equilibrium geometry only, else the acceptance range
    su2_points: int


SIZES = {
    "latent": Sizes(nn_epochs=2000, eval_points=30, uccsd_points=1, su2_points=1),
    "baselines": Sizes(nn_epochs=1000, eval_points=10, uccsd_points=8, su2_points=2),
}


NAMES = tuple(SIZES)


def _grid(start: float, stop: float, count: int) -> str:
    return f"{start!r}:{stop!r}:{count}"


def build(workload: str, seed: int, root: Path) -> list[Step]:
    """Command list in closed-loop order; artifact paths live under `root`."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    size = SIZES[workload]
    rnd = random.Random(f"{workload}/{seed}")
    shift = lambda: rnd.uniform(-JITTER, JITTER) * GRID_STEP
    s = str(seed)
    p = lambda name: str(root / name)

    # The MLP's sweep: 20 points at half spacing, the anchor its point 9.
    nn_lo = ANCHOR_POINT - 9 * GRID_STEP / 2 + shift()
    nn_hi = nn_lo + (NN_POINTS - 1) * GRID_STEP / 2
    pad = 0.05 * (nn_hi - nn_lo)
    evals = _grid(nn_lo + pad, nn_hi - pad, size.eval_points)
    # The timed sweep: the anchor and one step outward.
    sweep_lo = ANCHOR_POINT + shift()
    sweep = _grid(sweep_lo, sweep_lo + GRID_STEP, 2)
    distance = ANCHOR + shift()

    def baseline_grid(points):
        if points == 1:
            return _grid(distance, distance, 1)
        return _grid(GRID_START + shift(), 2.85 + shift(), points)

    uccsd, su2 = baseline_grid(size.uccsd_points), baseline_grid(size.su2_points)

    def sweep_step(name, grid, points, stage):
        return Step(name, ("dataset", "generate", "--qae", p("qae.json"), "--grid", grid,
                           "--anchor", repr(ANCHOR), "--alpha", "0.5", "--gamma", "0.05",
                           "--restarts", RESTARTS, "--seed", RESTART_SEED,
                           "--out", p(f"{name}.csv")),
                    (f"{name}.csv",), stage, {"points": points})

    hams = [
        Step("ham_eq", ("ham", "build", "--distance", repr(distance), "--seed", s,
                        "--out", p("ham_eq.json")), ("ham_eq.json",)),
        Step("ham_uccsd", ("ham", "build", "--grid", uccsd, "--seed", s, "--out", p("hams_uccsd")),
             ("hams_uccsd",), None, {"points": size.uccsd_points}),
        Step("ham_su2", ("ham", "build", "--grid", su2, "--seed", s, "--out", p("hams_su2")),
             ("hams_su2",), None, {"points": size.su2_points}),
    ]
    latent = [
        Step("qae_train", ("qae", "train", "--seed", QAE_SEED, "--out", p("qae.json")),
             ("qae.json",), "stage.qae_train_s"),
        sweep_step("dataset_nn", _grid(nn_lo, nn_hi, NN_POINTS), NN_POINTS, None),
        Step("vqe_latent", ("vqe", "run", "--ansatz", "latent", "--ham", p("ham_eq.json"),
                            "--qae", p("qae.json"), "--restarts", RESTARTS,
                            "--seed", RESTART_SEED, "--out", p("latent.json")),
             ("latent.json",), "stage.vqe_latent_s"),
        sweep_step("dataset_generate", sweep, 2, "stage.dataset_generate_s"),
        Step("nn_train", ("nn", "train", "--dataset", p("dataset_nn.csv"),
                          "--epochs", str(size.nn_epochs), "--seed", s, "--out", p("nn.json")),
             ("nn.json",), "stage.nn_train_s"),
        Step("nn_eval", ("nn", "eval", "--model", p("nn.json"), "--qae", p("qae.json"),
                         "--grid", evals, "--seed", s, "--out", p("eval.csv")),
             ("eval.csv", "eval.csv.summary.json"), "stage.nn_eval_s",
             {"points": size.eval_points}),
    ]
    baselines = [
        Step("vqe_uccsd", ("vqe", "run", "--ansatz", "uccsd", "--ham", p("hams_uccsd/index.json"),
                           "--seed", s, "--out", p("uccsd.json")),
             ("uccsd.json",), "stage.vqe_uccsd_s", {"points": size.uccsd_points}),
        Step("vqe_su2", ("vqe", "run", "--ansatz", "su2", "--ham", p("hams_su2/index.json"),
                         "--seed", RESTART_SEED, "--out", p("su2.json")),
             ("su2.json",), "stage.vqe_su2_s", {"points": size.su2_points}),
    ]
    return hams + (latent + baselines if workload == "latent" else baselines + latent)
