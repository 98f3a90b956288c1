"""Classical optimizers and the two trainability procedures.

Contains the bounded Nelder-Mead simplex, Adam over parameter-shift
gradients, the staged per-gate optimization (U1-restricted phase, then the
remaining two U3 angles), and the bond-length sweep whose per-step search
window is centered on the linear extrapolation of the previous two points;
on the first step out of the anchor, where there is only one previous
point, the window is centered on a Newton step from the anchor angles
(`first_step_delta`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzSpec
from .artifacts import SCHEMA_VERSION
from .circuit import (
    _MATRIX_FNS, Circuit, apply_circuit, apply_cnot, apply_gates, gate_matrix, u3_to_zyz,
)
from .hamiltonian import QubitHamiltonian, exact_ground_energy
from .statevector import StateVector, _apply_1q, pauli_sum_matrix, zero_state

NELDER_MEAD = "NELDER_MEAD"
ADAM_PARAM_SHIFT = "ADAM_PARAM_SHIFT"


class NumericalError(ValueError):
    """A cost or loss turned non-finite during optimization."""


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = NELDER_MEAD
    max_iterations: int = 2000
    tolerance: float = 1e-10
    restarts: int = 1
    seed: int = 0
    learning_rate: float = 0.05

    def __post_init__(self):
        if self.method not in (NELDER_MEAD, ADAM_PARAM_SHIFT):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("tolerance must be > 0 and max_iterations >= 1")


@dataclass(frozen=True)
class StepConstraint:
    """Per-step window: center theta_prev + delta, half-width alpha*(gamma + |delta|)."""

    alpha: float = 0.5
    gamma: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.gamma)):
            raise ValueError("alpha and gamma must be finite")
        if self.alpha < 0 or self.gamma <= 0:
            raise ValueError("need alpha >= 0 and gamma > 0")

    def bounds(self, prev: np.ndarray, delta: np.ndarray):
        center = prev + delta
        half = self.alpha * (self.gamma + np.abs(delta))
        return center - half, center + half


def _terms_of(hamiltonian):
    return hamiltonian.terms if isinstance(hamiltonian, QubitHamiltonian) else tuple(hamiltonian)


def energy_fn(circuit: Circuit, hamiltonian, initial: StateVector):
    """params -> <psi(params)|H|psi(params)> with a cached dense observable."""
    terms = _terms_of(hamiltonian)
    hmat = pauli_sum_matrix(terms, circuit.n_qubits)
    amp0 = initial.amplitudes
    def cost(params):
        amp = apply_circuit(amp0, circuit, np.asarray(params, dtype=float))
        return float(np.real(np.vdot(amp, hmat @ amp)))
    return cost


# --- Nelder-Mead with clipped bounds ----------------------------------------

def minimize(cost, initial, bounds=None, config: OptimizerConfig | None = None) -> dict:
    """Nelder-Mead simplex (reflection 1, expansion 2, contraction 0.5, shrink 0.5).

    Bounds are enforced by clipping every proposed vertex. Terminates when the
    iteration budget is exhausted, or when both the simplex value spread drops
    below config.tolerance and every vertex lies within sqrt(config.tolerance)
    of the best one in every coordinate (SciPy's fatol and xatol test). The
    size test keeps a simplex that straddles a minimum with equal values from
    stopping: on a quadratic with unit curvature a value spread of tolerance
    corresponds to a distance of sqrt(tolerance). Returns {"params", "value",
    "evaluations"}.
    """
    config = config or OptimizerConfig()
    x0 = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    n = x0.size
    if bounds is not None:
        lo = np.asarray([b[0] for b in bounds], dtype=float)
        hi = np.asarray([b[1] for b in bounds], dtype=float)
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        clip = lambda x: np.clip(x, lo, hi)
    else:
        clip = lambda x: x
    x0 = clip(x0)
    xtol = math.sqrt(config.tolerance)

    evals = 0
    def f(x):
        nonlocal evals
        evals += 1
        v = float(cost(x))
        if not math.isfinite(v):
            raise NumericalError("non-finite cost value encountered")
        return v

    verts = [x0]
    for i in range(n):
        step = 0.1
        if bounds is not None and hi[i] > lo[i]:
            step = min(step, 0.4 * (hi[i] - lo[i]))
        cand = x0.copy()
        cand[i] += step
        cand = clip(cand)
        if np.array_equal(cand, x0):
            cand = x0.copy()
            cand[i] -= step
            cand = clip(cand)
        verts.append(cand)
    values = [f(v) for v in verts]

    for _ in range(config.max_iterations):
        order = sorted(range(n + 1), key=lambda k: values[k])
        verts = [verts[k] for k in order]
        values = [values[k] for k in order]
        if (values[-1] - values[0] < config.tolerance
                and np.max(np.abs(np.asarray(verts) - verts[0])) <= xtol):
            break
        centroid = np.mean(verts[:-1], axis=0)
        xr = clip(centroid + (centroid - verts[-1]))
        fr = f(xr)
        if fr < values[0]:
            xe = clip(centroid + 2.0 * (centroid - verts[-1]))
            fe = f(xe)
            verts[-1], values[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            verts[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:  # outside contraction
                xc = clip(centroid + 0.5 * (xr - centroid))
                fc = f(xc)
                if fc <= fr:
                    verts[-1], values[-1] = xc, fc
                    continue
            else:  # inside contraction
                xc = clip(centroid + 0.5 * (verts[-1] - centroid))
                fc = f(xc)
                if fc < values[-1]:
                    verts[-1], values[-1] = xc, fc
                    continue
            for k in range(1, n + 1):  # shrink toward the best vertex
                verts[k] = clip(verts[0] + 0.5 * (verts[k] - verts[0]))
                values[k] = f(verts[k])

    best = int(np.argmin(values))
    return {"params": verts[best], "value": values[best], "evaluations": evals}


# --- parameter-shift gradients ----------------------------------------------

def shift_refs(circuit: Circuit):
    """ZYZ-rewritten circuit plus (gate_index, Param) pairs eligible for shifting."""
    zyz = u3_to_zyz(circuit)
    refs = []
    for gi, g in enumerate(zyz.gates):
        for p in g.params:
            if p.slot is None:
                continue
            if g.kind not in ("U1", "RY", "RZ"):
                raise ValueError(f"no parameter-shift rule for gate kind {g.kind}")
            refs.append((gi, p))
    return zyz, refs


def batched_energies(amp_cols: np.ndarray, hmat: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ib,ib->b", amp_cols.conj(), hmat @ amp_cols))


def batched_shift_gradient(circuit, hmat, params, amp0_cols) -> np.ndarray:
    """Gradient of column-averaged energy; columns of amp0_cols are input states.

    Evaluates the same shifted energies as a naive parameter-shift loop, but
    caches the state before each gate and folds everything after it into a
    dense conjugated observable, so each shifted pair costs one single-gate
    application instead of a full circuit re-run.
    """
    params = np.asarray(params, dtype=float)
    zyz, refs = shift_refs(circuit)
    n = circuit.n_qubits
    gates = zyz.gates
    conjugated = _suffix_observables(gates, hmat, params, n, {gi for gi, _ in refs})

    grad = np.zeros(circuit.n_params)
    half_pi = math.pi / 2
    pre, done = amp0_cols, 0
    for gi, p in refs:
        pre = apply_gates(pre, gates[done:gi], params, n)  # the state before gate gi
        done = gi
        g = gates[gi]
        angle = p.value(params)
        kmat = conjugated[gi]
        e = []
        for shift in (half_pi, -half_pi):
            shifted = _apply_1q(pre, _MATRIX_FNS[g.kind](angle + shift), g.targets[0], n)
            e.append(batched_energies(shifted, kmat))
        grad[p.slot] += p.coeff * 0.5 * float(np.mean(e[0] - e[1]))
    return grad


def _suffix_observables(gates, hmat, params, n, positions) -> dict[int, np.ndarray]:
    """{gi: S_gi^dag H S_gi} for gi in positions, S_gi the product of all gates after gi.

    One backward pass over the gate list, tracking S^T applied to the identity.
    """
    st = np.eye(1 << n, dtype=complex)
    conjugated = {}
    for gi in range(len(gates) - 1, -1, -1):
        if gi in positions:
            s = st.T
            conjugated[gi] = s.conj().T @ hmat @ s
        g = gates[gi]
        if g.kind == "CNOT":
            st = apply_cnot(st, g.targets)
        else:
            st = _apply_1q(st, gate_matrix(g, params).T, g.targets[0], n)
    return conjugated


def parameter_shift_gradient(circuit: Circuit, hamiltonian, params, initial_state: StateVector):
    """dE/dtheta_k = 1/2 [E(theta_k + pi/2) - E(theta_k - pi/2)] per gate reference.

    U3 gates are differentiated through their RZ(phi) RY(theta) RZ(lam)
    rewriting (global phase drops out of expectation values); slots shared by
    several gates accumulate one shifted-pair contribution per gate.
    """
    hmat = pauli_sum_matrix(_terms_of(hamiltonian), circuit.n_qubits)
    amp0 = initial_state.amplitudes.reshape(-1, 1)
    return batched_shift_gradient(circuit, hmat, params, amp0)


def adam_minimize(cost, grad, x0, config: OptimizerConfig, stop_below=None) -> dict:
    """Adam on an explicit gradient, tracking the best value seen.

    Stops early when the gradient infinity-norm drops below config.tolerance
    or (if given) the cost falls below `stop_below`.
    """
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_x, best_f = x.copy(), float(cost(x))
    evals = 1
    for t in range(1, config.max_iterations + 1):
        g = grad(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - config.learning_rate * mhat / (np.sqrt(vhat) + eps)
        fx = float(cost(x))
        evals += 1
        if not math.isfinite(fx):
            raise NumericalError("non-finite cost value encountered")
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        if stop_below is not None and best_f < stop_below:
            break
        if np.max(np.abs(g)) < config.tolerance:
            break
    return {"params": best_x, "value": best_f, "evaluations": evals}


# --- staged per-gate optimization (U1 restriction, then theta/phi) ----------

def _u3_slot_groups(circuit: Circuit):
    """[(gate index, (theta, phi, lam) slots)] for every U3 gate with free angles."""
    groups = []
    owner = {}
    for gi, g in enumerate(circuit.gates):
        slots = [p.slot for p in g.params if p.slot is not None]
        if not slots:
            continue
        if g.kind != "U3":
            raise ValueError("staged optimization expects all free parameters on U3 gates")
        if any(owner.setdefault(slot, gi) != gi for slot in slots):
            raise ValueError("staged optimization expects each slot on a single U3 gate")
        groups.append((gi, tuple(p.slot for p in g.params)))
    return groups


def staged_gate_optimize(
    circuit: Circuit,
    hamiltonian,
    init,
    config: OptimizerConfig | None = None,
    bounds=None,
) -> dict:
    """Sweep the U3 gates in circuit order, each in two phases.

    Phase A restricts the gate to its Z-rotation angle (theta and phi
    frozen); phase B frees theta and phi with the Z angle locked. Sweeps
    repeat until the energy improves by less than config.tolerance
    (default 1e-9 Hartree) per sweep, at most 10 sweeps.

    Every trial changes one gate only, so it is scored as psi^dag K psi, where
    psi is the cached state before the gate with the trial gate applied, and
    K = S^dag H S folds all later gates S into the observable (recomputed
    once per sweep, since the gates after the current one have not moved yet).
    """
    config = config or OptimizerConfig(tolerance=1e-9, max_iterations=300)
    n = circuit.n_qubits
    gates = circuit.gates
    hmat = pauli_sum_matrix(_terms_of(hamiltonian), n)
    amp0 = zero_state(n).amplitudes
    params = np.asarray(init, dtype=float).copy()
    if bounds is not None:
        lo, hi = bounds
        params = np.clip(params, lo, hi)
    groups = _u3_slot_groups(circuit)
    inner = replace(config, tolerance=max(1e-13, config.tolerance * 1e-3))

    amp = apply_circuit(amp0, circuit, params)
    energy = float(np.real(np.vdot(amp, hmat @ amp)))
    evaluations = 1
    sweeps = 0
    for _ in range(10):
        sweeps += 1
        sweep_start = energy
        suffix = _suffix_observables(gates, hmat, params, n, {gi for gi, _ in groups})
        prefix, done = amp0, 0
        for gi, (theta, phi, lam) in groups:
            prefix = apply_gates(prefix, gates[done:gi], params, n)
            done = gi
            gate, kmat = gates[gi], suffix[gi]
            for subset in ((lam,), (theta, phi)):
                subset = list(dict.fromkeys(subset))
                sub_bounds = None
                if bounds is not None:
                    sub_bounds = [(lo[s], hi[s]) for s in subset]

                def subcost(x, subset=subset):
                    trial = params.copy()
                    trial[subset] = x
                    psi = _apply_1q(prefix, gate_matrix(gate, trial), gate.targets[0], n)
                    return float(np.real(np.vdot(psi, kmat @ psi)))

                res = minimize(subcost, params[subset], bounds=sub_bounds, config=inner)
                evaluations += res["evaluations"]
                if res["value"] <= energy:
                    params[subset] = res["params"]
                    energy = res["value"]
        if sweep_start - energy < config.tolerance:
            break
    return {"params": params, "energy": energy, "evaluations": evaluations, "sweeps": sweeps}


def optimize_vqe(
    circuit: Circuit,
    hamiltonian,
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
    initial=None,
) -> dict:
    """Multi-restart VQE driver; first start at `initial` (if given), rest random."""
    config = config or OptimizerConfig()
    rng = rng or np.random.default_rng(config.seed)
    cost = energy_fn(circuit, hamiltonian, zero_state(circuit.n_qubits))
    best = None
    evaluations = 0
    for attempt in range(max(1, config.restarts)):
        if attempt == 0 and initial is not None:
            x0 = np.asarray(initial, dtype=float)
        else:
            x0 = rng.uniform(0.0, 2.0 * math.pi, circuit.n_params)
        if config.method == NELDER_MEAD:
            res = minimize(cost, x0, config=config)
        else:
            hmat = pauli_sum_matrix(_terms_of(hamiltonian), circuit.n_qubits)
            amp0 = zero_state(circuit.n_qubits).amplitudes.reshape(-1, 1)
            res = adam_minimize(
                cost, lambda x: batched_shift_gradient(circuit, hmat, x, amp0), x0, config
            )
        evaluations += res["evaluations"]
        if best is None or res["value"] < best["value"]:
            best = res
    return {"params": best["params"], "energy": best["value"], "evaluations": evaluations}


# --- constrained bond-length sweep ------------------------------------------

@dataclass(frozen=True)
class DatasetRecord:
    bond_length: float
    angles: np.ndarray
    energy: float
    oracle_energy: float
    flag: bool = False

    @property
    def error(self) -> float:
        return self.energy - self.oracle_energy


@dataclass(frozen=True)
class ParameterDataset:
    records: tuple[DatasetRecord, ...]
    anchor_index: int
    pqc_spec: AnsatzSpec | None = None

    def __post_init__(self):
        lengths = {r.angles.size for r in self.records}
        if len(lengths) > 1:
            raise ValueError("records carry angle vectors of different lengths")
        for r in self.records:
            if r.energy < r.oracle_energy - 1e-10:
                raise ValueError(
                    f"variational bound violated at R={r.bond_length}: "
                    f"{r.energy} < {r.oracle_energy}"
                )

    @property
    def n_params(self) -> int:
        return self.records[0].angles.size if self.records else 0

    def bond_lengths(self) -> np.ndarray:
        return np.array([r.bond_length for r in self.records])

    def angle_matrix(self) -> np.ndarray:
        return np.stack([r.angles for r in self.records])


def first_step_delta(circuit: Circuit, hamiltonian, params) -> np.ndarray:
    """Predicted angle change for the sweep's first step out of the anchor.

    One Newton step on the neighbour's energy E, taken from the anchor angles
    `params`: delta = -sum_k (v_k . g / w_k) v_k over the eigenpairs (w_k, v_k)
    of the Hessian with positive curvature, where g is the parameter-shift
    gradient of E and the Hessian comes from central differences of it
    (spacing 1e-4). Directions of zero curvature, such as a Z angle that
    acts on |0> and only sets a global phase, and of negative curvature get
    no step. This is the one-point (tangent) analogue of the secant predictor
    theta_{i-1} - theta_{i-2} that later steps use.
    """
    params = np.asarray(params, dtype=float)
    hmat = pauli_sum_matrix(_terms_of(hamiltonian), circuit.n_qubits)
    amp0 = zero_state(circuit.n_qubits).amplitudes.reshape(-1, 1)
    grad = lambda x: batched_shift_gradient(circuit, hmat, x, amp0)
    h = 1e-4
    hess = np.column_stack([
        (grad(params + h * e) - grad(params - h * e)) / (2.0 * h) for e in np.eye(params.size)
    ])
    curv, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    keep = curv > 1e-6 * max(float(curv[-1]), 0.0)
    vecs = vecs[:, keep]
    return -vecs @ ((vecs.T @ grad(params)) / curv[keep])


def constrained_sweep(
    circuit: Circuit,
    hamiltonians,
    anchor_index: int,
    anchor_params,
    constraint: StepConstraint,
    config: OptimizerConfig | None = None,
    pqc_spec: AnsatzSpec | None = None,
) -> ParameterDataset:
    """Walk the bond-length grid outward from a fully optimized anchor.

    `hamiltonians` is the grid in ascending bond-length order. At each step
    the per-parameter search box follows the step constraint around
    theta_prev + delta, the optimizer is warm-started at the box center, and
    points whose energy error exceeds 100x the anchor's are flagged as
    discontinuity symptoms. delta is the secant theta_{i-1} - theta_{i-2};
    on the first step out of the anchor, where there is no second point, it
    is the tangent predictor `first_step_delta` at the anchor angles.
    """
    hamiltonians = list(hamiltonians)
    if not 0 <= anchor_index < len(hamiltonians):
        raise ValueError("anchor index outside the grid")
    config = config or OptimizerConfig(tolerance=1e-9, max_iterations=300)
    anchor_params = np.asarray(anchor_params, dtype=float)

    oracle = [exact_ground_energy(h)["energy"] for h in hamiltonians]
    cost_anchor = energy_fn(circuit, hamiltonians[anchor_index], zero_state(circuit.n_qubits))
    anchor_energy = cost_anchor(anchor_params)
    anchor_error = max(anchor_energy - oracle[anchor_index], 1e-12)

    results: dict[int, DatasetRecord] = {
        anchor_index: DatasetRecord(
            hamiltonians[anchor_index].bond_length,
            anchor_params.copy(),
            anchor_energy,
            oracle[anchor_index],
            False,
        )
    }

    for direction in (+1, -1):
        prev = anchor_params.copy()
        idx = anchor_index + direction
        if 0 <= idx < len(hamiltonians):
            delta = first_step_delta(circuit, hamiltonians[idx], prev)
        while 0 <= idx < len(hamiltonians):
            lo, hi = constraint.bounds(prev, delta)
            res = staged_gate_optimize(
                circuit, hamiltonians[idx], prev + delta, config=config, bounds=(lo, hi)
            )
            err = res["energy"] - oracle[idx]
            results[idx] = DatasetRecord(
                hamiltonians[idx].bond_length,
                res["params"],
                res["energy"],
                oracle[idx],
                bool(err > 100.0 * anchor_error),
            )
            delta = res["params"] - prev
            prev = res["params"]
            idx += direction

    records = tuple(results[i] for i in sorted(results))
    return ParameterDataset(records, anchor_index, pqc_spec)


# --- dataset CSV ------------------------------------------------------------

DATASET_SCHEMA = f"{SCHEMA_VERSION} parameter-dataset"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dataset_to_csv(dataset: ParameterDataset) -> str:
    meta = {"anchor_index": dataset.anchor_index}
    if dataset.pqc_spec is not None:
        meta["pqc_spec"] = dataset.pqc_spec.to_dict()
    lines = [f"# {DATASET_SCHEMA} {json.dumps(meta, sort_keys=True)}"]
    p = dataset.n_params
    lines.append(",".join(
        ["bond_length", "energy", "oracle_energy", "flag"] + [f"theta_{k}" for k in range(p)]
    ))
    for r in dataset.records:
        cells = [_fmt(r.bond_length), _fmt(r.energy), _fmt(r.oracle_energy), str(int(r.flag))]
        cells += [_fmt(a) for a in r.angles]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dataset_from_csv(text: str) -> ParameterDataset:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"# {DATASET_SCHEMA}"):
        raise ValueError("not a parameter-dataset file (schema line missing or mismatched)")
    meta = json.loads(lines[0][len(DATASET_SCHEMA) + 3:])
    header = [h.strip() for h in lines[1].split(",")]
    if header[:4] != ["bond_length", "energy", "oracle_energy", "flag"]:
        raise ValueError("unexpected dataset header")
    records = []
    for ln in lines[2:]:
        cells = ln.split(",")
        records.append(DatasetRecord(
            float(cells[0]),
            np.array([float(c) for c in cells[4:]]),
            float(cells[1]),
            float(cells[2]),
            bool(int(cells[3])),
        ))
    spec = AnsatzSpec.from_dict(meta["pqc_spec"]) if "pqc_spec" in meta else None
    return ParameterDataset(tuple(records), int(meta["anchor_index"]), spec)
