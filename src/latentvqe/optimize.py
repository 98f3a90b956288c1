"""Classical optimizers and the two trainability procedures.

Contains the Nelder-Mead simplex, Adam over adjoint gradients, two per-gate
optimizations (staged: closed-form solves of the U1-restricted phase, then of
the other two U3 angles; whole-gate: one 4 x 4 eigenproblem per U3), and the
bond-length sweep whose per-step search window is centered on the linear
extrapolation of the previous two points; on the first step out of the anchor,
where there is only one previous point, the window is centered on a Newton
step from the anchor angles (`first_step_delta`).
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .ansatz import strongly_entangling
from .artifacts import SCHEMA_VERSION, canonical_json
from .circuit import Circuit, ConstantStep, Gate, apply_circuit, gate_matrix
from .hamiltonian import QubitHamiltonian, exact_ground_energy
from .statevector import StateVector, _apply_1q, pauli_sum_matrix, zero_state


class NumericalError(ValueError):
    """A cost or loss turned non-finite during optimization."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 2000
    tolerance: float = 1e-10
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0 or self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("tolerance must be > 0, max_iterations and restarts >= 1")


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


def _observable(hamiltonian, n_qubits: int) -> np.ndarray:
    """Dense H: the matrix cached on a QubitHamiltonian, else built from the terms."""
    if isinstance(hamiltonian, QubitHamiltonian):
        if hamiltonian.n_qubits == n_qubits:
            return hamiltonian.matrix
        hamiltonian = hamiltonian.terms
    return pauli_sum_matrix(tuple(hamiltonian), n_qubits)


def energy_fn(circuit: Circuit, hamiltonian, initial: StateVector):
    """params -> <psi|H|psi> for psi = apply_circuit(initial, circuit, params), the whole plan."""
    hmat = _observable(hamiltonian, circuit.n_qubits)
    def cost(params):
        amp = apply_circuit(initial.amplitudes, circuit, params)
        return float(np.vdot(amp, hmat @ amp).real)
    return cost


# --- Nelder-Mead -------------------------------------------------------------

def minimize(cost, initial, config: OptimizerConfig | None = None) -> dict:
    """Nelder-Mead simplex (reflection 1, expansion 2, contraction 0.5, shrink 0.5).

    Stops on `budget` after config.max_iterations iterations, or on
    `tolerance` when both the simplex value spread drops below
    config.tolerance and every vertex lies within sqrt(config.tolerance) of
    the best one in every coordinate (SciPy's fatol and xatol test). The size
    test keeps a simplex that straddles a minimum with equal values from
    stopping: on a quadratic with unit curvature a value spread of tolerance
    corresponds to a distance of sqrt(tolerance). The simplex is one
    (n + 1, n) array kept sorted by value: a full stable sort at the start and
    after a shrink, otherwise each new vertex is inserted after the vertices
    whose values tie with it, which is where a stable sort would put it. Returns
    {"params", "value", "evaluations", "iterations", "stop_reason"}.
    """
    config = config or OptimizerConfig()
    x0 = np.atleast_1d(np.asarray(initial, dtype=float))
    n = x0.size
    xtol = math.sqrt(config.tolerance)

    evals = 0
    def f(x):
        nonlocal evals
        evals += 1
        v = float(cost(x))
        if not math.isfinite(v):
            raise NumericalError("non-finite cost value encountered")
        return v

    verts = np.vstack([x0, x0 + 0.1 * np.eye(n)])
    values = [f(v) for v in verts]

    iterations, stop, shrunk = 0, "budget", True
    while iterations < config.max_iterations:
        if shrunk:  # at the start and after a shrink; otherwise insertion keeps the order
            order = np.argsort(values, kind="stable")
            verts, values, shrunk = verts[order], [values[k] for k in order], False
        if (values[-1] - values[0] < config.tolerance
                and np.max(np.abs(verts - verts[0])) <= xtol):
            stop = "tolerance"
            break
        iterations += 1
        # np.mean's own two operations, without its Python wrapper
        centroid = np.add.reduce(verts[:-1], axis=0) / n
        xr = centroid + (centroid - verts[-1])
        fr = f(xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = f(xe)
            x, fx = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            x, fx = xr, fr
        else:
            if fr < values[-1]:  # outside contraction
                x = centroid + 0.5 * (xr - centroid)
                fx = f(x)
                accept = fx <= fr
            else:  # inside contraction
                x = centroid + 0.5 * (verts[-1] - centroid)
                fx = f(x)
                accept = fx < values[-1]
            if not accept:  # shrink toward the best vertex
                verts[1:] = verts[0] + 0.5 * (verts[1:] - verts[0])
                values[1:] = [f(v) for v in verts[1:]]
                shrunk = True
                continue
        # the worst vertex leaves; x goes where a stable sort would put it, after its ties
        k = bisect.bisect_right(values, fx, 0, n)
        verts[k + 1:] = verts[k:-1]
        verts[k] = x
        values.pop()
        values.insert(k, fx)

    best = int(np.argmin(values))
    return {"params": verts[best].copy(), "value": float(values[best]), "evaluations": evals,
            "iterations": iterations, "stop_reason": stop}


# --- gradients and the per-gate walk ----------------------------------------

def batched_energies(amp_cols: np.ndarray, hmat: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ib,ib->b", amp_cols.conj(), hmat @ amp_cols))


def _free_gate_walk(circuit: Circuit, hmat, params: np.ndarray, amp0):
    """Yield (gate, state before it, S^dag H S) for each gate with a free angle.

    S is the product of all gates after the yielded one. The walk runs on the
    circuit's compiled plan: each constant step is one fused matrix, and the
    free gates of a layer are visited one at a time. All S^dag H S come from
    one backward pass at the first step, tracking S^T applied to the
    identity, with `params` as they are then. The state before each gate is
    advanced lazily from the previous one with `params` as they are at that
    step, so a caller that updates `params` in place between steps sees its
    updates in the states of later gates.
    """
    n = circuit.n_qubits
    ops = [op for step in circuit.plan.steps
           for op in ((step,) if isinstance(step, ConstantStep) else step.gates)]
    free = [k for k, op in enumerate(ops) if isinstance(op, Gate)]
    st = np.eye(1 << n, dtype=complex)
    conjugated = {}
    for k in reversed(range(len(ops))):
        op = ops[k]
        if isinstance(op, ConstantStep):
            st = op.matrix.T @ st
            continue
        s = st.T
        conjugated[k] = s.conj().T @ hmat @ s
        st = _apply_1q(st, gate_matrix(op, params).T, op.targets[0], n)
    pre, done = amp0, 0
    for k in free:
        for op in ops[done:k]:
            pre = (op.matrix @ pre if isinstance(op, ConstantStep)
                   else _apply_1q(pre, gate_matrix(op, params), op.targets[0], n))
        done = k
        yield ops[k], pre, conjugated.pop(k)


def batched_shift_gradient(circuit, hmat, params, amp0_cols) -> tuple[float, np.ndarray]:
    """(column-averaged energy, its gradient); columns of amp0_cols are input states.

    Computed by adjoint differentiation on the circuit's compiled plan
    (`Plan.gradient`): one forward and one backward pass, whatever the
    number of angles; the energy, from the forward pass, has the bytes of
    np.mean(batched_energies(apply_circuit(amp0_cols, ...), hmat)). In exact
    arithmetic the gradient is the parameter-shift gradient: every free angle
    a of U3, U1, RY and RZ enters its gate through one factor exp(-i a P/2)
    with P a Pauli, up to a global phase, so dE/da = 1/2 [E(a + pi/2) -
    E(a - pi/2)]. Non-finite angles raise ValueError.
    """
    energies, grad = circuit.plan.gradient(amp0_cols, params, hmat)
    return float(np.mean(energies)), grad / amp0_cols.shape[1]


def parameter_shift_gradient(circuit: Circuit, hamiltonian, params, initial_state: StateVector):
    """Gradient of the energy from `initial_state` (see `batched_shift_gradient`).

    A slot read by several angle positions, on one gate or on several,
    accumulates coeff * dE/d(angle) per position: the sum of the two-term
    rules coeff * 1/2 [E(angle + pi/2) - E(angle - pi/2)].
    """
    hmat = _observable(hamiltonian, circuit.n_qubits)
    amp0 = initial_state.amplitudes.reshape(-1, 1)
    return batched_shift_gradient(circuit, hmat, params, amp0)[1]


def adam_minimize(fun, x0, config: OptimizerConfig, stop_below=None) -> dict:
    """Adam (step 0.1) on fun(x) -> (value, gradient), tracking the best value seen.

    One call of `fun` per step gives the value at the new point and the next
    step's gradient. Stops after config.max_iterations steps, or once the best
    value is below `stop_below` (if given) or the gradient at the new point is
    below config.tolerance in every component. "evaluations" = 1 + steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    m, v = np.zeros_like(x), np.zeros_like(x)
    step, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    value, g = fun(x)
    best_x, best_f = x.copy(), float(value)
    evals = 1
    for t in range(1, config.max_iterations + 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - step * mhat / (np.sqrt(vhat) + eps)
        value, g = fun(x)
        evals += 1
        if not math.isfinite(value):
            raise NumericalError("non-finite cost value encountered")
        if value < best_f:
            best_f, best_x = float(value), x.copy()
        if (stop_below is not None and best_f < stop_below) or np.max(np.abs(g)) < config.tolerance:
            break
    return {"params": best_x, "value": best_f, "evaluations": evals}


# --- staged per-gate optimization (U1 restriction, then theta/phi) ----------

_SWEEP_CAP = 30
_SWEEP_TOL = 1e-11        # Hartree: a sweep gaining less than this ends a per-gate solve
_SHIFTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
# maps energies at _SHIFTS to the coefficients of (1, cos u, sin u)
_FIT = np.linalg.inv(np.column_stack([np.ones(3), np.cos(_SHIFTS), np.sin(_SHIFTS)]))
# (theta, phi, lambda) shifts: lambda alone (phase A), the theta x phi grid (phase B)
_TRIALS = (np.outer(_SHIFTS, [0, 0, 1]),
           np.array([(t, p, 0) for t in _SHIFTS for p in _SHIFTS]))


def _sinusoid(coef, u: float) -> float:
    return coef[0] + coef[1] * math.cos(u) + coef[2] * math.sin(u)


def _along(rows, x: float) -> list[float]:
    """Each row dotted with f(x) = (1, cos x, sin x): fixing one angle of a
    9-coefficient fit at x leaves a sinusoid in the other with these coefficients."""
    c, s = math.cos(x), math.sin(x)
    return [r[0] + r[1] * c + r[2] * s for r in rows]


def _sinusoid_argmin(coef, lo: float, hi: float, at: float = 0.0) -> float:
    """argmin of c + a cos u + b sin u = c + R cos(u - atan2(b, a)) on [lo, hi], lo <= 0 <= hi.

    The minimum atan2(b, a) + pi nearest 0 if the box holds it, else the
    better endpoint; `at` unless that is lower. coef = (c, a, b).
    """
    u = math.remainder(math.atan2(coef[2], coef[1]) + math.pi, 2.0 * math.pi)
    inside = [x for x in (u, u - math.copysign(2.0 * math.pi, u)) if lo <= x <= hi]
    best = inside[0] if inside else min((lo, hi), key=lambda x: _sinusoid(coef, x))
    return best if _sinusoid(coef, best) < _sinusoid(coef, at) else at


def _fourier_argmin(coef: np.ndarray, lo, hi) -> tuple[float, float]:
    """argmin of sum_pq f_p(u) coef[p, q] f_q(v), f = (1, cos, sin), on lo <= (u, v) <= hi.

    Alternating exact 1-D solves until neither coordinate moves, from six
    starts, since one can end in a local minimum: either coordinate at 0, the
    other at each of _SHIFTS clipped to the box. (0, 0) unless the best is lower.
    """
    fit = lambda u, v: _sinusoid(_along(coef.tolist(), v), u)
    best = (fit(0.0, 0.0), 0.0, 0.0)
    for m, lo_, hi_, order in ((coef, lo, hi, 1), (coef.T, lo[::-1], hi[::-1], -1)):
        rows, cols = m.tolist(), m.T.tolist()
        for b in np.clip(_SHIFTS, lo_[1], hi_[1]).tolist():
            a = 0.0
            for _ in range(100):
                a_new = _sinusoid_argmin(_along(rows, b), lo_[0], hi_[0], a)
                b_new = _sinusoid_argmin(_along(cols, a_new), lo_[1], hi_[1], b)
                if (a_new, b_new) == (a, b):
                    break
                a, b = a_new, b_new
            u, v = (a, b)[::order]
            best = min(best, (fit(u, v), u, v), key=lambda t: t[0])
    return best[1:]


def _trial_energies(gate: Gate, prefix, kmat, angles: np.ndarray) -> np.ndarray:
    """psi^dag K psi for psi = U3(row) applied to `prefix`, per row (theta, phi, lambda)."""
    c, s = np.cos(0.5 * angles[:, 0]), np.sin(0.5 * angles[:, 0])
    ephi, elam = np.exp(1j * angles[:, 1]), np.exp(1j * angles[:, 2])
    u = np.stack([c, -elam * s, ephi * s, ephi * elam * c], axis=1).reshape(-1, 2, 2)
    cols = np.einsum("tij,hjl->hilt", u, prefix.reshape(-1, 2, 1 << gate.targets[0]))
    return batched_energies(cols.reshape(prefix.size, -1), kmat)


def _check_u3_slots(circuit: Circuit) -> None:
    """Raise unless every free angle sits on an all-free U3 gate that owns its three
    distinct slots alone and reads each with coefficient 1 (offsets are allowed)."""
    owner = {}
    for gi, g in enumerate(circuit.gates):
        slots = [p.slot for p in g.params if p.slot is not None]
        if not slots:
            continue
        if g.kind != "U3":
            raise ValueError("per-gate optimization expects all free parameters on U3 gates")
        if len(set(slots)) != 3 or any(p.coeff != 1.0 for p in g.params):
            raise ValueError(f"per-gate optimization expects U3 gate {gi} on qubit {g.targets[0]} "
                             "to read three distinct slots, each with coefficient 1")
        if any(owner.setdefault(slot, gi) != gi for slot in slots):
            raise ValueError("per-gate optimization expects each slot on a single U3 gate")


def staged_gate_optimize(
    circuit: Circuit,
    hamiltonian,
    init,
    config: OptimizerConfig | None = None,
    bounds=None,
) -> dict:
    """Sweep the U3 gates in circuit order, each in two closed-form phases.

    With the other angles fixed, the energy is a cos(lambda - b) + c in the Z
    angle lambda (Rotosolve) and a 9-coefficient trigonometric polynomial in
    (theta, phi). Phase A fits the first from lambda + (0, +-2 pi/3), phase B
    the second from the 3 x 3 grid of these shifts; each takes the fit's
    minimum on the box, scores it once and keeps it if that energy is <= the
    current one. Sweeps stop when one gains less than config.tolerance
    (default _SWEEP_TOL; "stop_reason" `tolerance`), or after _SWEEP_CAP
    (`sweep_cap`); config.max_iterations is unused.

    Trials are scored as psi^dag K psi: psi is the cached state before the
    gate with the trial gate applied, and K = S^dag H S folds the later gates
    S into the observable (once per sweep, since they have not moved yet).
    """
    config = config or OptimizerConfig(tolerance=_SWEEP_TOL)
    n = circuit.n_qubits
    hmat = _observable(hamiltonian, n)
    start = zero_state(n)
    lo, hi = (-math.inf, math.inf) if bounds is None else bounds
    params = np.clip(np.asarray(init, dtype=float), lo, hi)
    lo, hi = np.broadcast_to(lo, params.shape), np.broadcast_to(hi, params.shape)
    _check_u3_slots(circuit)

    energy = energy_fn(circuit, hamiltonian, start)(params)
    evaluations = 1
    for sweeps in range(1, _SWEEP_CAP + 1):
        sweep_start = energy
        # the walk sees the in-place updates of params below in later prefixes
        for gate, prefix, kmat in _free_gate_walk(circuit, hmat, params, start.amplitudes):
            angles = lambda x: np.array([[p.value(x) for p in gate.params]])
            for phase, trials in zip(([2], [0, 1]), _TRIALS):
                sub = [gate.params[k].slot for k in phase]
                energies = _trial_energies(gate, prefix, kmat, angles(params) + trials)
                fit = _FIT @ energies.reshape(3, -1)
                box = (lo[sub] - params[sub]).tolist(), (hi[sub] - params[sub]).tolist()
                trial = params.copy()
                trial[sub] += (_fourier_argmin(fit @ _FIT.T, *box) if len(sub) == 2 else
                               _sinusoid_argmin(fit[:, 0].tolist(), box[0][0], box[1][0]))
                value = _trial_energies(gate, prefix, kmat, angles(trial))[0]
                evaluations += len(energies) + 1
                if value <= energy:
                    params[sub], energy = trial[sub], float(value)
        if sweep_start - energy < config.tolerance:
            break
    stop = "tolerance" if sweep_start - energy < config.tolerance else "sweep_cap"
    return {"params": params, "value": energy, "evaluations": evaluations, "sweeps": sweeps,
            "stop_reason": stop}


# --- whole-gate optimization (one 4 x 4 eigenproblem per U3) ----------------

# I, -iX, -iY, -iZ: up to a global phase U3 is q0 I - i (q1 X + q2 Y + q3 Z), q real and unit
_QUATERNION_BASIS = np.array([np.eye(2), [[0, -1j], [-1j, 0]], [[0, -1], [1, 0]],
                              [[-1j, 0], [0, 1j]]])


def _u3_quaternion(theta: float, phi: float, lam: float) -> np.ndarray:
    """The real unit q with U3(theta, phi, lam) = e^{i(phi + lam)/2} (q0 I - i q . sigma)."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    alpha, beta = 0.5 * (phi + lam), 0.5 * (lam - phi)
    return np.array([c * math.cos(alpha), s * math.sin(beta), s * math.cos(beta),
                     c * math.sin(alpha)])


def _u3_angles(q, near) -> list[float]:
    """U3 angles of the real unit q (`_u3_quaternion` inverted): of (theta, phi, lambda)
    and (-theta, phi + pi, lambda - pi), each shifted by multiples of 4 pi in theta
    and 2 pi in phi and lambda (all one matrix), the one nearest `near`."""
    theta = 2.0 * math.atan2(math.hypot(q[2], q[1]), math.hypot(q[0], q[3]))
    alpha, beta = math.atan2(q[3], q[0]), math.atan2(q[1], q[2])
    periods = (4.0 * math.pi, 2.0 * math.pi, 2.0 * math.pi)
    branches = ((theta, alpha - beta, alpha + beta),
                (-theta, alpha - beta + math.pi, alpha + beta - math.pi))
    shifted = [[a + p * round((b - a) / p) for a, b, p in zip(branch, near, periods)]
               for branch in branches]
    return min(shifted, key=lambda angles: sum((a - b) ** 2 for a, b in zip(angles, near)))


def _whole_gate_form(gate: Gate, prefix, kmat) -> np.ndarray:
    """M = Re(Phi^dag K Phi) with Phi = [psi, -iX psi, -iY psi, -iZ psi] on the gate's qubit,
    psi = `prefix`: the energy is q^T M q when the gate is q0 I - i q . sigma."""
    phi = np.einsum("kij,hjl->hilk", _QUATERNION_BASIS,
                    prefix.reshape(-1, 2, 1 << gate.targets[0])).reshape(-1, 4)
    return (phi.conj().T @ kmat @ phi).real


def whole_gate_optimize(circuit: Circuit, hamiltonian, init) -> dict:
    """Sweep the U3 gates in circuit order, each solved exactly as a whole gate (Fraxis,
    arXiv:2104.14875; FQS, arXiv:2209.08535), without bounds.

    With the other gates fixed, the energy is q^T M q (`_whole_gate_form`), so
    M's lowest eigenpair (w0, q) is the gate's global optimum. It is kept if w0
    is <= the energy at the gate's current q, and written back in place as the
    U3 angles nearest the current ones (`_u3_angles`) less each slot's offset.
    Sweeps stop when one gains less than _SWEEP_TOL ("stop_reason"
    `tolerance`), or after _SWEEP_CAP (`sweep_cap`). "value" is energy_fn at
    the result; "evaluations" is that one plus the 10 distinct entries of each M.
    """
    hmat, start = _observable(hamiltonian, circuit.n_qubits), zero_state(circuit.n_qubits)
    params = np.array(init, dtype=float)
    _check_u3_slots(circuit)

    solves = 0
    for sweeps in range(1, _SWEEP_CAP + 1):
        gain = 0.0
        # the walk sees the in-place updates of params below in later prefixes
        for gate, prefix, kmat in _free_gate_walk(circuit, hmat, params, start.amplitudes):
            m = _whole_gate_form(gate, prefix, kmat)
            w, v = np.linalg.eigh(m)
            solves += 1
            near = [p.value(params) for p in gate.params]
            q = _u3_quaternion(*near)
            current = q @ m @ q
            if w[0] <= current:
                gain += current - w[0]
                for p, angle in zip(gate.params, _u3_angles(v[:, 0], near)):
                    params[p.slot] = angle - p.offset
        if gain < _SWEEP_TOL:
            break
    return {"params": params, "value": energy_fn(circuit, hamiltonian, start)(params),
            "evaluations": 1 + 10 * solves, "sweeps": sweeps,
            "stop_reason": "tolerance" if gain < _SWEEP_TOL else "sweep_cap"}


def best_of_starts(solve, n_params: int, rng: np.random.Generator, restarts: int, first=None,
                   stop_below: float = -math.inf) -> dict:
    """The best of up to `restarts` results of solve(x0), with "evaluations" summed.

    The first x0 is `first` when given, without a draw from `rng`; every other
    x0 is rng.uniform(0, 2 pi, n_params). The lowest "value" wins, the earlier
    start on a tie; the loop ends early once the best value is below `stop_below`.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best, evaluations = None, 0
    for attempt in range(restarts):
        x0 = (np.asarray(first, dtype=float) if attempt == 0 and first is not None
              else rng.uniform(0.0, 2.0 * math.pi, n_params))
        res = solve(x0)
        evaluations += res["evaluations"]
        if best is None or res["value"] < best["value"]:
            best = res
        if best["value"] < stop_below:
            break
    return {**best, "evaluations": evaluations}


def optimize_vqe(
    circuit: Circuit,
    hamiltonian,
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
    initial=None,
) -> dict:
    """Nelder-Mead VQE from config.restarts starts (`best_of_starts`), the first at
    `initial` if given: the best `minimize` result, with evaluations over all starts."""
    config = config or OptimizerConfig()
    rng = rng or np.random.default_rng(config.seed)
    cost = energy_fn(circuit, hamiltonian, zero_state(circuit.n_qubits))
    # `minimize` is read from the module at each call, so a wrapper installed there sees it
    return best_of_starts(lambda x0: minimize(cost, x0, config=config), circuit.n_params, rng,
                          config.restarts, first=initial)


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


# the 12-parameter PQC that the latent VQE optimizes on the latent wires (qae.LATENT_PQC)
LATENT_PQC = strongly_entangling(2, 1)


@dataclass(frozen=True)
class ParameterDataset:
    records: tuple[DatasetRecord, ...]
    anchor_index: int

    def __post_init__(self):
        lengths = {r.angles.size for r in self.records}
        if len(lengths) > 1:
            raise ValueError("records carry angle vectors of different lengths")
        if self.records and not 0 <= self.anchor_index < len(self.records):
            raise ValueError(f"anchor_index {self.anchor_index} outside the "
                             f"{len(self.records)} records")
        for r in self.records:
            if r.energy < r.oracle_energy - 1e-10:
                raise ValueError(
                    f"variational bound violated at R={r.bond_length}: "
                    f"{r.energy} < {r.oracle_energy}"
                )

    @property
    def n_params(self) -> int:
        return self.records[0].angles.size if self.records else 0

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
    hmat = _observable(hamiltonian, circuit.n_qubits)
    amp0 = zero_state(circuit.n_qubits).amplitudes.reshape(-1, 1)
    grad = lambda x: batched_shift_gradient(circuit, hmat, x, amp0)[1]
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
) -> ParameterDataset:
    """Walk the bond-length grid outward from a fully optimized anchor.

    `hamiltonians` is the grid in ascending bond-length order. At each step
    the per-parameter search box follows the step constraint around
    theta_prev + delta, the optimizer is warm-started at the box center, and
    points whose energy error exceeds 100x the anchor's are flagged as
    discontinuity symptoms. delta is the secant theta_{i-1} - theta_{i-2};
    on the first step out of the anchor, where there is no second point, it
    is the tangent predictor `first_step_delta` at the anchor angles. Each
    step is a staged solve with its default 1e-11 Hartree stop.
    """
    hamiltonians = list(hamiltonians)
    if not 0 <= anchor_index < len(hamiltonians):
        raise ValueError("anchor index outside the grid")
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
            res = staged_gate_optimize(circuit, hamiltonians[idx], prev + delta, bounds=(lo, hi))
            err = res["value"] - oracle[idx]
            results[idx] = DatasetRecord(
                hamiltonians[idx].bond_length,
                res["params"],
                res["value"],
                oracle[idx],
                bool(err > 100.0 * anchor_error),
            )
            delta = res["params"] - prev
            prev = res["params"]
            idx += direction

    records = tuple(results[i] for i in sorted(results))
    return ParameterDataset(records, anchor_index)


# --- dataset CSV ------------------------------------------------------------

DATASET_SCHEMA = f"{SCHEMA_VERSION} parameter-dataset"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dataset_to_csv(dataset: ParameterDataset) -> str:
    lines = [f"# {DATASET_SCHEMA} {canonical_json({'anchor_index': dataset.anchor_index})}"]
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
    header = [h.strip() for h in lines[1].split(",")] if len(lines) > 1 else []
    if header[:4] != ["bond_length", "energy", "oracle_energy", "flag"]:
        raise ValueError("dataset header missing or unexpected")
    records = []
    for ln in lines[2:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"dataset row has {len(cells)} cells, the header names "
                             f"{len(header)}: {ln!r}")
        bond, energy, oracle = (float(c) for c in cells[:3])
        flag, angles = int(cells[3]), np.array([float(c) for c in cells[4:]])
        if flag not in (0, 1) or not np.all(np.isfinite([bond, energy, oracle, *angles])):
            raise ValueError(f"dataset row needs finite numbers and a 0 or 1 flag: {ln!r}")
        records.append(DatasetRecord(bond, angles, energy, oracle, bool(flag)))
    return ParameterDataset(tuple(records), int(meta["anchor_index"]))
