"""Circuit intermediate representation with named parameter slots.

A gate angle is linear in the bound parameter vector: ``coeff * v[slot] +
offset`` per angle position, with ``slot=None`` for a fixed angle. This is
what lets one circuit share a slot across gates (with per-gate sign or
scale), freeze trained sub-circuits into constants, and invert a circuit
without introducing new parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .statevector import StateVector, _apply_1q

PARAM_ARITY = {"U3": 3, "U1": 1, "RY": 1, "RZ": 1, "H": 0, "X": 0, "CNOT": 0}


@dataclass(frozen=True)
class Param:
    """One angle position: coeff * params[slot] + offset (slot None = constant)."""

    slot: int | None
    coeff: float = 1.0
    offset: float = 0.0

    @staticmethod
    def ref(slot: int, coeff: float = 1.0) -> "Param":
        return Param(slot, coeff, 0.0)

    @staticmethod
    def const(value: float) -> "Param":
        return Param(None, 0.0, float(value))

    def negated(self) -> "Param":
        return Param(self.slot, -self.coeff, -self.offset)

    def value(self, params: np.ndarray) -> float:
        if self.slot is None:
            return self.offset
        return self.coeff * float(params[self.slot]) + self.offset


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    params: tuple[Param, ...] = ()

    def __post_init__(self):
        if self.kind not in PARAM_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.params) != PARAM_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {PARAM_ARITY[self.kind]} angles")
        want = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != want or len(set(self.targets)) != want:
            raise ValueError(f"{self.kind} needs {want} distinct target(s)")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        seen = set()
        for g in self.gates:
            if any(t >= self.n_qubits or t < 0 for t in g.targets):
                raise ValueError(f"gate target out of range: {g}")
            for p in g.params:
                if p.slot is not None:
                    if not 0 <= p.slot < self.n_params:
                        raise ValueError(f"slot {p.slot} outside [0, {self.n_params})")
                    seen.add(p.slot)
        if seen != set(range(self.n_params)):
            missing = sorted(set(range(self.n_params)) - seen)
            raise ValueError(f"unreferenced parameter slots: {missing}")

    @cached_property
    def plan(self) -> "Plan":
        """This circuit's evaluation plan (`compile_plan`), looked up once per object: the
        lookup hashes the gate tuple, 13-60 us from encoder to UCCSD on a 2-core Xeon."""
        return compile_plan(self)


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def gate_matrix(gate: Gate, params: np.ndarray) -> np.ndarray:
    """The 2x2 matrix of a one-qubit gate at `params`, the one scalar gate table.
    U3(t, p, l) = [[c, -e^{il} s], [e^{ip} s, e^{i(p+l)} c]] with c, s = cos, sin(t/2),
    U1(l) = diag(1, e^{il}), RY(a) = exp(-i a Y/2), RZ(a) = exp(-i a Z/2). ValueError
    for CNOT or a non-finite angle."""
    if gate.kind == "H":
        return _H
    if gate.kind == "X":
        return _X
    if gate.kind == "CNOT":
        raise ValueError("CNOT is applied by index permutation, not a matrix")
    angles = [p.value(params) for p in gate.params]
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"{gate.kind} angles must be finite")
    if gate.kind == "U1":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * angles[0])]])
    if gate.kind == "RZ":
        return np.array([[np.exp(-0.5j * angles[0]), 0.0], [0.0, np.exp(0.5j * angles[0])]])
    c, s = math.cos(angles[0] / 2), math.sin(angles[0] / 2)
    if gate.kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    phi, lam = angles[1:]
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


@lru_cache(maxsize=None)
def _cnot_permutation(dim: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(dim)
    perm = np.where(idx & (1 << control), idx ^ (1 << target), idx)
    perm.flags.writeable = False
    return perm


def apply_gates(amp: np.ndarray, gates, params: np.ndarray, n: int) -> np.ndarray:
    """Apply `gates` in order to a raw amplitude array or a (2^n, batch) stack.

    CNOT is a row permutation; every other gate goes through its 2x2 matrix.
    This gate-by-gate loop is the reference that compiled plans are tested
    against, and what `simulate` runs.
    """
    for g in gates:
        if g.kind == "CNOT":
            amp = amp[_cnot_permutation(amp.shape[0], *g.targets)]
        else:
            amp = _apply_1q(amp, gate_matrix(g, params), g.targets[0], n)
    return amp


def apply_circuit(amp: np.ndarray, circuit: Circuit, params) -> np.ndarray:
    """Run the circuit's compiled plan over a raw amplitude array (or a (2^n, batch) stack)."""
    return circuit.plan.apply(amp, params)


def simulate(circuit: Circuit, params, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in list order to `initial` (the reference path)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(
            f"expected {circuit.n_params} parameters, got shape {params.shape}"
        )
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("initial state qubit count does not match circuit")
    amp = apply_gates(initial.amplitudes, circuit.gates, params, circuit.n_qubits)
    return StateVector(circuit.n_qubits, amp)


# --- evaluation plan -----------------------------------------------------------

_DIAGONAL = ("RZ", "U1")
_U3_PHASES = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])  # rows phi, lambda
_ONE, _ZERO = np.ones(1), np.zeros(1)  # a rotation table's padding entry and its derivative


class ConstantStep:
    """A run of gates without a free angle, applied as one dense unitary (`matrix`).

    A run of CNOT and X gates only is a permutation: its matrix has one 1 per
    row, at `op`, so the plan applies it as the row gather amp[op] and its
    backward step as lam[inverse]. The dense product is exact too, since each
    of its terms is x * 1 or x * 0 and adding zeros changes nothing, so both
    give the same values (the gather also keeps the sign of a zero amplitude,
    which the product makes +0). Runs with H or a constant U1 or U3 stay dense.
    """

    kind = "constant"

    def __init__(self, gates, n: int):
        self.matrix = apply_gates(np.eye(1 << n, dtype=complex), gates, np.zeros(0), n)
        self.op, self.inverse = self.matrix, None
        if all(g.kind in ("CNOT", "X") for g in gates):
            self.op = np.argmax(self.matrix.real, axis=1)  # the plan's operator: the gather
            self.inverse = np.argsort(self.op)

    def backward(self, lam: np.ndarray, pre, op, angles, dangles, tables) -> np.ndarray:
        """M^dag lam; the step has no free angle to differentiate."""
        return op.conj().T @ lam if self.inverse is None else lam[self.inverse]


class LayerStep:
    """Free gates of one kind on distinct qubits: one operator of the plan's per-call build.

    Free RZ and U1 gates form one phase vector exp(i W a), W = `weights`. Free
    RY gates, or free U3 gates, form one Kronecker product, whose entry (i, j)
    is the product over the layer's gates of their 2x2 entry (bit_q(i),
    bit_q(j)), and zero where i and j differ on a qubit outside the layer
    (`mask`). `angles[lo:hi]` holds the layer's angles: (theta, phi, lambda)
    per U3 gate, one per other gate. The plan builds the operator (`layer` is
    its row in its kind's stack); the step differentiates it. Its g-th gate's
    entry k sits at `entry_index[g, k]` of its kind's table (`Plan.tables`).
    """

    def __init__(self, kind: str, gates, lo: int, layer: int, row: int, n_rows: int, n: int):
        self.kind, self.gates, self.layer = kind, tuple(gates), layer
        self.lo, self.hi = lo, lo + sum(len(g.params) for g in self.gates)
        qubits = [g.targets[0] for g in self.gates]
        idx = np.arange(1 << n)
        bits = (idx[None, :] >> np.array(qubits)[:, None]) & 1
        if kind == "phase":
            # RZ(a) = diag(e^{-ia/2}, e^{ia/2}), U1(a) = diag(1, e^{ia})
            shift = np.array([0.5 if g.kind == "RZ" else 0.0 for g in self.gates])
            self.weights = (bits - shift[:, None]).T
            return
        gate = np.arange(len(qubits))[:, None, None]
        self.index = 4 * gate + 2 * bits[:, :, None] + bits[:, None, :]
        self.entry_index = row + np.arange(len(qubits))[:, None] + n_rows * np.arange(4)
        # bins of a bincount over a complex array's float view: entry k's re at 2k, im at 2k + 1
        self.env_index = (2 * self.index.reshape(-1, 1) + np.arange(2)).ravel()
        self.ones = np.ones((1, 1 << n, 1 << n), complex if kind == "U3" else float)
        others = sum(1 << q for q in range(n) if q not in qubits)
        self.mask = ((idx[:, None] ^ idx[None, :]) & others) == 0 if others else None

    def _masked(self, kron: np.ndarray) -> np.ndarray:
        return kron if self.mask is None else kron * self.mask

    def backward(self, lam: np.ndarray, pre: np.ndarray, op, angles, dangles, tables) -> np.ndarray:
        """One adjoint step on (2^n, batch) stacks: return U^dag lam.

        `pre` is the state before the layer and `lam` the adjoint state after
        it. For each angle a of the layer, dangles[k] gets
        Re sum_b lam_b^dag (dU/da) pre_b, in place. A rotation layer contracts
        C = conj(lam) pre^T with the product of the other gates' factors into a
        2x2 environment per gate (one bincount), so every angle of the layer
        takes one Re <env, dU/da> at once.
        """
        if self.kind == "phase":
            # d phase / d a_k = i W[:, k] phase, and Re(i z) = -Im z
            overlap = op * np.einsum("ib,ib->i", lam.conj(), pre)
            dangles[self.lo:self.hi] = -(self.weights.T @ overlap).imag
            return op.conj()[:, None] * lam
        # conj before the cumprods: after a complex BLAS product (the previous step's
        # return) numpy's scalar cumprod loop ran 10x slower until an elementwise
        # vector loop such as conj ran (numpy 2.4, OpenBLAS 0.3.31, AVX-512 Xeon)
        lam_conj = lam.conj()
        entries, dtheta = (table[self.entry_index] for table in tables[self.kind])
        factors = entries.reshape(-1)[self.index]
        before = np.concatenate([self.ones, np.cumprod(factors[:-1], axis=0)])
        after = np.concatenate([np.cumprod(factors[:0:-1], axis=0)[::-1], self.ones])
        weighted = self._masked(before * after * (lam_conj @ pre.T))
        env = np.bincount(self.env_index, weighted.view(float).ravel(), 2 * entries.size)
        env = env.view(complex).reshape(entries.shape)
        rows = dangles[self.lo:self.hi].reshape(len(self.gates), -1)  # a view: (G, 1 or 3)
        rows[:, 0] = np.sum(env * dtheta, axis=1).real
        if self.kind == "U3":
            # d/dphi and d/dlambda multiply the entries by i where _U3_PHASES has a 1
            rows[:, 1:] = -((env * entries) @ _U3_PHASES.T).imag
        # not `op`: the scalar cumprod loop and the vector multiply of the forward
        # product round differently, and the adjoint keeps its own product's bytes
        kron = self._masked(before[-1] * factors[-1])
        return kron.conj().T @ lam


class Plan:
    """A circuit compiled into a short list of steps (see `compile_plan`).

    Each maximal run of gates without a free angle is one ConstantStep; each
    run of free gates of one kind (RZ and U1, RY, or U3) on distinct qubits is
    one LayerStep. Each `apply` or `gradient` call builds every step's
    operator in one pass (`angles`, `tables`, `operators`) and then walks the
    steps with one numpy operation each. The gather indices of all layers of
    a rotation kind are stacked into one (layers, width, 2^n, 2^n) index; a
    narrower layer pads with the position of the table's trailing 1.0.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        groups: list[tuple[str, list[Gate]]] = []
        for g in circuit.gates:
            if not any(p.slot is not None for p in g.params):
                cls = "constant"
            else:
                cls = "phase" if g.kind in _DIAGONAL else g.kind
            if groups and groups[-1][0] == cls and (
                    cls == "constant" or g.targets[0] not in {h.targets[0] for h in groups[-1][1]}):
                groups[-1][1].append(g)
            else:
                groups.append((cls, [g]))
        sizes = {cls: sum(len(gs) for c, gs in groups if c == cls) for cls, _ in groups}
        steps, table, layers = [], [], {}
        for cls, gates in groups:
            if cls == "constant":
                steps.append(ConstantStep(gates, n))
                continue
            same = layers.setdefault(cls, [])
            row = sum(len(s.gates) for s in same)
            same.append(LayerStep(cls, gates, len(table), len(same), row, sizes[cls], n))
            table.extend(p for g in gates for p in g.params)
            steps.append(same[-1])
        self.steps, self.n_params = tuple(steps), circuit.n_params
        # the phase layers of one width share one stacked product; renumber them so that
        # each width's layers are adjacent rows of the phase stack
        phases = sorted(layers.pop("phase", []), key=lambda s: len(s.gates))
        widths: dict[int, list] = {}
        for layer, s in enumerate(phases):
            s.layer = layer
            widths.setdefault(len(s.gates), []).append(s)
        # per kind, its layers' operators: the buffers that every `operators` call rewrites
        self._exponents, self._buffers = np.empty((len(phases), 1 << n, 1)), {}
        # per width: rows, (layers, 2^n, width) weights, each layer's column-major as
        # `weights` is (so numpy makes the same BLAS call as for one layer), angle index
        self._phase_groups = [
            (slice(same[0].layer, same[-1].layer + 1),
             np.array([s.weights.T for s in same]).transpose(0, 2, 1),
             np.array([np.arange(s.lo, s.hi) for s in same])[..., None]) for same in widths.values()]
        self._rotations = {}
        for kind, same in layers.items():
            size, width = sizes[kind], max(len(s.gates) for s in same)
            index = np.full((len(same), width, 1 << n, 1 << n), 4 * size)  # the trailing 1.0
            for s in same:
                index[s.layer, :len(s.gates)] = s.entry_index.reshape(-1)[s.index]
            mask = np.array([np.ones((1 << n,) * 2, bool) if s.mask is None else s.mask
                             for s in same]) if any(s.mask is not None for s in same) else None
            theta = np.array([s.lo + len(g.params) * k for s in same for k, g in enumerate(s.gates)])
            phase_weights = None
            if kind == "U3":  # the phase of entry k of gate g is exp(i angles @ column k G + g)
                phase_weights = np.zeros((len(table), 4 * size + 1))
                for g, t in enumerate(theta):
                    phase_weights[t + 1:t + 3, g:4 * size:size] = _U3_PHASES
            self._rotations[kind] = (theta, phase_weights, index, mask)
            self._buffers[kind] = np.empty(index[:, 0].shape, complex if kind == "U3" else float)
        self._buffers["phase"] = np.empty(self._exponents.shape[:2], complex)
        self._operators = tuple(self._buffers[s.kind][s.layer] if isinstance(s, LayerStep)
                                else s.op for s in steps)
        # every free gate's angle positions in step order; a constant one reads 0 * params[0]
        self._slots = np.array([p.slot or 0 for p in table], dtype=int)
        self._coeffs = np.array([p.coeff if p.slot is not None else 0.0 for p in table])
        self._offsets = np.array([p.offset for p in table])

    def angles(self, params) -> np.ndarray:
        """Every free gate's angles in step order; ValueError unless params is (n_params,)
        and every angle is finite."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {params.shape}")
        angles = self._coeffs * params[self._slots] + self._offsets
        if not np.isfinite(angles).all():
            raise ValueError("gate angles must be finite")
        return angles

    def tables(self, angles: np.ndarray, derivative: bool = False) -> dict:
        """Per rotation kind (RY, U3), (entries, their theta derivatives or None) as flat
        arrays of 4 G + 1 values for the kind's G gates: entry k (00, 01, 10, 11) of
        gate g at k G + g, phases * (c, -s, s, c) with c, s = cos, sin(theta/2) and
        phases 1 for RY, (1, e^{i lam}, e^{i phi}, e^{i(phi + lam)}) for U3, then a
        1.0 (its derivative 0.0) that narrower layers pad with. Empty for a plan
        without RY or U3 gates."""
        tables = {}
        for kind, (theta, phase_weights, _, _) in self._rotations.items():
            half = 0.5 * angles[theta]
            c, s = np.cos(half), np.sin(half)
            entries = np.concatenate([c, -s, s, c, _ONE])
            dtheta = 0.5 * np.concatenate([-s, -c, c, -s, _ZERO]) if derivative else None
            if phase_weights is not None:
                phases = np.exp(1j * (angles @ phase_weights))
                entries, dtheta = entries * phases, None if dtheta is None else dtheta * phases
            tables[kind] = (entries, dtheta)
        return tables

    def operators(self, angles: np.ndarray, tables: dict) -> tuple:
        """One operator per step: a 2^n x 2^n matrix for a rotation or dense constant
        step, a row-gather index for a permutation step, a 2^n phase vector for a
        phase step; a layer's is a row of a buffer that the next call rewrites. Per
        rotation kind one gather and one product build all its layers' Kronecker
        products. The phase layers of one width share one stacked weights @ angles
        product (each layer's as it is alone), and all phase layers share one exp."""
        for kind, (entries, _) in tables.items():
            _, _, index, mask = self._rotations[kind]
            kron = entries[index].prod(axis=1, out=self._buffers[kind])
            if mask is not None:
                np.multiply(kron, mask, out=kron)
        if self._phase_groups:
            for rows, weights, index in self._phase_groups:
                np.matmul(weights, angles[index], out=self._exponents[rows])
            np.exp(1j * self._exponents[..., 0], out=self._buffers["phase"])
        return self._operators

    def apply(self, amp: np.ndarray, params) -> np.ndarray:
        """Run every step on a vector or (2^n, batch) stack."""
        angles = self.angles(params)
        for step, op in zip(self.steps, self.operators(angles, self.tables(angles))):
            if step.kind == "phase":
                amp = (op[:, None] if amp.ndim > 1 else op) * amp
            elif op.ndim == 2:
                amp = op @ amp
            else:  # a permutation's gather
                amp = amp[op]
        return amp

    def gradient(self, amp: np.ndarray, params, observable: np.ndarray) -> tuple:
        """(Re <psi_b|O|psi_b> per column b, d/dparams of their sum) for psi = this plan
        run on the complex (2^n, batch) stack amp.

        Adjoint differentiation: the forward pass keeps the state before each
        step; the backward pass starts from lam = O psi and maps it back
        through each step (lam <- U^dag lam), which adds
        2 Re lam^dag (dU/da) pre for every angle a of the step. Both passes
        read one operator build; its tables also hold the theta derivatives.
        The energies reuse psi and lam = O psi (`batched_energies`' bytes).
        Each angle then reaches its slot with its coefficient (chain rule), so
        shared slots, coefficients and offsets need no special case.
        """
        angles = self.angles(params)
        tables = self.tables(angles, derivative=True)
        ops = self.operators(angles, tables)
        states = [amp]
        for step, op in zip(self.steps, ops):  # `apply`'s walk, keeping the state before each step
            pre = states[-1]
            states.append(op[:, None] * pre if step.kind == "phase"
                          else op @ pre if op.ndim == 2 else pre[op])
        psi = states.pop()
        lam = observable @ psi
        energies = np.real(np.einsum("ib,ib->b", psi.conj(), lam))
        dangles = np.zeros_like(angles)
        for step, op, pre in zip(reversed(self.steps), reversed(ops), reversed(states)):
            lam = step.backward(lam, pre, op, angles, dangles, tables)
        # bincount adds in index order from 0.0, as np.add.at would
        return energies, np.bincount(self._slots, 2.0 * self._coeffs * dangles, self.n_params)


@lru_cache(maxsize=128)
def compile_plan(circuit: Circuit) -> Plan:
    """The circuit's evaluation plan, compiled once per distinct circuit (0.2 ms for the
    encoder to 2.4 ms for UCCSD on a 2-core Xeon). Each CLI command builds its circuits
    anew, so later commands in the same process reuse the plans of equal circuits."""
    return Plan(circuit)


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate list with every gate daggered.

    The inverse reuses the original parameter vector unchanged (the identity
    parameter transform): daggering U3(theta, phi, lam) -> U3(-theta, -lam,
    -phi) is recorded by negating and swapping the linear angle expressions,
    so simulate(inverse(c), p, simulate(c, p, s)) == s.
    """
    inv_gates = []
    for g in reversed(circuit.gates):
        if g.kind == "U3":
            th, ph, la = g.params
            inv_gates.append(Gate("U3", g.targets, (th.negated(), la.negated(), ph.negated())))
        elif g.kind in ("U1", "RY", "RZ"):
            inv_gates.append(Gate(g.kind, g.targets, (g.params[0].negated(),)))
        else:  # H, X, CNOT are self-inverse
            inv_gates.append(g)
    return Circuit(circuit.n_qubits, tuple(inv_gates), circuit.n_params)


def resource_counts(circuit: Circuit) -> dict:
    return {
        "n_gates": len(circuit.gates),
        "n_params": circuit.n_params,
        "n_two_qubit": sum(1 for g in circuit.gates if g.kind == "CNOT"),
    }


def bind_constants(circuit: Circuit, params) -> Circuit:
    """Freeze every slot to its bound value; the result has n_params = 0."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError("parameter vector length mismatch")
    gates = tuple(
        Gate(g.kind, g.targets, tuple(Param.const(p.value(params)) for p in g.params))
        for g in circuit.gates
    )
    return Circuit(circuit.n_qubits, gates, 0)


# --- SWAP-test property-check circuit --------------------------------------

_T_ANGLE = math.pi / 4


def _toffoli(c1: int, c2: int, t: int) -> list[Gate]:
    T = lambda q: Gate("U1", (q,), (Param.const(_T_ANGLE),))
    Tdg = lambda q: Gate("U1", (q,), (Param.const(-_T_ANGLE),))
    H = lambda q: Gate("H", (q,))
    CX = lambda a, b: Gate("CNOT", (a, b))
    return [
        H(t), CX(c2, t), Tdg(t), CX(c1, t), T(t), CX(c2, t), Tdg(t), CX(c1, t),
        T(c2), T(t), H(t), CX(c1, c2), T(c1), Tdg(c2), CX(c1, c2),
    ]


def swap_test_circuit(n_qubits: int) -> Circuit:
    """Ancilla-controlled SWAP test between two n-qubit registers.

    Register a = qubits [0, n), register b = [n, 2n), ancilla = qubit 2n.
    With inputs |a>|b>|0>, P(ancilla = 0) = (1 + |<a|b>|^2) / 2.
    """
    anc = 2 * n_qubits
    gates: list[Gate] = [Gate("H", (anc,))]
    for k in range(n_qubits):
        a, b = k, n_qubits + k
        # CSWAP = CNOT(b, a) . Toffoli(anc, a, b) . CNOT(b, a)
        gates.append(Gate("CNOT", (b, a)))
        gates.extend(_toffoli(anc, a, b))
        gates.append(Gate("CNOT", (b, a)))
    gates.append(Gate("H", (anc,)))
    return Circuit(2 * n_qubits + 1, tuple(gates), 0)
