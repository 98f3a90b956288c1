"""Circuit intermediate representation with named parameter slots.

A gate angle is linear in the bound parameter vector: ``coeff * v[slot] +
offset`` per angle position, with ``slot=None`` for a fixed angle. This is
what lets one circuit share a slot across gates (with per-gate sign or
scale), freeze trained sub-circuits into constants, and invert a circuit
without introducing new parameters.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
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


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic 3-angle single-qubit rotation.

    [[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]
    """
    if not all(map(math.isfinite, (theta, phi, lam))):
        raise ValueError("U3 angles must be finite")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def u1_matrix(lam: float) -> np.ndarray:
    """diag(1, e^{i lam})."""
    if not math.isfinite(lam):
        raise ValueError("U1 angle must be finite")
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * lam)]])


def ry_matrix(theta: float) -> np.ndarray:
    """exp(-i theta Y / 2)."""
    if not math.isfinite(theta):
        raise ValueError("RY angle must be finite")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(lam: float) -> np.ndarray:
    """exp(-i lam Z / 2)."""
    if not math.isfinite(lam):
        raise ValueError("RZ angle must be finite")
    return np.array([[np.exp(-0.5j * lam), 0.0], [0.0, np.exp(0.5j * lam)]])

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

_MATRIX_FNS = {"U3": u3_matrix, "U1": u1_matrix, "RY": ry_matrix, "RZ": rz_matrix}


def gate_matrix(gate: Gate, params: np.ndarray) -> np.ndarray:
    if gate.kind == "H":
        return _H
    if gate.kind == "X":
        return _X
    if gate.kind == "CNOT":
        raise ValueError("CNOT is applied by index permutation, not a matrix")
    angles = [p.value(params) for p in gate.params]
    return _MATRIX_FNS[gate.kind](*angles)


@lru_cache(maxsize=None)
def _cnot_permutation(dim: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(dim)
    perm = np.where(idx & (1 << control), idx ^ (1 << target), idx)
    perm.flags.writeable = False
    return perm


def apply_cnot(amp: np.ndarray, targets) -> np.ndarray:
    """CNOT(control, target) as a row permutation of a vector or (2^n, batch) stack."""
    control, target = targets
    return amp[_cnot_permutation(amp.shape[0], control, target)]


def apply_gates(amp: np.ndarray, gates, params: np.ndarray, n: int) -> np.ndarray:
    """Apply `gates` in order to a raw amplitude array or a (2^n, batch) stack."""
    for g in gates:
        if g.kind == "CNOT":
            amp = apply_cnot(amp, g.targets)
        else:
            amp = _apply_1q(amp, gate_matrix(g, params), g.targets[0], n)
    return amp


def apply_circuit(amp: np.ndarray, circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Run the circuit's gate list over a raw amplitude array (or a (2^n, batch) stack)."""
    return apply_gates(amp, circuit.gates, params, circuit.n_qubits)


def simulate(circuit: Circuit, params, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in list order to `initial`."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(
            f"expected {circuit.n_params} parameters, got shape {params.shape}"
        )
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("initial state qubit count does not match circuit")
    return StateVector(circuit.n_qubits, apply_circuit(initial.amplitudes, circuit, params))


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


def remap_qubits(circuit: Circuit, mapping: dict, n_qubits: int) -> Circuit:
    """Embed a circuit onto different wires of a (possibly larger) register."""
    gates = tuple(
        Gate(g.kind, tuple(mapping[t] for t in g.targets), g.params) for g in circuit.gates
    )
    return Circuit(n_qubits, gates, circuit.n_params)


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Gate-list concatenation; the second circuit's slots are shifted up."""
    if first.n_qubits != second.n_qubits:
        raise ValueError("cannot concatenate circuits on different qubit counts")
    shift = first.n_params
    shifted = tuple(
        Gate(
            g.kind,
            g.targets,
            tuple(
                Param(None if p.slot is None else p.slot + shift, p.coeff, p.offset)
                for p in g.params
            ),
        )
        for g in second.gates
    )
    return Circuit(first.n_qubits, first.gates + shifted, first.n_params + second.n_params)


def u3_to_zyz(circuit: Circuit) -> Circuit:
    """Rewrite each U3(theta, phi, lam) as RZ(phi) RY(theta) RZ(lam), up to global phase.

    Used by the parameter-shift rule, which needs every parameterized gate to
    be a single-angle rotation with an involutory generator.
    """
    gates = []
    for g in circuit.gates:
        if g.kind == "U3":
            th, ph, la = g.params
            gates.append(Gate("RZ", g.targets, (la,)))
            gates.append(Gate("RY", g.targets, (th,)))
            gates.append(Gate("RZ", g.targets, (ph,)))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, tuple(gates), circuit.n_params)


# --- serialization ---------------------------------------------------------

def circuit_to_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        rec: dict = {"kind": g.kind, "targets": list(g.targets)}
        if g.params:
            rec["slots"] = [p.slot for p in g.params]
            if any(p.coeff != 1.0 and p.slot is not None for p in g.params):
                rec["coeffs"] = [p.coeff for p in g.params]
            if any(p.offset != 0.0 for p in g.params):
                rec["offsets"] = [p.offset for p in g.params]
        gates.append(rec)
    return {
        "schema_version": SCHEMA_VERSION,
        "n_qubits": circuit.n_qubits,
        "n_params": circuit.n_params,
        "gates": gates,
    }


def circuit_from_dict(doc: dict) -> Circuit:
    require_schema(doc, "circuit")
    gates = []
    for rec in doc["gates"]:
        arity = PARAM_ARITY[rec["kind"]]
        slots = rec.get("slots", [None] * arity)
        coeffs = rec.get("coeffs", [1.0] * arity)
        offsets = rec.get("offsets", [0.0] * arity)
        params = tuple(
            Param(s, c if s is not None else 0.0, o)
            for s, c, o in zip(slots, coeffs, offsets)
        )
        gates.append(Gate(rec["kind"], tuple(rec["targets"]), params))
    return Circuit(doc["n_qubits"], tuple(gates), doc["n_params"])


def circuit_to_json(circuit: Circuit) -> str:
    return canonical_json(circuit_to_dict(circuit))


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))


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
