"""Circuit constructors for the four ansatz families.

- strongly_entangling: per-layer U3 rotations with CNOT rings of range 1 and 2
- uccsd_h2: Hartree-Fock prep + exponentiated single/double excitations (3 params)
- efficient_su2: RY+RZ rotation blocks with full CNOT entanglement
- qae_encoder: the strongly-entangling template reused for the autoencoder
"""
from __future__ import annotations

import math

from .circuit import Circuit, Gate, Param
from .hamiltonian import _ladder, _op_product


def strongly_entangling(n_qubits: int, layers: int) -> Circuit:
    """Two blocks per layer: U3 on every qubit, then a CNOT ring.

    Block 1 uses ring range 1 (CNOT(i, i+1 mod n)), block 2 range 2. For
    n = 2 the rings degenerate to a single CNOT per block with alternating
    direction, giving 6 gates and 12 parameters per layer.
    """
    if n_qubits < 2:
        raise ValueError("strongly_entangling needs at least 2 qubits")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    gates: list[Gate] = []
    slot = 0
    for _ in range(layers):
        for block, rng in enumerate((1, 2)):
            for q in range(n_qubits):
                gates.append(
                    Gate("U3", (q,), (Param.ref(slot), Param.ref(slot + 1), Param.ref(slot + 2)))
                )
                slot += 3
            if n_qubits == 2:
                gates.append(Gate("CNOT", (0, 1) if block == 0 else (1, 0)))
            else:
                for q in range(n_qubits):
                    gates.append(Gate("CNOT", (q, (q + rng) % n_qubits)))
    return Circuit(n_qubits, tuple(gates), slot)


def efficient_su2(n_qubits: int, reps: int) -> Circuit:
    """(reps+1) RY+RZ rotation blocks separated by full-entanglement CNOT blocks."""
    if n_qubits < 2 or reps < 1:
        raise ValueError("efficient_su2 needs n_qubits >= 2 and reps >= 1")
    gates: list[Gate] = []
    slot = 0
    for block in range(reps + 1):
        if block > 0:
            for i in range(n_qubits):
                for j in range(i + 1, n_qubits):
                    gates.append(Gate("CNOT", (i, j)))
        for q in range(n_qubits):
            gates.append(Gate("RY", (q,), (Param.ref(slot + q),)))
        for q in range(n_qubits):
            gates.append(Gate("RZ", (q,), (Param.ref(slot + n_qubits + q),)))
        slot += 2 * n_qubits
    return Circuit(n_qubits, tuple(gates), slot)


def qae_encoder(n_qubits: int, layers: int = 2) -> Circuit:
    """Autoencoder encoder template: the strongly-entangling circuit."""
    return strongly_entangling(n_qubits, layers)


# --- UCCSD for H2 -----------------------------------------------------------

def _excitation_strings(creators: list[int], annihilators: list[int], n: int):
    """Pauli expansion of K = T - T+ for T = a+_{c1} a+_{c2} ... a_{a2} a_{a1}.

    K is anti-Hermitian, so every surviving string carries a purely imaginary
    coefficient i*c with real c; returns [(ops, c)] sorted for determinism.
    All strings in one excitation commute pairwise, so the exponential
    factorizes exactly into per-string rotations.
    """
    op = {"I" * n: 1.0 + 0j}
    for p in creators:
        op = _op_product(op, _ladder(p, n, True))
    for q in reversed(annihilators):
        op = _op_product(op, _ladder(q, n, False))
    dagger = {"I" * n: 1.0 + 0j}
    for q in annihilators:
        dagger = _op_product(dagger, _ladder(q, n, True))
    for p in reversed(creators):
        dagger = _op_product(dagger, _ladder(p, n, False))

    combined: dict[str, complex] = dict(op)
    for s, c in dagger.items():
        combined[s] = combined.get(s, 0) - c
    out = []
    for s in sorted(combined):
        c = combined[s]
        if abs(c) < 1e-14:
            continue
        if abs(c.real) > 1e-12:
            raise AssertionError(f"excitation generator has a real component on {s}")
        out.append((s, c.imag))
    return out


def _pauli_rotation_gates(ops: str, slot: int, coeff: float) -> list[Gate]:
    """exp(-i (coeff * theta_slot) / 2 * P) via basis change + CNOT staircase + RZ."""
    support = [q for q, c in enumerate(ops) if c != "I"]
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in support:
        if ops[q] == "X":
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
        elif ops[q] == "Y":
            # V = H S-dagger maps Y to Z; circuit order: S-dagger then H.
            pre.append(Gate("U1", (q,), (Param.const(-math.pi / 2),)))
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
            post.append(Gate("U1", (q,), (Param.const(math.pi / 2),)))
    stair = [Gate("CNOT", (support[i], support[i + 1])) for i in range(len(support) - 1)]
    rz = Gate("RZ", (support[-1],), (Param.ref(slot, coeff),))
    # post already lists each qubit's gates in circuit order (V-dagger = S then H
    # reads H first on the wire); distinct wires commute, so no reversal.
    return pre + stair + [rz] + list(reversed(stair)) + post


def uccsd_h2() -> Circuit:
    """Trotterized UCCSD circuit for H2 on 4 qubits with 3 parameters.

    Slot 0: sigma_g -> sigma_u spin-up single; slot 1: spin-down single;
    slot 2: the double excitation. Zero angles reproduce the Hartree-Fock
    state exactly.
    """
    n = 4
    gates: list[Gate] = [Gate("X", (0,)), Gate("X", (2,))]
    excitations = [
        ([1], [0]),          # g_up -> u_up
        ([3], [2]),          # g_down -> u_down
        ([1, 3], [0, 2]),    # double: (g_up, g_down) -> (u_up, u_down)
    ]
    for slot, (creators, annihilators) in enumerate(excitations):
        for ops, c in _excitation_strings(creators, annihilators, n):
            # exp(theta * i c P) = exp(-i (-2c * theta)/2 P)
            gates.extend(_pauli_rotation_gates(ops, slot, -2.0 * c))
    return Circuit(n, tuple(gates), 3)
