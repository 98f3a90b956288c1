"""Exact statevector simulation substrate.

Convention used everywhere in this package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``|q3 q2 q1 q0>`` has index
``q0 + 2*q1 + 4*q2 + 8*q3``. All amplitudes are complex128; expectation
values are exact contractions (no sampling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12

_PAULI_CHARS = "IXYZ"


@dataclass(frozen=True)
class StateVector:
    """Pure state over 2**n_qubits complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n_qubits
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"{self.n_qubits} qubits (expected ({dim},))"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with a real coefficient.

    ``ops`` is a string over {I, X, Y, Z}; character k acts on qubit k.
    """

    ops: str
    coefficient: float = 1.0

    def __post_init__(self):
        if self.ops.strip(_PAULI_CHARS):
            raise ValueError(f"invalid Pauli characters in {self.ops!r}")
        if not math.isfinite(self.coefficient):
            raise ValueError("Pauli coefficient must be finite")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits. Rejects n_qubits outside [1, 12] (resource guard)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amp = np.zeros(1 << n_qubits, dtype=complex)
    amp[0] = 1.0
    return StateVector(n_qubits, amp)


def _apply_1q(amp: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Stride-based 2x2 gate on a vector or (2^n, batch) stack; never builds 2^n x 2^n."""
    batch = amp.shape[1:] if amp.ndim > 1 else ()
    # View as (high bits, qubit, low bits, *batch); axis 1 is the target bit.
    view = amp.reshape(1 << (n - qubit - 1), 2, -1)
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    out = np.empty_like(view)
    out[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    out[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1
    return out.reshape(amp.shape) if batch else out.reshape(-1)


@lru_cache(maxsize=256)
def _pauli_action(ops: str, dim: int):
    """(idx, flipped, phase) with P|idx> = phase[idx] |flipped[idx]> on `dim` amplitudes.

    flipped = idx ^ x and phase = i^{n_Y} (-1)^{|idx & z|}, where x marks the
    qubits carrying X or Y, and z those carrying Y or Z. Memoized (every string
    on 4 qubits fits), so the arrays are shared and read-only.
    """
    x_mask = sum(1 << k for k, c in enumerate(ops) if c in "XY")
    z_mask = sum(1 << k for k, c in enumerate(ops) if c in "YZ")
    idx = np.arange(dim)
    sign = 1 - 2 * (np.bitwise_count(idx & z_mask).astype(np.int64) & 1)
    flipped, phase = idx ^ x_mask, (1j ** ops.count("Y")) * sign
    idx.flags.writeable = flipped.flags.writeable = phase.flags.writeable = False
    return idx, flipped, phase


def apply_pauli(state_amp: np.ndarray, ops: str) -> np.ndarray:
    """Return P|psi> for a Pauli string (amplitude-array in, array out)."""
    _, flipped, phase = _pauli_action(ops, state_amp.size)
    out = np.empty_like(state_amp)
    out[flipped] = phase * state_amp
    return out


def expectation(state: StateVector, hamiltonian) -> float:
    """Sum_k c_k <psi|P_k|psi>, exact. Imaginary residue below 1e-10 is discarded."""
    total = 0.0 + 0.0j
    for term in hamiltonian:
        if term.n_qubits != state.n_qubits:
            raise ValueError(
                f"Pauli string on {term.n_qubits} qubits does not match "
                f"{state.n_qubits}-qubit state"
            )
        total += term.coefficient * np.vdot(state.amplitudes, apply_pauli(state.amplitudes, term.ops))
    if abs(total.imag) > 1e-10:
        raise ValueError(f"expectation has non-negligible imaginary part {total.imag}")
    return float(total.real)


def partial_trace(state: StateVector, keep) -> np.ndarray:
    """Reduced density matrix over `keep` (ascending qubit order labels the result)."""
    keep = sorted(int(k) for k in keep)
    n = state.n_qubits
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a non-empty strict subset of the qubits")
    if len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise ValueError(f"invalid keep set {keep}")
    # Row-major reshape puts qubit k on axis n-1-k.
    tensor = state.amplitudes.reshape([2] * n)
    kept_axes = [n - 1 - k for k in reversed(keep)]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    mat = np.transpose(tensor, kept_axes + other_axes).reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


@lru_cache(maxsize=256)
def _sum_table(strings: tuple[str, ...], n_qubits: int):
    """(entries, term, phase): how `pauli_sum_matrix` sums terms on `strings`.

    For each flat entry row * 2^n + column that a string reaches, ascending, a
    column of the read-only (depth, entries) tables lists the term index and
    phase of each contribution in term order, then padding (term 0, phase 0).
    Summing the rows one after another from 0 adds what a term-by-term scatter
    adds, bit for bit. Memoized, so Hamiltonians on the same strings share it.
    """
    if any(len(ops) != n_qubits for ops in strings):
        raise ValueError("Pauli string length does not match qubit count")
    dim = 1 << n_qubits
    cells: dict[int, list] = {}
    for k, ops in enumerate(strings):
        idx, flipped, phase = _pauli_action(ops, dim)
        for e, ph in zip((flipped * dim + idx).tolist(), phase.tolist()):
            cells.setdefault(e, []).append((k, ph))
    entries = np.array(sorted(cells), dtype=np.intp)
    shape = (max(map(len, cells.values()), default=0), entries.size)
    term, phase = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=complex)
    for j, e in enumerate(entries.tolist()):
        for i, (k, ph) in enumerate(cells[e]):
            term[i, j], phase[i, j] = k, ph
    entries.flags.writeable = term.flags.writeable = phase.flags.writeable = False
    return entries, term, phase


def pauli_sum_matrix(terms, n_qubits: int) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum: term c P adds c phase at (flipped, idx).

    (idx, flipped, phase) are those of `_pauli_action`, which `apply_pauli`
    uses; `_sum_table` orders the additions.
    """
    terms = tuple(terms)
    entries, term, phase = _sum_table(tuple(t.ops for t in terms), n_qubits)
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    out.ravel()[entries] = (np.array([t.coefficient for t in terms], dtype=float)[term]
                            * phase).sum(axis=0, initial=0)
    return out
