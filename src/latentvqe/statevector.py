"""Exact statevector simulation substrate.

Convention used everywhere in this package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``|q3 q2 q1 q0>`` has index
``q0 + 2*q1 + 4*q2 + 8*q3``. All amplitudes are complex128; expectation
values are exact contractions (no sampling).
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        if any(c not in _PAULI_CHARS for c in self.ops):
            raise ValueError(f"invalid Pauli characters in {self.ops!r}")
        if not np.isfinite(self.coefficient):
            raise ValueError("Pauli coefficient must be finite")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix over a subset of qubits."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = 1 << self.n_qubits
        if self.entries.shape != (dim, dim):
            raise ValueError("density matrix shape does not match qubit count")


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits. Rejects n_qubits outside [1, 12] (resource guard)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amp = np.zeros(1 << n_qubits, dtype=complex)
    amp[0] = 1.0
    return StateVector(n_qubits, amp)


def from_amplitudes(amplitudes: np.ndarray) -> StateVector:
    """Wrap a raw amplitude array, normalizing and inferring the qubit count."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n = int(np.log2(amplitudes.size))
    if 1 << n != amplitudes.size:
        raise ValueError("amplitude length is not a power of two")
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-14:
        raise ValueError("cannot normalize a zero vector")
    return StateVector(n, amplitudes / norm)


def _check_unitary(matrix: np.ndarray, tol: float = 1e-10) -> None:
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim not in (2, 4):
        raise ValueError("gate matrix must be 2x2 or 4x4")
    resid = matrix.conj().T @ matrix - np.eye(dim)
    if np.max(np.abs(resid)) > tol:
        raise ValueError("matrix is not unitary within 1e-10")


def apply_gate(state: StateVector, unitary: np.ndarray, targets) -> StateVector:
    """Apply a 2x2 or 4x4 unitary to the given target qubits.

    For a two-qubit gate, targets = (t0, t1) with t0 the least-significant
    bit of the 4-dimensional gate basis.
    """
    unitary = np.asarray(unitary, dtype=complex)
    targets = tuple(int(t) for t in (targets if hasattr(targets, "__len__") else [targets]))
    n = state.n_qubits
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"target out of range for {n} qubits: {targets}")
    _check_unitary(unitary)
    if unitary.shape[0] != 1 << len(targets):
        raise ValueError("matrix size does not match target count")
    if len(targets) == 1:
        amp = _apply_1q(state.amplitudes, unitary, targets[0], n)
    else:
        amp = _apply_2q(state.amplitudes, unitary, targets, n)
    return StateVector(n, amp)


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


def _apply_2q(amp: np.ndarray, u: np.ndarray, targets, n: int) -> np.ndarray:
    t0, t1 = targets
    m0, m1 = 1 << t0, 1 << t1
    idx = np.arange(1 << n)
    base = idx[(idx & m0 == 0) & (idx & m1 == 0)]
    rows = np.stack([amp[base], amp[base | m0], amp[base | m1], amp[base | m0 | m1]])
    new = u @ rows.reshape(4, -1)
    new = new.reshape(rows.shape)
    out = amp.copy()
    out[base], out[base | m0], out[base | m1], out[base | m0 | m1] = new
    return out


def _pauli_masks(ops: str):
    x_mask = z_mask = 0
    n_y = 0
    for k, c in enumerate(ops):
        if c in "XY":
            x_mask |= 1 << k
        if c in "YZ":
            z_mask |= 1 << k
        if c == "Y":
            n_y += 1
    return x_mask, z_mask, n_y


def apply_pauli(state_amp: np.ndarray, ops: str) -> np.ndarray:
    """Return P|psi> for a Pauli string (amplitude-array in, array out)."""
    x_mask, z_mask, n_y = _pauli_masks(ops)
    idx = np.arange(state_amp.size)
    sign = 1 - 2 * (np.bitwise_count(idx & z_mask).astype(np.int64) & 1)
    phased = (1j**n_y) * sign * state_amp
    out = np.empty_like(state_amp)
    out[idx ^ x_mask] = phased
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


def partial_trace(state: StateVector, keep) -> DensityMatrix:
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
    rho = mat @ mat.conj().T
    return DensityMatrix(len(keep), rho)


def fidelity_with_zero(rho: DensityMatrix) -> float:
    """<0...0|rho|0...0>, the top-left entry's real part."""
    return float(rho.entries[0, 0].real)


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("overlap requires equal qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_sum_matrix(terms, n_qubits: int) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum; qubit 0 is the innermost kron factor."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        if term.n_qubits != n_qubits:
            raise ValueError("Pauli string length does not match qubit count")
        mat = np.array([[1.0 + 0j]])
        for c in term.ops:
            mat = np.kron(PAULI_MATRICES[c], mat)
        out += term.coefficient * mat
    return out
