"""H2 electronic-structure Hamiltonian on 4 qubits.

Pipeline: closed-form STO-3G integrals over s-type Gaussians -> symmetry
molecular orbitals (no SCF loop needed for minimal-basis H2) -> second
quantization over 4 spin orbitals -> Jordan-Wigner Pauli strings. The
exact-diagonalization oracle runs cyclic Jacobi rotations on the dense
16x16 matrix.

Spin-orbital / qubit ordering (blocked spin): qubit 0 = sigma_g up,
qubit 1 = sigma_u up, qubit 2 = sigma_g down, qubit 3 = sigma_u down.
Internals are atomic units; bond lengths at the API are Angstrom.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import SCHEMA_VERSION, canonical_json, require_schema
from .statevector import PauliString, StateVector, pauli_sum_matrix

ANGSTROM_TO_BOHR = 1.8897259886
COEFF_PRUNE_TOL = 1e-12

# STO-3G hydrogen: zeta-scaled primitive exponents and contraction coefficients.
_STO3G_EXPONENTS = (3.42525091, 0.62391373, 0.16885540)
_STO3G_COEFFS = (0.15432897, 0.53532814, 0.44463454)


@dataclass(frozen=True)
class MolecularIntegrals:
    bond_length: float          # Angstrom
    overlap_s12: float
    h_mo: np.ndarray            # 2x2 one-electron MO integrals, Hartree
    g_mo: np.ndarray            # 2x2x2x2 two-electron MO integrals, chemists' (pq|rs)
    e_nuclear: float            # Hartree


@dataclass(frozen=True)
class QubitHamiltonian:
    n_qubits: int
    terms: tuple[PauliString, ...]
    bond_length: float


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal tolerance."""


def _boys_f0(x: float) -> float:
    # F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)); series near 0 avoids 0/0.
    if x < 1e-12:
        return 1.0 - x / 3.0
    return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


def _prim_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


def sto3g_integrals(bond_length: float) -> MolecularIntegrals:
    """Contracted STO-3G integrals for H2, transformed to the g/u MO basis."""
    if not 0.2 <= bond_length <= 5.0:
        raise ValueError(f"bond length {bond_length} outside supported [0.2, 5.0] Angstrom")
    r = bond_length * ANGSTROM_TO_BOHR
    centers = (0.0, r)

    exps = _STO3G_EXPONENTS
    raw = [c * _prim_norm(a) for c, a in zip(_STO3G_COEFFS, exps)]
    # Renormalize the contracted AO to <chi|chi> = 1.
    self_ov = sum(
        ci * cj * (math.pi / (ai + aj)) ** 1.5
        for ci, ai in zip(raw, exps)
        for cj, aj in zip(raw, exps)
    )
    coefs = [c / math.sqrt(self_ov) for c in raw]

    def overlap(A: float, B: float) -> float:
        s = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                s += ci * cj * (math.pi / p) ** 1.5 * math.exp(-mu * (A - B) ** 2)
        return s

    def kinetic(A: float, B: float) -> float:
        t = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                r2 = (A - B) ** 2
                s = (math.pi / p) ** 1.5 * math.exp(-mu * r2)
                t += ci * cj * mu * (3.0 - 2.0 * mu * r2) * s
        return t

    def nuclear(A: float, B: float) -> float:
        v = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                P = (ai * A + aj * B) / p
                pref = ci * cj * (2.0 * math.pi / p) * math.exp(-mu * (A - B) ** 2)
                for C in centers:  # both nuclei have Z = 1
                    v -= pref * _boys_f0(p * (P - C) ** 2)
        return v

    def eri(A: float, B: float, C: float, D: float) -> float:
        val = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                P = (ai * A + aj * B) / p
                kab = math.exp(-ai * aj / p * (A - B) ** 2)
                for ck, ak in zip(coefs, exps):
                    for cl, al in zip(coefs, exps):
                        q = ak + al
                        Q = (ak * C + al * D) / q
                        kcd = math.exp(-ak * al / q * (C - D) ** 2)
                        pref = 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
                        val += (
                            ci * cj * ck * cl * pref * kab * kcd
                            * _boys_f0(p * q / (p + q) * (P - Q) ** 2)
                        )
        return val

    s12 = overlap(centers[0], centers[1])
    h_ao = np.empty((2, 2))
    for mu_i, A in enumerate(centers):
        for nu, B in enumerate(centers):
            h_ao[mu_i, nu] = kinetic(A, B) + nuclear(A, B)

    g_ao = np.empty((2, 2, 2, 2))
    for i, A in enumerate(centers):
        for j, B in enumerate(centers):
            for k, C in enumerate(centers):
                for l, D in enumerate(centers):
                    g_ao[i, j, k, l] = eri(A, B, C, D)

    # Symmetry MOs: sigma_g = (1 + 2)/sqrt(2(1+S)), sigma_u = (1 - 2)/sqrt(2(1-S)).
    cg = 1.0 / math.sqrt(2.0 * (1.0 + s12))
    cu = 1.0 / math.sqrt(2.0 * (1.0 - s12))
    cmat = np.array([[cg, cu], [cg, -cu]])

    h_mo = cmat.T @ h_ao @ cmat
    g_mo = _transform_eri(g_ao, cmat)

    return MolecularIntegrals(
        bond_length=bond_length,
        overlap_s12=s12,
        h_mo=h_mo,
        g_mo=g_mo,
        e_nuclear=1.0 / r,
    )


def _transform_eri(g_ao: np.ndarray, c: np.ndarray) -> np.ndarray:
    g = np.einsum("up,uvls->pvls", c, g_ao)
    g = np.einsum("vq,pvls->pqls", c, g)
    g = np.einsum("lr,pqls->pqrs", c, g)
    g = np.einsum("st,pqrs->pqrt", c, g)
    return g


# --- Jordan-Wigner construction --------------------------------------------

_PAULI_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _string_product(a: str, b: str) -> tuple[complex, str]:
    phase: complex = 1
    out = []
    for ca, cb in zip(a, b):
        ph, c = _PAULI_PRODUCT[(ca, cb)]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


def _op_product(a: dict, b: dict) -> dict:
    out: dict[str, complex] = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            ph, s = _string_product(sa, sb)
            out[s] = out.get(s, 0) + ca * cb * ph
    return out


def _ladder(p: int, n: int, create: bool) -> dict:
    # a_p   = Z_0..Z_{p-1} (X_p + iY_p)/2 ; a+_p uses (X_p - iY_p)/2.
    prefix = "Z" * p
    suffix = "I" * (n - p - 1)
    sign = -1j if create else 1j
    return {prefix + "X" + suffix: 0.5, prefix + "Y" + suffix: 0.5 * sign}


def jordan_wigner_terms(h_so: np.ndarray, v_so: np.ndarray, e_nuc: float) -> dict:
    """Map sum h_pq a+_p a_q + 1/2 sum <pq|rs> a+_p a+_q a_s a_r + E_nuc to Pauli strings."""
    n = h_so.shape[0]
    total: dict[str, complex] = {"I" * n: complex(e_nuc)}

    def accumulate(op: dict, weight: complex):
        for s, c in op.items():
            total[s] = total.get(s, 0) + weight * c

    for p in range(n):
        for q in range(n):
            if abs(h_so[p, q]) > 0:
                accumulate(_op_product(_ladder(p, n, True), _ladder(q, n, False)), h_so[p, q])
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    w = v_so[p, q, r, s]
                    if abs(w) > 0:
                        op = _op_product(_ladder(p, n, True), _ladder(q, n, True))
                        op = _op_product(op, _ladder(s, n, False))
                        op = _op_product(op, _ladder(r, n, False))
                        accumulate(op, 0.5 * w)
    return total


def build_qubit_hamiltonian(integrals: MolecularIntegrals) -> QubitHamiltonian:
    """4-qubit Jordan-Wigner Hamiltonian with merged terms and pruned coefficients."""
    n_spin = 4
    spatial = lambda i: i % 2
    spin = lambda i: i // 2

    h_so = np.zeros((n_spin, n_spin))
    for i in range(n_spin):
        for j in range(n_spin):
            if spin(i) == spin(j):
                h_so[i, j] = integrals.h_mo[spatial(i), spatial(j)]

    # <ij|kl> physicists' = (ik|jl) chemists' with matching spins.
    v_so = np.zeros((n_spin,) * 4)
    for i in range(n_spin):
        for j in range(n_spin):
            for k in range(n_spin):
                for l in range(n_spin):
                    if spin(i) == spin(k) and spin(j) == spin(l):
                        v_so[i, j, k, l] = integrals.g_mo[
                            spatial(i), spatial(k), spatial(j), spatial(l)
                        ]

    raw = jordan_wigner_terms(h_so, v_so, integrals.e_nuclear)
    terms = []
    for ops in sorted(raw):
        coeff = raw[ops]
        if abs(coeff.imag) > 1e-10:
            raise ValueError(f"non-Hermitian JW coefficient {coeff} on {ops}")
        if abs(coeff.real) >= COEFF_PRUNE_TOL:
            terms.append(PauliString(ops, float(coeff.real)))
    return QubitHamiltonian(n_qubits=n_spin, terms=tuple(terms), bond_length=integrals.bond_length)


def hamiltonian_for_distance(bond_length: float) -> QubitHamiltonian:
    return build_qubit_hamiltonian(sto3g_integrals(bond_length))


def dense_matrix(hamiltonian: QubitHamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n matrix; qubit 0 is the least-significant kron factor."""
    return pauli_sum_matrix(hamiltonian.terms, hamiltonian.n_qubits)


# --- exact diagonalization oracle -------------------------------------------

def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 200):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, column eigenvectors). Raises
    JacobiConvergenceError if the off-diagonal Frobenius norm does not fall
    below `tol` within `max_sweeps` sweeps.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("jacobi_eigh requires a Hermitian matrix")
    v = np.eye(n, dtype=complex)

    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off < tol:
            order = np.argsort(np.diag(a).real)
            return np.diag(a).real[order], v[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < tol / (n * n):
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / abs(apq)
                # Column rotation A <- J+ A J with J[p,p]=c, J[p,q]=s*phase,
                # J[q,p]=-s*conj(phase), J[q,q]=c; zeroes A[p,q].
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(phase) * vq
                v[:, q] = s * phase * vp + c * vq
    raise JacobiConvergenceError(
        f"off-diagonal norm did not reach {tol} in {max_sweeps} sweeps"
    )


def exact_ground_energy(hamiltonian: QubitHamiltonian) -> dict:
    """Lowest eigenvalue and eigenvector of the dense Hamiltonian matrix."""
    if hamiltonian.n_qubits > 6:
        raise ValueError("dense diagonalization is limited to 6 qubits")
    evals, evecs = jacobi_eigh(dense_matrix(hamiltonian))
    vec = evecs[:, 0]
    # Deterministic global phase: largest-magnitude component real positive.
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[k]) / abs(vec[k]))
    vec = vec / np.linalg.norm(vec)
    return {
        "energy": float(evals[0]),
        "eigenvector": StateVector(hamiltonian.n_qubits, vec),
    }


def hartree_fock_state() -> StateVector:
    """|0101>: sigma_g up (qubit 0) and sigma_g down (qubit 2) occupied."""
    amp = np.zeros(16, dtype=complex)
    amp[0b0101] = 1.0
    return StateVector(4, amp)


# --- serialization ----------------------------------------------------------

_ORDERING_NOTE = "pauli characters act on qubits 0..n-1 left to right; qubit 0 is the least-significant basis bit"


def hamiltonian_to_dict(h: QubitHamiltonian) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "bond_length_angstrom": h.bond_length,
        "n_qubits": h.n_qubits,
        "ordering": _ORDERING_NOTE,
        "terms": [{"pauli": t.ops, "coeff": t.coefficient} for t in h.terms],
    }


def hamiltonian_from_dict(doc: dict) -> QubitHamiltonian:
    require_schema(doc, "hamiltonian")
    terms = tuple(PauliString(t["pauli"], float(t["coeff"])) for t in doc["terms"])
    return QubitHamiltonian(int(doc["n_qubits"]), terms, float(doc["bond_length_angstrom"]))


def hamiltonian_to_json(h: QubitHamiltonian) -> str:
    return canonical_json(hamiltonian_to_dict(h))


def hamiltonian_from_json(text: str) -> QubitHamiltonian:
    return hamiltonian_from_dict(json.loads(text))
