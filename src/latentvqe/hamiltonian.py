"""H2 electronic-structure Hamiltonian on 4 qubits.

Pipeline: closed-form STO-3G integrals over s-type Gaussians -> symmetry
molecular orbitals (no SCF loop needed for minimal-basis H2) -> second
quantization over 4 spin orbitals -> Jordan-Wigner Pauli strings. The
exact-diagonalization oracle runs cyclic Jacobi rotations on the dense
16x16 matrix. What does not depend on the bond length (the primitive-pair
constants of the integrals, the Jordan-Wigner products of ladder operators)
is built once per process, on first use.

Spin-orbital / qubit ordering (blocked spin): qubit 0 = sigma_g up,
qubit 1 = sigma_u up, qubit 2 = sigma_g down, qubit 3 = sigma_u down.
Internals are atomic units; bond lengths at the API are Angstrom.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .artifacts import SCHEMA_VERSION, require_schema
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

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 0 least significant; built on first use, read-only."""
        m = pauli_sum_matrix(self.terms, self.n_qubits)
        m.flags.writeable = False
        return m


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal tolerance."""


def _boys_f0(x: float) -> float:
    # F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)); series near 0 avoids 0/0.
    if x < 1e-12:
        return 1.0 - x / 3.0
    return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


def _prim_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


@functools.cache
def _sto3g_table():
    """Distance-independent STO-3G constants, built on first use.

    Per primitive pair (i, j), in loop order: (a_i, a_j, p, mu, c_i c_j (pi/p)^1.5,
    c_i c_j mu, (pi/p)^1.5, c_i c_j 2pi/p); per quartet, rows of
    c_i c_j c_k c_l pref and pq/(p+q). Each product keeps the left-to-right
    association of the straight-line formulas, so the integrals are bit-identical.
    """
    exps = _STO3G_EXPONENTS
    raw = [c * _prim_norm(a) for c, a in zip(_STO3G_COEFFS, exps)]
    # Renormalize the contracted AO to <chi|chi> = 1.
    self_ov = sum(
        ci * cj * (math.pi / (ai + aj)) ** 1.5
        for ci, ai in zip(raw, exps)
        for cj, aj in zip(raw, exps)
    )
    prims = [(c / math.sqrt(self_ov), a) for c, a in zip(raw, exps)]
    base = [(ci, cj, ai, aj, ai + aj, ai * aj / (ai + aj)) for ci, ai in prims for cj, aj in prims]
    pairs = [
        (ai, aj, p, mu, ci * cj * (math.pi / p) ** 1.5, ci * cj * mu, (math.pi / p) ** 1.5,
         ci * cj * (2.0 * math.pi / p))
        for ci, cj, ai, aj, p, mu in base
    ]
    quartets = [
        ([ci * cj * ck * cl * (2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q)))
          for ck, cl, _, _, q, _ in base],
         [p * q / (p + q) for *_, q, _ in base])
        for ci, cj, _, _, p, _ in base
    ]
    return pairs, quartets


def sto3g_integrals(bond_length: float) -> MolecularIntegrals:
    """Contracted STO-3G integrals for H2, transformed to the g/u MO basis."""
    if not 0.2 <= bond_length <= 5.0:
        raise ValueError(f"bond length {bond_length} outside supported [0.2, 5.0] Angstrom")
    r = bond_length * ANGSTROM_TO_BOHR
    centers = (0.0, r)
    pairs, quartets = _sto3g_table()
    # Per centre pair (A, B) and primitive pair: exp(-mu (A - B)^2) and the
    # Gaussian product centre P = (a_i A + a_j B) / p.
    gauss = {
        (A, B): ([math.exp(-mu * (A - B) ** 2) for _, _, _, mu, *_ in pairs],
                 [(ai * A + aj * B) / p for ai, aj, p, *_ in pairs])
        for A in centers for B in centers
    }

    def one_body(A: float, B: float) -> float:
        t = v = 0.0
        r2 = (A - B) ** 2
        for (_, _, p, mu, _, ccmu, s0, cc2pi), e, P in zip(pairs, *gauss[A, B]):
            t += ccmu * (3.0 - 2.0 * mu * r2) * (s0 * e)
            pref = cc2pi * e
            for C in centers:  # both nuclei have Z = 1
                v -= pref * _boys_f0(p * (P - C) ** 2)
        return t + v

    def eri(A: float, B: float, C: float, D: float) -> float:
        val = 0.0
        (kab_all, p_all), (kcd_all, q_all) = gauss[A, B], gauss[C, D]
        for kab, P, (k_row, rho_row) in zip(kab_all, p_all, quartets):
            for kcd, Q, k, rho in zip(kcd_all, q_all, k_row, rho_row):
                val += k * kab * kcd * _boys_f0(rho * (P - Q) ** 2)
        return val

    s12 = 0.0
    for (_, _, _, _, ov, *_), e in zip(pairs, gauss[0.0, r][0]):
        s12 += ov * e
    h_ao = np.empty((2, 2))
    for mu_i, A in enumerate(centers):
        for nu, B in enumerate(centers):
            h_ao[mu_i, nu] = one_body(A, B)

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


@functools.cache
def _one_body_op(p: int, q: int, n: int) -> MappingProxyType:
    """a+_p a_q as Pauli strings; distance-independent, built once per process."""
    return MappingProxyType(_op_product(_ladder(p, n, True), _ladder(q, n, False)))


@functools.cache
def _two_body_op(p: int, q: int, r: int, s: int, n: int) -> MappingProxyType:
    """a+_p a+_q a_s a_r as Pauli strings; distance-independent, built once per process."""
    op = _op_product(_ladder(p, n, True), _ladder(q, n, True))
    op = _op_product(op, _ladder(s, n, False))
    return MappingProxyType(_op_product(op, _ladder(r, n, False)))


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
                accumulate(_one_body_op(p, q, n), h_so[p, q])
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    w = v_so[p, q, r, s]
                    if abs(w) > 0:
                        accumulate(_two_body_op(p, q, r, s, n), 0.5 * w)
    return total


def build_qubit_hamiltonian(integrals: MolecularIntegrals) -> QubitHamiltonian:
    """4-qubit Jordan-Wigner Hamiltonian with merged terms and pruned coefficients."""
    n_spin = 4
    spatial, spin = np.arange(n_spin) % 2, np.arange(n_spin) // 2
    same = spin[:, None] == spin[None, :]
    h_so = np.where(same, integrals.h_mo[np.ix_(spatial, spatial)], 0.0)
    # <ij|kl> physicists' = (ik|jl) chemists' with matching spins.
    chem = integrals.g_mo[np.ix_(spatial, spatial, spatial, spatial)].transpose(0, 2, 1, 3)
    v_so = np.where(same[:, None, :, None] & same[None, :, None, :], chem, 0.0)

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
    evals, evecs = jacobi_eigh(hamiltonian.matrix)
    vec = evecs[:, 0]
    # Deterministic global phase: largest-magnitude component real positive.
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[k]) / abs(vec[k]))
    vec = vec / np.linalg.norm(vec)
    return {
        "energy": float(evals[0]),
        "eigenvector": StateVector(hamiltonian.n_qubits, vec),
    }


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
    n_qubits = int(doc["n_qubits"])
    terms = tuple(PauliString(t["pauli"], float(t["coeff"])) for t in doc["terms"])
    if any(t.n_qubits != n_qubits for t in terms):
        raise ValueError(f"a Pauli string does not act on n_qubits = {n_qubits} qubits")
    return QubitHamiltonian(n_qubits, terms, float(doc["bond_length_angstrom"]))


def hamiltonian_from_json(text: str) -> QubitHamiltonian:
    return hamiltonian_from_dict(json.loads(text))
