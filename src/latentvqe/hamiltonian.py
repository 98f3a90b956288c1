"""H2 electronic-structure Hamiltonian on 4 qubits.

Pipeline: closed-form STO-3G integrals over s-type Gaussians -> symmetry
molecular orbitals (no SCF loop needed for minimal-basis H2) -> second
quantization over 4 spin orbitals -> Jordan-Wigner Pauli strings. The
exact-diagonalization oracle runs cyclic Jacobi rotations on the dense
16x16 matrix. What does not depend on the bond length (the STO-3G primitive
constants, the classes of bit-equal Boys arguments, the Jordan-Wigner map as
a gather table) is built once per process, on first use.

Spin-orbital / qubit ordering (blocked spin): qubit 0 = sigma_g up,
qubit 1 = sigma_u up, qubit 2 = sigma_g down, qubit 3 = sigma_u down.
Internals are atomic units; bond lengths at the API are Angstrom.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

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
    """F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)); 1 - x/3 below 1e-12 avoids 0/0."""
    return 1.0 - x / 3.0 if x < 1e-12 else 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


def _prim_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


@functools.cache
def _sto3g_table() -> dict:
    """Distance-independent STO-3G constants as read-only arrays, built on first use.

    Per primitive pair (i, j), in loop order (9,): a_i, a_j, p, mu, c_i c_j (pi/p)^1.5,
    c_i c_j mu, (pi/p)^1.5 and c_i c_j 2pi/p; per quartet of pairs (9, 9):
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
    pairs = np.array([
        (ai, aj, p, mu, ci * cj * (math.pi / p) ** 1.5, ci * cj * mu, (math.pi / p) ** 1.5,
         ci * cj * (2.0 * math.pi / p))
        for ci, cj, ai, aj, p, mu in base
    ])
    quartets = np.array([
        [(ci * cj * ck * cl * (2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))), p * q / (p + q))
         for ck, cl, _, _, q, _ in base]
        for ci, cj, _, _, p, _ in base
    ])
    pairs.flags.writeable = quartets.flags.writeable = False
    names = ("ai", "aj", "p", "mu", "overlap", "ccmu", "s0", "cc2pi")
    return dict(zip(names, pairs.T), k=quartets[..., 0], rho=quartets[..., 1])


@functools.cache
def _boys_classes() -> dict:
    """The Boys arguments of a build in classes of bit-equal members, built on first use.

    An argument is scale * (z[left] - z[right]) ** 2, z = (P per centre pair u and
    primitive pair m at 9 u + m, as in `centre`, nucleus 0, nucleus r). Swapping
    (i, A) <-> (j, B) within a pair keeps P and p to the bit (IEEE + and * commute);
    swapping pair AB <-> CD keeps rho and negates P - Q, and (-d) ** 2 == d ** 2.
    So each of the 42 nuclear and 231 ERI classes is computed once, at its first
    member; "nuclear" (9, 2, 4) and "eri" (9, 9, 4, 4) give each argument's class.
    """
    t = _sto3g_table()
    hu, hm = np.divmod(np.arange(36), 9)   # centre pair and primitive pair of P at 9 u + m
    half = np.minimum(9 * hu + hm, 9 * (hu % 2 * 2 + hu // 2) + hm % 3 * 3 + hm // 3)
    m, c, u = np.indices((9, 2, 4)).reshape(3, -1)
    m1, m2, u1, u2 = np.indices((9, 9, 4, 4)).reshape(4, -1)
    left = np.concatenate((9 * u + m, 9 * u1 + m1))
    right = np.concatenate((36 + c, 9 * u2 + m2))
    ab, cd = half[left[72:]], half[right[72:]]
    keys = np.concatenate((2 * half[left[:72]] + c,
                           72 + 36 * np.minimum(ab, cd) + np.maximum(ab, cd)))
    _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
    out = dict(left=left[first], right=right[first], nuclear=cls[:72].reshape(9, 2, 4),
               eri=cls[72:].reshape(9, 9, 4, 4))
    for arr in out.values():
        arr.flags.writeable = False
    return dict(out, scale=tuple(np.concatenate((t["p"][m], t["rho"][m1, m2]))[first].tolist()))


def sto3g_integrals(bond_length: float) -> MolecularIntegrals:
    """Contracted STO-3G integrals for H2, transformed to the g/u MO basis."""
    if not 0.2 <= bond_length <= 5.0:
        raise ValueError(f"bond length {bond_length} outside supported [0.2, 5.0] Angstrom")
    r = bond_length * ANGSTROM_TO_BOHR
    t = _sto3g_table()
    # Per centre pair (A, B) in loop order (rows) and primitive pair (columns):
    # exp(-mu (A - B)^2) and the Gaussian product centre P = (a_i A + a_j B) / p.
    ab = [(A, B) for A in (0.0, r) for B in (0.0, r)]
    r2 = np.array([(A - B) ** 2 for A, B in ab])
    gauss = np.array([[math.exp(x) for x in (-t["mu"] * d).tolist()] for d in r2.tolist()])
    centre = np.array([(t["ai"] * A + t["aj"] * B) / t["p"] for A, B in ab])

    s12 = 0.0
    for ov, e in zip(t["overlap"].tolist(), gauss[1].tolist()):
        s12 += ov * e

    # One-body terms, (pair, centre pair); the nuclear sum runs over (pair, nucleus),
    # both nuclei with Z = 1. Sums along axis 0 add row after row, in loop order.
    kinetic = (t["ccmu"][:, None] * (3.0 - 2.0 * t["mu"][:, None] * r2)
               * (t["s0"][:, None] * gauss.T))
    # Boys F0 once per class of bit-equal arguments (_boys_classes), then gathered.
    c = _boys_classes()
    z = np.concatenate((centre.ravel(), (0.0, r)))
    d = (z[c["left"]] - z[c["right"]]).tolist()
    f0 = np.array([_boys_f0(s * v ** 2) for s, v in zip(c["scale"], d)])
    nuclear = (t["cc2pi"][:, None] * gauss.T)[:, None, :] * f0[c["nuclear"]]
    h_ao = (kinetic.sum(axis=0) + (-nuclear).reshape(18, 4).sum(axis=0)).reshape(2, 2)

    # Two-electron terms, (pair AB, pair CD, centre pair AB, centre pair CD) flattened
    # to (81, 16): ((k kab) kcd) F0(rho (P - Q)^2), summed over quartets in loop order.
    coef = t["k"][:, :, None, None] * gauss.T[:, None, :, None] * gauss.T[None, :, None, :]
    g_ao = (coef * f0[c["eri"]]).reshape(81, 16).sum(axis=0).reshape(2, 2, 2, 2)

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
def _jw_table():
    """Jordan-Wigner map of E_nuc + sum h_pq a+_p a_q + 1/2 sum <pq|rs> a+_p a+_q a_s a_r.

    A bond length enters only through the weights w = [E_nuc, h_mo, 1/2 g_mo]
    (row-major): spin orbital i is spatial orbital i % 2 with spin i // 2, and
    <pq|rs> = g_mo[p%2, r%2, q%2, s%2]; terms that break spin are zero and left
    out. Returns the sorted Pauli strings and read-only (depth, strings) tables
    of weight index and JW coefficient (real, imaginary): column j lists string
    j's contributions in the order a term-by-term sum adds them, then zero
    padding, so summing w[index] * coefficient row after row gives that sum bit
    for bit (a zero weight adds a zero, which can only flip the sign of a pruned
    zero sum). Built once per process, on first use.
    """
    n = 4
    contributions: dict[str, list] = {"I" * n: [(0, 1.0)]}

    def add(op: dict, k: int):
        for s, c in op.items():
            if c != 0:
                contributions.setdefault(s, []).append((k, c))

    for p, q in itertools.product(range(n), repeat=2):
        if p // 2 == q // 2:
            add(_op_product(_ladder(p, n, True), _ladder(q, n, False)), 1 + 2 * (p % 2) + q % 2)
    for p, q, r, s in itertools.product(range(n), repeat=4):
        if p // 2 == r // 2 and q // 2 == s // 2:
            ladders = [_ladder(i, n, c) for i, c in zip((p, q, s, r), (True, True, False, False))]
            k = 5 + 8 * (p % 2) + 4 * (r % 2) + 2 * (q % 2) + s % 2
            add(functools.reduce(_op_product, ladders), k)
    strings = tuple(sorted(contributions))
    shape = (max(map(len, contributions.values())), len(strings))
    index, re, im = np.zeros(shape, dtype=np.intp), np.zeros(shape), np.zeros(shape)
    for j, s in enumerate(strings):
        for i, (k, c) in enumerate(contributions[s]):
            index[i, j], re[i, j], im[i, j] = k, c.real, c.imag
    index.flags.writeable = re.flags.writeable = im.flags.writeable = False
    return strings, index, re, im


def build_qubit_hamiltonian(integrals: MolecularIntegrals) -> QubitHamiltonian:
    """4-qubit Jordan-Wigner Hamiltonian with merged terms and pruned coefficients."""
    strings, index, re, im = _jw_table()
    w = np.concatenate(([integrals.e_nuclear], integrals.h_mo.ravel(),
                        0.5 * integrals.g_mo.ravel()))[index]
    real, imag = (w * re).sum(axis=0), (w * im).sum(axis=0)
    if np.any(np.abs(imag) > 1e-10):
        j = int(np.argmax(np.abs(imag)))
        raise ValueError(f"non-Hermitian JW coefficient {real[j]} + {imag[j]}i on {strings[j]}")
    terms = tuple(PauliString(s, c) for s, c in zip(strings, real.tolist())
                  if abs(c) >= COEFF_PRUNE_TOL)
    return QubitHamiltonian(n_qubits=4, terms=terms, bond_length=integrals.bond_length)


def hamiltonian_for_distance(bond_length: float) -> QubitHamiltonian:
    return build_qubit_hamiltonian(sto3g_integrals(bond_length))


# --- exact diagonalization oracle -------------------------------------------

JACOBI_TOL = 1e-12         # stop once the off-diagonal Frobenius norm is below this
JACOBI_MAX_SWEEPS = 200    # JacobiConvergenceError after this many sweeps


def jacobi_eigh(matrix: np.ndarray):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, column eigenvectors). Raises ValueError,
    before any sweep, unless the matrix is square, finite and Hermitian, and
    JacobiConvergenceError if the off-diagonal Frobenius norm does not fall
    below JACOBI_TOL within JACOBI_MAX_SWEEPS sweeps.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or not np.isfinite(a).all() or np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("jacobi_eigh requires a finite Hermitian matrix")
    v = np.eye(n, dtype=complex)

    for _ in range(JACOBI_MAX_SWEEPS):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off < JACOBI_TOL:
            order = np.argsort(np.diag(a).real)
            return np.diag(a).real[order], v[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < JACOBI_TOL / (n * n):
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
        f"off-diagonal norm did not reach {JACOBI_TOL} in {JACOBI_MAX_SWEEPS} sweeps"
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
    if not terms or not math.isfinite(sum(abs(t.coefficient) for t in terms)):
        raise ValueError("a Hamiltonian needs at least one term and a finite sum of |coefficients|")
    bond_length = float(doc["bond_length_angstrom"])
    if not math.isfinite(bond_length):
        raise ValueError(f"bond_length_angstrom must be finite, got {bond_length}")
    return QubitHamiltonian(n_qubits, terms, bond_length)


def hamiltonian_from_json(text: str) -> QubitHamiltonian:
    return hamiltonian_from_dict(json.loads(text))
