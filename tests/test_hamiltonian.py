import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentvqe import hamiltonian
from latentvqe.artifacts import canonical_json
from latentvqe.hamiltonian import (
    _STO3G_COEFFS, _STO3G_EXPONENTS, ANGSTROM_TO_BOHR, COEFF_PRUNE_TOL, JacobiConvergenceError,
    QubitHamiltonian, _boys_classes, _ladder, _prim_norm, _transform_eri,
    build_qubit_hamiltonian, exact_ground_energy, hamiltonian_for_distance,
    hamiltonian_from_json, hamiltonian_to_dict, jacobi_eigh, sto3g_integrals,
)
from latentvqe.statevector import PauliString, StateVector, expectation, pauli_terms
from test_properties import kronecker_pauli_sum

GRID = np.linspace(0.3, 2.85, 25)
# 201 bond lengths over the supported range, both ends included.
FULL_RANGE = np.linspace(0.2, 5.0, 201)


def hartree_fock_state() -> StateVector:
    """|0101>: sigma_g up (qubit 0) and sigma_g down (qubit 2) occupied."""
    amp = np.zeros(16, dtype=complex)
    amp[0b0101] = 1.0
    return StateVector(4, amp)


# --- reference build: the straight-line code the tables replace -------------

def reference_boys_f0(x: float) -> float:
    # F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)); series near 0 avoids 0/0.
    if x < 1e-12:
        return 1.0 - x / 3.0
    return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


def reference_integrals(bond_length: float):
    """STO-3G integrals with every primitive constant recomputed in the loops."""
    r = bond_length * ANGSTROM_TO_BOHR
    centers = (0.0, r)
    exps = _STO3G_EXPONENTS
    raw = [c * _prim_norm(a) for c, a in zip(_STO3G_COEFFS, exps)]
    self_ov = sum(
        ci * cj * (math.pi / (ai + aj)) ** 1.5
        for ci, ai in zip(raw, exps)
        for cj, aj in zip(raw, exps)
    )
    coefs = [c / math.sqrt(self_ov) for c in raw]

    def overlap(A, B):
        s = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                s += ci * cj * (math.pi / p) ** 1.5 * math.exp(-mu * (A - B) ** 2)
        return s

    def kinetic(A, B):
        t = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                r2 = (A - B) ** 2
                s = (math.pi / p) ** 1.5 * math.exp(-mu * r2)
                t += ci * cj * mu * (3.0 - 2.0 * mu * r2) * s
        return t

    def nuclear(A, B):
        v = 0.0
        for ci, ai in zip(coefs, exps):
            for cj, aj in zip(coefs, exps):
                p = ai + aj
                mu = ai * aj / p
                P = (ai * A + aj * B) / p
                pref = ci * cj * (2.0 * math.pi / p) * math.exp(-mu * (A - B) ** 2)
                for C in centers:
                    v -= pref * reference_boys_f0(p * (P - C) ** 2)
        return v

    def eri(A, B, C, D):
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
                            * reference_boys_f0(p * q / (p + q) * (P - Q) ** 2)
                        )
        return val

    s12 = overlap(*centers)
    h_ao = np.array([[kinetic(A, B) + nuclear(A, B) for B in centers] for A in centers])
    g_ao = np.empty((2, 2, 2, 2))
    for idx in np.ndindex(2, 2, 2, 2):
        g_ao[idx] = eri(*(centers[i] for i in idx))
    cg = 1.0 / math.sqrt(2.0 * (1.0 + s12))
    cu = 1.0 / math.sqrt(2.0 * (1.0 - s12))
    cmat = np.array([[cg, cu], [cg, -cu]])
    return s12, cmat.T @ h_ao @ cmat, _transform_eri(g_ao, cmat), 1.0 / r


def spin_orbital_tensors(h_mo, g_mo):
    """h_so and physicists' <ij|kl> = (ik|jl) on blocked-spin orbitals (spatial i % 2, spin i // 2)."""
    h_so = np.zeros((4, 4))
    v_so = np.zeros((4, 4, 4, 4))
    for i, j, k, l in np.ndindex(4, 4, 4, 4):
        if i // 2 == j // 2:
            h_so[i, j] = h_mo[i % 2, j % 2]
        if i // 2 == k // 2 and j // 2 == l // 2:
            v_so[i, j, k, l] = g_mo[i % 2, k % 2, j % 2, l % 2]
    return h_so, v_so


def reference_jordan_wigner_terms(h_so, v_so, e_nuc):
    """The JW map with every ladder-operator product recomputed per call."""
    n = h_so.shape[0]
    total = {"I" * n: complex(e_nuc)}

    def accumulate(ladders, weight):
        for s, c in pauli_terms(functools.reduce(np.matmul, ladders), n).items():
            total[s] = total.get(s, 0) + weight * c

    for p in range(n):
        for q in range(n):
            if abs(h_so[p, q]) > 0:
                accumulate([_ladder(p, n, True), _ladder(q, n, False)], h_so[p, q])
    for p, q, r, s in np.ndindex(n, n, n, n):
        w = v_so[p, q, r, s]
        if abs(w) > 0:
            ladders = [_ladder(i, n, c) for i, c in zip((p, q, s, r), (True, True, False, False))]
            accumulate(ladders, 0.5 * w)
    return total


def occupation_lowering(p, n):
    """a_p on the 2^n occupation-number states, with no Pauli algebra.

    Bit p of a basis index is the occupation of spin orbital p; a_p empties
    orbital p with the sign (-1)^(number of occupied orbitals below p).
    """
    dim = 1 << n
    a = np.zeros((dim, dim))
    for state in range(dim):
        if state >> p & 1:
            a[state ^ (1 << p), state] = (-1) ** bin(state & ((1 << p) - 1)).count("1")
    return a


def fock_space_matrix(h_so, v_so, e_nuc):
    """H on the 2^n occupation-number states (`occupation_lowering`), with no Pauli algebra."""
    n = h_so.shape[0]
    dim = 1 << n
    lower = [occupation_lowering(p, n) for p in range(n)]
    raise_ = [a.T for a in lower]
    h = e_nuc * np.eye(dim)
    for p, q in np.ndindex(n, n):
        h += h_so[p, q] * raise_[p] @ lower[q]
    for p, q, r, s in np.ndindex(n, n, n, n):
        h += 0.5 * v_so[p, q, r, s] * raise_[p] @ raise_[q] @ lower[s] @ lower[r]
    return h


def assert_integrals_bit_identical(r: float):
    s12, h_mo, g_mo, e_nuc = reference_integrals(r)
    ints = sto3g_integrals(r)
    assert ints.overlap_s12 == s12
    assert ints.e_nuclear == e_nuc
    assert ints.h_mo.tobytes() == h_mo.tobytes()
    assert ints.g_mo.tobytes() == g_mo.tobytes()


def assert_terms_bit_identical(r: float):
    _, h_mo, g_mo, e_nuc = reference_integrals(r)
    raw = reference_jordan_wigner_terms(*spin_orbital_tensors(h_mo, g_mo), e_nuc)
    assert all(abs(c.imag) <= 1e-10 for c in raw.values())
    expected = {ops: float(c.real) for ops, c in raw.items() if abs(c.real) >= COEFF_PRUNE_TOL}
    terms = hamiltonian_for_distance(r).terms
    assert {t.ops: t.coefficient for t in terms} == expected
    assert [t.ops for t in terms] == sorted(expected)


class TestAgainstReferenceBuild:
    def test_integrals_bit_identical(self):
        for r in FULL_RANGE:
            assert_integrals_bit_identical(float(r))

    def test_terms_bit_identical(self):
        for r in FULL_RANGE:
            assert_terms_bit_identical(float(r))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 5.0))
    def test_random_bond_lengths_bit_identical(self, r):
        assert_integrals_bit_identical(r)
        assert_terms_bit_identical(r)

    def test_matrix_bit_identical_to_kronecker_build(self):
        for r in FULL_RANGE:
            h = hamiltonian_for_distance(float(r))
            assert h.matrix.tobytes() == kronecker_pauli_sum(h.terms, 4).tobytes()

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.735, 1.9, 5.0])
    def test_jordan_wigner_matches_fock_space_oracle(self, r):
        ints = sto3g_integrals(r)
        h_so, v_so = spin_orbital_tensors(ints.h_mo, ints.g_mo)
        fock = fock_space_matrix(h_so, v_so, ints.e_nuclear)
        assert np.max(np.abs(hamiltonian_for_distance(r).matrix - fock)) < 1e-12

    def test_cached_tables_survive_other_distances(self):
        first = hamiltonian_for_distance(0.6)
        hamiltonian_for_distance(3.7)
        third = hamiltonian_for_distance(0.6)
        assert [(t.ops, t.coefficient) for t in first.terms] == \
            [(t.ops, t.coefficient) for t in third.terms]
        np.testing.assert_array_equal(first.matrix, third.matrix)

    def test_dense_matrix_built_once_and_read_only(self):
        h = hamiltonian_for_distance(1.1)
        m = h.matrix
        assert h.matrix is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


class TestLadder:
    # the dense JW ladders from which the Hamiltonian and the UCCSD generators are read
    N = 4

    def test_canonical_anticommutation_relations(self):
        # {a_p, a+_q} = delta_pq I and {a_p, a_q} = 0, exactly: the Z strings give the signs
        eye = np.eye(1 << self.N)
        for p, q in np.ndindex(self.N, self.N):
            a_p, a_q, c_q = (_ladder(i, self.N, c) for i, c in ((p, False), (q, False), (q, True)))
            assert np.array_equal(a_p @ c_q + c_q @ a_p, eye * (p == q))
            assert not np.any(a_p @ a_q + a_q @ a_p)

    @pytest.mark.parametrize("p", range(N))
    def test_matches_occupation_number_operator(self, p):
        a = _ladder(p, self.N, False)
        assert np.array_equal(a, occupation_lowering(p, self.N))
        assert np.array_equal(_ladder(p, self.N, True), a.conj().T)

    def test_cached_and_read_only(self):
        a = _ladder(1, self.N, True)
        assert _ladder(1, self.N, True) is a
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def boys_arguments(bond_length: float):
    """Straight-line Boys arguments: nuclear (9, 2, 4) and ERI (9, 9, 4, 4), and the points z.

    Axes are (primitive pair i j, nucleus, centre pair A B) and (pair, pair,
    centre pair, centre pair), in the loop order of `reference_integrals`;
    z lists P per (centre pair, primitive pair), then both nuclei.
    """
    r = bond_length * ANGSTROM_TO_BOHR
    exps, centers = _STO3G_EXPONENTS, (0.0, r)
    prims = [(ai, aj, ai + aj) for ai in exps for aj in exps]
    ab = [(A, B) for A in centers for B in centers]
    P = [[(ai * A + aj * B) / p for A, B in ab] for ai, aj, p in prims]
    nuclear = np.array([[[p * (P[m][u] - C) ** 2 for u in range(4)] for C in centers]
                        for m, (_, _, p) in enumerate(prims)])
    eri = np.array([[[[p * q / (p + q) * (P[m][u] - P[n][v]) ** 2 for v in range(4)]
                      for u in range(4)] for n, (_, _, q) in enumerate(prims)]
                    for m, (_, _, p) in enumerate(prims)])
    z = np.array([P[m][u] for u in range(4) for m in range(9)] + list(centers))
    return nuclear, eri, z


def assert_boys_classes_bit_equal(bond_length: float):
    c = _boys_classes()
    nuclear, eri, z = boys_arguments(bond_length)
    args = np.concatenate((nuclear.ravel(), eri.ravel()))
    classes = np.concatenate((c["nuclear"].ravel(), c["eri"].ravel()))
    first = np.unique(classes, return_index=True)[1]
    # every member is bit-equal to its class's first member ...
    assert args[first][classes].tobytes() == args.tobytes()
    # ... which is the argument the build computes for the class
    d = (z[c["left"]] - z[c["right"]]).tolist()
    built = np.array([s * v ** 2 for s, v in zip(c["scale"], d)])
    assert built.tobytes() == args[first].tobytes()


class TestBoysClasses:
    def test_class_counts_and_read_only(self):
        c = _boys_classes()
        assert len(np.unique(c["nuclear"])) == 42
        assert len(np.unique(c["eri"])) == 231
        assert len(c["scale"]) == len(c["left"]) == len(c["right"]) == 42 + 231
        assert isinstance(c["scale"], tuple)
        assert all(not c[k].flags.writeable for k in ("left", "right", "nuclear", "eri"))

    def test_members_bit_equal_on_acceptance_grid(self):
        for r in np.linspace(0.3, 2.85, 100):
            assert_boys_classes_bit_equal(float(r))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.2, 5.0))
    def test_members_bit_equal_on_random_bond_lengths(self, r):
        assert_boys_classes_bit_equal(r)


class TestIntegrals:
    def test_overlap_in_unit_interval_and_decreasing(self):
        values = [sto3g_integrals(r).overlap_s12 for r in (0.4, 0.8, 1.5, 2.5, 4.0)]
        assert all(0.0 < s < 1.0 for s in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nuclear_repulsion_at_one_bohr(self):
        ints = sto3g_integrals(1.0 / ANGSTROM_TO_BOHR)
        assert ints.e_nuclear == pytest.approx(1.0, abs=1e-12)

    def test_h_mo_symmetric(self):
        ints = sto3g_integrals(0.9)
        assert np.allclose(ints.h_mo, ints.h_mo.T, atol=1e-12)

    def test_g_mo_eightfold_symmetry(self):
        for r in GRID[::6]:
            g = sto3g_integrals(float(r)).g_mo
            assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-12)
            assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-12)
            assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-12)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            sto3g_integrals(0.1)
        with pytest.raises(ValueError):
            sto3g_integrals(5.5)


class TestQubitHamiltonian:
    def test_compact_term_structure(self):
        h = hamiltonian_for_distance(0.735)
        assert h.n_qubits == 4
        assert len(h.terms) <= 15
        assert all(len(t.ops) == 4 for t in h.terms)

    def test_identity_term_carries_nuclear_repulsion(self):
        ints = sto3g_integrals(0.9)
        shifted = dataclasses.replace(ints, e_nuclear=ints.e_nuclear + 0.25)
        c0 = dict((t.ops, t.coefficient) for t in build_qubit_hamiltonian(ints).terms)
        c1 = dict((t.ops, t.coefficient) for t in build_qubit_hamiltonian(shifted).terms)
        assert c1["IIII"] - c0["IIII"] == pytest.approx(0.25, abs=1e-14)

    def test_dense_matrix_hermitian(self):
        m = hamiltonian_for_distance(1.1).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestExactGroundEnergy:
    def test_single_z_term(self):
        h = QubitHamiltonian(4, (PauliString("ZIII", 1.0),), 0.0)
        assert exact_ground_energy(h)["energy"] == pytest.approx(-1.0, abs=1e-12)

    def test_identity_scalar(self):
        h = QubitHamiltonian(4, (PauliString("IIII", -0.42),), 0.0)
        assert exact_ground_energy(h)["energy"] == pytest.approx(-0.42, abs=1e-12)

    def test_equilibrium_energy_and_curve_shape(self):
        energies = np.array(
            [exact_ground_energy(hamiltonian_for_distance(float(r)))["energy"] for r in GRID]
        )
        i_min = int(np.argmin(energies))
        assert 0.70 <= GRID[i_min] <= 0.78
        assert -1.15 <= energies[i_min] <= -1.12
        # single interior minimum, then a flat repulsive tail ~0.2 Ha above
        assert np.all(np.diff(energies[:i_min + 1]) < 0)
        assert np.all(np.diff(energies[i_min:]) > 0)
        e4 = exact_ground_energy(hamiltonian_for_distance(4.0))["energy"]
        assert e4 - energies[i_min] == pytest.approx(0.2, abs=0.05)

    def test_flat_dissociation_tail(self):
        e45 = exact_ground_energy(hamiltonian_for_distance(4.5))["energy"]
        e50 = exact_ground_energy(hamiltonian_for_distance(5.0))["energy"]
        assert abs(e50 - e45) < 5e-3

    def test_variational_lower_bound(self):
        h = hamiltonian_for_distance(1.3)
        ground = exact_ground_energy(h)["energy"]
        rng = np.random.default_rng(0)
        for _ in range(25):
            amp = rng.normal(size=16) + 1j * rng.normal(size=16)
            s = StateVector(4, amp / np.linalg.norm(amp))
            assert expectation(s, h.terms) >= ground - 1e-10


class TestScipyCrossCheck:
    def test_scipy_eigh_matches_jacobi_oracle_on_acceptance_grid(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for r in np.linspace(0.3, 2.85, 100):
            h = hamiltonian_for_distance(float(r))
            lowest = scipy_linalg.eigh(h.matrix, eigvals_only=True)[0]
            assert exact_ground_energy(h)["energy"] == pytest.approx(lowest, abs=1e-10)


class TestHartreeFock:
    def test_is_a_basis_state(self):
        hf = hartree_fock_state()
        assert np.count_nonzero(hf.amplitudes) == 1
        assert hf.amplitudes[0b0101] == 1.0

    def test_above_ground_energy_everywhere(self):
        hf = hartree_fock_state()
        for r in GRID[::4]:
            h = hamiltonian_for_distance(float(r))
            assert expectation(hf, h.terms) >= exact_ground_energy(h)["energy"] - 1e-10

    def test_correlation_gap_at_equilibrium(self):
        h = hamiltonian_for_distance(0.735)
        gap = expectation(hartree_fock_state(), h.terms) - exact_ground_energy(h)["energy"]
        assert 0.0 < gap < 0.03


class TestJacobi:
    def test_matches_independent_method_on_random_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            m = (m + m.conj().T) / 2
            evals, evecs = jacobi_eigh(m)
            assert np.max(np.abs(evals - np.linalg.eigvalsh(m))) < 1e-9
            assert np.max(np.abs(m @ evecs - evecs @ np.diag(evals))) < 1e-9

    def test_real_symmetric_case(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        m = (m + m.T) / 2
        evals, _ = jacobi_eigh(m.astype(complex))
        assert np.max(np.abs(evals - np.linalg.eigvalsh(m))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        with pytest.raises(JacobiConvergenceError, match="in 1 sweeps"):
            jacobi_eigh(m + m.conj().T)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_before_sweeping(self, bad, recwarn):
        m = np.eye(4, dtype=complex)
        m[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(m)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_qubit_guard(self):
        h = QubitHamiltonian(7, (PauliString("IIIIIII", 1.0),), 0.0)
        with pytest.raises(ValueError):
            exact_ground_energy(h)


class TestSerialization:
    def test_round_trip(self):
        h = hamiltonian_for_distance(0.735)
        text = canonical_json(hamiltonian_to_dict(h))
        back = hamiltonian_from_json(text)
        assert back == h
        assert canonical_json(hamiltonian_to_dict(back)) == text

    def test_schema_mismatch_rejected(self):
        doc = hamiltonian_to_dict(hamiltonian_for_distance(0.9))
        doc["schema_version"] = "other/1"
        with pytest.raises(ValueError, match="schema"):
            hamiltonian_from_json(json.dumps(doc))
