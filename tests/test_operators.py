"""
Operator utilities: bases, embeddings, the Hermitian exponential, and the
phase-insensitive distance/fidelity helpers everything downstream leans on.
"""

import math

import numpy as np
import pytest

import scipy.linalg

from holosim import operators as op
from holosim.errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    NonUnitaryInputError,
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


class TestBasics:
    def test_ketbra_and_basis_ket(self):
        m = op.ketbra(0, 2)
        assert m.shape == (3, 3)
        assert m[0, 2] == 1.0
        assert np.count_nonzero(m) == 1
        v = op.basis_ket(1)
        assert v[1] == 1.0 and np.count_nonzero(v) == 1

    def test_dagger(self):
        a = np.array([[1.0, 2j], [0.0, 1.0]])
        assert np.allclose(op.dagger(a), a.conj().T)

    def test_hermitian_and_unitary_checks(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3)
        u = random_unitary(rng, 3)
        assert op.is_hermitian(h)
        assert op.is_unitary(u)
        assert not op.is_hermitian(u + np.diag([0, 1j, 0]))
        assert not op.is_unitary(h + np.eye(3) * 5)
        with pytest.raises(NonUnitaryInputError):
            op.require_unitary(2.0 * u)


class TestBases:
    def test_gellmann_orthogonality(self):
        b = op.gellmann_basis()
        assert len(b) == 9
        g = b.gram()
        # Tr(l_i l_j) = 2 delta_ij for i,j >= 1; Tr(l_0^2) = 3
        assert np.allclose(np.diag(g)[1:], 2.0)
        assert np.isclose(g[0, 0], 3.0)
        assert b.max_cross_overlap() < 1e-14

    def test_gellmann_structure(self):
        b = op.gellmann_basis()
        assert np.allclose(b[3], np.diag([1, -1, 0]))
        assert np.allclose(b[8], np.diag([1, 1, -2]) / math.sqrt(3))
        for e in list(b)[1:]:
            assert abs(np.trace(e)) < 1e-14

    def test_process_basis_gf_completeness(self):
        b = op.process_basis_gf()
        assert len(b) == 9
        assert b.labels[0] == "I_gf" and b.labels[-1] == "I_e"
        # I_gf + I_e = identity
        assert np.allclose(b[0] + b[8], np.eye(3))
        # elements stacked as vectors must span all of C^{3x3}
        stack = np.stack([e.reshape(9) for e in b])
        assert np.linalg.matrix_rank(stack) == 9

    def test_process_basis_gf_orthogonal(self):
        b = op.process_basis_gf()
        assert b.max_cross_overlap() < 1e-14
        assert np.allclose(b.hs_norms_squared(), [2, 2, 2, 2, 2, 2, 2, 2, 1])

    def test_qubit_pauli_basis(self):
        b = op.qubit_pauli_basis()
        assert len(b) == 4
        # -iY convention: real matrix [[0,-1],[1,0]]
        assert np.allclose(b[2], np.array([[0, -1], [1, 0]]))
        assert b.max_cross_overlap() < 1e-14

    def test_decompose_round_trip(self):
        rng = np.random.default_rng(11)
        for basis in (op.gellmann_basis(), op.process_basis_gf()):
            for _ in range(5):
                a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                c = op.decompose(a, basis)
                rebuilt = sum(ck * ek for ck, ek in zip(c, basis))
                assert np.allclose(rebuilt, a, atol=1e-12)

    def test_decompose_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            op.decompose(np.eye(2), op.gellmann_basis())

    def test_labels_length_check(self):
        with pytest.raises(DimensionMismatchError):
            op.OperatorBasis("bad", ("a",), (np.eye(2), np.eye(2)))


class TestEmbeddings:
    def test_embed_gf_places_block(self):
        u2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        u3 = op.embed_gf(u2)
        assert u3[1, 1] == 1.0
        assert u3[0, 2] == 1.0 and u3[2, 0] == 1.0
        assert u3[0, 1] == 0.0 and u3[1, 2] == 0.0

    def test_gf_block_inverts_embed(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            u2 = random_unitary(rng, 2)
            assert np.allclose(op.gf_block(op.embed_gf(u2)), u2)


class TestExpm:
    def test_against_series(self):
        # oracle: plain Taylor series of exp(-i H), converged to 1e-14
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hermitian(rng, 3)
            term = np.eye(3, dtype=complex)
            total = np.eye(3, dtype=complex)
            for k in range(1, 60):
                term = term @ (-1j * h) / k
                total = total + term
            assert np.max(np.abs(op.expm_hermitian(h) - total)) < 1e-12

    def test_prefactor(self):
        h = np.diag([1.0, 2.0, 3.0])
        u = op.expm_hermitian(h, prefactor=-1j * 0.5)
        assert np.allclose(np.diag(u), np.exp(-0.5j * np.diag(h)))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        hs = np.stack([random_hermitian(rng, 3) for _ in range(6)])
        batched = op.expm_hermitian(hs)
        for k in range(6):
            assert np.allclose(batched[k], op.expm_hermitian(hs[k]), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            u = op.expm_hermitian(random_hermitian(rng, 3))
            assert op.is_unitary(u, tol=1e-12)

    # ---- the 3x3 closed form (d = 3, imaginary prefactor) ----

    @staticmethod
    def spectrum_hamiltonians(rng, evals):
        """The diagonal matrix of evals and three random unitary rotations of it."""
        d = np.diag(np.asarray(evals, dtype=float)).astype(complex)
        return [d] + [
            (u * np.asarray(evals)) @ u.conj().T
            for u in (random_unitary(rng, 3) for _ in range(3))
        ]

    @staticmethod
    def assert_matches_expm(h, tol=1e-14):
        h = (h + h.conj().T) / 2.0
        for t in (1.0, -0.7):
            u = op.expm_hermitian(h, prefactor=-1j * t)
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * t * h))) < tol

    def test_closed_form_on_degenerate_spectra(self):
        rng = np.random.default_rng(61)
        assert np.array_equal(op.expm_hermitian(np.zeros((3, 3))), np.eye(3))
        for lam in (1e-9, 1e-3, 0.07, 0.4, 1.3, 2.5):
            spectra = [
                (lam, 0.0, -lam),  # Lambda system: c0 = 0
                (lam, lam, -2 * lam),  # c0 = -c0max
                (-lam, -lam, 2 * lam),  # c0 = +c0max
                (lam, lam, lam),  # a multiple of the identity: Q = 0
                (lam + 1.0, lam + 1.0, 1.0 - lam),  # a repeated pair off zero trace
                (lam, lam * (1 + 1e-9), -2 * lam),  # a nearly repeated pair
                (2 * lam, -0.3 * lam, 0.9 * lam),  # diagonal with no symmetry
            ]
            for evals in spectra:
                for h in self.spectrum_hamiltonians(rng, evals):
                    self.assert_matches_expm(h)

    def test_closed_form_on_both_sides_of_the_series_switch(self, monkeypatch):
        # c1 = tr(Q^2)/2 of a traceless h with prefactor -i is (sum evals^2)/2
        rng = np.random.default_rng(67)
        evals = np.array([1.0, -0.2, -0.8])
        at_switch = evals * math.sqrt(2 * op._SERIES_C1 / np.sum(evals**2))
        for factor in (1 - 1e-12, 1 + 1e-12, 0.5, 2.0, 1e-4, 1e-8):
            for h in self.spectrum_hamiltonians(rng, factor * at_switch):
                self.assert_matches_expm(h)
        # the series and the closed form agree on one matrix at the switch
        h = self.spectrum_hamiltonians(rng, (1 - 1e-12) * at_switch)[1]
        series = op.expm_hermitian(h)
        monkeypatch.setattr(op, "_SERIES_C1", 0.0)
        assert np.max(np.abs(op.expm_hermitian(h) - series)) < 1e-15

    def test_closed_form_unitary_and_accurate_up_to_five_rad(self):
        rng = np.random.default_rng(71)
        for norm in np.geomspace(1e-6, 5.0, 40):
            h = random_hermitian(rng, 3)
            h *= norm / np.abs(h).sum(axis=1).max()
            self.assert_matches_expm(h)
            u = op.expm_hermitian(h)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-14

    def test_closed_form_batch_axes_bit_identical_to_single_calls(self):
        # norms spanning both branches, so one stack mixes series and closed form
        rng = np.random.default_rng(73)
        hs = np.array([random_hermitian(rng, 3) for _ in range(24)])
        hs *= np.geomspace(1e-5, 4.0, 24)[:, None, None]
        stack = op.expm_hermitian(hs.reshape(2, 3, 4, 3, 3), prefactor=-0.3j)
        singles = np.array([op.expm_hermitian(h, prefactor=-0.3j) for h in hs])
        assert np.array_equal(stack.reshape(24, 3, 3), singles)

    def test_closed_form_bits_do_not_depend_on_the_stack_layout(self):
        # the builders store stacks entry-major, (3, 3, ...) viewed as (..., 3, 3)
        rng = np.random.default_rng(97)
        hs = np.array([random_hermitian(rng, 3) for _ in range(24)]).reshape(2, 12, 3, 3)
        hs *= np.geomspace(1e-5, 4.0, 12)[:, None, None]
        entry_major = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(hs, (-2, -1), (0, 1))), (0, 1), (-2, -1)
        )
        assert not entry_major.flags.c_contiguous
        c_order = op.expm_hermitian(hs, prefactor=-0.3j)
        assert np.array_equal(op.expm_hermitian(entry_major, prefactor=-0.3j), c_order)

    def test_closed_form_large_phases_no_worse_than_eigh(self):
        # constant pieces exponentiate a whole grid, so phases reach 1e2-1e4 rad
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(79)
        with mpmath.workdps(40):
            for norm in (1e2, 1e3, 1e4):
                err_closed, err_eigh = [], []
                for _ in range(12):
                    h = random_hermitian(rng, 3)
                    h *= norm / np.abs(h).sum(axis=1).max()
                    exact = mpmath.expm(mpmath.matrix(h.tolist()) * (-1j))
                    exact = np.array(exact.tolist(), dtype=complex)
                    evals, vecs = np.linalg.eigh(h)
                    by_eigh = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
                    err_closed.append(np.max(np.abs(op.expm_hermitian(h) - exact)))
                    err_eigh.append(np.max(np.abs(by_eigh - exact)))
                assert max(err_closed) <= max(err_eigh)

    def test_other_prefactors_and_dimensions_take_eigh(self):
        rng = np.random.default_rng(83)
        h3, h6 = random_hermitian(rng, 3), random_hermitian(rng, 6)
        for h, prefactor in ((h3, -0.5), (h3, 0.2 - 1j), (h6, -1j)):
            u = op.expm_hermitian(h, prefactor=prefactor)
            assert np.max(np.abs(u - scipy.linalg.expm(prefactor * h))) < 1e-12

    def test_rejects_a_stack_with_one_non_hermitian_lower_entry(self):
        # the closed form reads only the upper triangle; the check reads both
        rng = np.random.default_rng(89)
        hs = np.array([random_hermitian(rng, 3) for _ in range(5)])
        hs[3, 2, 0] += 1e-6
        with pytest.raises(NonHermitianInputError):
            op.expm_hermitian(hs)
        hs[3, 2, 0] = np.nan
        with pytest.raises(NonHermitianInputError):
            op.expm_hermitian(hs)


class TestDistances:
    def test_phase_aligned_distance_kills_global_phase(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = random_unitary(rng, 3)
            phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
            assert op.phase_aligned_distance(u, phase * u) < 1e-12

    def test_phase_aligned_distance_detects_difference(self):
        u = np.eye(3, dtype=complex)
        v = np.diag([1.0, 1.0, -1.0]).astype(complex)
        assert op.phase_aligned_distance(u, v) > 0.5

    def test_unitary_infidelity_zero_on_target(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            u = random_unitary(rng, 2)
            phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
            assert op.unitary_infidelity(phase * u, u) < 1e-12

    def test_unitary_infidelity_orthogonal_pair(self):
        # Tr(Z^dag X) = 0: maximal infidelity
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert np.isclose(op.unitary_infidelity(x, z), 1.0)

    def test_unitary_infidelity_known_angle(self):
        # rotation by angle a about z against identity: F = cos^2(a/2)
        a = 0.3
        u = np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])
        assert np.isclose(op.unitary_infidelity(u, np.eye(2)), math.sin(a / 2) ** 2)
