"""Tests for the Hermitian matrix plumbing and spectral calculus."""

import numpy as np
import pytest

from skewlab.linalg import (
    DensityMatrix,
    DomainError,
    EigenDecompositionError,
    HermitianMatrix,
    Tolerances,
    apply_scalar_function,
    center_observable,
    commutator,
    element_table,
    hermitian_eigen,
    matrix_from_json,
    matrix_to_json,
)
from skewlab.functions import Power

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(n, rng, floor=1e-3):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    rho = (1 - floor) * w / np.trace(w).real + floor * np.eye(n) / n
    return DensityMatrix(rho)


def haar_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasicOps:
    def test_commutator_pauli(self):
        np.testing.assert_allclose(commutator(SX, SY), 2j * SZ, atol=1e-15)

    def test_commutator_self(self):
        a = random_hermitian(3, np.random.default_rng(3))
        np.testing.assert_allclose(commutator(a, a), 0, atol=1e-15)

    def test_commutator_diagonals(self):
        np.testing.assert_allclose(
            commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), 0, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(np.eye(2), np.eye(3))


class TestTypes:
    def test_hermitian_symmetrizes(self):
        h = HermitianMatrix([[1.0, 0.5 + 1e-10j], [0.5, 2.0]])
        np.testing.assert_array_equal(h.entries, h.entries.conj().T)

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not self-adjoint"):
            HermitianMatrix([[0, 1], [0, 0]])

    def test_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_hermitian_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.nan, 0], [0, 1.0]])

    def test_density_trace_check(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_density_positivity_check(self):
        with pytest.raises(ValueError, match="strictly positive"):
            DensityMatrix(np.diag([1.0, 0.0]))

    def test_entries_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestEigen:
    def test_diagonal(self):
        d = hermitian_eigen(DensityMatrix(np.diag([0.7, 0.3])))
        np.testing.assert_allclose(d.eigenvalues, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(d.vectors), np.eye(2), atol=1e-15)

    def test_pauli_x(self):
        d = hermitian_eigen(HermitianMatrix(SX))
        np.testing.assert_allclose(d.eigenvalues, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(d.vectors), np.full((2, 2), 1 / np.sqrt(2)))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = HermitianMatrix(random_hermitian(8, rng))
            d = hermitian_eigen(a)
            resid = np.linalg.norm(a.entries - d.reconstruct())
            assert resid <= 1e-10 * 8 * np.linalg.norm(a.entries)

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        d = hermitian_eigen(HermitianMatrix(random_hermitian(6, rng)))
        assert np.all(np.diff(d.eigenvalues) <= 0)

    def test_density_source_invariants(self):
        rng = np.random.default_rng(8)
        d = hermitian_eigen(random_density(5, rng))
        assert abs(d.eigenvalues.sum() - 1.0) <= 1e-10
        assert d.eigenvalues[-1] > 0

    def test_unitary_covariance_of_spectrum(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 8):
            a = random_hermitian(n, rng)
            v = haar_unitary(n, rng)
            w1 = hermitian_eigen(HermitianMatrix(a)).eigenvalues
            w2 = hermitian_eigen(HermitianMatrix(v @ a @ v.conj().T)).eigenvalues
            np.testing.assert_allclose(w1, w2, atol=1e-10)


class TestDecompositionCache:
    def test_same_object_same_tolerances_returns_same_decomposition(self):
        rho = random_density(4, np.random.default_rng(20))
        assert hermitian_eigen(rho) is hermitian_eigen(rho)
        assert hermitian_eigen(rho, Tolerances()) is hermitian_eigen(rho)

    def test_other_tolerances_recompute(self, eigh_calls):
        rho = random_density(4, np.random.default_rng(21))
        first = hermitian_eigen(rho)
        other = hermitian_eigen(rho, Tolerances(reconstruction=1e-9))
        assert other is not first
        assert len(eigh_calls) == 2
        assert hermitian_eigen(rho, Tolerances(reconstruction=1e-9)) is other

    def test_equal_valued_new_object_is_decomposed_on_its_own(self, eigh_calls):
        entries = random_density(3, np.random.default_rng(22)).entries
        a, b = DensityMatrix(entries), DensityMatrix(entries)
        da, db = hermitian_eigen(a), hermitian_eigen(b)
        assert da is not db and da.source is a and db.source is b
        assert len(eigh_calls) == 2

    def test_failed_check_is_not_cached(self):
        a = HermitianMatrix(random_hermitian(6, np.random.default_rng(23)))
        strict = Tolerances(reconstruction=0.0)
        for _ in range(2):
            with pytest.raises(EigenDecompositionError, match="reconstruction"):
                hermitian_eigen(a, strict)

    def test_cached_arrays_stay_read_only(self):
        d = hermitian_eigen(random_density(3, np.random.default_rng(24)))
        with pytest.raises(ValueError):
            d.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            d.vectors[0, 0] = 0.0


class TestSpectralCalculus:
    def test_identity_function(self):
        rng = np.random.default_rng(10)
        rho = random_density(4, rng)
        d = hermitian_eigen(rho)
        out = apply_scalar_function(d, Power(p=1.0))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)

    def test_sqrt_diagonal(self):
        d = hermitian_eigen(DensityMatrix(np.diag([0.25, 0.75])))
        out = apply_scalar_function(d, Power(p=0.5))
        np.testing.assert_allclose(
            np.sort(np.diag(out.entries).real), [0.5, 0.8660254037844386]
        )

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_density(5, rng)
            root = apply_scalar_function(hermitian_eigen(rho), Power(p=0.5))
            np.testing.assert_allclose(
                root.entries @ root.entries, rho.entries, atol=1e-10
            )

    def test_power_composition(self):
        rng = np.random.default_rng(12)
        rho = random_density(4, rng)
        d = hermitian_eigen(rho)
        a = apply_scalar_function(d, Power(p=0.3)).entries
        b = apply_scalar_function(d, Power(p=0.45)).entries
        c = apply_scalar_function(d, Power(p=0.75)).entries
        np.testing.assert_allclose(a @ b, c, rtol=1e-10, atol=1e-12)

    def test_domain_floor_error(self):
        rho = DensityMatrix(np.diag([1e-7, 1 - 1e-7]))
        with pytest.raises(DomainError, match="domain floor"):
            apply_scalar_function(hermitian_eigen(rho), Power(p=-0.5, eps=1e-6))


class TestCentering:
    def test_traceless_observable_unchanged(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        h0 = center_observable(HermitianMatrix(SX), rho)
        np.testing.assert_allclose(h0.entries, SX, atol=1e-15)

    def test_identity_centers_to_zero(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        h0 = center_observable(HermitianMatrix(np.eye(2)), rho)
        np.testing.assert_allclose(h0.entries, 0, atol=1e-15)

    def test_defining_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(4, rng)
            h = HermitianMatrix(random_hermitian(4, rng))
            h0 = center_observable(h, rho)
            assert abs(np.trace(rho.entries @ h0.entries)) < 1e-12


class TestElementTable:
    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(14)
        rho = random_density(6, rng)
        h = HermitianMatrix(random_hermitian(6, rng))
        t = element_table(hermitian_eigen(rho), h)
        np.testing.assert_allclose(t.entries, t.entries.conj().T, atol=1e-12)

    def test_commuting_observable_is_diagonal(self):
        rng = np.random.default_rng(15)
        rho = random_density(4, rng)
        d = hermitian_eigen(rho)
        # an observable diagonal in rho's eigenbasis
        h = HermitianMatrix(
            (d.vectors * np.array([1.0, -2.0, 0.5, 3.0])) @ d.vectors.conj().T
        )
        t = element_table(d, h)
        off = t.entries - np.diag(np.diag(t.entries))
        assert np.max(np.abs(off)) < 1e-12

    def test_commutator_trace_purely_imaginary(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            rho = random_density(4, rng)
            a = random_hermitian(4, rng)
            b = random_hermitian(4, rng)
            val = np.trace(rho.entries @ (a @ b - b @ a))
            assert abs(val.real) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        doc = matrix_to_json(a)
        assert doc["dim"] == 3
        assert len(doc["entries"]) == 9
        np.testing.assert_array_equal(matrix_from_json(doc), a)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"dim": 2, "entries": [[0.0, 0.0]]})
