"""Tests for the Hermitian matrix plumbing, eigendecomposition and element tables."""

import numpy as np
import pytest

from skewlab import linalg
from skewlab.linalg import (
    DensityMatrix,
    EigenDecompositionError,
    HermitianMatrix,
    density_stack,
    eigh_stack,
    element_table,
    hermitian_eigen,
    hermitian_stack,
    matrix_from_json,
    matrix_to_json,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


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
    def test_dimension_mismatch(self):
        d = hermitian_eigen(DensityMatrix(np.eye(2) / 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            element_table(d, HermitianMatrix(np.eye(3)))


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


def _corrupt(m, how):
    """A copy of matrix ``m`` broken one way: a NaN or an infinite entry, an
    asymmetric entry, or a trace of 1.5."""
    m = m.copy()
    if how == "nan":
        m[0, 1] = np.nan
    elif how == "inf":
        m[1, 1] = complex(np.inf, 0.0)
    elif how == "asymmetric":
        m[0, 1] += 0.25
    else:
        m *= 1.5
    return m


class TestStackValidation:
    """``hermitian_stack`` and ``density_stack`` check every matrix of a stack
    as ``HermitianMatrix`` and ``DensityMatrix`` check one, with the same
    message when the k-th matrix alone is bad, and never write the stack."""

    HOWS = ["nan", "inf", "asymmetric", "trace"]

    @staticmethod
    def states(rng, s=4, n=3):
        return np.stack([random_density(n, rng).entries for _ in range(s)])

    @staticmethod
    def message(fn, arg):
        with pytest.raises(ValueError) as exc:
            fn(arg)
        return str(exc.value)

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_density_stack_rejects_kth_as_density_matrix(self, how, k):
        stack = self.states(np.random.default_rng(10 + k))
        stack[k] = _corrupt(stack[k], how)
        before = stack.copy()
        got = self.message(density_stack, stack)
        assert got == self.message(DensityMatrix, stack[k])
        assert got.startswith({"nan": "matrix entries must be finite",
                               "inf": "matrix entries must be finite",
                               "asymmetric": "input is not self-adjoint: asymmetry",
                               "trace": "trace must be 1, got 1."}[how])
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("how", ["nan", "inf", "asymmetric"])
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_hermitian_stack_rejects_kth_as_hermitian_matrix(self, how, k):
        rng = np.random.default_rng(20 + k)
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        stack[k] = _corrupt(stack[k], how)
        before = stack.copy()
        got = self.message(hermitian_stack, stack)
        assert got == self.message(HermitianMatrix, stack[k])
        assert stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("p", [1e-8 * (1 - 1e-4), 1e-8 * (1 + 1e-4)])
    def test_positivity_floor_is_decided_as_for_a_stack(self, p):
        """Rotated diag(1 - p, p) just below and just above the floor: one
        state and a stack of it get the same verdict and the same message."""
        u = haar_unitary(2, np.random.default_rng(40))
        rho = (u * np.array([1.0 - p, p])) @ u.conj().T
        stack = rho[None]
        if p < linalg.POSITIVITY_FLOOR:
            got = self.message(DensityMatrix, rho)
            assert got == ("state is not strictly positive: smallest eigenvalue "
                           "9.999e-09 is below the floor 1.0e-08")
            assert got == self.message(lambda m: eigh_stack(density_stack(m), density=True), stack)
        else:
            lam, _ = eigh_stack(density_stack(stack), density=True)
            assert hermitian_eigen(DensityMatrix(rho)).eigenvalues.tobytes() == lam[0].tobytes()

    def test_valid_stacks_pass_unwritten(self):
        stack = self.states(np.random.default_rng(30))
        before = stack.copy()
        out = density_stack(stack)
        assert not np.shares_memory(out, stack)
        assert stack.tobytes() == before.tobytes()
        for k in range(len(stack)):
            assert out[k].tobytes() == DensityMatrix(stack[k]).entries.tobytes()
            assert hermitian_stack(stack)[k].tobytes() == HermitianMatrix(stack[k]).entries.tobytes()


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
    def test_same_object_same_tolerances_returns_same_decomposition(self, eigh_calls):
        rho = random_density(4, np.random.default_rng(20))
        assert hermitian_eigen(rho) is hermitian_eigen(rho)
        assert len(eigh_calls) == 1

    def test_construction_decomposes_the_state_once(self, eigh_calls):
        rho = random_density(4, np.random.default_rng(21))
        assert len(eigh_calls) == 1
        assert rho._decomposition is hermitian_eigen(rho)
        assert len(eigh_calls) == 1

    def test_equal_valued_new_object_is_decomposed_on_its_own(self, eigh_calls):
        entries = random_density(3, np.random.default_rng(22)).entries
        eigh_calls.clear()
        a, b = DensityMatrix(entries), DensityMatrix(entries)
        da, db = hermitian_eigen(a), hermitian_eigen(b)
        assert da is not db
        assert hermitian_eigen(a) is da and hermitian_eigen(b) is db
        assert len(eigh_calls) == 2

    def test_failed_check_is_not_cached(self, monkeypatch, eigh_calls):
        a = HermitianMatrix(random_hermitian(6, np.random.default_rng(23)))
        threshold = linalg.RECONSTRUCTION_TOL
        monkeypatch.setattr(linalg, "RECONSTRUCTION_TOL", 0.0)
        for _ in range(2):
            with pytest.raises(EigenDecompositionError, match="reconstruction"):
                hermitian_eigen(a)
        assert len(eigh_calls) == 2
        monkeypatch.setattr(linalg, "RECONSTRUCTION_TOL", threshold)
        assert hermitian_eigen(a) is hermitian_eigen(a)
        assert len(eigh_calls) == 3

    def test_cached_arrays_stay_read_only(self):
        d = hermitian_eigen(random_density(3, np.random.default_rng(24)))
        with pytest.raises(ValueError):
            d.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            d.vectors[0, 0] = 0.0


class TestCentering:
    """``element_table`` holds the centered observable H - Tr[rho H] I."""

    def test_traceless_observable_unchanged(self):
        d = hermitian_eigen(DensityMatrix(np.diag([0.75, 0.25])))
        t = element_table(d, HermitianMatrix(SX))
        np.testing.assert_allclose(t.entries, d.vectors.conj().T @ SX @ d.vectors, atol=1e-15)

    def test_identity_centers_to_zero(self):
        d = hermitian_eigen(DensityMatrix(np.diag([0.75, 0.25])))
        t = element_table(d, HermitianMatrix(np.eye(2)))
        np.testing.assert_allclose(t.entries, 0, atol=1e-15)

    def test_defining_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = hermitian_eigen(random_density(4, rng))
            t = element_table(d, HermitianMatrix(random_hermitian(4, rng)))
            # Tr[rho H0] in rho's eigenbasis
            assert abs(np.sum(d.eigenvalues * np.diag(t.entries))) < 1e-12


class TestElementTable:
    def test_one_table_per_decomposition_and_observable(self):
        rng = np.random.default_rng(17)
        d = hermitian_eigen(random_density(4, rng))
        h = HermitianMatrix(random_hermitian(4, rng))
        t = element_table(d, h)
        assert element_table(d, h) is t
        assert t.row is t.row and not t.row.flags.writeable
        assert t.row.tobytes() == t.weights.sum(axis=-1).tobytes()
        assert element_table(d, HermitianMatrix(h.entries)) is not t

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
