"""Complex matrix plumbing shared by every other module: Hermitian and
density-matrix types, eigendecomposition, and spectral function calculus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "DomainError",
    "EigenDecompositionError",
    "HermitianMatrix",
    "DensityMatrix",
    "SpectralDecomposition",
    "MatrixElementTable",
    "adjoint",
    "matmul",
    "add",
    "scale",
    "trace",
    "frobenius_norm",
    "commutator",
    "anticommutator",
    "hermitian_eigen",
    "hermitian_stack",
    "density_stack",
    "eigh_stack",
    "element_tables",
    "apply_scalar_function",
    "center_observable",
    "element_table",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerances:
    """Central numerical thresholds; every invariant check reads from here."""

    hermitian_asymmetry: float = 1e-8   # rejection level for non-self-adjoint input
    trace_one: float = 1e-12
    positivity_floor: float = 1e-8      # smallest admissible density eigenvalue
    reconstruction: float = 1e-10       # scaled by n * ||A||_F
    orthonormality: float = 1e-10       # scaled by n
    eigenvalue_sum: float = 1e-10       # |sum(eigenvalues) - 1| for density sources
    element_symmetry: float = 1e-12
    domain_slack: float = 1e-12         # slack on the [eps, 1] eigenvalue domain


DEFAULT_TOLERANCES = Tolerances()


class DomainError(ValueError):
    """An argument fell outside a function's or operator's numeric domain."""


class EigenDecompositionError(RuntimeError):
    """Eigensolver failed to converge or to meet its residual contract."""


def _as_square_complex(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
    return a


def _require_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack [..., n, n]."""
    return np.swapaxes(a, -1, -2).conj()


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack of float64 or complex128
    matrices, summed over a real view of the entries."""
    flat = np.ascontiguousarray(a).view(np.float64).reshape(*a.shape[:-2], -1)
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _require_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def matmul(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-1] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {x.shape} @ {y.shape}")
    return x @ y


def add(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _require_same_shape(x, y)
    return x + y


def scale(c, x) -> np.ndarray:
    return complex(c) * np.asarray(x, dtype=complex)


def trace(a) -> complex:
    return complex(np.trace(np.asarray(a)))


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def commutator(x, y) -> np.ndarray:
    """XY - YX."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _require_same_shape(x, y)
    return x @ y - y @ x


def anticommutator(x, y) -> np.ndarray:
    """XY + YX."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _require_same_shape(x, y)
    return x @ y + y @ x


class HermitianMatrix:
    """Self-adjoint square matrix.

    Construction symmetrizes the input to (A + A†)/2 and rejects inputs whose
    asymmetry exceeds the configured threshold, so genuinely non-Hermitian data
    fails loudly instead of being silently averaged away.
    """

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        h = _hermitian_part(_as_square_complex(entries), tol)
        h.flags.writeable = False
        self.entries = h
        self.dim = h.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianMatrix):
    """Strictly positive, trace-one Hermitian matrix (a faithful state)."""

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(entries, tol=tol)
        _check_trace_one(self.entries, tol)
        _check_positive(np.linalg.eigvalsh(self.entries)[0], tol)


def _hermitian_part(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    """(A + A†)/2 of every matrix in a stack; rejects any whose asymmetry
    exceeds the threshold, so non-Hermitian data is not silently averaged."""
    ah = _dagger(a)
    asym = _norms(a - ah)
    bad = asym > tol.hermitian_asymmetry * np.maximum(1.0, _norms(a))
    if bad.any():
        raise ValueError(
            f"input is not self-adjoint: asymmetry {asym[bad].flat[0]:.3e} "
            "exceeds threshold"
        )
    return (a + ah) / 2


def _check_trace_one(a: np.ndarray, tol: Tolerances) -> None:
    tr = np.trace(a, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > tol.trace_one
    if bad.any():
        raise ValueError(f"trace must be 1, got {float(tr[bad].flat[0])!r}")


def _check_positive(lam_min, tol: Tolerances) -> None:
    lam_min = np.asarray(lam_min)
    bad = lam_min < tol.positivity_floor
    if bad.any():
        raise ValueError(
            f"state is not strictly positive: smallest eigenvalue "
            f"{float(lam_min[bad].flat[0]):.3e} is below the floor "
            f"{tol.positivity_floor:.1e}"
        )


def hermitian_stack(entries: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate a stack [S, n, n] of observables as ``HermitianMatrix`` does
    one, and return the symmetrized stack."""
    a = np.asarray(entries, dtype=complex)
    _require_finite(a)
    return _hermitian_part(a, tol)


def density_stack(entries: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate a stack [S, n, n] of states as ``DensityMatrix`` does one,
    except for the positivity floor, which ``eigh_stack(..., density=True)``
    checks on the spectrum it computes anyway."""
    rho = hermitian_stack(entries, tol)
    _check_trace_one(rho, tol)
    return rho


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    ``vectors[:, i]`` is the eigenvector for ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    source: HermitianMatrix

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


def hermitian_eigen(
    a: HermitianMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> SpectralDecomposition:
    """Full eigendecomposition with residual and orthonormality checks.

    Raises EigenDecompositionError when LAPACK fails to converge or when the
    reconstruction/orthonormality residuals exceed their thresholds.
    """
    w, v = eigh_stack(a.entries[None], tol, density=isinstance(a, DensityMatrix))
    w, v = w[0], v[0]
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(eigenvalues=w, vectors=v, source=a)


def eigh_stack(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, *, density: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues [S, n] (descending) and eigenvectors [S, n, n] of a stack
    of Hermitian matrices, with the checks of ``hermitian_eigen``.

    With ``density`` the stack holds states: their eigenvalues must sum to 1
    and the smallest must clear the positivity floor (ValueError, as in
    ``DensityMatrix``).
    """
    n = m.shape[-1]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    w = np.ascontiguousarray(w[..., ::-1])
    v = np.ascontiguousarray(v[..., ::-1])
    if density:
        _check_positive(w[..., -1], tol)
    resid = _norms(m - (v * w[..., None, :]) @ _dagger(v))
    if (resid > tol.reconstruction * n * np.maximum(_norms(m), 1e-300)).any():
        raise EigenDecompositionError(
            f"reconstruction residual {resid.max():.3e} exceeds "
            f"{tol.reconstruction:.1e} * n * ||A||"
        )
    ortho = _norms(_dagger(v) @ v - np.eye(n))
    if (ortho > tol.orthonormality * n).any():
        raise EigenDecompositionError(
            f"eigenvector orthonormality residual {ortho.max():.3e} too large"
        )
    if density:
        if (np.abs(w.sum(axis=-1) - 1.0) > tol.eigenvalue_sum).any():
            raise EigenDecompositionError("density eigenvalues do not sum to 1")
        if (w[..., -1] <= 0.0).any():
            raise EigenDecompositionError("density matrix lost strict positivity")
    return w, v


def apply_scalar_function(
    decomp: SpectralDecomposition, fn, tol: Tolerances = DEFAULT_TOLERANCES
) -> HermitianMatrix:
    """Evaluate a scalar function on a Hermitian matrix through its spectrum.

    All eigenvalues must lie in the function's domain [eps, 1].
    """
    lam = decomp.eigenvalues
    if float(lam[-1]) < fn.eps - tol.domain_slack:
        raise DomainError(
            f"eigenvalue {float(lam[-1]):.3e} is below the domain floor {fn.eps:.1e}"
        )
    if float(lam[0]) > 1.0 + tol.domain_slack:
        raise DomainError(f"eigenvalue {float(lam[0]):.6f} exceeds the domain [eps, 1]")
    vals = np.asarray(fn.value(np.clip(lam, fn.eps, 1.0)), dtype=float)
    v = decomp.vectors
    return HermitianMatrix((v * vals) @ v.conj().T, tol=tol)


def center_observable(h: HermitianMatrix, rho: DensityMatrix) -> HermitianMatrix:
    """Subtract the state expectation: H - Tr[rho H] * I."""
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {rho.dim}")
    mean = float(np.trace(rho.entries @ h.entries).real)
    return HermitianMatrix(h.entries - mean * np.eye(h.dim))


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Centered observable expressed in a state eigenbasis.

    ``entries[i, j]`` is the matrix element of H - Tr[rho H] I between the
    i-th and j-th eigenvectors of rho; the table is conjugate-symmetric.
    """

    entries: np.ndarray
    expectation: float  # Tr[rho H]

    @property
    def weights(self) -> np.ndarray:
        """Squared moduli |entries|^2 (real symmetric)."""
        return np.abs(self.entries) ** 2


def element_table(
    decomp: SpectralDecomposition,
    h: HermitianMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> MatrixElementTable:
    """Transform an observable into the eigenbasis of the decomposed state."""
    if h.dim != decomp.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {decomp.dim}")
    t, mean = element_tables(decomp.eigenvalues[None], decomp.vectors[None],
                             h.entries[None], tol)
    t = t[0]
    t.flags.writeable = False
    return MatrixElementTable(entries=t, expectation=float(mean[0]))


def element_tables(
    lam: np.ndarray,
    v: np.ndarray,
    h: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray]:
    """Centered observables [S, n, n] in the eigenbases ``v`` of a stack of
    states with eigenvalues ``lam``, and their expectations [S]; each table
    must stay conjugate-symmetric, as ``element_table`` requires."""
    t = _dagger(v) @ h @ v
    mean = np.sum(lam * np.diagonal(t, axis1=-2, axis2=-1).real, axis=-1)
    t = t - mean[:, None, None] * np.eye(lam.shape[-1])
    asym = np.max(np.abs(t - _dagger(t)), axis=(-2, -1))
    bad = asym > tol.element_symmetry * np.maximum(1.0, _norms(t))
    if bad.any():
        raise ValueError(f"element table lost conjugate symmetry: {asym[bad][0]:.3e}")
    return t, mean


def matrix_to_json(a) -> dict:
    """Serialize a square complex matrix as {"dim": n, "entries": [[re, im], ...]}."""
    m = _as_square_complex(np.asarray(a))
    n = m.shape[0]
    flat = m.reshape(-1)
    return {
        "dim": n,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(doc: dict) -> np.ndarray:
    n = int(doc["dim"])
    entries = doc["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(n, n)
