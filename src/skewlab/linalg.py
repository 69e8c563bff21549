"""Complex matrix plumbing shared by every other module: Hermitian and
density-matrix types, checked eigendecomposition, observables in a state's
eigenbasis, and the type checks on numbers read from JSON."""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "EigenDecompositionError",
    "HermitianMatrix",
    "DensityMatrix",
    "SpectralDecomposition",
    "MatrixElementTable",
    "hermitian_eigen",
    "hermitian_stack",
    "density_stack",
    "eigh_stack",
    "element_tables",
    "element_table",
    "matrix_to_json",
    "matrix_json_text",
    "matrix_from_json",
]

# Numerical thresholds, fixed: every invariant check reads its level here.
ASYMMETRY_TOL = 1e-8          # ||A - A†|| over max(1, ||A||): non-self-adjoint input
TRACE_TOL = 1e-12             # |Tr rho - 1| of a state
POSITIVITY_FLOOR = 1e-8       # smallest admissible density eigenvalue
RECONSTRUCTION_TOL = 1e-10    # eigendecomposition residual, scaled by n * ||A||_F
ORTHONORMALITY_TOL = 1e-10    # eigenvector orthonormality residual, scaled by n
EIGENVALUE_SUM_TOL = 1e-10    # |sum(eigenvalues) - 1| of a state's spectrum
ELEMENT_SYMMETRY_TOL = 1e-12  # element-table asymmetry over max(1, ||T||)


class DomainError(ValueError):
    """An argument fell outside a function's or operator's numeric domain."""


def _integer(key: str, value) -> int:
    """An integer read from JSON: an integer that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    """A real read from JSON: a finite number that is not a boolean. Python's
    json reads NaN and Infinity, which would turn into NaN margins later."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


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


class HermitianMatrix:
    """Self-adjoint square matrix.

    Construction symmetrizes the input to (A + A†)/2 and rejects inputs whose
    asymmetry exceeds ``ASYMMETRY_TOL``, so genuinely non-Hermitian data
    fails loudly instead of being silently averaged away.
    """

    def __init__(self, entries):
        h = _hermitian_part(_as_square_complex(entries))
        h.flags.writeable = False
        self.entries = h
        self.dim = h.shape[0]
        self._decomposition: SpectralDecomposition | None = None

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianMatrix):
    """Strictly positive, trace-one Hermitian matrix (a faithful state)."""

    def __init__(self, entries):
        super().__init__(entries)
        _check_trace_one(self.entries)
        _check_positive(np.linalg.eigvalsh(self.entries)[0])


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of every matrix in a stack; rejects any whose asymmetry
    exceeds the threshold, so non-Hermitian data is not silently averaged.
    One fresh array holds A - A† for the check, then A + A†, halved in place
    (exactly, as a division by 2 is); ``a`` itself is never written."""
    ah = _dagger(a)
    out = np.subtract(a, ah, out=np.empty(a.shape, dtype=complex))
    asym = _norms(out)
    bad = asym > ASYMMETRY_TOL * np.maximum(1.0, _norms(a))
    if bad.any():
        raise ValueError(
            f"input is not self-adjoint: asymmetry {asym[bad].flat[0]:.3e} "
            "exceeds threshold"
        )
    np.add(a, ah, out=out)
    parts = out.view(np.float64)
    parts *= 0.5
    return out


def _check_trace_one(a: np.ndarray) -> None:
    tr = np.trace(a, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if bad.any():
        raise ValueError(f"trace must be 1, got {float(tr[bad].flat[0])!r}")


def _check_positive(lam_min) -> None:
    lam_min = np.asarray(lam_min)
    bad = lam_min < POSITIVITY_FLOOR
    if bad.any():
        raise ValueError(
            f"state is not strictly positive: smallest eigenvalue "
            f"{float(lam_min[bad].flat[0]):.3e} is below the floor "
            f"{POSITIVITY_FLOOR:.1e}"
        )


def hermitian_stack(entries: np.ndarray) -> np.ndarray:
    """Validate a stack [S, n, n] of observables as ``HermitianMatrix`` does
    one, and return the symmetrized stack."""
    a = np.asarray(entries, dtype=complex)
    _require_finite(a)
    return _hermitian_part(a)


def density_stack(entries: np.ndarray) -> np.ndarray:
    """Validate a stack [S, n, n] of states as ``DensityMatrix`` does one,
    except for the positivity floor, which ``eigh_stack(..., density=True)``
    checks on the spectrum it computes anyway."""
    rho = hermitian_stack(entries)
    _check_trace_one(rho)
    return rho


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    ``vectors[:, i]`` is the eigenvector for ``eigenvalues[i]``.
    ``pair_cache`` holds per-observable data that ``quantities`` derives
    from this decomposition, keyed weakly by the observable object.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    pair_cache: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


def hermitian_eigen(a: HermitianMatrix) -> SpectralDecomposition:
    """Full eigendecomposition with residual and orthonormality checks.

    Raises EigenDecompositionError when LAPACK fails to converge or when the
    reconstruction/orthonormality residuals exceed their thresholds.

    The checked result is cached on ``a``: the entries are read-only, so
    later calls on the same object return the same decomposition without
    decomposing again. A failed check caches nothing.
    """
    if a._decomposition is None:
        w, v = eigh_stack(a.entries[None], density=isinstance(a, DensityMatrix))
        w, v = w[0], v[0]
        w.flags.writeable = False
        v.flags.writeable = False
        a._decomposition = SpectralDecomposition(eigenvalues=w, vectors=v)
    return a._decomposition


def eigh_stack(m: np.ndarray, *, density: bool = False) -> tuple[np.ndarray, np.ndarray]:
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
        _check_positive(w[..., -1])
    resid = _norms(m - (v * w[..., None, :]) @ _dagger(v))
    if (resid > RECONSTRUCTION_TOL * n * np.maximum(_norms(m), 1e-300)).any():
        raise EigenDecompositionError(
            f"reconstruction residual {resid.max():.3e} exceeds "
            f"{RECONSTRUCTION_TOL:.1e} * n * ||A||"
        )
    ortho = _norms(_dagger(v) @ v - np.eye(n))
    if (ortho > ORTHONORMALITY_TOL * n).any():
        raise EigenDecompositionError(
            f"eigenvector orthonormality residual {ortho.max():.3e} too large"
        )
    if density:
        if (np.abs(w.sum(axis=-1) - 1.0) > EIGENVALUE_SUM_TOL).any():
            raise EigenDecompositionError("density eigenvalues do not sum to 1")
        if (w[..., -1] <= 0.0).any():
            raise EigenDecompositionError("density matrix lost strict positivity")
    return w, v


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Centered observable expressed in a state eigenbasis.

    ``entries[i, j]`` is the matrix element of H - Tr[rho H] I between the
    i-th and j-th eigenvectors of rho; the table is conjugate-symmetric.
    """

    entries: np.ndarray

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Squared moduli |entries|^2 (real symmetric, read-only), computed
        once per table."""
        w = np.abs(self.entries) ** 2
        w.flags.writeable = False
        return w


def element_table(decomp: SpectralDecomposition, h: HermitianMatrix) -> MatrixElementTable:
    """Transform an observable into the eigenbasis of the decomposed state."""
    if h.dim != decomp.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {decomp.dim}")
    t = element_tables(decomp.eigenvalues[None], decomp.vectors[None], h.entries[None])[0]
    t.flags.writeable = False
    return MatrixElementTable(entries=t)


def element_tables(lam: np.ndarray, v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Centered observables [..., S, n, n] in the eigenbases ``v`` of a stack
    of states with eigenvalues ``lam``, for observables ``h`` [..., S, n, n]
    (leading axes, such as a pair of observables per state, broadcast); each
    table must stay conjugate-symmetric, as ``element_table`` requires."""
    t = _dagger(v) @ h @ v
    mean = np.sum(lam * np.diagonal(t, axis1=-2, axis2=-1).real, axis=-1)
    # in place: the pair axis doubles every temporary here
    t -= mean[..., None, None] * np.eye(lam.shape[-1])
    diff = _dagger(t)
    diff -= t
    asym = np.max(np.abs(diff), axis=(-2, -1))
    bad = asym > ELEMENT_SYMMETRY_TOL * np.maximum(1.0, _norms(t))
    if bad.any():
        raise ValueError(f"element table lost conjugate symmetry: {asym[bad][0]:.3e}")
    return t


def _float_parts(a) -> tuple[int, np.ndarray]:
    """Dimension and (re, im, re, im, ...) floats of a finite square matrix."""
    m = _as_square_complex(a)
    return m.shape[0], np.ascontiguousarray(m).reshape(-1).view(np.float64)


def matrix_to_json(a) -> dict:
    """Serialize a square complex matrix as {"dim": n, "entries": [[re, im], ...]}."""
    n, parts = _float_parts(a)
    return {"dim": n, "entries": parts.reshape(-1, 2).tolist()}


def matrix_json_text(a, indent: str, level: int) -> str:
    """``matrix_to_json(a)`` as ``json.dumps(..., indent=indent, sort_keys=True)``
    lays it out as a value ``level`` levels deep, rendered from the array.

    The entries are finite, so each float is its ``repr``, as in ``json``.
    """
    n, parts = _float_parts(a)
    pad = ["\n" + indent * k for k in range(level, level + 4)]
    if n == 0:
        entries = "[]"
    else:
        it = iter(map(float.__repr__, parts.tolist()))
        pairs = (pad[2] + "]," + pad[2] + "[" + pad[3]).join(
            map(("," + pad[3]).join, zip(it, it))
        )
        entries = "[" + pad[2] + "[" + pad[3] + pairs + pad[2] + "]" + pad[1] + "]"
    return "{" + pad[1] + f'"dim": {n},' + pad[1] + '"entries": ' + entries + pad[0] + "}"


def matrix_from_json(doc: dict) -> np.ndarray:
    n = int(doc["dim"])
    entries = doc["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(n, n)
