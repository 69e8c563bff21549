"""Skew-information families evaluated two independent ways: trace formulas
in the state eigenbasis, and explicit eigenvalue-pair sums.

Every family shares one spectral decomposition of the state, made and
cached when the ``DensityMatrix`` is constructed, and one element table per
(state, observable object), which ``element_table`` caches on that
decomposition together with its weights ``|<phi_i|H0|phi_j>|^2`` and their
row sums. So evaluating several families, or ``fgh_eigensum``, on one pair
decomposes the state once and builds its table once.

The trace formulas work on the eigenvalues ``lam[..., n]``, the squared
moduli ``w[..., n, n]`` of the centered observable's elements and their row
sums ``row[..., n]``; any leading axes are batch axes, so the campaign
harness evaluates a whole block of samples with the same formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionTriple, triple_to_spec
from .linalg import (
    DensityMatrix,
    DomainError,
    HermitianMatrix,
    MatrixElementTable,
    SpectralDecomposition,
    element_table,
    hermitian_eigen,
)

__all__ = [
    "QuantityBundle",
    "EigenSum",
    "variance",
    "covariance",
    "wy_skew",
    "wyd_family",
    "gwyd_family",
    "gwyd_tilde_family",
    "fgh_family",
    "fgh_eigensum",
    "luo_u",
]

# Roundoff clamp: quantities that are nonnegative by theory may come out
# slightly negative; anything below this indicates a real problem.
_NEG_CLAMP = -1e-10


def _clamped(value: float, what: str) -> float:
    if value < _NEG_CLAMP:
        raise ValueError(
            f"{what} = {value!r} is negative beyond roundoff; "
            "inputs are outside the quantity's validity regime"
        )
    return max(value, 0.0)


@dataclass(frozen=True)
class QuantityBundle:
    """The four values (I, J, U, V) of one family evaluation.

    I is the skew-information-like part, J its anti-commutator counterpart,
    U = sqrt(I * J), and V the plain variance of the observable.
    """

    family: str
    params: dict
    I: float
    J: float
    U: float
    V: float

    def __post_init__(self):
        vals = (self.I, self.J, self.U, self.V)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"bundle values must be finite, got {vals}")
        if self.I >= 0.0 and self.J >= 0.0:
            prod = self.I * self.J
            scale = max(abs(prod), self.U**2, 1e-300)
            if abs(self.U**2 - prod) > 1e-9 * scale:
                raise ValueError(
                    f"U^2 = {self.U**2!r} does not match I*J = {prod!r}"
                )

    def to_json(self) -> dict:
        return {
            "family": {"kind": self.family, **self.params},
            "I": self.I,
            "J": self.J,
            "U": self.U,
            "V": self.V,
        }


def _pair_data(
    rho: DensityMatrix, h: HermitianMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of rho, squared moduli of the centered observable's
    elements in rho's eigenbasis, and their row sums."""
    decomp = hermitian_eigen(rho)
    table = element_table(decomp, h)
    return decomp.eigenvalues, table.weights, table.row


def _powers(lam: np.ndarray, s) -> np.ndarray:
    """lam**s with one exponent per batch entry (or one for all).

    A per-entry exponent is spread over the full shape first. numpy's power
    takes a scalar-exponent route (sqrt for 0.5) when the exponent's stride
    is 0 over the whole inner loop, as it is for a one-row batch, so without
    this a sample would round differently alone than in a larger block.
    """
    s = np.asarray(s, dtype=float)[..., None]
    if s.ndim > 1:
        s = np.broadcast_to(s, lam.shape).copy()
    return lam ** s


def _bilinear(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ w @ y over the batch axes."""
    return (x[..., None, :] @ w @ y[..., :, None])[..., 0, 0]


def _total(lam: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Tr[rho H0^2] from the eigenbasis weights' row sums."""
    return np.sum(lam * row, axis=-1)


def _exchange(lam: np.ndarray, w: np.ndarray, s) -> np.ndarray:
    """Tr[rho^s H0 rho^(1-s) H0]."""
    s = np.asarray(s, dtype=float)
    return _bilinear(_powers(lam, s), w, _powers(lam, 1.0 - s))


def _wyd_ij(lam, w, row, alpha):
    """(I, J) of the one-parameter family."""
    t0 = _total(lam, row)
    ex = _exchange(lam, w, alpha)
    return t0 - ex, t0 + ex


def _gwyd_ij(lam, w, row, alpha, beta):
    """(I, J) of the two-parameter family.

    I is the pair sum 1/2 sum_ij w_ij lam_i^(1-a-b) (lam_i^a - lam_j^a)
    (lam_i^b - lam_j^b), with each difference taken as
    lam_j^a expm1(a (ln lam_i - ln lam_j)). Every term is nonnegative, so
    nothing cancels when a*b is small, unlike the equal trace form
    (t0 + e_ab - e_a - e_b) / 2. J has no cancellation.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    s = alpha + beta
    log_lam = np.log(lam)
    gap = log_lam[..., :, None] - log_lam[..., None, :]
    a, b = alpha[..., None, None], beta[..., None, None]
    scale = _powers(lam, 1.0 - s)[..., :, None] * _powers(lam, s)[..., None, :]
    i_val = 0.5 * np.sum(w * scale * np.expm1(a * gap) * np.expm1(b * gap), axis=(-2, -1))
    t0 = _total(lam, row)
    j_val = 0.5 * (
        t0 + _exchange(lam, w, s) + _exchange(lam, w, alpha) + _exchange(lam, w, beta)
    )
    return i_val, j_val


def _tilde_ij(lam, w, row, alpha, beta):
    """(I, J) of the second two-parameter family."""
    t_s = np.sum(_powers(lam, np.asarray(alpha) + np.asarray(beta)) * row, axis=-1)
    ex = _bilinear(_powers(lam, alpha), w, _powers(lam, beta))
    return t_s - ex, t_s + ex


def _triple_values(triple: FunctionTriple, lam: np.ndarray):
    """f, g and h on the spectra ``lam[..., n]``. The functions live on
    [eps, 1], so an eigenvalue below the triple's floor eps raises
    DomainError; one at eps itself is inside the domain."""
    lam_min = lam.min()
    if lam_min < triple.eps:
        raise DomainError(
            f"smallest eigenvalue {float(lam_min):.3e} is below the "
            f"triple's domain floor {triple.eps:.1e}"
        )
    return tuple(np.asarray(fn.value(lam), dtype=float) for fn in (triple.f, triple.g, triple.h))


def _fgh_ij(w, row, fv, gv, hv):
    """(I, J) of the (f, g, h) family from the function values on the spectrum."""
    t12 = np.sum(fv * gv * hv * row, axis=-1) + _bilinear(fv * gv, w, hv)
    t34 = _bilinear(fv, w, gv * hv) + _bilinear(gv, w, fv * hv)
    return 0.5 * t12 - 0.5 * t34, 0.5 * t12 + 0.5 * t34


def _u_value(i_val, j_val):
    """U = sqrt(I J) per batch entry, with I and J clamped at zero."""
    return np.sqrt(np.maximum(i_val, 0.0) * np.maximum(j_val, 0.0))


def _luo_u(v, i_val):
    """Luo's U = sqrt(V^2 - (V - I)^2) per batch entry, with I clamped at
    zero and the radicand at zero, together with the radicand unclamped."""
    radicand = v**2 - (v - np.maximum(i_val, 0.0)) ** 2
    return np.sqrt(np.maximum(radicand, 0.0)), radicand


def _bundle(family: str, params: dict, lam, row, i_raw, j_raw) -> QuantityBundle:
    """The bundle of one family evaluation: I and J clamped at zero against
    roundoff, U = sqrt(I J) and V = Tr[rho H0^2]."""
    i_val = _clamped(float(i_raw), "skew information")
    j_val = _clamped(float(j_raw), "anti-commutator part")
    return QuantityBundle(
        family=family,
        params=params,
        I=i_val,
        J=j_val,
        U=float(_u_value(i_val, j_val)),
        V=float(_total(lam, row)),
    )


def variance(rho: DensityMatrix, h: HermitianMatrix) -> float:
    """Tr[rho H^2] - Tr[rho H]^2, clamped at zero against roundoff."""
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {h.dim}")
    hm = h.entries
    mean = float(np.trace(rho.entries @ hm).real)
    second = float(np.trace(rho.entries @ hm @ hm).real)
    return _clamped(second - mean**2, "variance")


def covariance(rho: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix) -> complex:
    """Tr[rho (A - <A>)(B - <B>)]; complex in general, real when A == B."""
    if not (rho.dim == a.dim == b.dim):
        raise ValueError("dimension mismatch between state and observables")
    mean_a = float(np.trace(rho.entries @ a.entries).real)
    mean_b = float(np.trace(rho.entries @ b.entries).real)
    a0 = a.entries - mean_a * np.eye(a.dim)
    b0 = b.entries - mean_b * np.eye(b.dim)
    return complex(np.trace(rho.entries @ a0 @ b0))


def wy_skew(rho: DensityMatrix, h: HermitianMatrix) -> float:
    """Skew information built on the square root of the state.

    Vanishes exactly when the state and the observable commute, and never
    exceeds the variance.
    """
    lam, w, row = _pair_data(rho, h)
    i_val, _ = _wyd_ij(lam, w, row, 0.5)
    return _clamped(float(i_val), "skew information")


def wyd_family(rho: DensityMatrix, h: HermitianMatrix, alpha: float) -> QuantityBundle:
    """One-parameter interpolation family, alpha in [0, 1].

    U is computed as sqrt(I * J) and cross-checked against the variance form
    sqrt(V^2 - (V - I)^2); the two agree because I + J = 2V.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    lam, w, row = _pair_data(rho, h)
    bundle = _bundle("WYD", {"alpha": alpha}, lam, row, *_wyd_ij(lam, w, row, alpha))
    u_var = float(_luo_u(bundle.V, bundle.I)[0])
    # compared on the radicand scale V^2: the variance form cancels
    # catastrophically when I sits at rounding level (alpha near 0 or 1)
    if abs(bundle.U**2 - u_var**2) > 1e-9 * max(bundle.V**2, 1.0):
        raise RuntimeError(
            f"inconsistent uncertainty values: {bundle.U!r} vs {u_var!r}"
        )
    return bundle


def _check_exponents(alpha: float, beta: float) -> None:
    """The two exponents of ``gwyd_family`` and ``gwyd_tilde_family`` must
    be finite and nonnegative: an infinite one gives NaN or zero bundles."""
    if alpha < 0.0 or beta < 0.0:
        raise ValueError(f"exponents must be nonnegative, got ({alpha}, {beta})")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"exponents must be finite, got ({alpha}, {beta})")


def gwyd_family(
    rho: DensityMatrix, h: HermitianMatrix, alpha: float, beta: float
) -> QuantityBundle:
    """Two-parameter family with exponents alpha, beta >= 0.

    alpha + beta may exceed 1; the resulting negative power of the state is
    well defined because the state is strictly positive.
    """
    _check_exponents(alpha, beta)
    lam, w, row = _pair_data(rho, h)
    i_raw, j_raw = _gwyd_ij(lam, w, row, alpha, beta)
    return _bundle("GWYD", {"alpha": alpha, "beta": beta}, lam, row, i_raw, j_raw)


def gwyd_tilde_family(
    rho: DensityMatrix, h: HermitianMatrix, alpha: float, beta: float
) -> QuantityBundle:
    """Second two-parameter family: both exponents act on the same side, the
    remaining state weight is rho^(alpha+beta)."""
    _check_exponents(alpha, beta)
    lam, w, row = _pair_data(rho, h)
    i_raw, j_raw = _tilde_ij(lam, w, row, alpha, beta)
    return _bundle("GWYD_TILDE", {"alpha": alpha, "beta": beta}, lam, row, i_raw, j_raw)


def fgh_family(
    rho: DensityMatrix, h_obs: HermitianMatrix, triple: FunctionTriple
) -> QuantityBundle:
    """General correlation family driven by a function triple (f, g, h).

    Reduces to the power-exponent families when the triple is made of plain
    powers. The state's smallest eigenvalue must not fall below the triple's
    domain floor (negative exponents in h blow up below it).
    """
    lam, w, row = _pair_data(rho, h_obs)
    i_raw, j_raw = _fgh_ij(w, row, *_triple_values(triple, lam))
    return _bundle("FGH", {"triple": triple_to_spec(triple)}, lam, row, i_raw, j_raw)


@dataclass(frozen=True)
class EigenSum:
    """Pair-sum route: I exactly, plus the split of J into its off-diagonal
    pair sum and the diagonal remainder (J = pair_sum + diagonal)."""

    I: float
    J_pairsum: float
    J_diag: float


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index pairs (i, j), i < j, of an n x n upper triangle, kept
    for the last few sizes used."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def fgh_eigensum(
    decomp: SpectralDecomposition,
    table: MatrixElementTable,
    triple: FunctionTriple,
) -> EigenSum:
    """Evaluate the (f, g, h) family as explicit sums over eigenvalue pairs.
    The table must be ``element_table(decomp, H)`` of this same ``decomp``."""
    if table.decomp() is not decomp:
        raise ValueError("element table was not built on this decomposition")
    lam = decomp.eigenvalues
    w = table.weights
    fv, gv, hv = _triple_values(triple, lam)
    i_idx, j_idx = _upper_pairs(lam.shape[0])
    wij = w[i_idx, j_idx]
    df = fv[i_idx] - fv[j_idx]
    dg = gv[i_idx] - gv[j_idx]
    sf = fv[i_idx] + fv[j_idx]
    sg = gv[i_idx] + gv[j_idx]
    sh = hv[i_idx] + hv[j_idx]
    i_val = 0.5 * float(np.sum(df * dg * sh * wij))
    j_pair = 0.5 * float(np.sum(sf * sg * sh * wij))
    j_diag = float(np.sum(2.0 * fv * gv * hv * np.diag(w)))
    return EigenSum(I=i_val, J_pairsum=j_pair, J_diag=j_diag)


def luo_u(rho: DensityMatrix, h: HermitianMatrix) -> float:
    """sqrt(V^2 - (V - I)^2) with the square-root skew information; sits
    between the skew information and the variance."""
    lam, w, row = _pair_data(rho, h)
    v = float(_total(lam, row))
    i_raw, _ = _wyd_ij(lam, w, row, 0.5)
    u_val, radicand = _luo_u(v, _clamped(float(i_raw), "skew information"))
    if radicand < -1e-12:
        raise ValueError(f"negative radicand {float(radicand)!r}")
    return float(u_val)
