"""Scalar function catalog with closed-form derivatives, plus the pair
classification, bound coefficients, and grid scans built on top of it.

Everything here operates on nonnegative functions restricted to [eps, 1];
the floor eps keeps negative powers finite and must sit below the smallest
eigenvalue of any state the functions are later applied to. It is set once,
on the ``FunctionTriple`` (``classify_pair``, given no triple, takes it as an
argument); a function spec that carries its own "eps" is rejected.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DomainError, _real

__all__ = [
    "DEFAULT_EPS",
    "RATIO_GRID",
    "PAIR_GRID",
    "ScalarFunction",
    "Power",
    "Exp",
    "Const",
    "ScaledSum",
    "FunctionTriple",
    "PairClass",
    "Assumption",
    "RatioBounds",
    "classify_pair",
    "check_assumption",
    "ratio_bounds",
    "beta_coefficient",
    "cor41_beta",
    "l_value",
    "l_scan_min",
    "LScanResult",
    "lemma41_lhs",
    "lemma41_check",
    "Lemma41Report",
    "function_from_spec",
    "function_to_spec",
    "triple_from_spec",
    "triple_to_spec",
]

DEFAULT_EPS = 1e-6
RATIO_GRID = 10_000   # grid for inf/sup of log-derivative ratios
PAIR_GRID = 512       # grid for the pairwise sign / divided-difference checks
_PAIR_BLOCK = 1 << 16  # grid pairs evaluated at once by the pairwise scans
# grid pairs per row block of check_assumption: its six pair arrays stay in
# cache at this size, where a 1 << 16 block costs it twice the time
_ASSUMPTION_BLOCK = 1 << 14
_PAIR_TOL = 1e-12      # slack on the pair products, ratio signs and divided differences
_LEMMA41_SLACK = 1e-12  # relative slack on the scalar inequality's margins
# rounding of f g h: a two-point denominator up to this times max|f g h| is noise
_PRODUCT_ROUNDING = 8.0 * np.finfo(float).eps


class ScalarFunction:
    """Base: nonnegative function with closed-form derivatives, evaluated on
    the domain [eps, 1] of the triple or pair it belongs to.

    Subclasses provide value/deriv/log_value; log_deriv defaults to
    deriv/value. All evaluators accept scalars or numpy arrays.
    """

    def value(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def log_value(self, x):
        """log(value(x)), computed in closed form where cancellation matters."""
        return np.log(self.value(x))

    def log_deriv(self, x):
        """Derivative of log(value)."""
        return self.deriv(x) / self.value(x)


@dataclass(frozen=True)
class Power(ScalarFunction):
    """x**p. Negative exponents are admissible thanks to the domain floor."""

    p: float

    def value(self, x):
        return np.asarray(x, dtype=float) ** self.p

    def deriv(self, x):
        return self.p * np.asarray(x, dtype=float) ** (self.p - 1.0)

    def log_value(self, x):
        return self.p * np.log(x)

    def log_deriv(self, x):
        return self.p / np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Exp(ScalarFunction):
    """exp(a * x)."""

    a: float

    def value(self, x):
        return np.exp(self.a * np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.a * self.value(x)

    def log_value(self, x):
        return self.a * np.asarray(x, dtype=float)

    def log_deriv(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.a)


@dataclass(frozen=True)
class Const(ScalarFunction):
    """Constant c >= 0."""

    c: float

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError(f"constant must be nonnegative, got {self.c}")

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def log_value(self, x):
        if self.c == 0.0:
            raise DomainError("log of the zero constant is undefined")
        return np.full_like(np.asarray(x, dtype=float), math.log(self.c))

    def log_deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ScaledSum(ScalarFunction):
    """Nonnegative combination sum_k c_k * x**p_k with all c_k >= 0."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, exponent)

    def __post_init__(self):
        terms = tuple((float(c), float(p)) for c, p in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("scaled sum needs at least one term")
        if any(c < 0.0 for c, _ in terms):
            raise ValueError("scaled-sum coefficients must be nonnegative")
        if all(c == 0.0 for c, _ in terms):
            raise ValueError("scaled sum must have a positive coefficient")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, p in self.terms:
            out = out + c * x**p
        return out

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, p in self.terms:
            out = out + c * p * x ** (p - 1.0)
        return out


_FUNCTION_FIELDS = {
    "power": ("p",),
    "exp": ("a",),
    "const": ("c",),
    "scaled_sum": ("terms",),
}


def function_from_spec(doc: dict) -> ScalarFunction:
    """Build a catalog function from its JSON description."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"function spec must be an object with a 'kind': {doc!r}")
    doc = dict(doc)
    kind = doc.pop("kind")
    if not isinstance(kind, str) or kind not in _FUNCTION_FIELDS:
        raise ValueError(f"unknown function kind {kind!r}")
    if "eps" in doc:
        raise ValueError(
            "a function spec takes no 'eps': eps is set once, on the triple or the "
            "COR41_PAIR entry"
        )
    missing = [k for k in _FUNCTION_FIELDS[kind] if k not in doc]
    if missing:
        raise ValueError(f"function spec of kind {kind!r} misses fields {missing}")
    extra = set(doc) - set(_FUNCTION_FIELDS[kind])
    if extra:
        raise ValueError(f"unknown keys in function spec: {sorted(extra)}")
    if kind == "power":
        return Power(p=_real("p", doc["p"]))
    if kind == "exp":
        return Exp(a=_real("a", doc["a"]))
    if kind == "const":
        return Const(c=_real("c", doc["c"]))
    terms = doc["terms"]
    if not isinstance(terms, (list, tuple)) or not all(
        isinstance(t, (list, tuple)) and len(t) == 2 for t in terms
    ):
        raise ValueError(f"scaled_sum terms must be [coefficient, exponent] pairs, got {terms!r}")
    return ScaledSum(
        terms=tuple(
            (_real("scaled_sum coefficient", c), _real("scaled_sum exponent", p))
            for c, p in terms
        )
    )


def function_to_spec(fn: ScalarFunction) -> dict:
    if isinstance(fn, Power):
        return {"kind": "power", "p": fn.p}
    if isinstance(fn, Exp):
        return {"kind": "exp", "a": fn.a}
    if isinstance(fn, Const):
        return {"kind": "const", "c": fn.c}
    if isinstance(fn, ScaledSum):
        return {"kind": "scaled_sum", "terms": [[c, p] for c, p in fn.terms]}
    raise TypeError(f"cannot serialize {type(fn).__name__}")


@dataclass(frozen=True)
class FunctionTriple:
    """Triple (f, g, h) on the one domain [eps, 1]; f must be strictly
    increasing and positive so the log-derivative ratios are well defined."""

    f: ScalarFunction
    g: ScalarFunction
    h: ScalarFunction
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        grid = np.linspace(self.eps, 1.0, PAIR_GRID)
        if np.any(np.asarray(self.f.value(grid)) <= 0.0):
            raise ValueError("f must be strictly positive on [eps, 1]")
        if np.any(np.asarray(self.f.deriv(grid)) <= 0.0):
            raise ValueError("f must be strictly increasing on [eps, 1]")


def triple_from_spec(doc: dict) -> FunctionTriple:
    if not isinstance(doc, dict):
        raise ValueError("triple spec must be a JSON object")
    doc = dict(doc)
    eps = _real("eps", doc.pop("eps", DEFAULT_EPS))
    try:
        f = function_from_spec(doc.pop("f"))
        g = function_from_spec(doc.pop("g"))
        h = function_from_spec(doc.pop("h"))
    except KeyError as exc:
        raise ValueError(f"triple spec misses field {exc}") from exc
    if doc:
        raise ValueError(f"unknown keys in triple spec: {sorted(doc)}")
    return FunctionTriple(f=f, g=g, h=h, eps=eps)


def triple_to_spec(triple: FunctionTriple) -> dict:
    return {
        "f": function_to_spec(triple.f),
        "g": function_to_spec(triple.g),
        "h": function_to_spec(triple.h),
        "eps": triple.eps,
    }


class PairClass(enum.Enum):
    MONOTONE = "monotone"
    ANTI_MONOTONE = "anti-monotone"
    NEITHER = "neither"


class Assumption(enum.Enum):
    I = "I"
    II = "II"
    NEITHER = "neither"


@dataclass(frozen=True)
class RatioBounds:
    """inf/sup of the log-derivative ratios of (g over f) and (h over f)."""

    m_g: float
    M_g: float
    m_h: float
    M_h: float
    grid_size: int = RATIO_GRID

    def __post_init__(self):
        vals = (self.m_g, self.M_g, self.m_h, self.M_h)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"ratio bounds must be finite, got {vals}")
        if self.m_g > self.M_g or self.m_h > self.M_h:
            raise ValueError(f"bounds out of order: {vals}")


def _ratio_extrema(f: ScalarFunction, g: ScalarFunction, k: int, eps: float) -> tuple[float, float]:
    """inf and sup of log_deriv(g)/log_deriv(f) on [eps, 1].

    Constant-ratio pairs (power/power, exp/exp, constant numerator) are
    resolved in closed form; everything else is gridded.
    """
    if isinstance(f, Const):
        raise ValueError("ratio undefined: log-derivative of f vanishes")
    if isinstance(g, Const):
        return (0.0, 0.0)
    if isinstance(f, Power) and isinstance(g, Power):
        r = g.p / f.p
        return (r, r)
    if isinstance(f, Exp) and isinstance(g, Exp):
        r = g.a / f.a
        return (r, r)
    grid = np.linspace(eps, 1.0, k)
    ld_f = np.asarray(f.log_deriv(grid), dtype=float)
    if float(np.min(np.abs(ld_f))) < 1e-30:
        raise ValueError("ratio undefined: log-derivative of f vanishes on the grid")
    ratio = np.asarray(g.log_deriv(grid), dtype=float) / ld_f
    if not np.all(np.isfinite(ratio)):
        raise ValueError("ratio undefined: non-finite log-derivative ratio")
    return (float(ratio.min()), float(ratio.max()))


class _PairSums:
    """The pair sums x[i] + t[j] of two grids, a block of rows and columns at
    a time, each block one rank-2 matrix product: [x, 1] (rows x 2) times
    [1; t] (2 x cols). Both factors are built once.

    Each entry is x[i] * 1 + 1 * t[j], the sum of two exact products, so the
    product rounds once, as x[i] + t[j] does, and has the same bits, with
    inf and NaN alike. Only the sign of an exact zero needs care: the
    product's sum starts from +0.0 and so never gives the -0.0 that
    x[i] + t[j] gives where both are -0.0. Those cells are set after the
    product, and only on grids that hold a -0.0. A pair difference
    x[i] - y[j] is the pair sum with t = -y, as negation is exact.
    """

    def __init__(self, x: np.ndarray, t: np.ndarray):
        self.left = np.stack((x, np.ones_like(x)), axis=1)
        self.right = np.stack((np.ones_like(t), t))
        self.neg_zero_x = (x == 0.0) & np.signbit(x)
        self.neg_zero_t = (t == 0.0) & np.signbit(t)
        self.neg_zeros = bool(self.neg_zero_x.any() and self.neg_zero_t.any())

    def __call__(self, rows: slice, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(self.left[rows], self.right[:, cols], out=out)
        if self.neg_zeros:
            i = np.flatnonzero(self.neg_zero_x[rows])
            j = np.flatnonzero(self.neg_zero_t[cols])
            out[np.ix_(i, j)] = -0.0
        return out


def _pair_condition(fv: np.ndarray, gv: np.ndarray, sign: int, tol: float = _PAIR_TOL) -> bool:
    """True when sign * (f(x)-f(y)) * (g(x)-g(y)) >= -tol for every grid pair.

    Exact pass first, in O(n log n): sort by f and demand that sign * g be
    ordered block by block; ties in f contribute zero products and are grouped
    into blocks. If that fails, the pair at the two ends of the f order is
    tried as a witness, and only then is the tolerance applied pairwise.
    """
    n = fv.size
    if not (np.isfinite(fv).all() and np.isfinite(gv).all()):
        return False    # an inf or NaN makes some product NaN, which fails the test
    order = np.argsort(fv, kind="mergesort")
    fs = fv[order]
    gs = sign * gv[order]
    starts = np.flatnonzero(np.concatenate(([True], fs[1:] > fs[:-1])))
    bmax = np.maximum.reduceat(gs, starts)
    bmin = np.minimum.reduceat(gs, starts)
    if np.all(bmin[1:] >= np.maximum.accumulate(bmax)[:-1]):
        return True
    if sign * (fs[-1] - fs[0]) * (gv[order[-1]] - gv[order[0]]) < -tol:
        return False
    # Borderline: apply the product tolerance pairwise, in row blocks.
    step = max(1, _PAIR_BLOCK // n)
    d_f, d_g = _PairSums(fv, -fv), _PairSums(gv, -gv)
    every = slice(None)
    for lo in range(0, n, step):
        r = slice(lo, lo + step)
        prod = sign * d_f(r, every) * d_g(r, every)
        if not float(prod.min()) >= -tol:
            return False
    return True


def classify_pair(
    f: ScalarFunction, g: ScalarFunction, k: int = RATIO_GRID, eps: float = DEFAULT_EPS
) -> tuple[PairClass, float, float]:
    """Classify (f, g) as a monotone pair, an anti-monotone pair, or neither.

    A monotone pair moves jointly ((f(x)-f(y))(g(x)-g(y)) >= 0 on all grid
    pairs) and has a bounded nonnegative log-derivative ratio; an
    anti-monotone pair flips both signs. Returns the class together with the
    ratio's (inf, sup) over the k-point grid on [eps, 1].
    """
    if k < 2:
        raise ValueError("classification grid needs at least 2 points")
    m, big_m = _ratio_extrema(f, g, k, eps)
    grid = np.linspace(eps, 1.0, k)
    fv = np.asarray(f.value(grid), dtype=float)
    gv = np.asarray(g.value(grid), dtype=float)
    if _pair_condition(fv, gv, +1) and m >= -_PAIR_TOL:
        return (PairClass.MONOTONE, m, big_m)
    if _pair_condition(fv, gv, -1) and big_m <= _PAIR_TOL:
        return (PairClass.ANTI_MONOTONE, m, big_m)
    return (PairClass.NEITHER, m, big_m)


def ratio_bounds(triple: FunctionTriple, k: int = RATIO_GRID) -> RatioBounds:
    if k < 2:
        raise ValueError("ratio grid needs at least 2 points")
    m_g, M_g = _ratio_extrema(triple.f, triple.g, k, triple.eps)
    m_h, M_h = _ratio_extrema(triple.f, triple.h, k, triple.eps)
    return RatioBounds(m_g=m_g, M_g=M_g, m_h=m_h, M_h=M_h, grid_size=k)


def _holds(ok: np.ndarray, lower: np.ndarray) -> bool:
    """True when a row block's pair test ``ok`` holds on every pair i < j.

    The block holds rows lo..hi-1 against columns lo+1..k-1; its pairs
    j <= i are the cells of ``lower`` in the leading square, and pass.
    """
    ok[:, : lower.shape[0]] |= lower
    return bool(ok.all())


def check_assumption(triple: FunctionTriple, k_pairs: int = PAIR_GRID) -> Assumption:
    """Decide which divided-difference condition the triple satisfies.

    Condition I: (f,g) and (f,h) are monotone pairs with
    1 + dG/dF <= dH/dF on all grid pairs x < y. Condition II: (f,g) is a
    monotone pair, (f,h) an anti-monotone pair, with 1 + dG/dF + dH/dF >= 0.
    A constant h counts as a (degenerate) anti-monotone partner, which is what
    routes two-function triples through condition II.

    The divided differences are ratios of log-value differences
    log f(y) - log f(x), taken over the pairs x < y in row blocks of about
    ``_ASSUMPTION_BLOCK`` pairs. Each block of differences is one rank-2
    matrix product (``_PairSums``) whose entries are sums of two exact
    products, rounded once, so they have the bits of the broadcast
    subtraction.
    """
    if k_pairs < 2:
        raise ValueError("pair grid needs at least 2 points")
    f, g, h = triple.f, triple.g, triple.h
    grid = np.linspace(triple.eps, 1.0, k_pairs)
    fv = np.asarray(f.value(grid), dtype=float)
    gv = np.asarray(g.value(grid), dtype=float)
    hv = np.asarray(h.value(grid), dtype=float)

    m_g, M_g = _ratio_extrema(f, g, RATIO_GRID, triple.eps)
    m_h, M_h = _ratio_extrema(f, h, RATIO_GRID, triple.eps)
    fg_mono = _pair_condition(fv, gv, +1) and m_g >= -_PAIR_TOL
    if not fg_mono:
        return Assumption.NEITHER
    fh_mono = _pair_condition(fv, hv, +1) and m_h >= -_PAIR_TOL
    fh_anti = _pair_condition(fv, hv, -1) and M_h <= _PAIR_TOL

    lf, lg, lh = (np.asarray(fn.log_value(grid), dtype=float) for fn in (f, g, h))
    # the differences lv[j] - lv[i] of log values, as pair sums -lv[i] + lv[j]
    d_lf, d_lg, d_lh = (_PairSums(-lv, lv) for lv in (lf, lg, lh))
    # every pair i < j, a block of rows at a time, so memory stays O(k); each
    # pair goes through the same operations as it would alone
    cond_i, cond_ii = fh_mono, fh_anti
    rows = max(1, _ASSUMPTION_BLOCK // k_pairs)
    for lo in range(0, k_pairs - 1, rows):
        hi = min(lo + rows, k_pairs - 1)
        r, c = slice(lo, hi), slice(lo + 1, k_pairs)
        lower = np.tri(hi - lo, k=-1, dtype=bool)
        d_f = d_lf(r, c)
        if not _holds(d_f > 0.0, lower):
            raise ValueError("f is not strictly increasing on the grid")
        with np.errstate(invalid="ignore"):  # 0/0 on the pairs j == i
            r_g = d_lg(r, c) / d_f
            r_h = d_lh(r, c) / d_f
        cond_i = cond_i and _holds(1.0 + r_g <= r_h + _PAIR_TOL, lower)
        cond_ii = cond_ii and _holds(1.0 + r_g + r_h >= -_PAIR_TOL, lower)

    if cond_i:
        return Assumption.I
    if cond_ii:
        return Assumption.II
    return Assumption.NEITHER


def beta_coefficient(bounds: RatioBounds) -> float:
    """Lower-bound coefficient from the four corner values k/(1+k+l)^2.

    k ranges over the (g over f) ratio bounds and l over the (h over f)
    bounds; the minimum of the four corners is taken as stated and clamped
    at zero. A corner with 1 + k + l ~ 0 is a degenerate denominator.
    """
    corners = []
    for k in (bounds.m_g, bounds.M_g):
        for ell in (bounds.m_h, bounds.M_h):
            den = 1.0 + k + ell
            if abs(den) <= 1e-12:
                raise ValueError(
                    f"degenerate denominator: 1 + {k!r} + {ell!r} vanishes"
                )
            try:
                corners.append(k / den**2)
            except OverflowError:
                raise OverflowError(
                    f"beta corner k/(1+k+l)^2 overflows at k = {k!r}, l = {ell!r}"
                ) from None
    return max(min(corners), 0.0)


def cor41_beta(m: float, big_m: float) -> float:
    """Alternative pair-only coefficient min{m, M} / (m + M)^2.

    Kept for side-by-side comparison with the uniform four-corner formula;
    the two disagree except when the ratio's sup equals 1.
    """
    den = m + big_m
    if abs(den) <= 1e-12:
        raise ValueError("degenerate denominator: m + M vanishes")
    return min(m / den**2, big_m / den**2)


def l_value(triple: FunctionTriple, x: float, y: float) -> float:
    """Two-point ratio (f^2 diff)(g^2 diff)(h sum)^2 / (fgh diff)^2.

    Returns +inf when the denominator is excluded (see ``_excluded``): zero,
    rounding noise of f g h, or negligible against the numerator scale. The
    diagonal x == y is rejected (0/0), and so, with DomainError, is a point
    outside the triple's domain [eps, 1].
    """
    if x == y:
        raise ValueError("diagonal x == y is excluded")
    lo, hi = min(x, y), max(x, y)
    if lo < triple.eps - 1e-15:
        raise DomainError(f"argument {lo:.3e} below domain floor {triple.eps:.1e}")
    if hi > 1.0 + 1e-12:
        raise DomainError(f"argument {hi:.6f} above domain [eps, 1]")
    fx, fy = float(triple.f.value(x)), float(triple.f.value(y))
    gx, gy = float(triple.g.value(x)), float(triple.g.value(y))
    hx, hy = float(triple.h.value(x)), float(triple.h.value(y))
    num = (fx**2 - fy**2) * (gx**2 - gy**2) * (hx + hy) ** 2
    px, py = fx * gx * hx, fy * gy * hy
    d = px - py
    if _excluded(num, d, px, py):
        return math.inf
    return num / d**2


def _excluded(num, den, px, py):
    """True where the two-point ratio num / den^2 is excluded, with
    den = px - py the difference of two values of f g h: where den is zero
    or within the rounding of px and py, or negligible against the numerator
    scale. Takes scalars or broadcastable arrays alike."""
    return (np.abs(den) <= _PRODUCT_ROUNDING * np.maximum(np.abs(px), np.abs(py))) | (
        np.abs(den) < 1e-14 * np.sqrt(np.abs(num))
    )


@dataclass(frozen=True)
class LScanResult:
    min_value: float
    arg_x: float
    arg_y: float
    grid_size: int


def _check_pair_products(num, den_sq, below, xs, ys, k: int) -> None:
    """Raise ValueError at the first pair i < j of a scan block whose
    numerator or den^2 overflowed; ``below`` marks the block's pairs j <= i."""
    bad = ~(np.isfinite(num) & np.isfinite(den_sq))
    bad[:, : len(below)][below] = False
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), bad.shape[1])
        name = "numerator" if not np.isfinite(num[i, j]) else "squared denominator"
        raise ValueError(
            f"scan {name} overflows at (x, y) = ({float(xs[i])!r}, {float(ys[j])!r}), "
            f"the first such pair of the {k}-point grid"
        )


def l_scan_min(triple: FunctionTriple, k: int = 200) -> LScanResult:
    """Minimum of the two-point ratio over all off-diagonal pairs of a
    k-point grid on [eps, 1], with the argmin pair.

    A pair is excluded, as in ``l_value``, when its denominator is zero,
    within 8 rounding units of max |f g h|, or negligible against the
    numerator scale. So h == 0 gives inf rather than 0/0, and a constant
    f g h gives inf rather than a ratio of rounding noise. The ratio is
    symmetric in (x, y) bit for bit, so only the pairs i < j are evaluated,
    a block of rows at a time: O(k^2) time in O(k) memory. The three
    rows x (k - 1) float buffers are allocated once per call, and each block
    works in reshaped views of them. The argmin is the first pair in
    row-major order, which always has i < j; if every pair is excluded the
    result is (inf, grid[0], grid[0]).

    The four pointwise quantities f^2, g^2, h and f g h must be finite on the
    grid: a ValueError names the first that is not, and its first grid
    point, so an overflow never reads as a result. So must each pair's
    numerator and den^2, which can overflow where their factors do not (an
    infinite den^2 reads as a ratio of 0); blocks are checked only when
    bounds from the grid maxima allow it. A NaN ratio, left only where den^2
    underflows to 0 with a zero numerator, is returned as the minimum, as
    ``np.argmin`` would; a ratio that overflows is +inf.

    The pair differences f^2(x) - f^2(y), g^2(x) - g^2(y) and
    (f g h)(x) - (f g h)(y), and the sum h(x) + h(y), are each formed as one
    rank-2 matrix product per block (``_PairSums``), whose entries are sums
    of two exact products, rounded once, so they have the bits of the
    broadcast subtraction or addition.

    The exclusion is applied lazily. A block's ratios are computed for every
    pair, the pairs j <= i are set to +inf, and only the block's first argmin
    (its first NaN, if it has one) is tested. Excluding pairs only turns
    their values into +inf, which can neither undercut a kept candidate nor
    put a NaN before it, so a kept candidate is exactly the first argmin of
    the excluded block. Only a block whose candidate is excluded is masked
    in full and searched again.
    """
    if k < 2:
        raise ValueError("scan grid needs at least 2 points")
    grid = np.linspace(triple.eps, 1.0, k)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        fv = np.asarray(triple.f.value(grid), dtype=float)
        gv = np.asarray(triple.g.value(grid), dtype=float)
        hv = np.asarray(triple.h.value(grid), dtype=float)
        f2, g2, prod = fv**2, gv**2, fv * gv * hv
    for name, values in (("f^2", f2), ("g^2", g2), ("h", hv), ("f g h", prod)):
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(
                f"scan quantity {name} is not finite at x = "
                f"{float(grid[np.argmin(finite)])!r}, the first such point of the "
                f"{k}-point grid"
            )
    d_f2, d_g2, s_h, d_prod = (
        _PairSums(x, t) for x, t in ((f2, -f2), (g2, -g2), (hv, hv), (prod, -prod))
    )
    # a pair difference or sum is at most twice the largest |value|, and
    # rounding is monotone: unless these bounds' products overflow, none can
    top_f2, top_g2, top_h, top_p = (2.0 * float(np.max(np.abs(v))) for v in (f2, g2, hv, prod))
    checked = not math.isfinite(top_f2 * top_g2 * (top_h * top_h) + top_p * top_p)
    best, arg_i, arg_j = math.inf, 0, 0
    rows = min(max(1, _PAIR_BLOCK // k), k - 1)
    num_buf, den_buf, val_buf = (np.empty(rows * (k - 1)) for _ in range(3))
    # the pairs j <= i lie below the diagonal of a block's leading square
    lower = np.tri(rows, k=-1, dtype=bool)
    for lo in range(0, k - 1, rows):
        hi = min(lo + rows, k - 1)
        r, c = slice(lo, hi), slice(lo + 1, k)
        shape = (hi - lo, k - 1 - lo)
        size = shape[0] * shape[1]
        num, den, values = (buf[:size].reshape(shape) for buf in (num_buf, den_buf, val_buf))
        below = lower[: hi - lo, : hi - lo]
        # a product's overflow is checked; dividing by 0 is for excluded pairs
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d_f2(r, c, out=num)
            num *= d_g2(r, c, out=values)
            num *= np.square(s_h(r, c, out=values), out=values)
            d_prod(r, c, out=den)
            np.square(den, out=values)
            if checked:
                _check_pair_products(num, values, below, grid[r], grid[c], k)
            np.divide(num, values, out=values)
        values[:, : hi - lo][below] = np.inf
        i, j = divmod(int(np.argmin(values)), values.shape[1])
        if _excluded(num[i, j], den[i, j], prod[lo + i], prod[lo + 1 + j]):
            values[_excluded(num, den, prod[r, None], prod[None, c])] = np.inf
            i, j = divmod(int(np.argmin(values)), values.shape[1])
        value = float(values[i, j])
        if value < best or math.isnan(value):
            best, arg_i, arg_j = value, lo + i, lo + 1 + j
            if math.isnan(value):
                break
    return LScanResult(
        min_value=best,
        arg_x=float(grid[arg_i]),
        arg_y=float(grid[arg_j]),
        grid_size=k,
    )


def _lemma41_regime_ok(a: float, b: float, c: float) -> bool:
    first = a >= 0.0 and b >= 0.0 and c >= 0.0 and 0.0 < a + b <= c
    second = a >= 0.0 and b >= 0.0 and c <= 0.0 and a + b + c > 0.0
    return first or second


def lemma41_lhs(a: float, b: float, c: float, r):
    """(e^{2ar}-1)(e^{2br}-1)(e^{cr}+1)^2 / (e^{(a+b+c)r}-1)^2, with the r -> 0
    limit 16ab/(a+b+c)^2 substituted at r == 0. Stable near zero via expm1.
    At a + b + c = 0 the denominator vanishes for every r, and that case
    raises ValueError.

    Takes a scalar r, which runs as a one-element array and returns a float,
    or an array of any shape, which returns a new array of that shape. The
    work is done in two buffers of r's size, written with ``out=`` ufuncs
    in the order of the whole-array expression, so every array result has
    the same bits as that expression. Overflow is not reported here: where
    the exponentials overflow the value can be inf or NaN, which the caller
    must check for, as ``lemma41_check`` does.
    """
    if a + b + c == 0:
        raise ValueError(f"lemma41_lhs is undefined at a + b + c = 0 (a={a}, b={b}, c={c})")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    limit = 16.0 * a * b / (a + b + c) ** 2
    out, tmp = np.empty(r_arr.shape), np.empty(r_arr.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.expm1(np.multiply(2.0 * a, r_arr, out=out), out=out)
        out *= np.expm1(np.multiply(2.0 * b, r_arr, out=tmp), out=tmp)
        np.exp(np.multiply(c, r_arr, out=tmp), out=tmp)
        tmp += 1.0
        out *= np.square(tmp, out=tmp)
        np.expm1(np.multiply(a + b + c, r_arr, out=tmp), out=tmp)
        np.square(tmp, out=tmp)
        tmp[tmp == 0.0] = 1.0
        out /= tmp
    out[r_arr == 0.0] = limit
    return float(out[0]) if scalar else out


def _lemma41_den_sq(s: float, r: np.ndarray) -> np.ndarray:
    """``lemma41_lhs``'s squared denominator expm1(s r)^2 at each r, by the
    same operations, so it is infinite exactly where that one is."""
    with np.errstate(over="ignore"):
        return np.square(np.expm1(np.multiply(s, r)))


@dataclass(frozen=True)
class Lemma41Report:
    a: float
    b: float
    c: float
    rhs: float
    min_margin: float
    argmin_r: float
    violations: int
    limit_gap: float        # |lhs(r -> 0) - rhs|, evaluated at r = 1e-6
    r_grid: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=1)
def _default_r_grid(rmax: float, steps: int) -> np.ndarray:
    """The read-only default grid of ``lemma41_check``: ``steps`` points on
    [-rmax, rmax] minus the band |r| < 1e-4, kept for the last size used."""
    grid = np.linspace(-rmax, rmax, steps)
    grid = grid[np.abs(grid) >= 1e-4]
    grid.flags.writeable = False
    return grid


def lemma41_check(
    a: float,
    b: float,
    c: float,
    r_grid=None,
    *,
    rmax: float = 10.0,
    steps: int = 2000,
) -> Lemma41Report:
    """Margins of the scalar exponential inequality over an r grid.

    The parameters must be finite and satisfy one of the two admissible
    regimes (a, b, c >= 0 with 0 < a + b <= c, or a, b >= 0, c <= 0 with
    a + b + c > 0), and rmax must be positive, so the default grid ascends.
    The band |r| < 1e-4 is excluded from the grid to avoid
    cancellation; the r -> 0 limit is checked separately. A margin below
    -1e-12 * max(1, rhs) counts as a violation, which absorbs float noise on
    the equality family (a == b with c == a + b makes the margin identically
    zero). An lhs that is not finite, where its exponentials overflow, raises
    ValueError naming the first such r, so that no NaN margin reads as a pass.
    So does a finite lhs whose squared denominator ``expm1((a+b+c) r)^2`` is
    infinite, where the lhs reads 0 and its margin a false violation. As
    a + b + c > 0, that square grows with r, so only a grid whose largest r
    overflows it is searched for the first such r. An rhs that overflows
    raises OverflowError naming a, b and c.

    The default grid (``steps`` points on [-rmax, rmax]) is built once and
    shared, read-only, by every report of the same (rmax, steps); a grid
    passed in is filtered into an array of its own. The margins are the
    array ``lemma41_lhs`` returns, with rhs subtracted in place.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("rmax", rmax)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if rmax <= 0.0:
        raise ValueError(f"rmax must be positive, got {rmax!r}")
    if not _lemma41_regime_ok(a, b, c):
        raise ValueError(
            f"parameters (a={a}, b={b}, c={c}) violate both admissible regimes"
        )
    try:
        rhs = 16.0 * a * b / (a + b + c) ** 2
    except OverflowError:
        rhs = math.inf
    if not math.isfinite(rhs):
        raise OverflowError(
            f"lemma41 rhs 16ab/(a+b+c)^2 overflows at a = {a!r}, b = {b!r}, c = {c!r}"
        )
    if r_grid is None:
        r_grid = _default_r_grid(rmax, steps)
        top = r_grid[-1:]   # the grid ascends
    else:
        r_grid = np.asarray(r_grid, dtype=float)
        r_grid = r_grid[np.abs(r_grid) >= 1e-4]
        top = r_grid.max(initial=-np.inf, keepdims=True)
    if r_grid.size == 0:
        raise ValueError("r grid is empty after excluding the |r| < 1e-4 band")
    margins = lemma41_lhs(a, b, c, r_grid)
    finite = np.isfinite(margins)
    if not finite.all():
        bad = float(r_grid[np.argmin(finite)])
        raise ValueError(
            f"lemma41 lhs is not finite at r = {bad!r} (a={a}, b={b}, c={c}): "
            "its exponentials overflow there, so choose a smaller rmax"
        )
    if np.isinf(_lemma41_den_sq(a + b + c, top)[0]):
        bad = float(r_grid[np.argmax(np.isinf(_lemma41_den_sq(a + b + c, r_grid)))])
        raise ValueError(
            f"lemma41 denominator expm1((a+b+c) r)^2 overflows at r = {bad!r} "
            f"(a={a}, b={b}, c={c}): the lhs reads 0 there, so choose a smaller rmax"
        )
    margins -= rhs
    worst = int(np.argmin(margins))
    violations = int(np.count_nonzero(margins < -_LEMMA41_SLACK * max(1.0, rhs)))
    limit_gap = abs(lemma41_lhs(a, b, c, 1e-6) - rhs)
    return Lemma41Report(
        a=a,
        b=b,
        c=c,
        rhs=rhs,
        min_margin=float(margins[worst]),
        argmin_r=float(r_grid[worst]),
        violations=violations,
        limit_gap=limit_gap,
        r_grid=r_grid,
        margins=margins,
    )
