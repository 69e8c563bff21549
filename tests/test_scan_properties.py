"""Property tests: the blocked grid scans in ``functions`` return exactly what
the dense k x k references below return.

``dense_l_scan_min`` and ``dense_pair_condition`` are the full-matrix forms
of ``l_scan_min`` and ``_pair_condition``: they evaluate every grid pair at
once. The fast forms must agree with them bit for bit (compared by ``repr``),
so the tests demand equality, not closeness. ``_PairSums``, which forms the
scans' pair differences and sums, is held to broadcasting in the same way.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab import functions
from skewlab.functions import (
    Const,
    Exp,
    FunctionTriple,
    LScanResult,
    PairClass,
    Power,
    ScaledSum,
    beta_coefficient,
    check_assumption,
    classify_pair,
    l_scan_min,
    ratio_bounds,
)
from skewlab.harness import ConfigError, InequalityId, InequalitySetting

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FEW = settings(PROPERTY, max_examples=3)


def dense_l_scan_min(triple: FunctionTriple, k: int) -> LScanResult:
    grid = np.linspace(triple.eps, 1.0, k)
    fv = np.asarray(triple.f.value(grid), dtype=float)
    gv = np.asarray(triple.g.value(grid), dtype=float)
    hv = np.asarray(triple.h.value(grid), dtype=float)
    num = (
        (fv[:, None] ** 2 - fv[None, :] ** 2)
        * (gv[:, None] ** 2 - gv[None, :] ** 2)
        * (hv[:, None] + hv[None, :]) ** 2
    )
    prod = fv * gv * hv
    den = prod[:, None] - prod[None, :]
    rounding = 8 * np.finfo(float).eps * np.maximum(np.abs(prod[:, None]), np.abs(prod[None, :]))
    bad = (np.abs(den) < 1e-14 * np.sqrt(np.abs(num))) | (den == 0.0) | (np.abs(den) <= rounding)
    np.fill_diagonal(bad, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / np.where(bad, 1.0, den) ** 2
    # 0 / 0 where den^2 underflows: the ratio is the numerator's zero
    values = np.where(bad, np.inf, np.where(np.isnan(ratio), num, ratio))
    i, j = divmod(int(np.argmin(values)), k)
    return LScanResult(
        min_value=float(values[i, j]),
        arg_x=float(grid[i]),
        arg_y=float(grid[j]),
        grid_size=k,
    )


def triu_check_assumption(triple: FunctionTriple, k_pairs: int, tol: float = 1e-12):
    """``check_assumption`` with every grid pair i < j built at once, not
    only the neighbouring ones."""
    f, g, h = triple.f, triple.g, triple.h
    grid = np.linspace(triple.eps, 1.0, k_pairs)
    fv, gv, hv = (np.asarray(fn.value(grid), dtype=float) for fn in (f, g, h))
    m_g, _ = functions._ratio_extrema(f, g, functions.RATIO_GRID, triple.eps)
    m_h, M_h = functions._ratio_extrema(f, h, functions.RATIO_GRID, triple.eps)
    if not (functions._pair_condition(fv, gv, +1, tol) and m_g >= -tol):
        return functions.Assumption.NEITHER
    fh_mono = functions._pair_condition(fv, hv, +1, tol) and m_h >= -tol
    fh_anti = functions._pair_condition(fv, hv, -1, tol) and M_h <= tol
    lf, lg, lh = (np.asarray(fn.log_value(grid), dtype=float) for fn in (f, g, h))
    i, j = np.triu_indices(k_pairs, k=1)
    d_f = lf[j] - lf[i]
    if np.any(d_f <= 0.0):
        raise ValueError("f is not strictly increasing on the grid")
    with np.errstate(invalid="ignore"):  # a zero g or h: -inf - -inf is NaN, so neither
        r_g = (lg[j] - lg[i]) / d_f
        r_h = (lh[j] - lh[i]) / d_f
    if fh_mono and bool(np.all(1.0 + r_g <= r_h + tol)):
        return functions.Assumption.I
    if fh_anti and bool(np.all(1.0 + r_g + r_h >= -tol)):
        return functions.Assumption.II
    return functions.Assumption.NEITHER


def dense_pair_condition(fv, gv, sign, tol=1e-12):
    with np.errstate(invalid="ignore", over="ignore"):
        prod = sign * (fv[:, None] - fv[None, :]) * (gv[:, None] - gv[None, :])
    return float(prod.min()) >= -tol


# ---------------------------------------------------------------- strategies

def _terms(min_c, min_p):
    term = st.tuples(st.floats(min_c, 2.0), st.floats(min_p, 3.0))
    return st.lists(term, min_size=1, max_size=3).filter(lambda ts: any(c > 0 for c, _ in ts))


@st.composite
def catalog_function(draw, increasing=False):
    """Any catalog function, or a strictly increasing positive one for f."""
    kinds = ["power", "exp", "scaled_sum"] + ([] if increasing else ["const"])
    kind = draw(st.sampled_from(kinds))
    if kind == "power":
        return Power(p=draw(st.floats(0.1 if increasing else -2.0, 3.0)))
    if kind == "exp":
        return Exp(a=draw(st.floats(0.1 if increasing else -3.0, 3.0)))
    if kind == "const":
        return Const(c=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0)))
    terms = draw(_terms(0.1, 0.1) if increasing else _terms(0.0, -1.0))
    return ScaledSum(terms=tuple(terms))


@st.composite
def triples(draw):
    eps = draw(st.floats(1e-6, 1e-2))
    return FunctionTriple(
        f=draw(catalog_function(increasing=True)),
        g=draw(catalog_function()),
        h=draw(catalog_function()),
        eps=eps,
    )


small_grids = st.sampled_from([2, 3]) | st.integers(4, 400)
large_grids = st.integers(2049, 2200)
# row-block sizes: one row per block, a few rows, and the shipped size
blocks = st.sampled_from([1, 7, 64, functions._PAIR_BLOCK])
# row-block sizes of the pair test's fallback, the one blocked loop that
# check_assumption runs: the same, 1 << 14 and the shipped size
FALLBACK_BLOCKS = [1, 7, 64, 1 << 14, functions._PAIR_BLOCK]


# ------------------------------------------------------------------ l_scan_min

@PROPERTY
@given(triple=triples(), k=small_grids, block=blocks)
def test_l_scan_min_matches_dense(triple, k, block):
    with patch.object(functions, "_PAIR_BLOCK", block):
        got = l_scan_min(triple, k)
    assert repr(got) == repr(dense_l_scan_min(triple, k))


@FEW
@given(triple=triples(), k=large_grids)
def test_l_scan_min_matches_dense_above_2048(triple, k):
    assert repr(l_scan_min(triple, k)) == repr(dense_l_scan_min(triple, k))


@PROPERTY
@given(eps=st.floats(1e-6, 1e-2), k=small_grids, block=blocks)
def test_constant_product_triple_matches_dense(eps, k, block):
    # f g h == 1 up to rounding, which the rounding bound on den excludes
    t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-2.0), eps=eps)
    with patch.object(functions, "_PAIR_BLOCK", block):
        got = l_scan_min(t, k)
    assert repr(got) == repr(dense_l_scan_min(t, k))
    assert got == LScanResult(min_value=np.inf, arg_x=eps, arg_y=eps, grid_size=k)


@pytest.mark.parametrize("k", [2, 3, 50, 51])
def test_constant_product_triple_all_inf(k):
    eps = 1e-6
    t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-2.0))
    want = LScanResult(min_value=np.inf, arg_x=eps, arg_y=eps, grid_size=k)
    assert l_scan_min(t, k) == want == dense_l_scan_min(t, k)


@pytest.mark.parametrize("k", [200, 2000])
def test_constant_product_triple_excluded_at_its_rounding(k):
    # f g h == 1 up to rounding, so every denominator is rounding noise of
    # about 1e-16; near x = 1 that noise beats 1e-14 * sqrt|num|, and only a
    # bound scaled by |f g h| itself excludes it
    eps = 1e-6
    t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-2.0))
    assert l_scan_min(t, k) == LScanResult(min_value=np.inf, arg_x=eps, arg_y=eps, grid_size=k)
    grid = np.linspace(eps, 1.0, k)
    assert all(functions.l_value(t, x, y) == np.inf for x, y in zip(grid[:-1], grid[1:]))


def test_zero_h_excludes_every_pair():
    # f g h == 0 on the whole grid: every pair is 0/0, which l_value calls inf
    eps = 1e-6
    t = FunctionTriple(Power(p=1.0), Power(p=0.5), Const(c=0.0))
    assert l_scan_min(t, 50) == LScanResult(min_value=np.inf, arg_x=eps, arg_y=eps, grid_size=50)
    assert functions.l_value(t, 0.25, 0.5) == np.inf


# Triples whose raw block minimum falls on an excluded pair, so that
# l_scan_min masks the block in full and searches it again.
FALLBACK_TRIPLES = {
    # f g h == 0: every pair is 0/0
    "zero-h": FunctionTriple(Power(p=1.0), Power(p=0.5), Const(c=0.0)),
    # f g h == 1 up to rounding
    "constant-product": FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-2.0)),
    # num < 0 and den at the rounding of f g h, so the raw ratio is below -1e28
    "negative-tiny-den": FunctionTriple(Power(p=1.0), Power(p=-1.0), Exp(a=1e-12)),
}


@pytest.mark.parametrize("name", FALLBACK_TRIPLES)
@pytest.mark.parametrize("k", [2, 3, 50, 200, 701])
@pytest.mark.parametrize("block", [1, 7, 64, functions._PAIR_BLOCK])
def test_l_scan_min_fallback_matches_dense(name, k, block):
    triple = FALLBACK_TRIPLES[name]
    excluded = functions._excluded
    masked = []

    def spy(num, den, px, py):
        masked.append(np.ndim(num) > 0)
        return excluded(num, den, px, py)

    with patch.object(functions, "_PAIR_BLOCK", block), \
            patch.object(functions, "_excluded", spy):
        got = l_scan_min(triple, k)
    assert any(masked), "no block fell back to the full mask"
    assert repr(got) == repr(dense_l_scan_min(triple, k))


# ------------------------------------------------------------- pair condition

@PROPERTY
@given(triple=triples(), k=small_grids | large_grids, sign=st.sampled_from([1, -1]))
def test_pair_condition_on_catalog_values_matches_dense(triple, k, sign):
    grid = np.linspace(triple.eps, 1.0, k)
    fv, gv, hv = (np.asarray(fn.value(grid), dtype=float) for fn in (triple.f, triple.g, triple.h))
    for other in (gv, hv):
        assert functions._pair_condition(fv, other, sign) == dense_pair_condition(fv, other, sign)


@st.composite
def near_borderline(draw):
    """Values of f (possibly with ties) and a g that is monotone, or
    anti-monotone, in f with plateaus, plus noise around the product
    tolerance: inside a plateau the noise breaks the ordering by products
    near 1e-12, so the pairwise fallback decides."""
    n = draw(st.sampled_from([2, 3]) | st.integers(4, 600) | large_grids)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fv = rng.uniform(0.0, 1.0, n)
    if draw(st.booleans()):
        fv = np.round(fv, 2)                        # ties in f form blocks
    direction = draw(st.sampled_from([1.0, -1.0]))
    plateaus = np.round(fv**2, draw(st.integers(1, 4)))
    noise = 10.0 ** draw(st.floats(-16.0, -9.0))
    gv = direction * plateaus + noise * rng.standard_normal(n)
    return fv, gv


@PROPERTY
@given(values=near_borderline(), sign=st.sampled_from([1, -1]))
def test_pair_condition_near_borderline_matches_dense(values, sign):
    fv, gv = values
    assert functions._pair_condition(fv, gv, sign) == dense_pair_condition(fv, gv, sign)


def test_pair_condition_fallback_applies_tolerance():
    fv = np.linspace(0.0, 1.0, 3000)
    gv = fv.copy()
    gv[1000] = gv[1001] + 3e-13      # one product -1e-16: out of order, within tol
    assert functions._pair_condition(fv, gv, +1)
    assert dense_pair_condition(fv, gv, +1)
    gv[1000] = gv[1001] + 1e-8       # now -3.3e-12, beyond tol
    assert not functions._pair_condition(fv, gv, +1)
    assert not dense_pair_condition(fv, gv, +1)


def test_pair_condition_non_finite_fails_as_dense():
    fv = np.linspace(0.1, 1.0, 5)
    for bad in (np.inf, np.nan):
        gv = fv.copy()
        gv[2] = bad
        assert not functions._pair_condition(fv, gv, +1)
        assert not dense_pair_condition(fv, gv, +1)


# ------------------------------------------- classify_pair and check_assumption

@PROPERTY
@given(triple=triples(), k=small_grids)
def test_classification_matches_dense(triple, k):
    def run():
        out = []
        for fn, args in ((classify_pair, (triple.f, triple.g, k)),
                         (classify_pair, (triple.f, triple.h, k)),
                         (check_assumption, (triple, k))):
            try:
                out.append(repr(fn(*args)))
            except (ValueError, ZeroDivisionError) as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    got = run()
    with patch.object(functions, "_pair_condition", dense_pair_condition):
        assert got == run()


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


@PROPERTY
@given(triple=triples(), k=small_grids)
def test_check_assumption_matches_triu_form(triple, k):
    assert _outcome(check_assumption, triple, k) == _outcome(triu_check_assumption, triple, k)


def two_step_pair_plan(triple: FunctionTriple):
    """COR41_PAIR's plan with its premise checked twice: ``check_assumption``
    on (f, g, 1), then (f, g) classified on its own grid as a monotone pair."""
    assumption = check_assumption(triple)
    kind, _, _ = classify_pair(triple.f, triple.g, eps=triple.eps)
    if kind is not PairClass.MONOTONE:
        raise ConfigError("COR41_PAIR requires (f, g) to be a monotone pair")
    return assumption, beta_coefficient(ratio_bounds(triple))


def pair_plan(triple: FunctionTriple):
    setting = InequalitySetting(InequalityId.COR41_PAIR, triple=triple)
    return setting.assumption, setting.coefficient


# a zero-constant g is left out: its log is -inf, which check_assumption reads
# as neither condition and the classification as a monotone pair
@settings(PROPERTY, max_examples=300)
@given(f=catalog_function(increasing=True),
       g=catalog_function().filter(lambda g: g != Const(c=0.0)),
       eps=st.floats(1e-6, 1e-2))
def test_pair_premise_is_check_assumption_at_h_one(f, g, eps):
    triple = FunctionTriple(f, g, Const(c=1.0), eps)
    assert _outcome(pair_plan, triple) == _outcome(two_step_pair_plan, triple)


@pytest.mark.parametrize("g, h", [
    (Power(p=1.0), Const(c=0.0)),
    (Const(c=0.0), Power(p=1.0)),
    (Const(c=0.0), Const(c=1.0)),
    (Const(c=0.0), Const(c=0.0)),
])
def test_zero_constant_meets_neither_condition(g, h):
    triple = FunctionTriple(Power(p=1.0), g, h)
    assert check_assumption(triple) is functions.Assumption.NEITHER
    assert triu_check_assumption(triple, 50) is functions.Assumption.NEITHER


# f = h = e^{a x} and a constant g: each ratio r_g is 0 and each r_h is 1, so
# condition I holds with its whole tolerance to spare. Summing the log values
# first, log h - log g - (1 - tol) log f, loses that slack to rounding
# against log g = -76, and gives neither condition
BOUNDARY_TRIPLE = FunctionTriple(
    Exp(a=0.8520169501441419), Const(c=9.91561153496361e-34), Exp(a=0.8520169501441419)
)


@pytest.mark.parametrize("triple", [
    FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),   # condition I
    FunctionTriple(Power(p=1.0), Power(p=2.0), Const(c=1.0)),     # condition II
    FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5)),
    # condition II fails only on pairs with both points above 2/3
    FunctionTriple(Power(p=1.0), Power(p=1.0), Exp(a=-3.0)),
    BOUNDARY_TRIPLE,
])
@pytest.mark.parametrize("block", [1, 7, 1 << 14, functions._PAIR_BLOCK])
def test_check_assumption_matches_triu_form_on_known_triples(triple, block):
    with patch.object(functions, "_PAIR_BLOCK", block):
        got = check_assumption(triple, 600)
    assert got == triu_check_assumption(triple, 600)


def test_check_assumption_keeps_the_tolerance_on_the_ratio_scale():
    assert check_assumption(BOUNDARY_TRIPLE, 1000) is functions.Assumption.I
    assert triu_check_assumption(BOUNDARY_TRIPLE, 1000) is functions.Assumption.I


@pytest.mark.parametrize("triple", [
    FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),   # condition I
    FunctionTriple(Power(p=1.0), Power(p=2.0), Const(c=1.0)),     # condition II
    FunctionTriple(Power(p=1.0), Power(p=1.0), Exp(a=-3.0)),      # neither
    FunctionTriple(Exp(a=1.0), Exp(a=0.5), Exp(a=2.0)),           # condition I
    FunctionTriple(Power(p=1.0), ScaledSum(((1.0, 1.0), (1.0, 2.0))), Power(p=-0.25)),
    # g falls on [eps, 0.0063] though g(1) > g(eps), so (f, g) is decided by
    # the pair test's fallback, which finds the falling pairs: neither
    FunctionTriple(Power(p=1.0), ScaledSum(((2e6, 2.0), (1.0, -1.0))), Power(p=1.0)),
])
@pytest.mark.parametrize("k_pairs", [2, 3, 130, 512])
@pytest.mark.parametrize("block", FALLBACK_BLOCKS)
def test_check_assumption_matches_triu_form_on_grid_sizes(triple, k_pairs, block):
    with patch.object(functions, "_PAIR_BLOCK", block):
        got = _outcome(check_assumption, triple, k_pairs)
    assert got == _outcome(triu_check_assumption, triple, k_pairs)


# ------------------------------------------------------------------ pair sums

# special values among ordinary ones: signed zeros, infinities, NaN, the
# smallest subnormals and normals, and magnitudes near 1e-300 and 1e300
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
           -1.7976931348623157e308, 1.0, -1.0]
pair_values = st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=300)


def _reprs(a):
    return list(map(repr, a.ravel().tolist()))


def _assert_pair_sums(x, y, rows, cols):
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        got_diff = functions._PairSums(x, -y)(rows, cols)
        got_sum = functions._PairSums(x, y)(rows, cols)
        want_diff = x[rows, None] - y[None, cols]
        want_sum = x[rows, None] + y[None, cols]
    assert _reprs(got_diff) == _reprs(want_diff)
    assert _reprs(got_sum) == _reprs(want_sum)


@PROPERTY
@given(x=pair_values, y=pair_values, data=st.data())
def test_pair_sums_match_broadcast(x, y, data):
    lo = data.draw(st.integers(0, len(x) - 1))
    hi = data.draw(st.integers(lo + 1, len(x)))
    start = data.draw(st.integers(0, len(y) - 1))
    _assert_pair_sums(x, y, slice(lo, hi), slice(start, None))


@pytest.mark.parametrize("n", [len(SPECIAL), 100, 512])
def test_pair_sums_match_broadcast_on_every_special_pair(n):
    # every pair of special values; at n = 512 a block has 262,144 cells,
    # enough for a threaded BLAS to split the product across its threads
    values = np.resize(np.array(SPECIAL), n)
    rng = np.random.default_rng(n)
    _assert_pair_sums(values, rng.permutation(values), slice(None), slice(None))
    _assert_pair_sums(values, values, slice(3, None), slice(1, -2))
