"""Property tests of the skew-information families on hypothesis-drawn states
and observables at dims 2-16.

Each example draws a dimension, a seed for the numpy generator that builds
the state and the observable, and the family parameters. Settings are
derandomized with no example database, so runs repeat.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab.functions import Const, Exp, FunctionTriple, Power
from skewlab.linalg import DensityMatrix, HermitianMatrix, element_table, hermitian_eigen
from skewlab.quantities import (
    fgh_eigensum,
    fgh_family,
    gwyd_family,
    gwyd_tilde_family,
    luo_u,
    variance,
    wy_skew,
    wyd_family,
)

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Triples with a finite bound (condition I or II), powers, exponentials and a
# constant h among them.
TRIPLES = (
    FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),
    FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5)),
    FunctionTriple(Power(p=0.5), Power(p=0.5), Const(c=2.0)),
    FunctionTriple(Power(p=0.3), Power(p=0.6), Power(p=0.1)),
    FunctionTriple(Exp(a=1.0), Exp(a=1.0), Exp(a=-1.0)),
)

dims = st.integers(min_value=2, max_value=16)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
floors = st.sampled_from((1e-3, 1e-2, 0.3))
unit = st.floats(min_value=0.0, max_value=1.0)


def draw_pair(n: int, seed: int, floor: float):
    """A faithful state mixed toward I/n by ``floor``, and a Gaussian observable."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    rho = (1 - floor) * w / np.trace(w).real + floor * np.eye(n) / n
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return rho, (x + x.conj().T) / 2


def haar_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed ^ 0x5EED)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bundles(rho, h, alpha, pair, tilde, triple):
    return {
        "wyd": wyd_family(rho, h, alpha),
        "gwyd": gwyd_family(rho, h, *pair),
        "tilde": gwyd_tilde_family(rho, h, *tilde),
        "fgh": fgh_family(rho, h, triple),
    }


def close(x: float, y: float, scale: float, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * max(abs(scale), 1e-300)


def close_values(name: str, x: float, y: float, scale: float) -> bool:
    """U = sqrt(I J) and Luo's U turn a rounding-level I into an error of
    sqrt(eps) size, so they are compared on the scale of their squares."""
    if name in ("U", "luo_u"):
        return close(x * x, y * y, scale * scale)
    return close(x, y, scale)


@st.composite
def gwyd_pairs(draw):
    """(alpha, beta) in either THM22 regime: alpha + beta <= 1/2 or in [1, 2]."""
    share, u = draw(unit), draw(unit)
    s = 0.5 * u if draw(st.booleans()) else 1.0 + u
    return s * share, s * (1.0 - share)


tilde_pairs = st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0))


@PROPERTY
@given(n=dims, seed=seeds, floor=floors, triple=st.sampled_from(TRIPLES))
def test_trace_formula_agrees_with_pair_sums(n, seed, floor, triple):
    rho_m, h_m = draw_pair(n, seed, floor)
    rho, h = DensityMatrix(rho_m), HermitianMatrix(h_m)
    d = hermitian_eigen(rho)
    bundle = fgh_family(rho, h, triple)
    pairs = fgh_eigensum(d, element_table(d, h), triple)
    scale = max(bundle.J, 1.0)
    assert close(bundle.I, pairs.I, scale)
    assert close(bundle.J, pairs.J_pairsum + pairs.J_diag, scale)


@PROPERTY
@given(n=dims, seed=seeds, floor=floors, alpha=unit, pair=gwyd_pairs(), tilde=tilde_pairs,
       triple=st.sampled_from(TRIPLES))
def test_unitary_covariance(n, seed, floor, alpha, pair, tilde, triple):
    rho_m, h_m = draw_pair(n, seed, floor)
    u = haar_unitary(n, seed)
    rho, h = DensityMatrix(rho_m), HermitianMatrix(h_m)
    rho_u = DensityMatrix(u @ rho_m @ u.conj().T)
    h_u = HermitianMatrix(u @ h_m @ u.conj().T)
    before = bundles(rho, h, alpha, pair, tilde, triple)
    after = bundles(rho_u, h_u, alpha, pair, tilde, triple)
    for name, b in before.items():
        scale = max(b.J, b.V)
        for attr in "IJUV":
            assert close_values(attr, getattr(b, attr), getattr(after[name], attr), scale), (
                name, attr)
    v = variance(rho, h)
    for fn in (wy_skew, luo_u, variance):
        assert close_values(fn.__name__, fn(rho, h), fn(rho_u, h_u), v), fn.__name__


@PROPERTY
@given(n=dims, seed=seeds, floor=floors, alpha=unit, pair=gwyd_pairs(), tilde=tilde_pairs,
       triple=st.sampled_from(TRIPLES),
       c=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
def test_quadratic_scaling_in_the_observable(n, seed, floor, alpha, pair, tilde, triple, c):
    rho_m, h_m = draw_pair(n, seed, floor)
    rho = DensityMatrix(rho_m)
    h, ch = HermitianMatrix(h_m), HermitianMatrix(c * h_m)
    base = bundles(rho, h, alpha, pair, tilde, triple)
    scaled = bundles(rho, ch, alpha, pair, tilde, triple)
    for name, b in base.items():
        scale = c * c * max(b.J, b.V)
        for attr in "IJUV":
            assert close_values(attr, c * c * getattr(b, attr), getattr(scaled[name], attr),
                                scale), (name, attr)
    v = c * c * variance(rho, h)
    for fn in (wy_skew, luo_u, variance):
        assert close_values(fn.__name__, c * c * fn(rho, h), fn(rho, ch), v), fn.__name__


@PROPERTY
@given(n=dims, seed=seeds, floor=floors, alpha=unit)
def test_chain_orderings(n, seed, floor, alpha):
    rho_m, h_m = draw_pair(n, seed, floor)
    rho, h = DensityMatrix(rho_m), HermitianMatrix(h_m)
    v = variance(rho, h)
    slack = 1e-10 * v
    i_half, u = wy_skew(rho, h), luo_u(rho, h)
    half, b = wyd_family(rho, h, 0.5), wyd_family(rho, h, alpha)
    # (2.4) 0 <= I <= U <= V
    assert 0.0 <= i_half <= u + slack
    assert u <= v + slack
    # (2.5) I_alpha <= I_half <= J_half <= J_alpha
    assert b.I <= half.I + slack
    assert half.I <= half.J + slack
    assert half.J <= b.J + slack
    # (2.7) 0 <= I_alpha <= U_alpha <= U
    assert 0.0 <= b.I <= b.U + slack
    assert b.U <= u + slack
