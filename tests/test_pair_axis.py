"""The observables' pair axis against the per-observable engine it replaced.

``harness._Batch`` carries the observables A and B on one leading axis of 2:
one element-table call covers both, and each kernel evaluates a family of
(I, J) on both in one call. ``ReferenceBatch`` and ``REFERENCE_KERNELS``
below are the per-observable forms: one table, one weight stack and one
family call per observable, with U_A and U_B multiplied afterwards.
CHAIN_25's reference checks the same two links as its kernel.

Both sides run in one process on the same draws, so every lhs and rhs must
agree by ``repr``, whatever the platform's BLAS.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab import harness
from skewlab.cli import load_default_config
from skewlab.harness import INEQUALITIES, InequalityId
from skewlab.linalg import eigh_stack, element_tables
from skewlab.quantities import (
    _fgh_ij,
    _gwyd_ij,
    _luo_u,
    _powers,
    _tilde_ij,
    _total,
    _triple_values,
    _u_value,
    _wyd_ij,
)

PROPERTY = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DELTA = 1e-3


class ReferenceBatch:
    """One weight stack, row sum and variance per observable."""

    def __init__(self, lam, ta, tb):
        self.lam = lam
        self.w = (np.abs(ta) ** 2, np.abs(tb) ** 2)
        self.row = tuple(w.sum(axis=-1) for w in self.w)
        self.var = tuple(_total(lam, row) for row in self.row)
        d = np.einsum("sij,sji->si", ta, tb)
        self.im_d = d.imag
        self.cov = np.sum(lam * d.real, axis=-1)

    def comm_sq(self, weights):
        return 4.0 * np.sum(weights * self.im_d, axis=-1) ** 2

    def wyd(self, k, alpha):
        return _wyd_ij(self.lam, self.w[k], self.row[k], alpha)

    def u_product(self, family, *params):
        ua, ub = (_u_value(*family(self.lam, w, row, *params)) for w, row in zip(self.w, self.row))
        return ua * ub

    @functools.cached_property
    def half(self):
        return self.wyd(0, 0.5), self.wyd(1, 0.5)

    def luo_u(self, k):
        return _luo_u(self.var[k], self.half[k][0])[0]


def _fgh(b, params, plan):
    fv, gv, hv = _triple_values(plan.triple, b.lam)
    lhs = _u_value(*_fgh_ij(b.w[0], b.row[0], fv, gv, hv)) * _u_value(
        *_fgh_ij(b.w[1], b.row[1], fv, gv, hv)
    )
    return lhs, plan.beta * b.comm_sq(fv * gv * hv), {}


def _thm23(b, params, plan):
    alpha, beta = params["alpha"], params["beta"]
    s = alpha + beta
    rhs = alpha * beta / s**2 * b.comm_sq(_powers(b.lam, s))
    return b.u_product(_tilde_ij, alpha, beta), rhs, {}


REFERENCE_KERNELS = {
    InequalityId.HEISENBERG_21: lambda b, p, plan: (
        b.var[0] * b.var[1], 0.25 * b.comm_sq(b.lam), {}),
    InequalityId.SCHRODINGER: lambda b, p, plan: (
        b.var[0] * b.var[1] - b.cov**2, 0.25 * b.comm_sq(b.lam), {}),
    InequalityId.LUO_23: lambda b, p, plan: (
        b.luo_u(0) * b.luo_u(1), 0.25 * b.comm_sq(b.lam), {}),
    InequalityId.NAIVE_WY_SHOULD_FAIL: lambda b, p, plan: (
        np.maximum(b.half[0][0], 0.0) * np.maximum(b.half[1][0], 0.0),
        0.25 * b.comm_sq(b.lam), {}),
    InequalityId.THM21_WYD: lambda b, p, plan: (
        b.u_product(_wyd_ij, p["alpha"]),
        p["alpha"] * (1.0 - p["alpha"]) * b.comm_sq(b.lam), {}),
    InequalityId.THM22_GWYD: lambda b, p, plan: (
        b.u_product(_gwyd_ij, p["alpha"], p["beta"]),
        p["alpha"] * p["beta"] * b.comm_sq(b.lam), {}),
    InequalityId.THM23_TILDE: _thm23,
    InequalityId.THM31_FGH: _fgh,
    InequalityId.COR41_PAIR: _fgh,
    InequalityId.CHAIN_24: lambda b, p, plan: harness._chain(
        (0.0, np.maximum(b.half[0][0], 0.0), b.luo_u(0), b.var[0]), ("I>=0", "U>=I", "V>=U")),
    InequalityId.CHAIN_25: lambda b, p, plan: harness._chain(
        (b.wyd(0, p["alpha"])[0], *b.half[0]), ("I_half>=I_alpha", "J_half>=I_half")),
    InequalityId.CHAIN_27: lambda b, p, plan: harness._chain(
        (0.0, b.wyd(0, p["alpha"])[0], _u_value(*b.wyd(0, p["alpha"])), b.luo_u(0)),
        ("I_alpha>=0", "U_alpha>=I_alpha", "U>=U_alpha")),
}


@functools.cache
def default_entries():
    """The default campaign's entries, one per id at least, with their plans."""
    config = harness.config_from_dict(load_default_config())
    return [(s, harness._plan(s)) for s in config.inequalities]


@st.composite
def entries(draw, mode):
    """The default entries with their parameters fixed, cycled or drawn.
    The two-parameter ids are fixed whole or drawn whole, so ``cycled``
    draws theirs."""
    unit = st.floats(0.0, 1.0)
    out = []
    for setting, plan in default_entries():
        names = INEQUALITIES[setting.id].params
        if not names:
            out.append((setting, plan))
            continue
        alpha, beta = None, None
        if mode == "cycled" and names == ("alpha",):
            alpha = tuple(draw(st.lists(unit, min_size=1, max_size=4)))
        elif mode == "fixed" and setting.id is InequalityId.THM22_GWYD:
            s = draw(st.floats(0.0, 0.5) | st.floats(1.0, 2.0))
            alpha = s * draw(unit)
            beta = s - alpha
        elif mode == "fixed" and setting.id is InequalityId.THM23_TILDE:
            alpha, beta = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
        elif mode == "fixed":
            alpha = draw(unit)
        out.append((dataclasses.replace(setting, alpha=alpha, beta=beta), plan))
    return out


@pytest.mark.parametrize("mode", ["fixed", "cycled", "drawn"])
@pytest.mark.parametrize("many", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16, 64])
@PROPERTY
@given(data=st.data())
def test_pair_axis_matches_per_observable_reference(dim, many, mode, data):
    size = data.draw(st.integers(2, 6)) if many else 1
    seed = data.draw(st.integers(0, 2**32 - 1))
    start = data.draw(st.integers(0, 10_000))
    indices = np.arange(start, start + size)
    rho, obs = harness._draw_block(seed, dim, indices, DELTA)
    assert obs.shape == (2, size, dim, dim) and obs.flags.c_contiguous
    lam, vectors = eigh_stack(rho, density=True)
    batch = harness._Batch(lam, element_tables(lam, vectors, obs))
    ref = ReferenceBatch(
        lam, element_tables(lam, vectors, obs[0]), element_tables(lam, vectors, obs[1])
    )
    for ordinal, (setting, plan) in enumerate(data.draw(entries(mode))):
        params = harness._block_params(setting, indices, seed, dim, ordinal)
        got = harness._evaluate_block(setting, batch, params, plan, harness.DEFAULT_SLACK)
        lhs, rhs, extra = REFERENCE_KERNELS[setting.id](ref, params, plan)
        where = (setting.id.value, dim, size)
        assert repr(got.lhs.tolist()) == repr(np.broadcast_to(lhs, (size,)).tolist()), where
        assert repr(got.rhs.tolist()) == repr(np.broadcast_to(rhs, (size,)).tolist()), where
        if "link" in extra:
            assert got.params["link"].tolist() == extra["link"].tolist(), where
