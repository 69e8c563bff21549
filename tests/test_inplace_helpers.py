"""Byte-identity tests: the sample builders in ``harness`` and
``linalg._hermitian_part`` write into fresh arrays in place, and must give
exactly what the whole-array expressions below give.

The references are those expressions as plain numpy. Both sides run in one
process on the same inputs, so the comparison does not depend on the
platform's BLAS: any moved bit is a failure, compared with ``tobytes``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewlab.harness import _ginibre_from, _observable_from, _state_from
from skewlab.linalg import ASYMMETRY_TOL, _hermitian_part, _norms

PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_ginibre_from(re, im):
    return (re + 1j * im) / math.sqrt(2)


def reference_state_from(g, delta):
    n = g.shape[-1]
    w = g @ np.swapaxes(g, -1, -2).conj()
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return (1.0 - delta) * w / np.asarray(tr)[..., None, None] + (delta / n) * np.eye(n)


def reference_observable_from(g):
    return (g + np.swapaxes(g, -1, -2).conj()) / 2


def reference_hermitian_part(a):
    ah = np.swapaxes(a, -1, -2).conj()
    asym = _norms(a - ah)
    bad = asym > ASYMMETRY_TOL * np.maximum(1.0, _norms(a))
    if bad.any():
        raise ValueError(
            f"input is not self-adjoint: asymmetry {asym[bad].flat[0]:.3e} "
            "exceeds threshold"
        )
    return (a + ah) / 2


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def normals(seed, stack, n, scale):
    """Six (n, n) draws per sample, laid out as ``_draw_block`` lays them out:
    [S, 6, n, n] for a stack of S, or [6, n, n] for one sample."""
    shape = (6, n, n) if stack is None else (stack, 6, n, n)
    return np.random.default_rng(seed).standard_normal(shape) * scale


@st.composite
def draws(draw):
    n = draw(st.integers(2, 64))
    stack = draw(st.none() | st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return normals(draw(st.integers(0, 2**32 - 1)), stack, n, scale)


def ginibres(z):
    """The (re, im) views that ``_draw_block`` passes: every other draw."""
    return z[..., 0::2, :, :], z[..., 1::2, :, :]


@PROPERTY
@given(z=draws())
def test_ginibre_from_matches_reference(z):
    re, im = ginibres(z)
    assert same_bytes(_ginibre_from(re, im), reference_ginibre_from(re, im))


@PROPERTY
@given(z=draws(), delta=st.sampled_from([0.0, 1e-3, 0.3]))
def test_state_from_matches_reference(z, delta):
    g = reference_ginibre_from(*ginibres(z))[..., 0, :, :]
    assert same_bytes(_state_from(g, delta), reference_state_from(g, delta))


@PROPERTY
@given(z=draws(), which=st.sampled_from([1, 2]))
def test_observable_from_matches_reference(z, which):
    g = reference_ginibre_from(*ginibres(z))[..., which, :, :]   # a strided view
    assert same_bytes(_observable_from(g), reference_observable_from(g))


@PROPERTY
@given(z=draws(), delta=st.sampled_from([0.0, 1e-3]))
def test_hermitian_part_matches_reference(z, delta):
    g = reference_ginibre_from(*ginibres(z))
    for a in (reference_state_from(g[..., 0, :, :], delta),
              reference_observable_from(g[..., 1, :, :]),
              np.swapaxes(reference_observable_from(g[..., 2, :, :]), -1, -2)):
        before = a.copy()
        assert same_bytes(_hermitian_part(a), reference_hermitian_part(a))
        assert same_bytes(a, before)


@pytest.mark.parametrize("stack", [None, 2])
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_all_helpers_match_reference_at_256(stack, delta):
    z = normals(256, stack, 256, 1.0)
    re, im = ginibres(z)
    g = _ginibre_from(re, im)
    assert same_bytes(g, reference_ginibre_from(re, im))
    rho = _state_from(g[..., 0, :, :], delta)
    assert same_bytes(rho, reference_state_from(g[..., 0, :, :], delta))
    obs = _observable_from(g[..., 1, :, :])
    assert same_bytes(obs, reference_observable_from(g[..., 1, :, :]))
    for a in (rho, obs):
        assert same_bytes(_hermitian_part(a), reference_hermitian_part(a))


def test_hermitian_part_rejects_as_reference():
    a = np.random.default_rng(5).standard_normal((3, 4, 4)) + 0j
    a[1] = a[1] @ a[1].T
    a[2] = a[2] + a[2].T
    with pytest.raises(ValueError) as want:
        reference_hermitian_part(a)
    before = a.copy()
    with pytest.raises(ValueError) as got:
        _hermitian_part(a)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("input is not self-adjoint: asymmetry ")
    assert same_bytes(a, before)
