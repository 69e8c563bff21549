"""Randomized verification campaigns for the uncertainty-relation inequalities.

Every fact about one inequality id lives in its ``Inequality`` record in
``INEQUALITIES``: the kernel, the names of its per-sample parameters, how
they are drawn and where they are valid, whether it takes a function triple
or an (f, g) pair and the premise those must meet, and whether a PASS is
expected. A config entry's keys follow from its parameters and functions.
Campaigns, ``evaluate_inequality`` and ``search_counterexample`` all
evaluate through the same block path.

Sampling is counter-based: every (dim, sample-index) pair owns a Philox
stream, so campaigns are reproducible bit-for-bit regardless of how samples
are partitioned across workers.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Callable, NamedTuple

import numpy as np

from .functions import (
    DEFAULT_EPS,
    Assumption,
    Const,
    FunctionTriple,
    beta_coefficient,
    check_assumption,
    classify_pair,  # unused here; bench/tracing.py traces calls through this name
    function_from_spec,
    function_to_spec,
    ratio_bounds,
    triple_from_spec,
    triple_to_spec,
)
from .linalg import (
    DensityMatrix,
    HermitianMatrix,
    _integer,
    _real,
    density_stack,
    eigh_stack,
    element_table,  # unused here; bench/tracing.py traces calls through this name
    element_tables,
    hermitian_eigen,
    hermitian_stack,
    matrix_json_text,
    matrix_to_json,
)
from .quantities import (
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

__all__ = [
    "InequalityId",
    "Inequality",
    "INEQUALITIES",
    "InequalitySetting",
    "CampaignConfig",
    "SampleRecord",
    "InequalityStats",
    "EntryColumns",
    "CampaignReport",
    "ConfigError",
    "sample_density",
    "sample_observable",
    "evaluate_inequality",
    "run_campaign",
    "search_counterexample",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Campaign configuration is malformed or inconsistent."""


DEFAULT_DELTA = 1e-3  # mixing weight of a sampled state toward the maximally mixed one
DEFAULT_SLACK = 1e-9  # relative violation threshold of a PASS


class InequalityId(enum.Enum):
    HEISENBERG_21 = "HEISENBERG_21"
    SCHRODINGER = "SCHRODINGER"
    LUO_23 = "LUO_23"
    THM21_WYD = "THM21_WYD"
    THM22_GWYD = "THM22_GWYD"
    THM23_TILDE = "THM23_TILDE"
    THM31_FGH = "THM31_FGH"
    COR41_PAIR = "COR41_PAIR"
    CHAIN_24 = "CHAIN_24"
    CHAIN_25 = "CHAIN_25"
    CHAIN_27 = "CHAIN_27"
    NAIVE_WY_SHOULD_FAIL = "NAIVE_WY_SHOULD_FAIL"


@dataclass(frozen=True)
class InequalitySetting:
    """One inequality to verify, plus its (possibly fixed) parameters.

    ``alpha`` may be a number (fixed), a tuple (cycled over sample indices)
    or None (drawn per sample by the id's sampler). The two-parameter
    families take (alpha, beta) fixed whole or drawn whole. Fixed and cycled
    values must pass the id's domain check.

    For THM31_FGH and COR41_PAIR, construction decides which of conditions
    I and II the triple meets (``assumption``) and the corner coefficient
    beta of its bound (``coefficient``), once; a triple that meets neither
    raises the id's premise. The other ids leave both fields None.
    """

    id: InequalityId
    alpha: float | tuple[float, ...] | None = None
    beta: float | None = None
    triple: FunctionTriple | None = None
    assert_pass: bool | None = None
    assumption: Assumption | None = field(default=None, init=False, compare=False)
    coefficient: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if isinstance(self.alpha, (list, tuple)):
            object.__setattr__(self, "alpha", tuple(_real("alpha", x) for x in self.alpha))
        elif self.alpha is not None:
            object.__setattr__(self, "alpha", _real("alpha", self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", _real("beta", self.beta))
        name, record = self.id.value, INEQUALITIES[self.id]
        for param in ("alpha", "beta"):
            if getattr(self, param) is not None and param not in record.params:
                raise ConfigError(f"{name} takes no {param} parameter")
        if self.alpha == ():
            raise ConfigError(f"{name}: a cycled alpha needs at least one value")
        if self.triple is not None and record.functions is None:
            raise ConfigError(f"{name} takes no function triple")
        if self.triple is None and record.functions is not None:
            raise ConfigError(f"{name} requires functions to evaluate")
        fixed = [getattr(self, param) for param in record.params]
        drawn = {value is None for value in fixed}
        if len(fixed) > 1 and (len(drawn) > 1 or isinstance(self.alpha, tuple)):
            # a pair is either fixed whole or drawn whole; half of one would be ignored
            raise ConfigError(
                f"fixed {name} parameters need scalar alpha and beta, set together"
            )
        if drawn == {False}:
            record.check(dict(zip(record.params, (np.asarray(v) for v in fixed))))
        if record.premise is not None:
            assumption = check_assumption(self.triple)
            if assumption is Assumption.NEITHER:
                raise ConfigError(record.premise)
            object.__setattr__(self, "assumption", assumption)
            object.__setattr__(self, "coefficient", beta_coefficient(ratio_bounds(self.triple)))

    @property
    def assertive(self) -> bool:
        if self.assert_pass is not None:
            return self.assert_pass
        return INEQUALITIES[self.id].expect_pass

    def to_spec(self) -> dict:
        doc: dict = {"id": self.id.value}
        if self.alpha is not None:
            doc["alpha"] = list(self.alpha) if isinstance(self.alpha, tuple) else self.alpha
        if self.beta is not None:
            doc["beta"] = self.beta
        if self.triple is not None:
            if INEQUALITIES[self.id].functions == "pair":
                doc["f"] = function_to_spec(self.triple.f)
                doc["g"] = function_to_spec(self.triple.g)
                doc["eps"] = self.triple.eps
            else:
                doc["triple"] = triple_to_spec(self.triple)
        if self.assert_pass is not None:
            doc["assert_pass"] = self.assert_pass
        return doc


@dataclass(frozen=True)
class CampaignConfig:
    """Seeded campaign: which inequalities, which dimensions, how many samples."""

    seed: int
    dims: tuple[int, ...]
    samples_per_dim: int
    inequalities: tuple[InequalitySetting, ...]
    delta: float = DEFAULT_DELTA
    slack: float = DEFAULT_SLACK

    def __post_init__(self):
        for key, check in (("seed", _integer), ("samples_per_dim", _integer),
                           ("delta", _real), ("slack", _real)):
            object.__setattr__(self, key, check(key, getattr(self, key)))
        object.__setattr__(self, "dims", tuple(_integer("dims entry", n) for n in self.dims))
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not self.dims or any(n < 2 for n in self.dims):
            raise ConfigError("dims must be a nonempty list of integers >= 2")
        if any(n >= 4096 for n in self.dims):
            raise ConfigError("dims above 4095 are not supported")
        if len(set(self.dims)) < len(self.dims):
            # a seeded sample depends on (seed, dim, index) only, so a repeated
            # dim draws the same samples again and counts them twice
            raise ConfigError(f"dims must not repeat, got {list(self.dims)}")
        if self.samples_per_dim < 1:
            raise ConfigError("samples_per_dim must be >= 1")
        if len(self.inequalities) > 256:
            raise ConfigError("at most 256 inequality entries are supported")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")
        if self.slack < 0.0:
            raise ConfigError("slack must be nonnegative")
        # a sampled state's smallest eigenvalue is at least delta / n
        floor = self.delta / max(self.dims)
        for k, s in enumerate(self.inequalities):
            if s.triple is not None and s.triple.eps > floor:
                raise ConfigError(
                    f"inequalities[{k}]: bad {s.id.value} entry: the functions' domain floor "
                    f"eps = {s.triple.eps:g} exceeds delta / n = {floor:g} at dim "
                    f"{max(self.dims)}, so sampled states could fall below it"
                )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "samples_per_dim": self.samples_per_dim,
            "delta": self.delta,
            "slack": self.slack,
            "inequalities": [s.to_spec() for s in self.inequalities],
        }


_TOP_KEYS = {"seed", "dims", "samples_per_dim", "delta", "slack", "inequalities"}


def _setting_from_entry(doc: dict) -> InequalitySetting:
    if not isinstance(doc, dict) or "id" not in doc:
        raise ConfigError(f"inequality entry must be an object with an 'id': {doc!r}")
    try:
        ineq = InequalityId(doc["id"])
    except ValueError:
        raise ConfigError(f"unknown inequality id {doc['id']!r}") from None
    assert_pass = doc.get("assert_pass")
    if "assert_pass" in doc and not isinstance(assert_pass, bool):
        raise ConfigError("assert_pass must be a boolean")
    record = INEQUALITIES[ineq]
    functions = {"triple": ("triple",), "pair": ("f", "g", "eps")}.get(record.functions, ())
    unknown = set(doc) - {"id", "assert_pass", *record.params, *functions}
    if unknown:
        raise ConfigError(f"unknown keys for {ineq.value}: {sorted(unknown)}")
    try:
        triple = None
        if record.functions == "triple":
            triple = triple_from_spec(doc["triple"])
        elif record.functions == "pair":
            eps = _real("eps", doc.get("eps", DEFAULT_EPS))
            f = function_from_spec(doc["f"])
            g = function_from_spec(doc["g"])
            triple = FunctionTriple(f=f, g=g, h=Const(c=1.0), eps=eps)
        params = {name: doc[name] for name in record.params if name in doc}
        for name, value in params.items():
            if value is None:   # a JSON null, which would read as a drawn parameter
                _real(name, value)
        return InequalitySetting(id=ineq, **params, triple=triple, assert_pass=assert_pass)
    except KeyError as exc:
        raise ConfigError(f"{ineq.value} entry misses field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {ineq.value} entry: {exc}") from exc


def config_from_dict(doc: dict) -> CampaignConfig:
    """Validate and build a campaign config from parsed JSON; unknown keys
    are rejected outright."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in ("seed", "dims", "samples_per_dim", "inequalities") if k not in doc]
    if missing:
        raise ConfigError(f"config misses required keys: {missing}")
    entries = doc["inequalities"]
    if not isinstance(entries, list):
        raise ConfigError("'inequalities' must be a list")
    if not isinstance(doc["dims"], list):
        raise ConfigError(f"'dims' must be a list of integers, got {doc['dims']!r}")
    settings = []
    for k, entry in enumerate(entries):
        try:
            settings.append(_setting_from_entry(entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"inequalities[{k}]: {exc}") from exc
    try:
        return CampaignConfig(
            seed=doc["seed"],
            dims=tuple(doc["dims"]),
            samples_per_dim=doc["samples_per_dim"],
            delta=doc.get("delta", DEFAULT_DELTA),
            slack=doc.get("slack", DEFAULT_SLACK),
            inequalities=tuple(settings),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# samplers


# 1/sqrt(2): numpy's complex division by a real number multiplies by its
# reciprocal, so scaling by this constant keeps the bits of (re + 1j im)/sqrt(2)
_GINIBRE_SCALE = 1.0 / math.sqrt(2)


def _ginibre_from(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt(2), written into one fresh complex array."""
    g = np.empty(re.shape, dtype=complex)
    np.multiply(re, _GINIBRE_SCALE, out=g.real)
    np.multiply(im, _GINIBRE_SCALE, out=g.imag)
    return g


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return _ginibre_from(rng.standard_normal((n, n)), rng.standard_normal((n, n)))


def _state_from(g: np.ndarray, delta: float) -> np.ndarray:
    """(1 - delta) G G† / Tr[G G†] + (delta / n) I, for one G or a stack."""
    n = g.shape[-1]
    w = g @ np.swapaxes(g, -1, -2).conj()
    tr = np.trace(w, axis1=-2, axis2=-1).real
    # in place, through (re, im, re, im, ...) float views: numpy's product and
    # quotient of a complex number by a real one scale both parts by it (the
    # quotient by its reciprocal), so each part keeps its bits
    parts = w.view(np.float64).reshape(*w.shape[:-2], -1)
    parts *= 1.0 - delta
    parts *= (1.0 / np.asarray(tr))[..., None]
    parts[..., :: 2 * (n + 1)] += delta / n   # the real parts of the diagonal
    return w


def _observable_from(g: np.ndarray) -> np.ndarray:
    """(G + G†) / 2, written into one fresh array and halved in place."""
    h = np.conjugate(np.swapaxes(g, -1, -2), out=np.empty(g.shape, dtype=complex))
    h += g
    parts = h.view(np.float64)
    parts *= 0.5
    return h


def sample_density(n: int, rng: np.random.Generator, delta: float = DEFAULT_DELTA) -> DensityMatrix:
    """Random faithful state: a normalized Wishart matrix mixed with the
    maximally mixed state, so the smallest eigenvalue is at least delta/n."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return DensityMatrix(_state_from(_ginibre(n, rng), delta))


def sample_observable(n: int, rng: np.random.Generator) -> HermitianMatrix:
    """Gaussian Hermitian observable (symmetrized complex Gaussian matrix)."""
    return HermitianMatrix(_observable_from(_ginibre(n, rng)))


_PARAM_SALT = 0xA5A5_5A5A_DEAD_BEEF


def _matrix_key(seed: int, dim: int, index) -> np.ndarray:
    """Philox key [seed, dim << 44 | index] of one sample's matrix stream,
    or keys [S, 2] of an index array."""
    index = np.asarray(index, dtype=np.uint64)
    key = np.empty((*index.shape, 2), dtype=np.uint64)
    key[..., 0] = seed
    key[..., 1] = np.uint64(dim << 44) | index
    return key


def _matrix_rng(seed: int, dim: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_matrix_key(seed, dim, index)))


def _draw_sample(seed, dim, index, delta):
    """One sample's (rho, A, B), drawn matrix by matrix through the public
    samplers: the reference that ``_draw_block`` is tested against."""
    rng = _matrix_rng(seed, dim, index)
    rho = sample_density(dim, rng, delta)
    a = sample_observable(dim, rng)
    b = sample_observable(dim, rng)
    return rho, a, b


def _draw_block(seed: int, dim: int, indices: np.ndarray, delta: float):
    """Validated stacks (rho [S, n, n], obs [2, S, n, n]) of the samples
    ``indices``: obs[0] holds the observables A and obs[1] the observables B,
    one C-contiguous pair stack, so every later step treats both in one call.

    Sample i draws from the same Philox stream as ``_draw_sample``: one
    standard_normal((6, n, n)) call yields the six (n, n) draws that
    ``_draw_sample`` makes one by one. Resetting one bit generator's state
    per sample, one state dict with each sample's key swapped in, gives that
    stream without constructing a Philox each time. The state holds Python
    ints, which the setter reads faster than numpy scalars.
    """
    z = np.empty((len(indices), 6, dim, dim))
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    zero = [0, 0, 0, 0]
    stream = {"counter": zero, "key": None}
    state = {
        "bit_generator": "Philox",
        "state": stream,
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k, key in enumerate(_matrix_key(seed, dim, indices).tolist()):
        stream["key"] = key
        bitgen.state = state
        rng.standard_normal(out=z[k])
    g = _ginibre_from(z[:, 0::2], z[:, 1::2])
    # each stack is freed once it is used up, so the pair stack's checks
    # need no more memory than the two stacks' checks did
    del z
    rho = density_stack(_state_from(g[:, 0], delta))
    obs = _observable_from(np.swapaxes(g[:, 1:], 0, 1))
    del g
    return rho, hermitian_stack(obs)


# Philox4x64-10 (Salmon et al., SC'11) as numpy implements it, vectorized
# over keys: multipliers, Weyl key increments, and 2**-53 for random().
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFF_FFFF)
_U32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = a & _LOW32, a >> _U32
    b_lo, b_hi = b & _LOW32, b >> _U32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return a * b, hi


def _philox_random(key0: int, key1: np.ndarray) -> np.ndarray:
    """The first four ``random()`` doubles of
    ``Generator(Philox(key=[key0, k]))`` for every k in ``key1``, as [S, 4].

    A fresh Philox starts at counter 0 and increments it before its first
    block, so the first four outputs are one 10-round block at counter 1.
    Round 0 works on that fixed counter (1, 0, 0, 0) and the unbumped key,
    and leaves the state (k0, 0, k1, M0), so the loop starts there, at
    round 1.
    """
    k0 = np.full(key1.shape, key0, dtype=np.uint64)
    k1 = key1.astype(np.uint64)
    c0, c2 = k0, k1
    c1 = np.zeros(key1.shape, dtype=np.uint64)
    c3 = np.full(key1.shape, _PHILOX_M[0], dtype=np.uint64)
    for _ in range(9):
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1)
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _param_draws(seed: int, dim: int, indices: np.ndarray, ordinal) -> np.ndarray:
    """Uniform draws [S, 4] from each sample's parameter stream of entry
    ``ordinal``, or [E, S, 4] for an array of E ordinals, in one Philox pass:
    the draws of each key do not depend on the others."""
    ordinal = np.asarray(ordinal, dtype=np.uint64)[..., None]
    key1 = (ordinal << np.uint64(56)) | np.uint64(dim << 44) | indices.astype(np.uint64)
    return _philox_random(seed ^ _PARAM_SALT, key1)


def _draws_params(setting: InequalitySetting) -> bool:
    """True when the entry draws some parameter per sample."""
    return any(getattr(setting, name) is None for name in INEQUALITIES[setting.id].params)


def _block_params(
    setting: InequalitySetting,
    indices: np.ndarray,
    seed: int,
    dim: int,
    ordinal: int,
    draws: np.ndarray | None = None,
) -> dict:
    """Fixed, cycled, or freshly drawn parameters, one array entry per sample.
    ``draws`` are the entry's uniform draws [S, 4], when the caller has
    already made them with ``_param_draws``."""
    record = INEQUALITIES[setting.id]
    if _draws_params(setting):
        if draws is None:
            draws = _param_draws(seed, dim, indices, ordinal)
        return record.sampler(draws)
    fixed = {name: getattr(setting, name) for name in record.params}
    return {
        name: np.asarray(value)[indices % len(value)]
        if isinstance(value, tuple)
        else np.full(len(indices), value)
        for name, value in fixed.items()
    }


# --------------------------------------------------------------------------
# evaluation


class _Batch:
    """S samples of one dimension in their states' eigenbases, with the
    per-sample reductions that every inequality kernel shares. Whatever
    belongs to the observables carries a leading pair axis: 0 for A, 1 for B."""

    def __init__(self, lam: np.ndarray, t: np.ndarray):
        self.lam = lam                                   # [S, n], descending
        self.w = np.abs(t) ** 2                          # [2, S, n, n]
        self.row = self.w.sum(axis=-1)                   # [2, S, n]
        self.var = _total(lam, self.row)                 # [2, S], Tr[rho H0^2]
        d = np.einsum("sij,sji->si", t[0], t[1])         # diag(T_A T_B)
        self.im_d = d.imag
        self.cov = np.sum(lam * d.real, axis=-1)         # Re Tr[rho A0 B0]

    def comm_sq(self, weights: np.ndarray) -> np.ndarray:
        """|Tr[diag(weights) [A, B]]|^2 in the eigenbasis. The tables are
        Hermitian, so diag(T_B T_A) = conj(diag(T_A T_B)) and the trace is
        2i sum_i weights_i Im d_i."""
        return 4.0 * np.sum(weights * self.im_d, axis=-1) ** 2

    @functools.cached_property
    def half(self) -> tuple[np.ndarray, np.ndarray]:
        """(I, J) [2, S] at alpha = 1/2."""
        return _wyd_ij(self.lam, self.w, self.row, 0.5)

    @functools.cached_property
    def luo_u(self) -> np.ndarray:
        """Luo's U [2, S] from the skew information at alpha = 1/2."""
        return _luo_u(self.var, self.half[0])[0]


def _u_product(i_val: np.ndarray, j_val: np.ndarray) -> np.ndarray:
    """U_A * U_B, where U = sqrt(I J), from one family call's (I, J) [2, S]."""
    ua, ub = _u_value(i_val, j_val)
    return ua * ub


def _chain(values, links):
    """Worst link of each sample's chain v0 <= v1 <= ...: (upper, lower, link)."""
    v = np.stack(np.broadcast_arrays(*values), axis=-1)
    k = np.argmin(np.diff(v, axis=-1), axis=-1)
    rows = np.arange(v.shape[0])
    return v[rows, k + 1], v[rows, k], {"link": np.asarray(links)[k]}


def _first(bad: np.ndarray, *arrays) -> tuple[float, ...]:
    k = int(np.flatnonzero(bad)[0])
    return tuple(float(np.asarray(a).flat[k]) for a in arrays)


# Domain checks: each raises ConfigError on the first parameter outside its
# inequality's validity region, for one value or a block of them. Each tests
# for membership, so a NaN fails it.


def _check_unit_alpha(params: dict) -> None:
    alpha = params["alpha"]
    bad = ~((0.0 <= alpha) & (alpha <= 1.0))
    if np.any(bad):
        raise ConfigError(f"alpha must lie in [0, 1], got {_first(bad, alpha)[0]}")


def _check_thm22(params: dict) -> None:
    alpha, beta = params["alpha"], params["beta"]
    bad = ~((alpha >= 0.0) & (beta >= 0.0))
    if np.any(bad):
        raise ConfigError(
            "THM22 exponents must be nonnegative: ({}, {})".format(*_first(bad, alpha, beta))
        )
    s = alpha + beta
    bad = (0.5 < s) & (s < 1.0)
    if np.any(bad):
        raise ConfigError(
            f"THM22 excludes 1/2 < alpha + beta < 1, got alpha + beta = {_first(bad, s)[0]}"
        )


def _check_thm23(params: dict) -> None:
    alpha, beta = params["alpha"], params["beta"]
    bad = ~((alpha >= 0.0) & (beta >= 0.0) & (alpha * beta != 0.0))
    if np.any(bad):
        raise ConfigError("need alpha, beta > 0, got ({}, {})".format(*_first(bad, alpha, beta)))


# Samplers: the uniform draws [S, 4] of each sample's parameter stream ->
# per-sample parameter arrays inside the validity region.


def _draw_unit_alpha(u: np.ndarray) -> dict:
    return {"alpha": u[:, 0]}


def _draw_thm22(u: np.ndarray) -> dict:
    # alpha + beta in [0, 1/2] or in [1, 2], each with probability 1/2
    s = np.where(u[:, 0] < 0.5, 0.5 * u[:, 1], 1.0 + u[:, 1])
    alpha = s * u[:, 2]
    return {"alpha": alpha, "beta": s - alpha}


def _draw_thm23(u: np.ndarray) -> dict:
    return {"alpha": 0.05 + 1.95 * u[:, 0], "beta": 0.05 + 1.95 * u[:, 1]}


def _heisenberg(batch, params, setting):
    return batch.var[0] * batch.var[1], 0.25 * batch.comm_sq(batch.lam), {}


def _schrodinger(batch, params, setting):
    lhs = batch.var[0] * batch.var[1] - batch.cov**2
    return lhs, 0.25 * batch.comm_sq(batch.lam), {}


def _luo23(batch, params, setting):
    return batch.luo_u[0] * batch.luo_u[1], 0.25 * batch.comm_sq(batch.lam), {}


def _naive(batch, params, setting):
    ia, ib = np.maximum(batch.half[0], 0.0)
    return ia * ib, 0.25 * batch.comm_sq(batch.lam), {}


def _thm21(batch, params, setting):
    alpha = params["alpha"]
    lhs = _u_product(*_wyd_ij(batch.lam, batch.w, batch.row, alpha))
    return lhs, alpha * (1.0 - alpha) * batch.comm_sq(batch.lam), {}


def _thm22(batch, params, setting):
    alpha, beta = params["alpha"], params["beta"]
    lhs = _u_product(*_gwyd_ij(batch.lam, batch.w, batch.row, alpha, beta))
    return lhs, alpha * beta * batch.comm_sq(batch.lam), {}


def _thm23(batch, params, setting):
    alpha, beta = params["alpha"], params["beta"]
    s = alpha + beta
    rhs = alpha * beta / s**2 * batch.comm_sq(_powers(batch.lam, s))
    return _u_product(*_tilde_ij(batch.lam, batch.w, batch.row, alpha, beta)), rhs, {}


def _fgh(batch, params, setting):
    fv, gv, hv = _triple_values(setting.triple, batch.lam)
    lhs = _u_product(*_fgh_ij(batch.w, batch.row, fv, gv, hv))
    rhs = setting.coefficient * batch.comm_sq(fv * gv * hv)
    return lhs, rhs, {"beta": setting.coefficient, "assumption": setting.assumption.value}


def _chain24(batch, params, setting):
    i_val = np.maximum(batch.half[0][0], 0.0)
    return _chain((0.0, i_val, batch.luo_u[0], batch.var[0]), ("I>=0", "U>=I", "V>=U"))


def _chain25(batch, params, setting):
    # the paper's third link, J_alpha >= J_half, is the first again: both
    # margins are ex_alpha - ex_half, as I = t0 - ex and J = t0 + ex
    i_a, _ = _wyd_ij(batch.lam, batch.w[0], batch.row[0], params["alpha"])
    i_h, j_h = batch.half
    return _chain((i_a, i_h[0], j_h[0]), ("I_half>=I_alpha", "J_half>=I_half"))


def _chain27(batch, params, setting):
    i_a, j_a = _wyd_ij(batch.lam, batch.w[0], batch.row[0], params["alpha"])
    return _chain(
        (0.0, i_a, _u_value(i_a, j_a), batch.luo_u[0]),
        ("I_alpha>=0", "U_alpha>=I_alpha", "U>=U_alpha"),
    )


_ALPHA = ("alpha",)
_PAIR = ("alpha", "beta")


@dataclass(frozen=True)
class Inequality:
    """Everything the harness knows about one inequality id."""

    # (batch, per-sample params, setting) -> (lhs [S], rhs [S], extra
    # params, each a per-sample array or one value)
    kernel: Callable
    params: tuple[str, ...] = ()       # names of the per-sample parameters
    sampler: Callable | None = None    # uniform draws [S, 4] -> params
    check: Callable | None = None      # params -> None, or raises ConfigError
    functions: str | None = None       # "triple", "pair", or None for no functions
    premise: str | None = None         # raised when check_assumption finds neither condition
    expect_pass: bool = True           # False: the bound fails by design


INEQUALITIES: dict[InequalityId, Inequality] = {
    InequalityId.HEISENBERG_21: Inequality(_heisenberg),
    InequalityId.SCHRODINGER: Inequality(_schrodinger),
    InequalityId.LUO_23: Inequality(_luo23),
    InequalityId.THM21_WYD: Inequality(_thm21, _ALPHA, _draw_unit_alpha, _check_unit_alpha),
    InequalityId.THM22_GWYD: Inequality(_thm22, _PAIR, _draw_thm22, _check_thm22),
    InequalityId.THM23_TILDE: Inequality(_thm23, _PAIR, _draw_thm23, _check_thm23),
    InequalityId.THM31_FGH: Inequality(
        _fgh, functions="triple",
        premise="THM31_FGH requires the triple to satisfy one of the two "
                "divided-difference conditions; this one satisfies neither"),
    # the triple (f, g, 1): condition II holds exactly when (f, g) is monotone
    InequalityId.COR41_PAIR: Inequality(
        _fgh, functions="pair",
        premise="COR41_PAIR requires (f, g) to be a monotone pair"),
    InequalityId.CHAIN_24: Inequality(_chain24),
    InequalityId.CHAIN_25: Inequality(_chain25, _ALPHA, _draw_unit_alpha, _check_unit_alpha),
    InequalityId.CHAIN_27: Inequality(_chain27, _ALPHA, _draw_unit_alpha, _check_unit_alpha),
    InequalityId.NAIVE_WY_SHOULD_FAIL: Inequality(_naive, expect_pass=False),
}


class _EntryBlock(NamedTuple):
    """One inequality entry evaluated on one block of samples."""

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    params: dict   # per-sample arrays, or one value for the whole entry

    def params_at(self, k: int) -> dict:
        return {
            name: value[k].item() if isinstance(value, np.ndarray) else value
            for name, value in self.params.items()
        }


def _passes(margin, lhs, rhs, slack: float):
    return margin >= -slack * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


def _evaluate_block(setting, batch: _Batch, params: dict, slack: float) -> _EntryBlock:
    record = INEQUALITIES[setting.id]
    if record.check is not None:
        record.check(params)
    lhs, rhs, extra = record.kernel(batch, params, setting)
    margin = lhs - rhs
    return _EntryBlock(lhs, rhs, margin, _passes(margin, lhs, rhs, slack), {**params, **extra})


@dataclass
class SampleRecord:
    """One inequality evaluated on one sampled (state, A, B) instance."""

    inequality: InequalityId
    dim: int
    index: int
    lhs: float
    rhs: float
    margin: float
    passed: bool
    params: dict
    state: np.ndarray | None = None
    obs_a: np.ndarray | None = None
    obs_b: np.ndarray | None = None

    def to_json(self, *, matrix=matrix_to_json) -> dict:
        """The record as a JSON document; ``matrix`` maps each matrix to its
        node (``to_json_text`` keeps the arrays themselves)."""
        doc = {
            "id": self.inequality.value,
            "dim": self.dim,
            "index": self.index,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "params": self.params,
        }
        doc["rho"] = None if self.state is None else matrix(self.state)
        doc["a"] = None if self.obs_a is None else matrix(self.obs_a)
        doc["b"] = None if self.obs_b is None else matrix(self.obs_b)
        return doc

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)``."""
        return _json_text(self.to_json(matrix=np.asarray))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for a document whose
    matrices are left as arrays: ``json.dumps`` writes a numbered marker in
    each array's place, numbered afresh until no string of the document
    reads like one, and each marker becomes its array's ``matrix_json_text``
    at the depth of its line, rendered once per (array, depth).
    """
    numbers = count()
    marks: dict[str, np.ndarray] = {}   # each marker as written -> its array

    def mark(a: np.ndarray) -> str:
        marker = f"\x00{next(numbers)}\x00"
        marks[json.dumps(marker)] = a
        return marker

    while True:
        marks.clear()
        text = json.dumps(doc, indent=2, sort_keys=True, default=mark)
        if all(text.count(m) == 1 for m in marks):
            break
    chunks, end, rendered = [], 0, {}
    for m, a in marks.items():   # in the order of the text
        at = text.index(m, end)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        key = (id(a), (len(line) - len(line.lstrip(" "))) // 2)
        if key not in rendered:
            rendered[key] = matrix_json_text(a, key[1])
        chunks += (text[end:at], rendered[key])
        end = at + len(m)
    chunks.append(text[end:])
    return "".join(chunks)


def _record(setting, entry: _EntryBlock, k: int, dim: int, index: int) -> SampleRecord:
    """The sample at position k of an evaluated block; the caller sets its
    matrices."""
    return SampleRecord(
        inequality=setting.id,
        dim=dim,
        index=index,
        lhs=float(entry.lhs[k]),
        rhs=float(entry.rhs[k]),
        margin=float(entry.margin[k]),
        passed=bool(entry.passed[k]),
        params=entry.params_at(k),
    )


def _as_setting(setting: InequalitySetting | InequalityId | str) -> InequalitySetting:
    if isinstance(setting, str):
        setting = InequalityId(setting)
    if isinstance(setting, InequalityId):
        setting = InequalitySetting(id=setting)
    return setting


def evaluate_inequality(
    setting: InequalitySetting | InequalityId | str,
    rho: DensityMatrix,
    a: HermitianMatrix,
    b: HermitianMatrix,
    params: dict | None = None,
    slack: float = DEFAULT_SLACK,
    *,
    index: int = 0,
) -> SampleRecord:
    """Evaluate one inequality on explicit matrices.

    ``params`` supplies resolved numbers (e.g. {"alpha": 0.3}) where the
    setting does not fix them; names the id does not take are ignored. The
    id's domain check runs on them, so parameters outside the inequality's
    validity region raise ConfigError instead of producing a meaningless
    margin.
    """
    setting = _as_setting(setting)
    names = INEQUALITIES[setting.id].params
    fixed = {name: getattr(setting, name) for name in names}
    merged = {name: v for name, v in fixed.items() if isinstance(v, float)} | dict(params or {})
    missing = [name for name in names if name not in merged]
    if missing:
        raise ValueError(f"{setting.id.value} needs {' and '.join(map(repr, missing))}")
    if not rho.dim == a.dim == b.dim:
        raise ValueError(f"dimension mismatch: {rho.dim}, {a.dim} and {b.dim}")
    decomp = hermitian_eigen(rho)
    lam = decomp.eigenvalues[None]
    obs = np.stack([a.entries, b.entries])[:, None]
    batch = _Batch(lam, element_tables(lam, decomp.vectors[None], obs))
    one = {name: np.array([float(merged[name])]) for name in names}
    record = _record(setting, _evaluate_block(setting, batch, one, slack), 0, rho.dim, index)
    record.state, record.obs_a, record.obs_b = np.asarray(rho), np.asarray(a), np.asarray(b)
    return record


# --------------------------------------------------------------------------
# campaigns


@dataclass
class InequalityStats:
    setting: dict
    samples: int
    violations: int
    min_margin: float
    worst: SampleRecord
    asserted: bool = True   # violations fail the campaign; not written to the report

    def to_json(self, *, matrix=matrix_to_json) -> dict:
        return {
            "setting": self.setting,
            "samples": self.samples,
            "violations": self.violations,
            "min_margin": self.min_margin,
            "worst_case": self.worst.to_json(matrix=matrix),
        }


class EntryColumns(NamedTuple):
    """One entry's results over the whole campaign, one element per sample in
    report order: the columns of its rows."""

    id: str
    dims: np.ndarray
    indices: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray

    def rows(self):
        """(id, dim, index, lhs, rhs, margin, passed) per sample, as Python scalars."""
        return zip(
            repeat(self.id), self.dims.tolist(), self.indices.tolist(), self.lhs.tolist(),
            self.rhs.tolist(), self.margin.tolist(), self.passed.tolist(),
        )


def _csv_text(c: EntryColumns) -> str:
    """One entry's CSV lines, each ending in a newline: floats as their
    ``repr`` (so ``nan``, ``inf`` and ``-0.0`` keep their text), the pass
    flag as ``true`` or ``false``."""
    ineq = c.id
    return "".join(
        f"{ineq},{dim},{lhs!r},{rhs!r},{margin!r},{'true' if passed else 'false'}\n"
        for dim, lhs, rhs, margin, passed in zip(
            c.dims.tolist(), c.lhs.tolist(), c.rhs.tolist(), c.margin.tolist(), c.passed.tolist()
        )
    )


@dataclass
class CampaignReport:
    config: dict
    config_hash: str
    stats: list[InequalityStats]
    wall_time: float
    columns: list[EntryColumns] = field(default_factory=list, repr=False)

    @property
    def rows(self) -> list[tuple]:
        """Every entry's rows in turn, built from the columns on each access."""
        return [row for c in self.columns for row in c.rows()]

    def replay_worst_cases(self) -> None:
        """Give every worst case without matrices its (rho, A, B), redrawn
        from the config's seed and delta. A campaign leaves them to this call,
        which the JSON writers make, so a CSV report never draws them."""
        missing = [s.worst for s in self.stats if s.worst.state is None]
        if not missing:
            return
        samples = _replay(
            self.config["seed"], self.config["delta"], {(w.dim, w.index) for w in missing}
        )
        for w in missing:
            w.state, w.obs_a, w.obs_b = samples[w.dim, w.index]

    def to_json(self, *, matrix=matrix_to_json) -> dict:
        self.replay_worst_cases()
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "inequalities": [s.to_json(matrix=matrix) for s in self.stats],
            "wall_time_seconds": self.wall_time,
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)``,
        written from the worst cases' arrays."""
        return _json_text(self.to_json(matrix=np.asarray))

    def csv_rows(self, threads: int = 1):
        """The CSV report as text: the header line, then one string per entry
        holding that entry's lines (``_csv_text``), each line ending in a
        newline, in report order.

        With ``threads > 1`` the entries are formatted one per task on up to
        ``threads`` worker processes, and still yielded in report order, so
        the text does not depend on the worker count. Only the entries that
        are finished but not yet yielded wait in this process. Closing the
        generator early shuts the workers down before it returns.
        """
        yield "id,n,lhs,rhs,margin,pass\n"
        yield from _pool_map(_csv_text, self.columns, threads)

    @property
    def failed(self) -> bool:
        """True when an asserted inequality recorded violations."""
        return any(s.asserted and s.violations for s in self.stats)


def config_hash(config: CampaignConfig) -> str:
    text = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# A block holds at most this many matrix elements per stacked (S, n, n)
# array: enough samples to amortize the per-call overhead at small n, and
# few enough that the stacks stay a few MB.
_BLOCK_ELEMENTS = 16384


def _block_size(dim: int) -> int:
    return max(1, _BLOCK_ELEMENTS // (dim * dim))


def _blocks(config: CampaignConfig) -> list[tuple[int, int, int]]:
    """(dim, start, stop) of every block, in report order. The partition
    depends only on each dim and samples_per_dim, never on the worker count,
    so the floating-point result of every sample does not either."""
    out = []
    for dim in config.dims:
        size = _block_size(dim)
        for start in range(0, config.samples_per_dim, size):
            out.append((dim, start, min(start + size, config.samples_per_dim)))
    return out


def _block_rows(config: CampaignConfig, dim: int, start: int, stop: int):
    """Evaluate every configured inequality on samples [start, stop) of one
    dimension as one stacked batch; returns one _EntryBlock per entry."""
    indices = np.arange(start, stop)
    rho, obs = _draw_block(config.seed, dim, indices, config.delta)
    lam, vectors = eigh_stack(rho, density=True)
    batch = _Batch(lam, element_tables(lam, vectors, obs))
    # the parameter streams of every entry that draws, in one Philox pass
    drawn = [k for k, setting in enumerate(config.inequalities) if _draws_params(setting)]
    draws = dict(zip(drawn, _param_draws(config.seed, dim, indices, drawn))) if drawn else {}
    return [
        _evaluate_block(
            setting,
            batch,
            _block_params(setting, indices, config.seed, dim, ordinal, draws.get(ordinal)),
            config.slack,
        )
        for ordinal, setting in enumerate(config.inequalities)
    ]


def _worker_entry(args):
    return _block_rows(*args)


def _replay(seed: int, delta: float, picks) -> dict:
    """(rho, A, B) of every distinct (dim, index) in ``picks``, drawn once,
    in blocks no larger than the campaign's; records that share a sample
    share its arrays. The states skip no check: ``density_stack`` leaves the
    positivity floor to ``eigh_stack``, which checked these same bits when
    the campaign evaluated the sample's block."""
    out = {}
    for dim in sorted({d for d, _index in picks}):
        indices = sorted(index for d, index in picks if d == dim)
        size = _block_size(dim)
        for start in range(0, len(indices), size):
            chunk = indices[start : start + size]
            rho, obs = _draw_block(seed, dim, np.array(chunk), delta)
            for k, index in enumerate(chunk):
                out[dim, index] = rho[k], obs[0, k], obs[1, k]
    return out


def _pool_map(fn, items, threads: int):
    """``map(fn, items)``, yielded in order: in this process when
    ``min(threads, len(items)) <= 1``, else on that many worker processes,
    at most one per item. Closing the generator early shuts the workers
    down before it returns."""
    workers = min(threads, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here: at module level it would add ~15 ms to every start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def run_campaign(config: CampaignConfig, threads: int = 1) -> CampaignReport:
    """Run every configured inequality over the sampled instances, on up to
    ``threads`` worker processes (at least 1, and at most one per block).

    Deterministic for a fixed config: the report (minus wall time) does not
    depend on the worker count. The worst cases carry no matrices until
    ``CampaignReport.replay_worst_cases`` redraws them.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    t_start = time.perf_counter()
    tasks = _blocks(config)
    blocks = list(_pool_map(_worker_entry, [(config, *task) for task in tasks], threads))

    dims = np.concatenate([np.full(stop - start, dim) for dim, start, stop in tasks])
    indices = np.concatenate([np.arange(start, stop) for _dim, start, stop in tasks])
    ends = np.cumsum([stop - start for _dim, start, stop in tasks])
    stats: list[InequalityStats] = []
    columns: list[EntryColumns] = []
    for ordinal, setting in enumerate(config.inequalities):
        parts = [block[ordinal] for block in blocks]
        lhs, rhs, margin, passed = (
            np.concatenate([getattr(p, name) for p in parts])
            for name in ("lhs", "rhs", "margin", "passed")
        )
        columns.append(EntryColumns(setting.id.value, dims, indices, lhs, rhs, margin, passed))
        # rows run in (dim position, index) order, so the first minimum is
        # the smallest (margin, dim position, index)
        worst = int(np.argmin(margin))
        part = int(np.searchsorted(ends, worst, side="right"))
        offset = worst - (int(ends[part - 1]) if part else 0)
        stats.append(
            InequalityStats(
                setting=setting.to_spec(),
                samples=len(margin),
                violations=int(np.count_nonzero(~passed)),
                min_margin=float(margin[worst]),
                worst=_record(
                    setting, parts[part], offset, int(dims[worst]), int(indices[worst])
                ),
                asserted=setting.assertive,
            )
        )

    return CampaignReport(
        config=config.to_dict(),
        config_hash=config_hash(config),
        stats=stats,
        wall_time=time.perf_counter() - t_start,
        columns=columns,
    )


def search_counterexample(
    setting: InequalitySetting | InequalityId | str,
    budget: int,
    seed: int,
    *,
    dim: int = 2,
    slack: float = DEFAULT_SLACK,
) -> SampleRecord | None:
    """Scan seeded samples for the first violating instance.

    Samples 0 .. budget - 1 of one dimension are evaluated block by block,
    exactly as a one-entry campaign over them would. Returns the first
    violating record (matrices included), or None when the budget is
    exhausted without a violation.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    setting = _as_setting(setting)
    config = CampaignConfig(
        seed=seed, dims=(dim,), samples_per_dim=budget, inequalities=(setting,),
        slack=slack,
    )
    for dim, start, stop in _blocks(config):
        entry = _block_rows(config, dim, start, stop)[0]
        failed = np.flatnonzero(~entry.passed)
        if len(failed):
            k = int(failed[0])
            record = _record(setting, entry, k, dim, start + k)
            sample = _replay(seed, config.delta, {(dim, start + k)})[dim, start + k]
            record.state, record.obs_a, record.obs_b = sample
            return record
    return None
