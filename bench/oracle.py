"""Reference values for the benchmark's correctness checks.

Everything here is computed in the computational basis from the matrices
themselves: state powers come from scipy's Schur-Pade
``fractional_matrix_power`` (or ``expm``), and every quantity is a trace of
commutators or anticommutators. Nothing reads skewlab's eigenbasis element
tables, so an error in those tables cannot cancel out of a check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, fractional_matrix_power

# Relative tolerance for every oracle comparison.
REL_TOL = 1e-8


def rel_diff(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude (0 when both are 0)."""
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def state_power(rho: np.ndarray, p: float) -> np.ndarray:
    """rho**p for a positive definite rho, by the Schur-Pade algorithm."""
    if p == 0.0:
        return np.eye(rho.shape[0], dtype=complex)
    if p == 1.0:
        return np.asarray(rho, dtype=complex)
    return _hermitize(np.asarray(fractional_matrix_power(rho, p), dtype=complex))


def function_of_state(rho: np.ndarray, spec: dict) -> np.ndarray:
    """f(rho) for a catalog function given as its JSON spec."""
    kind = spec["kind"]
    n = rho.shape[0]
    if kind == "power":
        return state_power(rho, float(spec["p"]))
    if kind == "exp":
        return _hermitize(expm(float(spec["a"]) * np.asarray(rho, dtype=complex)))
    if kind == "const":
        return float(spec["c"]) * np.eye(n, dtype=complex)
    if kind == "scaled_sum":
        return sum(float(c) * state_power(rho, float(p)) for c, p in spec["terms"])
    raise ValueError(f"unknown function kind {kind!r}")


def scalar_function(spec: dict, x):
    """The same catalog function on plain numbers."""
    x = np.asarray(x, dtype=float)
    kind = spec["kind"]
    if kind == "power":
        return x ** float(spec["p"])
    if kind == "exp":
        return np.exp(float(spec["a"]) * x)
    if kind == "const":
        return np.full_like(x, float(spec["c"]))
    if kind == "scaled_sum":
        return sum(float(c) * x ** float(p) for c, p in spec["terms"])
    raise ValueError(f"unknown function kind {kind!r}")


def _tr(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def centered(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    return h - _tr(rho @ h).real * np.eye(h.shape[0])


def variance(rho: np.ndarray, h: np.ndarray) -> float:
    h0 = centered(rho, h)
    return _tr(rho @ h0 @ h0).real


def covariance_re(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[rho (A - <A>)(B - <B>)]."""
    return _tr(rho @ centered(rho, a) @ centered(rho, b)).real


def comm_trace_sq(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """|Tr[W [A, B]]|^2."""
    return abs(_tr(w @ (a @ b - b @ a))) ** 2


def skew_pair(fm, gm, km, h0) -> tuple[float, float]:
    """I = -1/2 Tr([F, H0][G, H0] K) and J = 1/2 Tr({F, H0}{G, H0} K)."""
    i_val = -0.5 * _tr((fm @ h0 - h0 @ fm) @ (gm @ h0 - h0 @ gm) @ km).real
    j_val = 0.5 * _tr((fm @ h0 + h0 @ fm) @ (gm @ h0 + h0 @ gm) @ km).real
    return i_val, j_val


def wyd(rho, h, alpha: float) -> dict:
    """One-parameter family: F = rho^alpha, G = rho^(1-alpha), K = 1."""
    h0 = centered(rho, h)
    i_val, j_val = skew_pair(
        state_power(rho, alpha), state_power(rho, 1.0 - alpha), np.eye(h.shape[0]), h0
    )
    return {"I": i_val, "J": j_val, "U": math.sqrt(max(i_val * j_val, 0.0)),
            "V": variance(rho, h)}


def gwyd(rho, h, alpha: float, beta: float) -> dict:
    """Two-parameter family: F = rho^alpha, G = rho^beta, K = rho^(1-alpha-beta)."""
    h0 = centered(rho, h)
    i_val, j_val = skew_pair(
        state_power(rho, alpha),
        state_power(rho, beta),
        state_power(rho, 1.0 - alpha - beta),
        h0,
    )
    return {"I": i_val, "J": j_val, "U": math.sqrt(max(i_val * j_val, 0.0)),
            "V": variance(rho, h)}


def gwyd_tilde(rho, h, alpha: float, beta: float) -> dict:
    """Second two-parameter family: F = rho^alpha, G = rho^beta, K = 1."""
    h0 = centered(rho, h)
    i_val, j_val = skew_pair(
        state_power(rho, alpha), state_power(rho, beta), np.eye(h.shape[0]), h0
    )
    return {"I": i_val, "J": j_val, "U": math.sqrt(max(i_val * j_val, 0.0)),
            "V": variance(rho, h)}


def fgh(rho, h, triple_spec: dict) -> dict:
    """Function-triple family: F = f(rho), G = g(rho), K = h(rho)."""
    h0 = centered(rho, h)
    i_val, j_val = skew_pair(
        function_of_state(rho, triple_spec["f"]),
        function_of_state(rho, triple_spec["g"]),
        function_of_state(rho, triple_spec["h"]),
        h0,
    )
    return {"I": i_val, "J": j_val, "U": math.sqrt(max(i_val * j_val, 0.0)),
            "V": variance(rho, h)}


def luo_u(rho, h) -> float:
    """sqrt(V^2 - (V - I)^2) with the square-root skew information."""
    v = variance(rho, h)
    i_val = wyd(rho, h, 0.5)["I"]
    return math.sqrt(max(v * v - (v - i_val) ** 2, 0.0))


# Campaign ids whose worst case the oracle recomputes. THM22_GWYD is left
# out: skewlab forms its I as t0 + e_ab - e_a - e_b, which cancels when
# alpha * beta is small, and its worst case then differs from this
# commutator form by up to ~1e-6 relative at dim 2.
CAMPAIGN_IDS = (
    "HEISENBERG_21",
    "SCHRODINGER",
    "LUO_23",
    "THM21_WYD",
    "THM23_TILDE",
    "NAIVE_WY_SHOULD_FAIL",
)


def campaign_lhs_rhs(ineq: str, rho, a, b, params: dict) -> tuple[float, float]:
    """(lhs, rhs) of one campaign inequality on explicit matrices."""
    if ineq in ("HEISENBERG_21", "SCHRODINGER", "LUO_23", "NAIVE_WY_SHOULD_FAIL"):
        rhs = 0.25 * comm_trace_sq(rho, a, b)
        if ineq == "HEISENBERG_21":
            return variance(rho, a) * variance(rho, b), rhs
        if ineq == "SCHRODINGER":
            cov = covariance_re(rho, a, b)
            return variance(rho, a) * variance(rho, b) - cov * cov, rhs
        if ineq == "LUO_23":
            return luo_u(rho, a) * luo_u(rho, b), rhs
        return wyd(rho, a, 0.5)["I"] * wyd(rho, b, 0.5)["I"], rhs
    if ineq == "THM21_WYD":
        alpha = params["alpha"]
        lhs = wyd(rho, a, alpha)["U"] * wyd(rho, b, alpha)["U"]
        return lhs, alpha * (1.0 - alpha) * comm_trace_sq(rho, a, b)
    if ineq == "THM23_TILDE":
        alpha, beta = params["alpha"], params["beta"]
        lhs = gwyd_tilde(rho, a, alpha, beta)["U"] * gwyd_tilde(rho, b, alpha, beta)["U"]
        weight = state_power(rho, alpha + beta)
        return lhs, alpha * beta / (alpha + beta) ** 2 * comm_trace_sq(weight, a, b)
    raise ValueError(f"no oracle for {ineq}")


def beta_closed_form(k: float, ell: float) -> float:
    """Corner coefficient k/(1+k+l)^2, clamped at 0, for constant ratios."""
    return max(k / (1.0 + k + ell) ** 2, 0.0)


def l_value(triple_spec: dict, x: float, y: float) -> float:
    """Two-point ratio (f^2 diff)(g^2 diff)(h sum)^2 / (fgh diff)^2."""
    f, g, h = (scalar_function(triple_spec[k], [x, y]) for k in ("f", "g", "h"))
    num = (f[0] ** 2 - f[1] ** 2) * (g[0] ** 2 - g[1] ** 2) * (h[0] + h[1]) ** 2
    den = f[0] * g[0] * h[0] - f[1] * g[1] * h[1]
    return float(num / den**2)


def lemma41_lhs(a: float, b: float, c: float, r: float) -> float:
    """The lemma's left side with plain exponentials (no expm1), for |r| where
    nothing cancels."""
    num = (math.exp(2 * a * r) - 1) * (math.exp(2 * b * r) - 1) * (math.exp(c * r) + 1) ** 2
    return num / (math.exp((a + b + c) * r) - 1) ** 2
