"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

from skewlab.cli import load_default_config
from skewlab.functions import (
    Const,
    Exp,
    FunctionTriple,
    Power,
    ScaledSum,
    beta_coefficient,
    l_scan_min,
    lemma41_check,
    ratio_bounds,
)
from skewlab.harness import (
    config_from_dict,
    evaluate_inequality,
    run_campaign,
    search_counterexample,
    sample_density,
    sample_observable,
    _matrix_rng,
)
from skewlab.linalg import DensityMatrix, HermitianMatrix, element_table, hermitian_eigen
from skewlab.quantities import (
    fgh_eigensum,
    fgh_family,
    gwyd_family,
    gwyd_tilde_family,
    wyd_family,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def report(label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rel_close(x, y, tol):
    return abs(x - y) <= tol * max(abs(x), abs(y), 1.0)


def test_criterion_1_qubit_closed_form_suite():
    """Closed-form skew information of a diagonal qubit against sigma_x."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 10):
        rho = DensityMatrix(np.diag([p, 1 - p]))
        sx = HermitianMatrix(SX)
        for alpha in np.linspace(0.0, 1.0, 10):
            got = wyd_family(rho, sx, float(alpha)).I
            expected = (
                1.0
                - p**alpha * (1 - p) ** (1 - alpha)
                - (1 - p) ** alpha * p ** (1 - alpha)
            )
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: qubit closed-form suite (100 grid points)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_tightness_of_one_parameter_bound():
    """The alpha = 1/2 bound is exactly tight for diagonal qubits."""
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 19):
        rho = DensityMatrix(np.diag([p, 1 - p]))
        ux = wyd_family(rho, HermitianMatrix(SX), 0.5).U
        uy = wyd_family(rho, HermitianMatrix(SY), 0.5).U
        rhs = 0.25 * abs(np.trace(rho.entries @ (SX @ SY - SY @ SX))) ** 2
        worst = max(worst, abs(ux * uy - rhs))
    report("criterion 2: tightness of the alpha=1/2 qubit family", worst <= 1e-10,
           f"max |margin| {worst:.2e}")


def test_criterion_3_reproduces_known_failure():
    """The square-root skew information violates the naive product bound."""
    rec = search_counterexample(
        "NAIVE_WY_SHOULD_FAIL", budget=10_000, seed=0, dim=2, slack=0.1
    )
    found = rec is not None and rec.margin < -0.1

    rho = DensityMatrix(np.diag([0.75, 0.25]))
    spot = evaluate_inequality(
        "NAIVE_WY_SHOULD_FAIL", rho, HermitianMatrix(SX), HermitianMatrix(SY)
    )
    spot_ok = (
        abs(spot.lhs - 0.01794919243112272) <= 1e-12
        and abs(spot.rhs - 0.25) <= 1e-12
    )
    report(
        "criterion 3: naive product bound fails",
        found and spot_ok,
        f"margin {rec.margin:.4f} at index {rec.index}; "
        f"p=0.75 gives lhs {spot.lhs:.5f} vs rhs {spot.rhs:.2f}",
    )


def test_criterion_4_theorem_campaigns():
    """Every theorem-backed inequality survives the full bundled campaign."""
    t0 = time.perf_counter()
    config = config_from_dict(load_default_config())
    result = run_campaign(config)
    elapsed = time.perf_counter() - t0
    assert config.dims == (2, 3, 4, 8)
    assert config.samples_per_dim == 1000
    bad = [
        s.setting["id"]
        for s in result.stats
        if s.setting["id"] != "NAIVE_WY_SHOULD_FAIL" and s.violations > 0
    ]
    report(
        "criterion 4: theorem campaigns clean (1000 samples x dims {2,3,4,8})",
        not bad and not result.failed and elapsed < 300.0,
        f"{sum(s.samples for s in result.stats)} evaluations in {elapsed:.1f}s"
        + (f"; violations in {bad}" if bad else ""),
    )


def test_criterion_5_beta_closed_form():
    """Corner coefficient of a power triple equals ab/(a+b+c)^2 in both regimes."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(50):
        alpha, beta = rng.uniform(0.05, 1.2, 2)
        if k % 2 == 0:
            gamma = (alpha + beta) * (1.0 + rng.uniform(0.0, 1.5))  # 0 < a+b <= c
        else:
            gamma = -rng.uniform(0.0, 0.9) * (alpha + beta)         # c <= 0, a+b+c > 0
        triple = FunctionTriple(Power(p=alpha), Power(p=beta), Power(p=gamma))
        got = beta_coefficient(ratio_bounds(triple))
        expected = alpha * beta / (alpha + beta + gamma) ** 2
        worst = max(worst, abs(got - expected))
    report("criterion 5: power-triple coefficient closed form (50 sets)",
           worst <= 1e-12, f"max err {worst:.2e}")


def test_criterion_6_ratio_surface_scan():
    """Grid minimum of the two-point ratio stays above 16x the coefficient."""
    triples = [
        FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),
        FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5)),
        FunctionTriple(Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))), Power(p=4.0)),
        FunctionTriple(Power(p=0.5), Power(p=1 / 3), Const(c=1.0)),
        FunctionTriple(Exp(a=1.0), Exp(a=0.5), Exp(a=2.0)),
    ]
    worst = math.inf
    for triple in triples:
        bound = 16.0 * beta_coefficient(ratio_bounds(triple))
        res = l_scan_min(triple, k=200)
        worst = min(worst, res.min_value - bound)
    report("criterion 6: ratio-surface scan for 5 triples (200x200 grid)",
           worst >= -1e-9, f"worst margin {worst:.2e}")


def test_criterion_7_scalar_inequality_grid():
    """Exponential scalar inequality over the full r grid, both regimes."""
    rng = np.random.default_rng(7)
    params = []
    for _ in range(20):
        a, b = rng.uniform(0.05, 1.0, 2)
        params.append((a, b, (a + b) * (1.0 + rng.uniform(0.0, 1.5))))
    for _ in range(20):
        a, b = rng.uniform(0.1, 1.5, 2)
        params.append((a, b, -rng.uniform(0.0, 0.9) * (a + b)))
    violations = 0
    worst_limit = 0.0
    for a, b, c in params:
        rep = lemma41_check(a, b, c, rmax=10.0, steps=2000)
        violations += rep.violations
        worst_limit = max(worst_limit, rep.limit_gap)
    report(
        "criterion 7: scalar inequality grid (40 parameter sets, 2000 steps)",
        violations == 0 and worst_limit <= 1e-8,
        f"violations {violations}, worst limit gap {worst_limit:.2e}",
    )


def test_criterion_8_dual_path_equivalence():
    """Trace-formula route vs eigenvalue-pair sums on random instances."""
    triples = [
        FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),
        FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5)),
        FunctionTriple(Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))), Power(p=4.0)),
    ]
    ok = True
    checked = 0
    for dim in (2, 3, 4, 8):
        for idx in range(500):
            rng = _matrix_rng(8, dim, idx)
            rho = sample_density(dim, rng)
            h = sample_observable(dim, rng)
            triple = triples[idx % len(triples)]
            decomp = hermitian_eigen(rho)
            bundle = fgh_family(rho, h, triple)
            sums = fgh_eigensum(decomp, element_table(decomp, h), triple)
            checked += 1
            if not rel_close(bundle.I, sums.I, 1e-9):
                ok = False
            if not rel_close(bundle.J, sums.J_pairsum + sums.J_diag, 1e-9):
                ok = False
    report("criterion 8: dual-path equivalence (500 instances per dim)",
           ok and checked == 2000, f"{checked} instances")


def test_criterion_9_reduction_identities():
    """Power triples collapse onto the exponent families they generalize."""
    ok = True
    for dim in (2, 3, 4):
        for idx in range(10):
            rng = _matrix_rng(9, dim, idx)
            rho = sample_density(dim, rng)
            h = sample_observable(dim, rng)
            alpha, beta = 0.25 + 0.5 * rng.random(2)

            full = fgh_family(
                rho, h,
                FunctionTriple(Power(p=alpha), Power(p=beta), Power(p=1 - alpha - beta)),
            )
            two = gwyd_family(rho, h, alpha, beta)
            ok &= rel_close(full.I, two.I, 1e-10) and rel_close(full.J, two.J, 1e-10)

            flat = fgh_family(
                rho, h,
                FunctionTriple(Power(p=alpha), Power(p=beta), Const(c=1.0)),
            )
            tilde = gwyd_tilde_family(rho, h, alpha, beta)
            ok &= rel_close(flat.I, tilde.I, 1e-10) and rel_close(flat.J, tilde.J, 1e-10)

            one = wyd_family(rho, h, alpha)
            collapse_two = gwyd_family(rho, h, alpha, 1 - alpha)
            collapse_tilde = gwyd_tilde_family(rho, h, alpha, 1 - alpha)
            for other in (collapse_two, collapse_tilde):
                ok &= rel_close(one.I, other.I, 1e-10)
                ok &= rel_close(one.J, other.J, 1e-10)
    report("criterion 9: reduction identities across families", ok)
