"""Every public function of ``skewlab.quantities`` against its stored values.

``golden/quantities.json`` maps one case name to the ``repr`` of the value
the function returned, on seeded states and observables of dims 2 to 64.
The comparison is by ``repr``, so any change in the last bit of any value
fails: a refactor of the quantities must keep every value as it was. The
file was written with numpy 2.4 on x86-64; another BLAS may round a few
values differently.

Run ``python tests/test_quantities_golden.py`` to rewrite the file from the
current code.
"""

import json
from pathlib import Path

import numpy as np

from skewlab import harness
from skewlab.functions import Const, Exp, FunctionTriple, Power, ScaledSum
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

GOLDEN = Path(__file__).parent / "golden" / "quantities.json"

DIMS = (2, 3, 4, 5, 8, 16, 32, 64)
SEEDS = (0, 1, 2)
WYD_ALPHAS = (0.0, 0.3, 0.5, 1.0)
GWYD_PARAMS = ((0.2, 0.9), (0.5, 0.5), (1e-4, 2e-4), (1.1, 0.7))
TRIPLES = {
    "quarter": FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5)),
    "negative_h": FunctionTriple(Power(p=0.5), Power(p=0.75), Power(p=-0.25)),
    "exp_const": FunctionTriple(Exp(a=1.5), Power(p=0.3), Const(c=2.0)),
    "scaled_sum": FunctionTriple(
        ScaledSum(terms=((1.0, 0.5), (0.5, 1.0))), Power(p=0.4), Power(p=0.1)
    ),
}


def _states():
    """(name, rho, a, b): seeded random states and observables, plus a
    diagonal state with an observable that commutes with it."""
    for n in DIMS:
        for seed in SEEDS:
            rng = np.random.default_rng(1000 * n + seed)
            rho = harness.sample_density(n, rng)
            a, b = harness.sample_observable(n, rng), harness.sample_observable(n, rng)
            yield f"dim={n} seed={seed}", rho, a, b
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.15, 0.05]))
    a = HermitianMatrix(np.diag([1.0, -2.0, 0.5, 3.0]))
    yield "diagonal", rho, a, harness.sample_observable(4, np.random.default_rng(7))


def cases():
    """(name, value) for every stored case, in file order."""
    for name, rho, a, b in _states():
        yield f"{name} variance", variance(rho, a)
        yield f"{name} wy_skew", wy_skew(rho, a)
        yield f"{name} luo_u", luo_u(rho, a)
        for alpha in WYD_ALPHAS:
            yield f"{name} wyd_family({alpha})", wyd_family(rho, a, alpha)
        for alpha, beta in GWYD_PARAMS:
            yield f"{name} gwyd_family({alpha}, {beta})", gwyd_family(rho, a, alpha, beta)
            yield (f"{name} gwyd_tilde_family({alpha}, {beta})",
                   gwyd_tilde_family(rho, a, alpha, beta))
        decomp = hermitian_eigen(rho)
        for label, triple in TRIPLES.items():
            yield f"{name} fgh_family({label})", fgh_family(rho, a, triple)
            table = element_table(decomp, a)
            yield f"{name} fgh_eigensum({label})", fgh_eigensum(decomp, table, triple)


def test_values_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {name: repr(value) for name, value in cases()}
    assert list(got) == list(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert changed == [], f"{len(changed)} of {len(golden)} values changed, first: {changed[:5]}"


if __name__ == "__main__":
    doc = {name: repr(value) for name, value in cases()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
