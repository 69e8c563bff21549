"""The function-triple kernel against Lemma 4.1's two-point ratio.

THM31_FGH and COR41_PAIR evaluate lhs = U_A U_B against
rhs = beta |Tr f g h(rho) [A, B]|^2 on matrices; ``functions.l_value``
evaluates L(x, y) on two eigenvalues. The paper's proof runs from one to the
other, so the two code paths must meet:

- on rho = diag(x, y, rest) with A = sigma_x + 0 and B = sigma_y + 0 only the
  pair (x, y) enters, and lhs / rhs = L(x, y) / (16 beta) exactly;
- on any state, lhs / rhs >= min over eigenvalue pairs of L / (16 beta).
"""

import functools

import numpy as np
import pytest

from skewlab import harness
from skewlab.cli import load_default_config
from skewlab.functions import l_value
from skewlab.harness import InequalityId, evaluate_inequality
from skewlab.linalg import DensityMatrix, HermitianMatrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
FUNCTION_IDS = (InequalityId.THM31_FGH, InequalityId.COR41_PAIR)


@functools.cache
def default_config():
    return harness.config_from_dict(load_default_config())


def function_entries():
    return [s for s in default_config().inequalities if s.id in FUNCTION_IDS]


def padded(pauli, n):
    """The 2 x 2 matrix on the first two basis vectors, 0 elsewhere."""
    out = np.zeros((n, n), dtype=complex)
    out[:2, :2] = pauli
    return HermitianMatrix(out)


@pytest.mark.parametrize("setting", function_entries())
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("x", [0.3, 0.1, 0.01])
def test_two_point_state_gives_l_over_sixteen_beta(setting, n, x):
    # x + y = 1 at n = 2; at n >= 3 the other n - 2 eigenvalues share 0.45
    y = 1.0 - x if n == 2 else 0.55 - x
    rest = [0.45 / (n - 2)] * (n - 2) if n > 2 else []
    rho = DensityMatrix(np.diag([x, y, *rest]).astype(complex))
    rec = evaluate_inequality(setting, rho, padded(SX, n), padded(SY, n))
    want = l_value(setting.triple, x, y) / (16.0 * setting.coefficient)
    assert rec.lhs / rec.rhs == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_each_row_meets_its_own_pair_bound(dim):
    config = default_config()
    for index in range(100):
        rho, a, b = harness._draw_sample(config.seed, dim, index, config.delta)
        lam = np.linalg.eigvalsh(rho.entries)
        for setting in function_entries():
            rec = evaluate_inequality(setting, rho, a, b)
            floor = min(
                l_value(setting.triple, lam[i], lam[j])
                for i in range(dim) for j in range(i + 1, dim)
            ) / (16.0 * setting.coefficient)
            assert rec.lhs / rec.rhs >= (1.0 - 1e-9) * floor, (setting.id, index)
