"""Tests for the skew-information families and their dual evaluation paths."""

import gc
import math

import numpy as np
import pytest

from skewlab import linalg, quantities
from skewlab.functions import Const, FunctionTriple, Power
from skewlab.linalg import (
    DensityMatrix,
    HermitianMatrix,
    element_table,
    hermitian_eigen,
)
from skewlab.quantities import (
    QuantityBundle,
    fgh_eigensum,
    fgh_family,
    gwyd_family,
    gwyd_tilde_family,
    luo_u,
    variance,
    wy_skew,
    wyd_family,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(n, rng, floor=1e-3):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return DensityMatrix((1 - floor) * w / np.trace(w).real + floor * np.eye(n) / n)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((g + g.conj().T) / 2)


def haar_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rel_close(x, y, tol=1e-9):
    return abs(x - y) <= tol * max(abs(x), abs(y), 1.0)


class TestVarianceCovariance:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert variance(rho, HermitianMatrix(SZ)) == pytest.approx(1.0)

    def test_scalar_observable(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        assert variance(rho, HermitianMatrix(3.0 * np.eye(2))) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_qubit(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert variance(rho, HermitianMatrix(SZ)) == pytest.approx(0.75)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            variance(rho, HermitianMatrix(np.eye(3)))


class TestWySkew:
    def test_commuting(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert wy_skew(rho, HermitianMatrix(SZ)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_qubit_closed_form(self):
        p = 0.75
        rho = DensityMatrix(np.diag([p, 1 - p]))
        expected = 1 - 2 * math.sqrt(p * (1 - p))
        assert wy_skew(rho, HermitianMatrix(SX)) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.1339745962155614)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(2)
        rho = DensityMatrix(np.eye(3) / 3)
        assert wy_skew(rho, random_hermitian(3, rng)) == pytest.approx(0.0, abs=1e-13)

    def test_never_exceeds_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(4, rng)
            h = random_hermitian(4, rng)
            assert wy_skew(rho, h) <= variance(rho, h) + 1e-10


class TestWydFamily:
    def test_alpha_one_collapses(self):
        rng = np.random.default_rng(4)
        rho = random_density(3, rng)
        h = random_hermitian(3, rng)
        assert wyd_family(rho, h, 1.0).I == pytest.approx(0.0, abs=1e-12)

    def test_alpha_half_is_wy(self):
        rng = np.random.default_rng(5)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        assert wyd_family(rho, h, 0.5).I == pytest.approx(wy_skew(rho, h), rel=1e-12)

    def test_qubit_bundle(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        b = wyd_family(rho, HermitianMatrix(SX), 0.5)
        assert b.I == pytest.approx(0.1339745962155614, abs=1e-12)
        assert b.J == pytest.approx(1.8660254037844386, abs=1e-12)
        assert b.U == pytest.approx(0.5, abs=1e-12)
        assert b.V == pytest.approx(1.0, abs=1e-12)

    def test_alpha_out_of_range(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="alpha"):
            wyd_family(rho, HermitianMatrix(SX), 1.5)

    def test_i_plus_j_is_twice_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = random_density(4, rng)
            h = random_hermitian(4, rng)
            alpha = rng.random()
            b = wyd_family(rho, h, alpha)
            assert rel_close(b.I + b.J, 2 * b.V, 1e-10)

    def test_ordering_chains(self):
        # 0 <= I <= U <= V and I_alpha <= I_half <= J_half <= J_alpha
        rng = np.random.default_rng(7)
        for _ in range(30):
            rho = random_density(4, rng)
            h = random_hermitian(4, rng)
            alpha = rng.random()
            slack = 1e-9
            b_a = wyd_family(rho, h, alpha)
            b_h = wyd_family(rho, h, 0.5)
            u = luo_u(rho, h)
            v = variance(rho, h)
            i_wy = wy_skew(rho, h)
            assert -slack <= i_wy <= u + slack <= v + 2 * slack
            assert b_a.I <= b_h.I + slack
            assert b_h.I <= b_h.J + slack
            assert b_h.J <= b_a.J + slack
            assert -slack <= b_a.I <= b_a.U + slack <= u + 2 * slack


class TestGwydFamily:
    def test_exponent_sum_one_collapses(self):
        rng = np.random.default_rng(8)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        alpha = 0.3
        b1 = gwyd_family(rho, h, alpha, 1 - alpha)
        b2 = wyd_family(rho, h, alpha)
        assert rel_close(b1.I, b2.I, 1e-10)
        assert rel_close(b1.J, b2.J, 1e-10)

    def test_half_half_is_wy(self):
        rng = np.random.default_rng(9)
        rho = random_density(3, rng)
        h = random_hermitian(3, rng)
        assert gwyd_family(rho, h, 0.5, 0.5).I == pytest.approx(
            wy_skew(rho, h), rel=1e-10
        )

    def test_negative_remainder_exponent(self):
        # alpha + beta > 1 exercises the negative power of the state
        rng = np.random.default_rng(10)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        b = gwyd_family(rho, h, 0.9, 0.8)
        assert b.I >= 0 and b.J >= b.I

    def test_rejects_negative_exponent(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="nonnegative"):
            gwyd_family(rho, HermitianMatrix(SX), -0.1, 0.5)

    @pytest.mark.parametrize("family", [gwyd_family, gwyd_tilde_family])
    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 0.2), (0.2, math.nan), (math.inf, 0.2), (0.2, math.inf),
    ])
    def test_rejects_exponent_that_is_not_finite(self, family, alpha, beta):
        # a NaN ended in "bundle values must be finite"; an infinite exponent
        # warned in gwyd_family and gave I = J = U = 0 in gwyd_tilde_family
        rng = np.random.default_rng(14)
        rho, h = random_density(3, rng), random_hermitian(3, rng)
        with pytest.raises(ValueError) as err:
            family(rho, h, alpha, beta)
        assert str(err.value) == f"exponents must be finite, got ({alpha}, {beta})"

    @pytest.mark.parametrize("family", [gwyd_family, gwyd_tilde_family])
    @pytest.mark.parametrize("alpha, beta", [(-math.inf, 0.2), (math.nan, -0.1)])
    def test_negative_exponent_rejected_before_a_non_finite_one(self, family, alpha, beta):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            family(rho, HermitianMatrix(SX), alpha, beta)

    @pytest.mark.parametrize("regime", ["small", "sum_above_one"])
    def test_skew_matches_high_precision_pair_sum(self, regime):
        # I = 1/2 sum_ij w_ij l_i^(1-a-b) (l_i^a - l_j^a)(l_i^b - l_j^b),
        # summed at 50 digits from the same eigenvalues and weights
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rho = random_density(n, rng)
            h = random_hermitian(n, rng)
            if regime == "small":
                alpha, beta = 10.0 ** rng.uniform(-6, -1, 2)
            else:
                alpha, beta = rng.uniform(0.5, 1.0, 2)
            decomp = hermitian_eigen(rho)
            lam = [mpmath.mpf(x) for x in decomp.eigenvalues]
            w = element_table(decomp, h).weights
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = sum(
                mpmath.mpf(w[i, j]) * lam[i] ** (1 - a - b)
                * (lam[i] ** a - lam[j] ** a) * (lam[i] ** b - lam[j] ** b)
                for i in range(n) for j in range(n)
            ) / 2
            got = gwyd_family(rho, h, alpha, beta).I
            assert abs(got - ref) <= 1e-12 * abs(ref), (n, alpha, beta)

    def test_matches_power_triple_path(self):
        rng = np.random.default_rng(11)
        rho = random_density(2, rng)
        h = random_hermitian(2, rng)
        b1 = gwyd_family(rho, h, 0.25, 0.25)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        b2 = fgh_family(rho, h, t)
        assert rel_close(b1.I, b2.I, 1e-10)
        assert rel_close(b1.J, b2.J, 1e-10)


class TestTildeFamily:
    def test_exponent_sum_one_collapses(self):
        rng = np.random.default_rng(12)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        b1 = gwyd_tilde_family(rho, h, 0.7, 0.3)
        b2 = wyd_family(rho, h, 0.7)
        assert rel_close(b1.I, b2.I, 1e-10)
        assert rel_close(b1.J, b2.J, 1e-10)

    def test_matches_constant_h_triple(self):
        rng = np.random.default_rng(13)
        rho = random_density(3, rng)
        h = random_hermitian(3, rng)
        alpha, beta = 0.6, 0.9
        b1 = gwyd_tilde_family(rho, h, alpha, beta)
        t = FunctionTriple(Power(p=alpha), Power(p=beta), Const(c=1.0))
        b2 = fgh_family(rho, h, t)
        assert rel_close(b1.I, b2.I, 1e-10)
        assert rel_close(b1.J, b2.J, 1e-10)

    def test_commuting_gives_zero(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        h = HermitianMatrix(np.diag([1.0, -1.0, 2.0]))
        assert gwyd_tilde_family(rho, h, 0.4, 0.8).I == pytest.approx(0.0, abs=1e-13)


class TestFghFamily:
    def test_sqrt_pair_is_wy(self):
        rng = np.random.default_rng(14)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        t = FunctionTriple(Power(p=0.5), Power(p=0.5), Const(c=1.0))
        assert fgh_family(rho, h, t).I == pytest.approx(wy_skew(rho, h), rel=1e-10)

    def test_power_triple_is_two_exponent_family(self):
        rng = np.random.default_rng(15)
        rho = random_density(4, rng)
        h = random_hermitian(4, rng)
        alpha, beta = 0.3, 0.4
        t = FunctionTriple(Power(p=alpha), Power(p=beta), Power(p=1 - alpha - beta))
        b1 = fgh_family(rho, h, t)
        b2 = gwyd_family(rho, h, alpha, beta)
        assert rel_close(b1.I, b2.I, 1e-10)
        assert rel_close(b1.J, b2.J, 1e-10)

    def test_dual_path_qubit(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        h = HermitianMatrix(SX)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        d = hermitian_eigen(rho)
        b = fgh_family(rho, h, t)
        s = fgh_eigensum(d, element_table(d, h), t)
        assert b.I == pytest.approx(s.I, rel=1e-10, abs=1e-14)

    def test_dual_path_random_dims(self):
        rng = np.random.default_rng(16)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        for n in (2, 3, 4, 8):
            for _ in range(5):
                rho = random_density(n, rng)
                h = random_hermitian(n, rng)
                d = hermitian_eigen(rho)
                b = fgh_family(rho, h, t)
                s = fgh_eigensum(d, element_table(d, h), t)
                assert rel_close(b.I, s.I, 1e-9)
                assert rel_close(b.J, s.J_pairsum + s.J_diag, 1e-9)

    def test_domain_floor_guard(self):
        rho = DensityMatrix(np.diag([1e-7, 1 - 1e-7]))
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5))
        with pytest.raises(Exception, match="floor"):
            fgh_family(rho, HermitianMatrix(SX), t)


class TestSharedDecomposition:
    def test_families_on_one_state_decompose_it_once(self, eigh_calls):
        rng = np.random.default_rng(30)
        rho, h = random_density(5, rng), random_hermitian(5, rng)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        wy = wy_skew(rho, h)
        wyd = wyd_family(rho, h, 0.3)
        fgh = fgh_family(rho, h, t)
        assert len(eigh_calls) == 1
        hermitian_eigen(rho)
        assert len(eigh_calls) == 1
        assert wy == wy_skew(rho, h)
        assert wyd == wyd_family(rho, h, 0.3)
        assert fgh == fgh_family(rho, h, t)


QUARTER = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))


def every_family(rho, h):
    return (
        wy_skew(rho, h),
        luo_u(rho, h),
        wyd_family(rho, h, 0.3),
        gwyd_family(rho, h, 0.2, 0.9),
        gwyd_tilde_family(rho, h, 0.4, 1.3),
        fgh_family(rho, h, QUARTER),
    )


@pytest.fixture
def table_calls(monkeypatch):
    """The element tables ``linalg`` builds during the test: one list entry
    per build, the entries of its observable. ``element_table`` returns a
    cached table without building it again."""
    calls = []
    build = linalg.element_tables

    def counted(lam, v, h):
        calls.append(h.base)
        return build(lam, v, h)

    monkeypatch.setattr(linalg, "element_tables", counted)
    return calls


def built_for(calls, *observables):
    """Whether the builds in ``calls`` were for ``observables``, in order."""
    return len(calls) == len(observables) and all(
        c is h.entries for c, h in zip(calls, observables)
    )


class TestPairDataCache:
    def test_one_decomposition_and_one_table_per_pair(self, eigh_calls, table_calls):
        rng = np.random.default_rng(31)
        rho, a, b = random_density(6, rng), random_hermitian(6, rng), random_hermitian(6, rng)
        for _ in range(2):
            every_family(rho, a)
            every_family(rho, b)
        assert len(eigh_calls) == 1
        assert built_for(table_calls, a, b)

    def test_repeated_calls_equal_calls_on_fresh_copies(self):
        rng = np.random.default_rng(32)
        for n in (2, 5, 16):
            rho, h = random_density(n, rng), random_hermitian(n, rng)
            first = every_family(rho, h)
            again = every_family(rho, h)
            fresh = every_family(DensityMatrix(rho.entries), HermitianMatrix(h.entries))
            assert repr(first) == repr(again) == repr(fresh)

    def test_equal_valued_new_observable_is_computed_on_its_own(self, table_calls):
        rng = np.random.default_rng(33)
        rho, h = random_density(4, rng), random_hermitian(4, rng)
        twin = HermitianMatrix(h.entries)
        assert wy_skew(rho, h) == wy_skew(rho, twin)
        assert built_for(table_calls, h, twin)

    def test_cached_arrays_are_read_only(self):
        rng = np.random.default_rng(35)
        rho, h = random_density(4, rng), random_hermitian(4, rng)
        _lam, w, row = quantities._pair_data(rho, h)
        for arr in (w, row):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        d = hermitian_eigen(rho)
        table = element_table(d, h)
        assert table.weights is table.weights
        assert not table.weights.flags.writeable
        assert np.array_equal(table.weights, np.abs(table.entries) ** 2)

    def test_entry_goes_away_with_the_observable(self):
        rng = np.random.default_rng(36)
        rho, h = random_density(4, rng), random_hermitian(4, rng)
        wy_skew(rho, h)
        cache = hermitian_eigen(rho).pair_cache
        assert len(cache) == 1
        del h
        gc.collect()
        assert len(cache) == 0

    def test_failed_check_caches_nothing(self, monkeypatch, table_calls):
        rng = np.random.default_rng(37)
        rho, h = random_density(4, rng), random_hermitian(3, rng)
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension mismatch"):
                wy_skew(rho, h)
        assert table_calls == []
        h = random_hermitian(4, rng)
        monkeypatch.setattr(linalg, "ELEMENT_SYMMETRY_TOL", -1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="conjugate symmetry"):
                wy_skew(rho, h)
        assert built_for(table_calls, h, h)
        assert len(hermitian_eigen(rho).pair_cache) == 0

    def test_upper_pairs_are_shared_and_read_only(self):
        for n in (2, 3, 17):
            i, j = quantities._upper_pairs(n)
            ref_i, ref_j = np.triu_indices(n, k=1)
            assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
            assert not i.flags.writeable and not j.flags.writeable
            assert quantities._upper_pairs(n)[0] is i


class TestEigensum:
    def test_commuting_observable_vanishes(self):
        rng = np.random.default_rng(17)
        rho = random_density(4, rng)
        d = hermitian_eigen(rho)
        h = HermitianMatrix(
            (d.vectors * np.array([1.0, 2.0, -1.0, 0.5])) @ d.vectors.conj().T
        )
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        s = fgh_eigensum(d, element_table(d, h), t)
        assert s.I == pytest.approx(0.0, abs=1e-12)

    def test_pairsum_bounded_by_trace_j(self):
        rng = np.random.default_rng(18)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        for _ in range(20):
            rho = random_density(4, rng)
            h = random_hermitian(4, rng)
            d = hermitian_eigen(rho)
            b = fgh_family(rho, h, t)
            s = fgh_eigensum(d, element_table(d, h), t)
            assert s.J_pairsum <= b.J + 1e-10
            assert s.J_diag >= -1e-15

    @pytest.mark.parametrize("n_decomp, n_table", [(3, 4), (4, 3), (4, 4)])
    def test_table_of_another_decomposition_rejected(self, n_decomp, n_table):
        # a 4-dim table on a 3-dim decomposition raised numpy's broadcast
        # error, a 3-dim one on a 4-dim decomposition an IndexError, and the
        # table of another state of the same dimension gave another EigenSum
        rng = np.random.default_rng(19)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        d = hermitian_eigen(random_density(n_decomp, rng))
        other = hermitian_eigen(random_density(n_table, rng))
        h = random_hermitian(n_table, rng)
        with pytest.raises(ValueError) as err:
            fgh_eigensum(d, element_table(other, h), t)
        assert str(err.value) == "element table was not built on this decomposition"

    def test_table_of_a_temporary_observable_accepted(self):
        rng = np.random.default_rng(20)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        d = hermitian_eigen(random_density(4, rng))
        x = random_hermitian(4, rng).entries
        s = fgh_eigensum(d, element_table(d, HermitianMatrix(x)), t)
        gc.collect()
        assert len(d.pair_cache) == 0   # the table's own observable is gone
        h = HermitianMatrix(x)
        assert fgh_eigensum(d, element_table(d, h), t) == s


class TestLuoU:
    def test_commuting_vanishes(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert luo_u(rho, HermitianMatrix(SZ)) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert luo_u(rho, HermitianMatrix(SX)) == pytest.approx(0.5, abs=1e-12)

    def test_near_pure_approaches_variance(self):
        # V - U is O(d) for a qubit with small eigenvalue d
        d = 1e-6
        rho = DensityMatrix(np.diag([1 - d, d]))
        h = HermitianMatrix(SX)
        v = variance(rho, h)
        u = luo_u(rho, h)
        assert 0 <= v - u <= 5 * d


class TestInvariance:
    def test_unitary_covariance_of_families(self):
        rng = np.random.default_rng(19)
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        for n in (2, 4):
            rho = random_density(n, rng)
            h = random_hermitian(n, rng)
            v = haar_unitary(n, rng)
            rho2 = DensityMatrix(v @ rho.entries @ v.conj().T)
            h2 = HermitianMatrix(v @ h.entries @ v.conj().T)
            for fam, args in (
                (wyd_family, (0.3,)),
                (gwyd_family, (0.4, 0.9)),
                (gwyd_tilde_family, (0.4, 0.9)),
                (fgh_family, (t,)),
            ):
                b1 = fam(rho, h, *args)
                b2 = fam(rho2, h2, *args)
                for attr in "IJUV":
                    assert rel_close(getattr(b1, attr), getattr(b2, attr), 1e-9)

    def test_centering_matters_for_j_not_i(self):
        # independent route: fractional powers via a separate eigh in the test
        rng = np.random.default_rng(20)
        rho = random_density(3, rng)
        h = random_hermitian(3, rng)
        mean = np.trace(rho.entries @ h.entries).real
        assert abs(mean) > 1e-3  # non-centered instance
        alpha = 0.3
        w, v = np.linalg.eigh(rho.entries)
        power = lambda s: (v * w**s) @ v.conj().T
        hm = h.entries
        h0 = hm - mean * np.eye(3)
        t0 = np.trace(rho.entries @ h0 @ h0).real
        ex_centered = np.trace(power(alpha) @ h0 @ power(1 - alpha) @ h0).real
        ex_raw = np.trace(power(alpha) @ hm @ power(1 - alpha) @ hm).real
        b = wyd_family(rho, h, alpha)
        # J must use the centered observable; the raw value differs
        assert b.J == pytest.approx(t0 + ex_centered, rel=1e-10)
        assert abs((t0 + ex_centered) - (np.trace(rho.entries @ hm @ hm).real + ex_raw)) > 1e-6
        # I is insensitive to centering
        i_raw = np.trace(rho.entries @ hm @ hm).real - ex_raw
        assert b.I == pytest.approx(i_raw, rel=1e-9)


class TestBundle:
    def test_validation_u_consistency(self):
        with pytest.raises(ValueError, match="does not match"):
            QuantityBundle(family="WYD", params={}, I=1.0, J=1.0, U=2.0, V=1.0)

    def test_validation_finite(self):
        with pytest.raises(ValueError, match="finite"):
            QuantityBundle(family="WYD", params={}, I=math.nan, J=1.0, U=1.0, V=1.0)
