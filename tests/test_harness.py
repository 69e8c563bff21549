"""Tests for the samplers, inequality evaluation, and campaign machinery."""

import json

import numpy as np
import pytest

from skewlab.harness import (
    _PARAM_SALT,
    CampaignConfig,
    ConfigError,
    InequalityId,
    InequalitySetting,
    _draw_block,
    _draw_sample,
    _matrix_rng,
    _param_draws,
    _resolve_params,
    config_from_dict,
    evaluate_inequality,
    run_campaign,
    sample_density,
    sample_observable,
    sample_unitary,
    search_counterexample,
)
from skewlab.functions import Const, FunctionTriple, Power
from skewlab.linalg import DensityMatrix, DomainError, HermitianMatrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

QUARTER_TRIPLE = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))


def small_config(**overrides):
    doc = {
        "seed": 42,
        "dims": [2, 3],
        "samples_per_dim": 25,
        "inequalities": [
            {"id": "HEISENBERG_21"},
            {"id": "SCHRODINGER"},
            {"id": "LUO_23"},
            {"id": "THM21_WYD"},
            {"id": "NAIVE_WY_SHOULD_FAIL"},
        ],
    }
    doc.update(overrides)
    return config_from_dict(doc)


class TestSamplers:
    def test_density_trace(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 8):
            rho = sample_density(n, rng)
            assert abs(np.trace(rho.entries).real - 1.0) < 1e-12

    def test_density_floor(self):
        rng = np.random.default_rng(1)
        delta = 1e-3
        for n in (2, 4, 8):
            rho = sample_density(n, rng, delta)
            lam_min = np.linalg.eigvalsh(rho.entries)[0]
            assert lam_min >= delta / n - 1e-15

    def test_density_deterministic(self):
        r1 = sample_density(4, _matrix_rng(7, 4, 0), 1e-3)
        r2 = sample_density(4, _matrix_rng(7, 4, 0), 1e-3)
        assert np.array_equal(r1.entries, r2.entries)

    def test_block_draws_match_per_sample_streams(self):
        indices = np.array([0, 3, 2**40 + 1])
        for dim in (2, 5):
            stacks = _draw_block(7, dim, indices, 1e-3)
            for k, index in enumerate(indices.tolist()):
                one = _draw_sample(7, dim, index, 1e-3)
                for stack, m in zip(stacks, one):
                    assert np.array_equal(stack[k], m.entries)

    def test_distinct_seeds_distinct_matrices(self):
        r1 = sample_density(4, _matrix_rng(7, 4, 0), 1e-3)
        r2 = sample_density(4, _matrix_rng(8, 4, 0), 1e-3)
        assert not np.array_equal(r1.entries, r2.entries)

    def test_observable_exactly_hermitian(self):
        rng = np.random.default_rng(2)
        h = sample_observable(5, rng)
        assert np.array_equal(h.entries, h.entries.conj().T)

    def test_unitary_residual(self):
        rng = np.random.default_rng(3)
        for n in (2, 6, 12):
            u = sample_unitary(n, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n


class TestEvaluate:
    def test_thm21_qubit_tight(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        rec = evaluate_inequality(
            "THM21_WYD", rho, HermitianMatrix(SX), HermitianMatrix(SY),
            params={"alpha": 0.5},
        )
        assert rec.lhs == pytest.approx(0.25, abs=1e-12)
        assert rec.rhs == pytest.approx(0.25, abs=1e-12)
        assert rec.margin == pytest.approx(0.0, abs=1e-12)
        assert rec.passed

    def test_naive_qubit_violation(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        rec = evaluate_inequality(
            "NAIVE_WY_SHOULD_FAIL", rho, HermitianMatrix(SX), HermitianMatrix(SY)
        )
        assert rec.lhs == pytest.approx(0.01794919243112272, abs=1e-12)
        assert rec.rhs == pytest.approx(0.25, abs=1e-12)
        assert not rec.passed

    def test_commuting_observables_trivial_pass(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sx = HermitianMatrix(SX)
        for ineq in ("HEISENBERG_21", "LUO_23", "THM21_WYD", "THM23_TILDE"):
            rec = evaluate_inequality(
                ineq, rho, sx, sx, params={"alpha": 0.3, "beta": 0.6}
            )
            assert rec.rhs == pytest.approx(0.0, abs=1e-14)
            assert rec.passed

    def test_thm22_regime_guard(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        with pytest.raises(Exception, match="excludes"):
            evaluate_inequality(
                "THM22_GWYD", rho, HermitianMatrix(SX), HermitianMatrix(SY),
                params={"alpha": 0.3, "beta": 0.4},
            )

    def test_thm23_rejects_zero_product(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        with pytest.raises(ValueError, match="alpha"):
            evaluate_inequality(
                "THM23_TILDE", rho, HermitianMatrix(SX), HermitianMatrix(SY),
                params={"alpha": 0.0, "beta": 0.5},
            )

    def test_thm31_rejects_invalid_triple(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=1.5))
        with pytest.raises(ConfigError, match="neither"):
            evaluate_inequality(
                InequalitySetting(id=InequalityId.THM31_FGH, triple=t),
                DensityMatrix(np.diag([0.75, 0.25])),
                HermitianMatrix(SX),
                HermitianMatrix(SY),
            )

    def test_cor41_rejects_non_monotone_pair(self):
        t = FunctionTriple(Power(p=1.0), Power(p=-0.5), Const(c=1.0))
        with pytest.raises(ConfigError, match="monotone"):
            evaluate_inequality(
                InequalitySetting(id=InequalityId.COR41_PAIR, triple=t),
                DensityMatrix(np.diag([0.75, 0.25])),
                HermitianMatrix(SX),
                HermitianMatrix(SY),
            )

    def test_fgh_rejects_spectrum_below_domain_floor(self):
        # smallest eigenvalue 5e-7 clears the state floor, not the triple's 1e-6
        rho = DensityMatrix(np.diag([1.0 - 5e-7, 5e-7]))
        with pytest.raises(DomainError, match="domain floor"):
            evaluate_inequality(
                InequalitySetting(id=InequalityId.THM31_FGH, triple=QUARTER_TRIPLE),
                rho,
                HermitianMatrix(SX),
                HermitianMatrix(SY),
            )

    def test_thm31_qubit_passes(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        rec = evaluate_inequality(
            InequalitySetting(id=InequalityId.THM31_FGH, triple=QUARTER_TRIPLE),
            rho,
            HermitianMatrix(SX),
            HermitianMatrix(SY),
        )
        assert rec.passed
        assert rec.params["beta"] == pytest.approx(0.0625)
        assert rec.params["assumption"] == "I"

    def test_chain_records_link(self):
        rng = np.random.default_rng(4)
        rho = sample_density(3, rng)
        a = sample_observable(3, rng)
        rec = evaluate_inequality("CHAIN_24", rho, a, a)
        assert rec.params["link"] in ("I>=0", "U>=I", "V>=U")
        assert rec.passed

    def test_missing_alpha_raises(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        with pytest.raises(ValueError, match="alpha"):
            evaluate_inequality("THM21_WYD", rho, HermitianMatrix(SX), HermitianMatrix(SY))

    def test_record_serialization(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        rec = evaluate_inequality(
            "HEISENBERG_21", rho, HermitianMatrix(SX), HermitianMatrix(SY)
        )
        doc = rec.to_json()
        assert doc["rho"]["dim"] == 2
        assert doc["margin"] == doc["lhs"] - doc["rhs"]
        assert doc["pass"] is True


class TestParamResolution:
    def test_thm22_never_in_excluded_band(self):
        setting = InequalitySetting(id=InequalityId.THM22_GWYD, regime="both")
        for idx in range(500):
            p = _resolve_params(setting, idx, seed=3, dim=2, ordinal=0)
            s = p["alpha"] + p["beta"]
            assert not (0.5 < s < 1.0)
            assert p["alpha"] >= 0 and p["beta"] >= 0

    def test_regime_low_high(self):
        low = InequalitySetting(id=InequalityId.THM22_GWYD, regime="low")
        high = InequalitySetting(id=InequalityId.THM22_GWYD, regime="high")
        for idx in range(100):
            p = _resolve_params(low, idx, seed=3, dim=2, ordinal=0)
            assert p["alpha"] + p["beta"] <= 0.5
            p = _resolve_params(high, idx, seed=3, dim=2, ordinal=0)
            assert 1.0 <= p["alpha"] + p["beta"] <= 2.0

    def test_alpha_grid_cycles(self):
        setting = InequalitySetting(
            id=InequalityId.THM21_WYD, alpha=(0.1, 0.2, 0.3)
        )
        vals = [
            _resolve_params(setting, idx, seed=0, dim=2, ordinal=0)["alpha"]
            for idx in range(6)
        ]
        assert vals == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

    def test_vectorized_philox_matches_numpy(self):
        # keys with the top bits of every field set
        for seed, dim, ordinal in ((2**64 - 12345, 4095, 255), (7, 2, 0)):
            indices = np.array([0, 1, 17, 2**40 + 3, 2**44 - 1])
            got = _param_draws(seed, dim, indices, ordinal)
            for row, index in zip(got, indices.tolist()):
                key = np.array(
                    [seed ^ _PARAM_SALT, (ordinal << 56) | (dim << 44) | index],
                    dtype=np.uint64,
                )
                want = np.random.Generator(np.random.Philox(key=key)).random(4)
                assert np.array_equal(row, want)

    def test_param_draws_schedule_independent(self):
        setting = InequalitySetting(id=InequalityId.THM21_WYD)
        a1 = _resolve_params(setting, 17, seed=9, dim=3, ordinal=2)
        a2 = _resolve_params(setting, 17, seed=9, dim=3, ordinal=2)
        assert a1 == a2


class TestConfig:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 1,
                              "inequalities": [], "bogus": True})

    def test_unknown_entry_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 1,
                              "inequalities": [{"id": "HEISENBERG_21", "alpha": 0.5}]})

    def test_unknown_id(self):
        with pytest.raises(ConfigError, match="unknown inequality id"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 1,
                              "inequalities": [{"id": "THM99"}]})

    def test_thm22_band_rejected_in_config(self):
        with pytest.raises(ConfigError, match="excludes"):
            config_from_dict({
                "seed": 1, "dims": [2], "samples_per_dim": 1,
                "inequalities": [{"id": "THM22_GWYD", "alpha": 0.3, "beta": 0.4}],
            })

    def test_triple_required(self):
        with pytest.raises(ConfigError, match="misses"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 1,
                              "inequalities": [{"id": "THM31_FGH"}]})

    def test_triple_floor_above_sampled_spectrum_rejected(self):
        # delta / n = 1e-6 / 3 bounds the sampled eigenvalues, below eps = 1e-3
        with pytest.raises(ConfigError, match="domain floor"):
            config_from_dict({
                "seed": 1, "dims": [3], "samples_per_dim": 1, "delta": 1e-6,
                "inequalities": [{"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
                                  "g": {"kind": "power", "p": 0.25}, "eps": 1e-3}],
            })

    def test_delta_range(self):
        with pytest.raises(ConfigError, match="delta"):
            CampaignConfig(seed=1, dims=(2,), samples_per_dim=1,
                           inequalities=(), delta=0.0)

    def test_echo_round_trip(self):
        cfg = small_config()
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestCampaign:
    def test_theorem_entries_clean(self):
        report = run_campaign(small_config())
        by_id = {s.setting["id"]: s for s in report.stats}
        for ineq in ("HEISENBERG_21", "SCHRODINGER", "LUO_23", "THM21_WYD"):
            assert by_id[ineq].violations == 0
        assert by_id["NAIVE_WY_SHOULD_FAIL"].violations > 0
        assert not report.failed  # naive entry is informational

    def test_deterministic_across_workers(self):
        cfg = small_config()
        j1 = run_campaign(cfg, threads=1).to_json()
        j2 = run_campaign(cfg, threads=2).to_json()
        j1.pop("wall_time_seconds")
        j2.pop("wall_time_seconds")
        assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)

    def test_deterministic_repeat(self):
        cfg = small_config()
        r1 = run_campaign(cfg)
        r2 = run_campaign(cfg)
        assert r1.rows == r2.rows
        assert r1.config_hash == r2.config_hash

    def test_empty_inequality_list(self):
        cfg = config_from_dict({"seed": 5, "dims": [2], "samples_per_dim": 3,
                                "inequalities": []})
        report = run_campaign(cfg)
        assert report.stats == []
        assert not report.failed
        assert report.rows == []

    def test_schroedinger_dominates_heisenberg_per_sample(self):
        report = run_campaign(small_config())
        heis = {(r[1], r[2]): r[3] for r in report.rows if r[0] == "HEISENBERG_21"}
        schro = {(r[1], r[2]): r[3] for r in report.rows if r[0] == "SCHRODINGER"}
        assert heis.keys() == schro.keys()
        for key, lhs_h in heis.items():
            assert schro[key] <= lhs_h + 1e-12

    def test_worst_case_has_matrices(self):
        report = run_campaign(small_config())
        for s in report.stats:
            doc = s.worst.to_json()
            assert doc["rho"] is not None and doc["rho"]["dim"] in (2, 3)
            assert doc["margin"] == pytest.approx(s.min_margin)

    def test_csv_rows(self):
        report = run_campaign(small_config())
        rows = list(report.csv_rows())
        assert rows[0] == "id,n,lhs,rhs,margin,pass"
        assert len(rows) == 1 + 5 * 2 * 25
        assert rows[1].startswith("HEISENBERG_21,2,")

    def test_assert_pass_makes_naive_fail(self):
        cfg = config_from_dict({
            "seed": 42, "dims": [2], "samples_per_dim": 30,
            "inequalities": [{"id": "NAIVE_WY_SHOULD_FAIL", "assert_pass": True}],
        })
        report = run_campaign(cfg)
        assert report.failed

    def test_fgh_entries_run(self):
        cfg = config_from_dict({
            "seed": 9, "dims": [2, 4], "samples_per_dim": 15,
            "inequalities": [
                {"id": "THM31_FGH", "triple": {
                    "f": {"kind": "power", "p": 1.0},
                    "g": {"kind": "power", "p": 1.0},
                    "h": {"kind": "power", "p": -0.5},
                }},
                {"id": "COR41_PAIR", "f": {"kind": "power", "p": 0.5},
                 "g": {"kind": "power", "p": 0.3333333333333333}},
                {"id": "THM22_GWYD"}, {"id": "THM23_TILDE"},
                {"id": "CHAIN_24"}, {"id": "CHAIN_25"}, {"id": "CHAIN_27"},
            ],
        })
        report = run_campaign(cfg)
        assert all(s.violations == 0 for s in report.stats)


class TestCounterexample:
    def test_finds_naive_violation(self):
        rec = search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=500, seed=0, dim=2)
        assert rec is not None
        assert rec.margin < 0
        assert rec.state is not None

    def test_theorem_backed_exhausts(self):
        rec = search_counterexample("THM21_WYD", budget=300, seed=0, dim=2)
        assert rec is None

    def test_seeded_reproduction(self):
        r1 = search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=50, seed=12, dim=2)
        r2 = search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=50, seed=12, dim=2)
        assert r1.index == r2.index
        assert r1.margin == r2.margin
        assert np.array_equal(r1.state, r2.state)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=0, seed=0)
