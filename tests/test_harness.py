"""Tests for the samplers, inequality evaluation, and campaign machinery."""

import concurrent.futures
import json
import operator
from unittest.mock import patch

import numpy as np
import pytest

from skewlab import harness
from skewlab.cli import load_default_config
from skewlab.harness import (
    _PARAM_SALT,
    INEQUALITIES,
    CampaignConfig,
    ConfigError,
    InequalityId,
    InequalitySetting,
    _block_params,
    _draw_block,
    _draw_sample,
    _matrix_rng,
    _param_draws,
    config_from_dict,
    evaluate_inequality,
    run_campaign,
    sample_density,
    sample_observable,
    search_counterexample,
)
from skewlab.functions import Const, FunctionTriple, Power
from skewlab.linalg import (
    DensityMatrix,
    DomainError,
    HermitianMatrix,
    element_table,
    hermitian_eigen,
)
from skewlab.quantities import fgh_eigensum, fgh_family

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
            rho, obs = _draw_block(7, dim, indices, 1e-3)
            for k, index in enumerate(indices.tolist()):
                one = _draw_sample(7, dim, index, 1e-3)
                for stack, m in zip((rho, obs[0], obs[1]), one):
                    assert np.array_equal(stack[k], m.entries)

    def test_distinct_seeds_distinct_matrices(self):
        r1 = sample_density(4, _matrix_rng(7, 4, 0), 1e-3)
        r2 = sample_density(4, _matrix_rng(8, 4, 0), 1e-3)
        assert not np.array_equal(r1.entries, r2.entries)

    def test_observable_exactly_hermitian(self):
        rng = np.random.default_rng(2)
        h = sample_observable(5, rng)
        assert np.array_equal(h.entries, h.entries.conj().T)


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

    def test_spectrum_at_domain_floor_evaluates_on_every_path(self):
        # the functions live on [eps, 1]: the smallest eigenvalue 0.25 sits at
        # eps = 0.25, inside the domain; just above it, every path refuses
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        a, b = HermitianMatrix(SX), HermitianMatrix(SY)
        d = hermitian_eigen(rho)

        def pair(eps):
            return FunctionTriple(Power(p=0.5), Power(p=0.5), Const(c=1.0), eps=eps)

        setting = InequalitySetting(id=InequalityId.COR41_PAIR, triple=pair(0.25))
        record = evaluate_inequality(setting, rho, a, b)
        ua, ub = fgh_family(rho, a, pair(0.25)), fgh_family(rho, b, pair(0.25))
        assert record.lhs == pytest.approx(ua.U * ub.U, rel=1e-12)
        assert fgh_eigensum(d, element_table(d, a), pair(0.25)).I == pytest.approx(ua.I, rel=1e-12)

        above = pair(0.25 + 1e-9)
        with pytest.raises(DomainError, match="domain floor"):
            evaluate_inequality(InequalitySetting(id=InequalityId.COR41_PAIR, triple=above),
                                rho, a, b)
        with pytest.raises(DomainError, match="domain floor"):
            fgh_family(rho, a, above)
        with pytest.raises(DomainError, match="domain floor"):
            fgh_eigensum(d, element_table(d, a), above)

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
        p = _block_params(setting, np.arange(500), seed=3, dim=2, ordinal=0)
        s = p["alpha"] + p["beta"]
        assert not np.any((0.5 < s) & (s < 1.0))
        assert np.all(p["alpha"] >= 0) and np.all(p["beta"] >= 0)

    def test_regime_low_high(self):
        low = InequalitySetting(id=InequalityId.THM22_GWYD, regime="low")
        high = InequalitySetting(id=InequalityId.THM22_GWYD, regime="high")
        p = _block_params(low, np.arange(100), seed=3, dim=2, ordinal=0)
        assert np.all(p["alpha"] + p["beta"] <= 0.5)
        p = _block_params(high, np.arange(100), seed=3, dim=2, ordinal=0)
        assert np.all((1.0 <= p["alpha"] + p["beta"]) & (p["alpha"] + p["beta"] <= 2.0))

    def test_alpha_grid_cycles(self):
        setting = InequalitySetting(
            id=InequalityId.THM21_WYD, alpha=(0.1, 0.2, 0.3)
        )
        vals = _block_params(setting, np.arange(6), seed=0, dim=2, ordinal=0)["alpha"]
        assert vals.tolist() == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

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
        a1 = _block_params(setting, np.array([17]), seed=9, dim=3, ordinal=2)
        a2 = _block_params(setting, np.arange(10, 30), seed=9, dim=3, ordinal=2)
        assert a1["alpha"][0] == a2["alpha"][7]

    def test_param_draws_of_many_entries_match_one_at_a_time(self):
        indices = np.array([0, 5, 2**40 + 3, 2**44 - 1])
        ordinals = [0, 3, 13, 255]
        together = _param_draws(7, 64, indices, ordinals)
        assert together.shape == (4, 4, 4)
        for row, ordinal in zip(together, ordinals):
            assert row.tobytes() == _param_draws(7, 64, indices, ordinal).tobytes()

    def test_given_draws_are_the_entry_draws(self):
        setting = InequalitySetting(id=InequalityId.THM22_GWYD)
        indices = np.arange(3, 40)
        draws = _param_draws(9, 5, indices, [1, 4])[1]
        given = _block_params(setting, indices, seed=9, dim=5, ordinal=4, draws=draws)
        made = _block_params(setting, indices, seed=9, dim=5, ordinal=4)
        assert given.keys() == made.keys()
        assert all(given[k].tobytes() == made[k].tobytes() for k in made)

    def test_one_philox_pass_per_block(self):
        config = config_from_dict(load_default_config())
        want = run_campaign(config)
        calls = []
        philox = harness._philox_random

        def counted(key0, key1):
            calls.append(key1.shape)
            return philox(key0, key1)

        with patch.object(harness, "_philox_random", counted):
            got = run_campaign(config)
        drawn = sum(map(harness._draws_params, config.inequalities))
        blocks = harness._blocks(config)
        assert calls == [(drawn, stop - start) for _dim, start, stop in blocks]
        for g, w in zip(got.columns, want.columns):
            assert g.margin.tobytes() == w.margin.tobytes()

    def test_matrix_keys_of_an_index_array(self):
        indices = np.array([0, 9, 2**44 - 1])
        keys = harness._matrix_key(2**64 - 1, 4095, indices)
        assert keys.shape == (3, 2) and keys.dtype == np.uint64
        for key, index in zip(keys, indices.tolist()):
            one = harness._matrix_key(2**64 - 1, 4095, index)
            assert one.tolist() == key.tolist() == [2**64 - 1, (4095 << 44) | index]


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

    @pytest.mark.parametrize("entry", [
        {"id": "CHAIN_27", "alpha": 1.5},
        {"id": "CHAIN_25", "alpha": 1.5},
        {"id": "CHAIN_25", "alpha": -0.5},
        {"id": "THM21_WYD", "alpha": 1.5},
        {"id": "THM21_WYD", "alpha": [0.2, 0.5, 1.5]},
    ])
    def test_alpha_outside_unit_interval_rejected_in_config(self, entry):
        with pytest.raises(ConfigError, match=r"alpha must lie in \[0, 1\]"):
            config_from_dict({"seed": 1, "dims": [2, 3], "samples_per_dim": 50,
                              "inequalities": [entry]})

    @pytest.mark.parametrize("entry", [
        {"id": "THM21_WYD", "alpha": float("nan")},
        {"id": "THM22_GWYD", "alpha": float("nan"), "beta": 0.2},
        {"id": "THM23_TILDE", "alpha": 0.5, "beta": float("nan")},
    ])
    def test_nan_exponent_rejected_in_config(self, entry):
        with pytest.raises(ConfigError, match="nan"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 30,
                              "inequalities": [entry]})

    def test_one_record_per_id(self):
        assert list(INEQUALITIES) == list(InequalityId)

    def test_thm22_band_rejected_in_config(self):
        with pytest.raises(ConfigError, match="excludes"):
            config_from_dict({
                "seed": 1, "dims": [2], "samples_per_dim": 1,
                "inequalities": [{"id": "THM22_GWYD", "alpha": 0.3, "beta": 0.4}],
            })

    @pytest.mark.parametrize("entry", [
        {"id": "THM23_TILDE", "alpha": [0.1, 0.2]},
        {"id": "THM23_TILDE", "alpha": [0.1, 0.2], "beta": 0.5},
        {"id": "THM23_TILDE", "alpha": 0.3},
        {"id": "THM23_TILDE", "beta": 0.5},
        {"id": "THM22_GWYD", "beta": 0.5},
        {"id": "THM22_GWYD", "alpha": 0.2},
    ])
    def test_two_parameter_pair_fixed_whole(self, entry):
        with pytest.raises(ConfigError, match="scalar alpha and beta, set together"):
            config_from_dict({"seed": 1, "dims": [2], "samples_per_dim": 1,
                              "inequalities": [entry]})

    def test_thm23_fixed_pair_is_used(self):
        config = config_from_dict({
            "seed": 1, "dims": [2], "samples_per_dim": 3,
            "inequalities": [{"id": "THM23_TILDE", "alpha": 0.3, "beta": 1.5}],
        })
        setting = config.inequalities[0]
        params = _block_params(setting, np.arange(3), seed=1, dim=2, ordinal=0)
        assert {name: v.tolist() for name, v in params.items()} == {
            "alpha": [0.3] * 3, "beta": [1.5] * 3
        }

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

    def test_threads_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                run_campaign(small_config(), threads=threads)

    @pytest.mark.parametrize("dims, workers", [([2], []), ([2, 3], [2])])
    def test_at_most_one_worker_per_block(self, pools, dims, workers):
        # 25 samples make one block per dim, so 8 threads need 1 or 2 workers
        cfg = small_config(dims=dims)
        report = run_campaign(cfg, threads=8)
        assert [p.max_workers for p in pools] == workers
        assert all(p.closed for p in pools)
        want, got = run_campaign(cfg).to_json(), report.to_json()
        want.pop("wall_time_seconds")
        got.pop("wall_time_seconds")
        assert got == want

    def test_rows_independent_of_block_size(self, monkeypatch):
        # With one sample per block, THM21_WYD at alpha = 0.5 (dim 3 index 4,
        # dim 32 index 40, dim 64 index 4) once rounded differently in the
        # last bit, through numpy's scalar-exponent power.
        cfg = config_from_dict(dict(load_default_config(), dims=[3, 32, 64], samples_per_dim=48))
        report = run_campaign(cfg)
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 8)
        single = run_campaign(cfg)
        changed = [(a, b) for a, b in zip(report.rows, single.rows) if repr(a) != repr(b)]
        assert len(single.rows) == len(report.rows)
        assert changed == []
        report.wall_time = single.wall_time = 0.0
        assert single.to_json_text() == report.to_json_text()

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
        report.replay_worst_cases()
        for s in report.stats:
            doc = s.worst.to_json()
            assert doc["rho"] is not None and doc["rho"]["dim"] in (2, 3)
            assert doc["margin"] == pytest.approx(s.min_margin)

    def test_csv_rows(self):
        report = run_campaign(small_config())
        items = list(report.csv_rows())
        assert items[0] == "id,n,lhs,rhs,margin,pass\n"
        # one item per entry, each holding that entry's 2 * 25 lines
        assert len(items) == 1 + 5
        for item, c in zip(items[1:], report.columns):
            lines = item.split("\n")
            assert len(lines) == 2 * 25 + 1 and lines[-1] == ""
            assert all(line.startswith(c.id + ",") for line in lines[:-1])
        assert items[1].startswith("HEISENBERG_21,2,")

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


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: maps in this process and
    records its worker count and whether it was shut down."""

    def __init__(self, max_workers):
        self.max_workers, self.closed = max_workers, False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pools():
    """Patches ``RecordingPool`` in for the process pool; yields the pools made."""
    made = []

    def pool(max_workers):
        made.append(RecordingPool(max_workers))
        return made[-1]

    with patch.object(concurrent.futures, "ProcessPoolExecutor", pool):
        yield made


class TestPoolMap:
    @pytest.mark.parametrize("threads, n, workers", [
        (1, 5, []), (8, 1, []), (8, 0, []), (3, 5, [3]), (8, 3, [3]),
    ])
    def test_workers_capped_by_items(self, pools, threads, n, workers):
        items = list(range(n))
        assert list(harness._pool_map(operator.neg, items, threads)) == [-i for i in items]
        assert [p.max_workers for p in pools] == workers
        assert all(p.closed for p in pools)

    def test_closed_early_shuts_the_pool_down(self, pools):
        results = harness._pool_map(operator.neg, [1, 2, 3], 2)
        assert next(results) == -1
        assert not pools[0].closed
        results.close()
        assert pools[0].closed


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


def _first_violation_one_by_one(setting, budget, seed, dim, delta=1e-3, slack=1e-9):
    """The per-sample reference scan: draw, resolve parameters and evaluate
    each index in turn, and stop at the first failure."""
    for idx in range(budget):
        rho, a, b = _draw_sample(seed, dim, idx, delta)
        params = _block_params(setting, np.array([idx]), seed, dim, 0)
        params = {name: float(v[0]) for name, v in params.items()}
        record = evaluate_inequality(setting, rho, a, b, params=params, slack=slack, index=idx)
        if not record.passed:
            return record
    return None


# A dim-8 block holds 256 samples, so the dim-8 budgets span several blocks
# and the NAIVE hit there (index 561) lies in the third. At dim 2 the hit is
# index 0 of one 300-sample block.
@pytest.mark.parametrize("ineq, budget, seed, dim", [
    ("NAIVE_WY_SHOULD_FAIL", 700, 1, 8),
    ("NAIVE_WY_SHOULD_FAIL", 300, 0, 2),
    ("THM21_WYD", 600, 0, 8),
])
def test_block_scan_matches_per_sample_reference(ineq, budget, seed, dim):
    setting = InequalitySetting(id=InequalityId(ineq))
    got = search_counterexample(setting, budget=budget, seed=seed, dim=dim)
    want = _first_violation_one_by_one(setting, budget, seed, dim)
    if want is None:
        assert got is None
        return
    assert (got.index, got.dim, got.lhs, got.rhs, got.margin, got.params) == (
        want.index, want.dim, want.lhs, want.rhs, want.margin, want.params
    )
    for mine, theirs in zip((got.state, got.obs_a, got.obs_b),
                            (want.state, want.obs_a, want.obs_b)):
        assert mine.tobytes() == theirs.tobytes()
