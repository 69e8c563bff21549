"""The bundled default campaign against its stored report, and the
determinism of campaign reports across worker counts.

``golden/default_campaign.json`` is the default campaign's report, minus
its wall time, as the per-sample engine wrote it before campaigns were
evaluated in stacked blocks. Sample and violation counts and each worst
case's (dim, index) must match it exactly; margins may move by rounding.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from skewlab import cli, harness

GOLDEN = Path(__file__).parent / "golden" / "default_campaign.json"

# Relative to max(|lhs|, |rhs|) of the stored worst case. Block evaluation
# sums in another order; measured, every entry moves by at most 1.3e-11.
MARGIN_TOL = 1e-10
# The stored THM22_GWYD value carries the cancellation of the old trace form
# of I: against a 50-digit reference its worst-case lhs is off by 1.8e-6 of
# scale, the new pair sum by 1.3e-15.
THM22_TOL = 5e-6


def _report_text(report) -> str:
    doc = report.to_json()
    doc.pop("wall_time_seconds")
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def config():
    return harness.config_from_dict(cli.load_default_config())


@pytest.fixture(scope="module")
def report(config):
    return harness.run_campaign(config, threads=1)


def test_default_campaign_matches_golden(report):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["config_hash"] == report.config_hash
    assert len(golden["inequalities"]) == len(report.stats)
    for stored, stats in zip(golden["inequalities"], report.stats):
        ineq = stored["setting"]["id"]
        assert stats.setting == stored["setting"]
        assert (stats.samples, stats.violations) == (stored["samples"], stored["violations"]), ineq
        worst = stored["worst_case"]
        assert (stats.worst.dim, stats.worst.index) == (worst["dim"], worst["index"]), ineq
        scale = max(abs(worst["lhs"]), abs(worst["rhs"]))
        tol = (THM22_TOL if ineq == "THM22_GWYD" else MARGIN_TOL) * scale
        assert abs(stats.min_margin - stored["min_margin"]) <= tol, ineq
        assert stats.worst.margin == stats.min_margin
        assert abs(stats.worst.lhs - worst["lhs"]) <= tol, ineq
        assert abs(stats.worst.rhs - worst["rhs"]) <= tol, ineq
        assert stats.worst.params.get("link") == worst["params"].get("link")


def test_report_independent_of_worker_count(config, report):
    text = _report_text(report)
    for threads in (2, 3):
        other = harness.run_campaign(config, threads=threads)
        assert _report_text(other) == text, threads
        assert other.rows == report.rows, threads


def test_evaluate_inequality_agrees_with_campaign_rows(config, report):
    per_entry = len(config.dims) * config.samples_per_dim
    last = config.samples_per_dim - 1
    for ordinal, (setting, stats) in enumerate(zip(config.inequalities, report.stats)):
        rows = {(r[1], r[2]): r for r in report.rows[ordinal * per_entry:][:per_entry]}
        picks = {(dim, idx) for dim in config.dims for idx in (0, last)}
        picks.add((stats.worst.dim, stats.worst.index))
        for dim, idx in sorted(picks):
            _, _, _, lhs, rhs, margin, passed = rows[(dim, idx)]
            rho, a, b = harness._draw_sample(config.seed, dim, idx, config.delta)
            params = harness._block_params(setting, np.array([idx]), config.seed, dim, ordinal)
            params = {name: float(v[0]) for name, v in params.items()}
            rec = harness.evaluate_inequality(setting, rho, a, b, params=params,
                                              slack=config.slack, index=idx)
            tol = 1e-12 * max(abs(lhs), abs(rhs))
            where = (setting.id.value, dim, idx)
            assert abs(rec.margin - margin) <= tol, where
            assert rec.passed == passed, where
            assert abs(rec.lhs - lhs) <= tol, where
            assert abs(rec.rhs - rhs) <= tol, where
