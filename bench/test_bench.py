"""Tests of the benchmark's own pieces.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracing  # noqa: E402
from skewlab import cli, harness, linalg  # noqa: E402


def _entry_summary(report):
    return [
        (s.setting["id"], s.samples, s.violations, s.min_margin,
         (s.worst.dim, s.worst.index))
        for s in report.stats
    ]


def test_default_campaign_is_identical_for_one_and_two_workers():
    config = harness.config_from_dict(cli.load_default_config())
    one = harness.run_campaign(config, threads=1)
    two = harness.run_campaign(config, threads=2)
    assert _entry_summary(one) == _entry_summary(two)
    assert one.rows == two.rows


def test_oracle_matches_the_qubit_closed_forms():
    # rho = diag(a, b) = diag(3/4, 1/4), H = sigma_x: V = 1 and
    # I = V - Tr[sqrt(rho) H sqrt(rho) H] = 1 - 2 sqrt(ab) = 1 - sqrt(3)/2;
    # |Tr rho [sigma_x, sigma_y]|^2 = |2i (a - b)|^2 = 1
    rho = np.diag([0.75, 0.25]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    wy = oracle.wyd(rho, sx, 0.5)
    assert wy["I"] == pytest.approx(1 - np.sqrt(3) / 2, rel=1e-14)
    assert wy["V"] == pytest.approx(1.0, rel=1e-14)
    assert oracle.comm_trace_sq(rho, sx, sy) == pytest.approx(1.0, rel=1e-14)


def test_tracer_restores_every_binding_and_sums_self_time():
    before = {(m, p): _resolve(m, p) for m, p, _s, _k in tracing.BINDINGS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rng = np.random.Generator(np.random.Philox(1))
        rho = harness.sample_density(4, rng)
        linalg.element_table(linalg.hermitian_eigen(rho), harness.sample_observable(4, rng))
    finally:
        tracer.uninstall()
    assert {(m, p): _resolve(m, p) for m, p, _s, _k in tracing.BINDINGS} == before
    assert tracer.missing == []
    summary = tracer.summary()
    # called from the benchmark directly, these are root spans
    assert summary["harness.sample_density"][0] == 1
    assert summary["linalg.DensityMatrix"][0] == 1
    assert summary["linalg.hermitian_eigen"][0] == 1
    total_self = sum(s for _c, s in summary.values())
    assert total_self == pytest.approx(tracer.root_seconds(), rel=1e-9)


def _resolve(module, path):
    import importlib

    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner
