"""Run a randomized verification campaign from Python and inspect the report.

The same thing is available from the shell as `skewlab verify [config.json]`;
the bundled default config is the full desk-scale campaign.
"""

import json

from skewlab import config_from_dict, run_campaign, search_counterexample

config = config_from_dict({
    "seed": 2026,
    "dims": [2, 3, 4],
    "samples_per_dim": 200,
    "delta": 1e-3,
    "slack": 1e-9,
    "inequalities": [
        {"id": "HEISENBERG_21"},
        {"id": "SCHRODINGER"},
        {"id": "LUO_23"},
        {"id": "THM21_WYD", "alpha": [0.1, 0.3, 0.5, 0.7, 0.9]},
        {"id": "THM22_GWYD"},
        {"id": "THM23_TILDE"},
        {"id": "THM31_FGH", "triple": {
            "f": {"kind": "power", "p": 0.25},
            "g": {"kind": "power", "p": 0.25},
            "h": {"kind": "power", "p": 0.5},
        }},
        {"id": "CHAIN_24"},
        {"id": "NAIVE_WY_SHOULD_FAIL"},
    ],
})

report = run_campaign(config)
print(f"config hash: {report.config_hash[:16]}...  wall time {report.wall_time:.2f}s\n")
for stats in report.stats:
    status = "ok      " if stats.violations == 0 else "VIOLATED"
    print(f"  {status} {stats.setting['id']:<22} "
          f"samples={stats.samples} violations={stats.violations} "
          f"min_margin={stats.min_margin:+.3e}")

# The worst case of the deliberately broken relation, fully serialized. A
# campaign redraws its worst cases' matrices only when asked, as the JSON
# writers ask.
report.replay_worst_cases()
naive = next(s for s in report.stats if s.setting["id"] == "NAIVE_WY_SHOULD_FAIL")
print("\nworst naive-relation instance (serialized state):")
print(json.dumps(naive.worst.to_json()["rho"], indent=2)[:300], "...")

# Reproducible counterexample hunting with an explicit budget.
rec = search_counterexample("NAIVE_WY_SHOULD_FAIL", budget=1000, seed=7, dim=2)
print(f"\nfirst violation under seed 7: index {rec.index}, margin {rec.margin:+.4f}")
