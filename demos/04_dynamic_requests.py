"""Serve a changing sequence of privacy requests, reusing cached calibrations.

Each request names the attributes that must be protected from then on. Only
attributes never calibrated before cost a full optimization run; everything
else is one cheap weight fit over matrices pulled from the store, and a set
asked for before skips even that: its weights are in the store too. A
Gaussian noise baseline is swept at the end for contrast: it trades ranking
quality for protection far less gracefully.
"""

import tempfile
from pathlib import Path

import numpy as np

from attrunlearn import calibration, combination, data, evaluation
from attrunlearn.cf import CFModel
from attrunlearn.scenario import AttackSettings, Config, ScenarioScript, dp_baseline, run_scenario

dataset, table = data.synthetic_dataset(
    500, 150, d_signal=3, seed=33, cardinalities=(2, 3, 4)
)
model = CFModel(dataset.oracle_embeddings.copy(), dataset.oracle_item_embeddings.copy())

workdir = Path(tempfile.mkdtemp(prefix="unlearn_demo_"))
config = Config(
    ratings_path="injected", users_path="injected",
    calibration=calibration.CalibrationConfig(
        iterations=500, batch_size=128, variational_lr=1e-2, inner_steps=2, seed=3
    ),
    combination=combination.CombinationConfig(iterations=150, batch_size=128, seed=3),
    attack=AttackSettings(n_folds=5, seed=4, max_iterations=200),
    output_dir=str(workdir / "out"),
    store_dir=str(workdir / "store"),
    workers=3,
    evaluate=True,
)

script = ScenarioScript([
    ["attr0"],                     # first request: one attribute
    ["attr0", "attr1"],            # grows: only attr1 needs calibration
    ["attr0", "attr1", "attr2"],   # grows again
    ["attr1"],                     # shrinks: fully served from the store
    ["attr1", "attr0"],            # repeats a set: its weights come from the store
])

reports = run_scenario(config, script, dataset, table, model)
print(f"{'request':<28} {'calibrated':>10} {'cached':>7} {'weights':>8} {'unlearn s':>10} "
      f"{'BAcc':>6} {'NDCG':>7}")
for report in reports:
    weights = "stored" if report.weights_cached else "fitted" if len(report.request) > 1 else "-"
    print(f"{','.join(report.request):<28} {report.calibrations_executed:>10} "
          f"{report.cache_hits:>7} {weights:>8} {report.unlearn_seconds:>10.2f} "
          f"{report.attack.bacc_average:>6.1f} {report.rec.ndcg:>7.4f}")
print(f"reports and store under {workdir}")

print("\nGaussian-noise baseline sweep (protection vs ranking damage):")
folds = evaluation.make_folds(dataset.n_users, 5, seed=4)
for sigma in (0.0, 0.3, 1.0, 3.0):
    noisy = dp_baseline(model.user_embeddings, sigma, seed=9)
    attack = evaluation.attack_metrics(noisy, table, folds, max_iterations=200)
    rec = evaluation.hr_ndcg_at_k(noisy, model.item_embeddings, dataset, k=10)
    print(f"  sigma={sigma:<4} attacker BAcc {attack.bacc_average:5.1f}%  NDCG@10 {rec.ndcg:.4f}")
