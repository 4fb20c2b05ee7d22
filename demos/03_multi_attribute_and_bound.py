"""Protect several attributes at once and check the two-step-vs-joint gap.

Calibrated per-attribute embeddings are merged under simplex weights; the
optimized combination is compared against plain averaging, and against an
end-to-end joint optimization of all component matrices (the comparison
behind the P1/P2 bound report). The gap between the two depends on how the
attributes relate: for orthogonally planted attributes the joint optimum is
strictly better (each two-step component protects only its own attribute),
while correlation between attributes -- the realistic demographic case --
narrows the gap, since protecting one attribute partially protects the other.
"""

import numpy as np

from attrunlearn import calibration, combination, data, evaluation, scenario

dataset, table = data.synthetic_dataset(
    700, 150, d_signal=3, seed=23, cardinalities=(2, 3)
)
U0 = dataset.oracle_embeddings
entries = [(a.name, a.labels, a.cardinality) for a in table.attributes]
folds = evaluation.make_folds(dataset.n_users, 5, seed=2)

# a binding ball (radius well under the matrix norm) is what keeps the
# two-step and joint optima comparable; see the bound report below
calib = calibration.CalibrationConfig(
    eps_ratio=0.03, iterations=800, batch_size=256,
    variational_lr=1e-2, inner_steps=2, seed=31,
)
comb = combination.CombinationConfig(iterations=150, batch_size=256, seed=31)

results = scenario.calibrate_many(U0, entries, calib, workers=2)
ordered = [results[name].embeddings for name, _, _ in entries]

optimized = combination.optimize_weights(ordered, entries, comb)
averaged = combination.average_combination(ordered, entries)
print(f"optimized weights: {optimized.alpha.round(4)}")

for tag, emb in [("original", U0), ("averaged", averaged.embeddings),
                 ("optimized", optimized.embeddings)]:
    attack = evaluation.attack_metrics(emb, table, folds)
    total = combination.summed_mi_estimate(emb, entries, seed=99)
    print(f"{tag:<10} attacker BAcc {attack.bacc_average:5.1f}%  summed estimate {total:.4f}")

report = combination.bound_check(U0, ordered, entries, calib, comb)
rel = abs(report.gap) / max(report.p1, report.p2)
print(f"\northogonal attributes: two-step P1 = {report.p1:.4f}, joint P2 = {report.p2:.4f}, "
      f"gap {report.gap:+.4f} (relative {rel:.3f})")

# same check with a strongly correlated attribute pair: protecting one
# attribute now mostly protects the other, which narrows the gap
labels0 = table.get("attr0").labels
rng = np.random.default_rng(77)
flips = rng.random(len(labels0)) < 0.05
correlated = np.where(flips, 1 - labels0, labels0)
corr_entries = [("attr0", labels0, 2), ("attr0_corr", correlated, 2)]
corr_mats = [
    results["attr0"].embeddings,  # attr0's calibration from above
    calibration.calibrate(U0, correlated, calib, attribute="attr0_corr", cardinality=2).embeddings,
]
report2 = combination.bound_check(U0, corr_mats, corr_entries, calib, comb)
rel2 = abs(report2.gap) / max(report2.p1, report2.p2)
print(f"correlated attributes: two-step P1 = {report2.p1:.4f}, joint P2 = {report2.p2:.4f}, "
      f"gap {report2.gap:+.4f} (relative {rel2:.3f})")
print(report2.to_json())
