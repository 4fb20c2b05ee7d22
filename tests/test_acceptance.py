"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runs against the official ML-100K files when ML100K_DIR points at them,
otherwise against the bundled deterministic surrogate written in the same
file formats. Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines inline.
"""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from _oracles import central_difference, kink_free_mi_instance, kink_free_net_instance, max_relative_error
from _surrogate import generate_ml100k_like
from attrunlearn import cf, combination, data, evaluation, mi, nets
from attrunlearn.calibration import CalibrationConfig, project_ball
from attrunlearn.combination import (
    CombinationConfig,
    average_combination,
    bound_check,
    optimize_weights,
    project_simplex_softmax,
    summed_estimate_and_alpha_gradient,
)
from attrunlearn.scenario import (
    AttackSettings,
    Config,
    ScenarioScript,
    calibrate_many,
    run_scenario,
)

# run configuration: spec defaults except where the MF embedding scale demands
# otherwise (ball radius grid-searched for this model; classifier lr raised so
# it tracks the embedding updates -- see the demos for the sweep)
CF_CONFIG = cf.CFTrainConfig(dim=32, epochs=60, learning_rate=3e-3, seed=7)
CALIB_CONFIG = CalibrationConfig(eps_ratio=0.02, variational_lr=1e-3, seed=5)
COMB_CONFIG = CombinationConfig(seed=5)
FOLD_SEED = 11
ATTRS = ("gender", "age", "occupation")


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Pipeline:
    dataset: data.InteractionDataset
    table: data.AttributeTable
    model: cf.CFModel
    folds: evaluation.FoldSpec
    orig_attack: evaluation.AttackReport
    orig_rec: evaluation.RecReport
    calibrated: dict
    optimized: combination.CombinationResult
    averaged: combination.CombinationResult
    optimized_attack: evaluation.AttackReport
    averaged_attack: evaluation.AttackReport
    optimized_rec: evaluation.RecReport
    single_gender_attack: evaluation.AttackReport
    calibrate_seconds: float
    entries: list


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Pipeline:
    ml_dir = os.environ.get("ML100K_DIR", "")
    if ml_dir and Path(ml_dir, "u.data").exists():
        root = Path(ml_dir)
    else:
        root = generate_ml100k_like(tmp_path_factory.mktemp("ml100k"))
    raw = data.load_ml100k(root / "u.data", root / "u.user")
    dataset = data.preprocess_split(raw)
    table = data.bin_attributes(raw, "ml-100k", dataset)
    model = cf.train_cf(dataset, CF_CONFIG)
    folds = evaluation.make_folds(dataset.n_users, 5, FOLD_SEED)
    entries = [(a.name, a.labels, a.cardinality) for a in table.attributes]

    U0 = model.user_embeddings
    orig_attack = evaluation.attack_metrics(U0, table, folds)
    orig_rec = evaluation.hr_ndcg_at_k(U0, model.item_embeddings, dataset, k=10)

    t0 = time.perf_counter()
    calibrated = calibrate_many(U0, entries, CALIB_CONFIG, 3)
    calibrate_seconds = time.perf_counter() - t0

    ordered = [calibrated[n].embeddings for n in ATTRS]
    optimized = optimize_weights(ordered, entries, COMB_CONFIG)
    averaged = average_combination(ordered, entries)
    optimized_attack = evaluation.attack_metrics(optimized.embeddings, table, folds)
    averaged_attack = evaluation.attack_metrics(averaged.embeddings, table, folds)
    optimized_rec = evaluation.hr_ndcg_at_k(optimized.embeddings, model.item_embeddings, dataset, k=10)
    single_gender_attack = evaluation.attack_metrics(
        calibrated["gender"].embeddings, [entries[0]], folds
    )
    return Pipeline(
        dataset, table, model, folds, orig_attack, orig_rec, calibrated,
        optimized, averaged, optimized_attack, averaged_attack, optimized_rec, single_gender_attack,
        calibrate_seconds, entries,
    )


def test_criterion_1_single_attribute_unlearning(pipeline):
    t0 = time.perf_counter()
    orig = pipeline.orig_attack.per_attribute["gender"].bacc_mean
    post = pipeline.single_gender_attack.per_attribute["gender"].bacc_mean
    runtime = pipeline.calibrate_seconds / 3  # one attribute's share
    elapsed = time.perf_counter() - t0 + runtime
    ok = orig >= 58.0 and post <= 55.0 and abs(post - 50.0) <= 5.0 and elapsed <= 600
    check(
        1, ok,
        f"original gender BAcc {orig:.1f} >= 58; unlearned {post:.1f} in [45, 55]; "
        f"calibration {runtime:.0f}s <= 600s",
    )


def test_criterion_2_multi_attribute_reduction(pipeline):
    orig = pipeline.orig_attack.bacc_average
    post = pipeline.optimized_attack.bacc_average
    reduction = 100.0 * (orig - post) / orig
    runtime = pipeline.calibrate_seconds
    ok = reduction >= 15.0 and runtime <= 1200
    check(
        2, ok,
        f"avg BAcc {orig:.1f} -> {post:.1f}, relative reduction {reduction:.1f}% >= 15%; "
        f"calibration wall {runtime:.0f}s <= 1200s",
    )


def test_criterion_3_recommendation_preserved(pipeline):
    before, after = pipeline.orig_rec.ndcg, pipeline.optimized_rec.ndcg
    drop = 100.0 * (before - after) / before
    ok = drop <= 10.0
    check(3, ok, f"NDCG@10 {before:.4f} -> {after:.4f}, degradation {drop:+.1f}% <= 10%")


def test_criterion_4_ablation_ordering(pipeline):
    opt = pipeline.optimized_attack.bacc_average
    avg = pipeline.averaged_attack.bacc_average
    orig = pipeline.orig_attack.bacc_average
    ok = opt <= avg + 1.0 and avg <= orig - 2.0
    check(
        4, ok,
        f"BAcc ordering: optimized {opt:.1f} <= averaged {avg:.1f}+1 <= original {orig:.1f}-2",
    )


def test_criterion_5_dynamic_request_efficiency(pipeline, tmp_path):
    def scenario_config(tag):
        config = Config(
            ratings_path="injected", users_path="injected",
            cf=CF_CONFIG,
            calibration=CALIB_CONFIG,
            combination=CombinationConfig(iterations=200, seed=5),
            attack=AttackSettings(seed=FOLD_SEED),
            output_dir=str(tmp_path / f"out_{tag}"),
            store_dir=str(tmp_path / f"store_{tag}"),
            workers=2,
            evaluate=False,
        )
        return config

    grow = run_scenario(
        scenario_config("grow"),
        ScenarioScript([["gender", "age", "occupation"], ["gender", "age"]]),
        pipeline.dataset, pipeline.table, pipeline.model,
    )
    ratio = grow[1].unlearn_seconds / grow[0].unlearn_seconds
    ok_a = grow[1].calibrations_executed == 0 and ratio < 0.25

    fresh = run_scenario(
        scenario_config("fresh"),
        ScenarioScript([["gender"], ["gender", "age"]]),
        pipeline.dataset, pipeline.table, pipeline.model,
    )
    ok_b = fresh[1].calibrations_executed == 1 and fresh[1].cache_hits == 1
    check(
        5, ok_a and ok_b,
        f"shrink request: {grow[1].calibrations_executed} calibrations, "
        f"wall ratio {100 * ratio:.0f}% < 25%; grow request: "
        f"{fresh[1].calibrations_executed} calibration (1 expected)",
    )


def test_criterion_6_two_step_vs_joint_bound(pipeline):
    report = bound_check(
        pipeline.model.user_embeddings,
        [pipeline.calibrated[name].embeddings for name, _, _ in pipeline.entries],
        pipeline.entries, CALIB_CONFIG, COMB_CONFIG,
    )
    rel = abs(report.p1 - report.p2) / max(report.p1, report.p2)
    # the 0.05..10 band is an order-of-magnitude sanity check against the
    # reference summed-estimate level for this dataset scale
    ok = (
        report.p1 >= report.p2 - 0.05 and rel <= 0.20 and report.p1 >= report.p2
        and 0.05 <= report.p1 <= 10.0
    )
    check(
        6, ok,
        f"P1={report.p1:.4f} P2={report.p2:.4f} (P1 >= P2, relative gap {rel:.3f} <= 0.20, "
        f"magnitude in [0.05, 10])",
    )


def test_criterion_7_estimator_matches_discrete_oracle():
    dep22 = np.array([[0.325, 0.175], [0.175, 0.325]])
    dep33 = np.full((3, 3), 1 / 12.0)
    np.fill_diagonal(dep33, 1 / 6.0)
    ind22 = np.outer([0.6, 0.4], [0.55, 0.45])
    ind33 = np.outer([0.5, 0.3, 0.2], [0.4, 0.35, 0.25])
    rng = np.random.default_rng(2024)
    results = []
    for name, joint, tol in (
        ("dep 2x2", dep22, 0.1), ("dep 3x3", dep33, 0.1),
        ("ind 2x2", ind22, 0.05), ("ind 3x3", ind33, 0.05),
    ):
        table = mi.DiscreteJoint(joint)
        x, y = table.sample(5000, rng)
        model = mi.make_variational_model(x.shape[1], joint.shape[1], seed=3, learning_rate=1e-2)
        mi.fit_variational(model, x, y, 1500, 512, np.random.default_rng(4))
        est = mi.mi_over_embedding(model, x, y, 512, passes=2, rng=5)
        oracle = mi.discrete_mi_oracle(table)
        results.append((name, est, oracle, tol, abs(est - oracle) <= tol))
    detail = "; ".join(f"{n}: |{e:.3f}-{o:.3f}|<={t}" for n, e, o, t, _ in results)
    check(7, all(r[-1] for r in results), detail)


def test_criterion_8_gradient_suites():
    rng = np.random.default_rng(88)
    worst_net = 0.0
    for _ in range(100):
        net, batch, labels = kink_free_net_instance(rng)
        worst_net = max(worst_net, nets.gradient_check(net, batch, labels))

    worst_mi = 0.0
    for _ in range(100):
        model, batch, labels = kink_free_mi_instance(rng)
        analytic = mi.contrastive_step(model, batch, labels)[1]
        numeric = central_difference(lambda x: mi.estimate_vclub(model, x, labels), batch)
        worst_mi = max(worst_mi, max_relative_error(analytic, numeric))

    worst_alpha = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n, d = 16, 4
        mats = [rng.standard_normal((n, d)) for _ in range(k)]
        labels = [rng.integers(0, 2, n) for _ in range(k)]
        models = [
            mi.make_variational_model(d, 2, seed=int(rng.integers(2**31)), hidden=6)
            for _ in range(k)
        ]
        alpha = project_simplex_softmax(rng.standard_normal(k))
        analytic = summed_estimate_and_alpha_gradient(models, mats, labels, alpha)[1]

        def value(a):
            return summed_estimate_and_alpha_gradient(models, mats, labels, a)[0]

        numeric = central_difference(value, alpha.copy())
        worst_alpha = max(worst_alpha, max_relative_error(analytic, numeric))

    ok = worst_net < 1e-4 and worst_mi < 1e-4 and worst_alpha < 1e-4
    check(
        8, ok,
        f"max FD relative error: network params {worst_net:.2e}, "
        f"estimate input grads {worst_mi:.2e}, weight grads {worst_alpha:.2e} (all < 1e-4)",
    )


def test_criterion_9_constraint_invariants():
    rng = np.random.default_rng(99)
    ball_ok = simplex_ok = shift_ok = True
    for _ in range(1000):
        U0 = rng.standard_normal((5, 3))
        U = U0 + rng.standard_normal((5, 3)) * rng.uniform(0, 3)
        eps = rng.uniform(0, 2)
        once = project_ball(U, U0, eps)
        ball_ok &= np.linalg.norm(once - U0) <= eps + 1e-9
        ball_ok &= project_ball(once, U0, eps).tobytes() == once.tobytes()
    for _ in range(1000):
        alpha = rng.normal(scale=5, size=int(rng.integers(1, 6)))
        out = project_simplex_softmax(alpha)
        simplex_ok &= bool(np.all(out > 0)) and abs(out.sum() - 1.0) <= 1e-9
    for _ in range(1000):
        alpha = rng.normal(size=4)
        shift = rng.normal() * 10
        diff = project_simplex_softmax(alpha + shift) - project_simplex_softmax(alpha)
        shift_ok &= bool(np.abs(diff).max() <= 1e-12)
    check(
        9, ball_ok and simplex_ok and shift_ok,
        f"1000-trial ball feasibility+idempotence={ball_ok}, "
        f"simplex positivity+unit-sum={simplex_ok}, softmax shift-invariance={shift_ok}",
    )


def test_criterion_10_metric_fixtures():
    b75 = evaluation.bacc(np.array([0, 0, 1, 0]), np.array([0, 0, 1, 1]))
    labels3 = np.concatenate([np.zeros(10), np.ones(10), np.full(10, 2)]).astype(int)
    preds3 = labels3.copy()
    preds3[9] = 1
    preds3[10:14] = 2
    preds3[20:27] = 0
    b60 = evaluation.bacc(preds3, labels3)
    f50 = evaluation.micro_f1(np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]))
    labels10 = np.array([0] * 5 + [1] * 5)
    preds10 = labels10.copy()
    preds10[[0, 5, 6]] = 1 - preds10[[0, 5, 6]]
    f70 = evaluation.micro_f1(preds10, labels10)

    item_emb = np.eye(6)
    dataset = data.InteractionDataset(
        n_users=1, n_items=6,
        train_pairs=np.empty((0, 2), dtype=np.int64),
        test_items=np.array([2]),
        user_ids=np.arange(1), item_ids=np.arange(6),
    )
    rank3 = evaluation.hr_ndcg_at_k(
        np.array([[9.0, 8.0, 7.0, 0.0, 0.0, 0.0]]), item_emb, dataset, k=10
    )
    ok = (
        b75 == 75.0 and b60 == pytest.approx(60.0, abs=1e-12)
        and f50 == 50.0 and f70 == pytest.approx(70.0, abs=1e-12)
        and rank3.ndcg == 0.5 and rank3.hr == 1.0
    )
    check(
        10, ok,
        f"bacc fixtures ({b75:.0f}, {b60:.0f}) = (75, 60); "
        f"micro-F1 fixtures ({f50:.0f}, {f70:.0f}) = (50, 70); NDCG rank-3 = {rank3.ndcg}",
    )
