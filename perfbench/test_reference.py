"""Tests of the benchmark's own checks: each must pass the right answer and fail a wrong one.

Run from the root of the repository: ``python3 -m pytest -q perfbench``.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from attrunlearn import calibration, combination, evaluation, store  # noqa: E402
from attrunlearn.data import InteractionDataset  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@pytest.fixture
def ranking_case():
    rng = np.random.default_rng(4)
    n, m = 40, 25
    users = rng.standard_normal((n, 3))
    items = rng.standard_normal((m, 3))
    items[[3, 5, 9]] = [10.0, 0.0, 0.0]  # exact score ties, broken toward the smaller id
    users[:4] = [1.0, 0.0, 0.0]  # these users rank the tied items first
    train_sets = [set(rng.choice(m, size=4, replace=False).tolist()) - {3, 5, 9} for _ in range(n)]
    test_items = np.array([[3, 5, 9][u % 3] if u < 4 else
                           int(rng.choice(sorted(set(range(m)) - train_sets[u])))
                           for u in range(n)])
    pairs = np.array([(u, i) for u in range(n) for i in sorted(train_sets[u])], dtype=np.int64)
    dataset = InteractionDataset(n, m, pairs, test_items, train_sets, np.arange(n), np.arange(m))
    return users, items, dataset


def test_rank_metrics_agree_with_program(ranking_case):
    users, items, dataset = ranking_case
    hr, ndcg, ranks = reference.rank_metrics(users, items, dataset.train_pairs, dataset.test_items,
                                             chunk=7)
    program = evaluation.hr_ndcg_at_k(users, items, dataset, k=10)
    assert ranks[:3].tolist() == [1, 2, 3]  # ties go to the smaller item id
    assert 0 < hr < 1
    reported = {"hr": program.hr, "ndcg": program.ndcg}
    assert reference.check_rank_report(reported, hr, ndcg, len(users)) == []


def test_rank_off_by_one_is_caught(ranking_case):
    users, items, dataset = ranking_case
    hr, ndcg, ranks = reference.rank_metrics(users, items, dataset.train_pairs, dataset.test_items)
    shifted = ranks + 1
    wrong = {"hr": float((shifted <= 10).mean()),
             "ndcg": float(np.where(shifted <= 10, 1 / np.log2(shifted + 1.0), 0).mean())}
    assert reference.check_rank_report(wrong, hr, ndcg, len(users))


def test_rank_metrics_mask_train_items(ranking_case):
    users, items, dataset = ranking_case
    _, _, ranks = reference.rank_metrics(users, items, dataset.train_pairs, dataset.test_items)
    no_pairs = dataset.train_pairs[:0]
    _, _, unmasked = reference.rank_metrics(users, items, no_pairs, dataset.test_items)
    assert np.all(ranks <= unmasked) and np.any(ranks < unmasked)


def test_combination_check():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((30, 4)) for _ in range(3)]
    alpha = combination.project_simplex_softmax(rng.standard_normal(3))
    release = combination.combine(mats, alpha)
    assert reference.check_combination(release, mats, alpha) == []
    perturbed = alpha + np.array([1e-9, -1e-9, 0.0])
    assert reference.check_combination(release, mats, perturbed)
    assert reference.check_combination(release, mats[::-1], alpha)


def test_ball_check():
    rng = np.random.default_rng(2)
    U0 = rng.standard_normal((50, 4))
    U = calibration.project_ball(U0 + rng.standard_normal((50, 4)), U0, 3.0)
    assert reference.check_ball(U, U0, 3.0) == []
    assert reference.check_ball(U0 + 1.001 * (U - U0), U0, 3.0)


@pytest.mark.parametrize("alpha, k, ok", [
    ([0.2, 0.3, 0.5], 3, True),
    ([1.0], 1, True),
    ([0.2, 0.8], 3, False),
    ([0.0, 1.0], 2, False),
    ([-0.1, 1.1], 2, False),
    ([0.3, 0.3], 2, False),
    ([float("nan"), 1.0], 2, False),
])
def test_simplex_check(alpha, k, ok):
    assert (reference.check_simplex(alpha, k) == []) == ok


def test_attack_report_check():
    good = {"gender": {"bacc_mean": 61.5, "f1_mean": 70.2}, "averages": {"bacc": 61.5}}
    assert reference.check_attack_report(good, ["gender"]) == []
    assert reference.check_attack_report(good, ["gender", "age"])
    assert reference.check_attack_report({**good, "gender": {"bacc_mean": 100.5,
                                                             "f1_mean": 70.2}}, ["gender"])
    assert reference.check_attack_report({**good, "gender": {"bacc_mean": float("nan"),
                                                             "f1_mean": 70.2}}, ["gender"])


def test_store_round_trip_and_flipped_byte(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((20, 5))
    st = store.EmbeddingStore(tmp_path)
    st.put("ds__gender__cfg", matrix)
    entries = reference.store_entries(tmp_path)
    key, parsed = entries["gender"]
    assert key == "ds__gender__cfg"
    assert parsed.tobytes() == matrix.tobytes()
    assert reference.digest(st.get(key)) == reference.digest(parsed)

    path = next(tmp_path.glob("*.emb"))
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        reference.read_store_file(path)


def test_counts_follow_the_script():
    script = workloads.WORKLOADS["request-stream"].script
    want = reference.expected_counts(script)
    reports = [{"calibrations_executed": c, "cache_hits": h} for c, h in want]
    assert reference.check_counts(script, reports) == []
    assert want[0] == (1, 0) and all(c <= 1 for c, _ in want)
    wrong = [dict(r) for r in reports]
    wrong[2] = {"calibrations_executed": 1, "cache_hits": 1}  # recalibrated a cached attribute
    assert reference.check_counts(script, wrong)


def test_first_request_calibrates_every_attribute():
    for wl in workloads.WORKLOADS.values():
        calibrations, hits = reference.expected_counts(wl.script)[0]
        assert (calibrations, hits) == (len(set(wl.script[0])), 0)


def _program():
    from attrunlearn import cf, data, mi, nets, scenario

    return {"calibration": calibration, "cf": cf, "combination": combination, "data": data,
            "evaluation": evaluation, "mi": mi, "nets": nets, "scenario": scenario, "store": store}


def _tiny_calibration(program):
    rng = np.random.default_rng(5)
    U0 = rng.standard_normal((64, 4))
    labels = rng.integers(0, 2, 64)
    config = calibration.CalibrationConfig(iterations=7, batch_size=16, eps_ratio=0.1)
    result = program["scenario"].calibrate(U0, labels, config, attribute="a", cardinality=2)
    return result


def test_tracer_counts_and_restores():
    program = _program()
    original = program["mi"].fit_variational_step
    tracer = Tracer()
    tracer.install(program)
    try:
        _tiny_calibration(program)
    finally:
        tracer.restore()
    assert program["mi"].fit_variational_step is original
    metrics = layer_metrics(tracer)
    assert metrics["calibration.iterations"] == 7
    assert metrics["calibration.net_calls_per_iter"] == 5.0
    assert metrics["calibration.row_use"] == pytest.approx(16 / 64)
    assert metrics["mi.fit_step_calls"] == 7
    assert metrics["store.lookups"] == 0 and metrics["store.get_s"] is None


def test_tracer_reports_missing_names_as_absent():
    program = _program()
    mi_without_step = types.SimpleNamespace(**{k: v for k, v in vars(program["mi"]).items()
                                               if k != "fit_variational_step"})
    tracer = Tracer()
    tracer.install(dict(program, mi=mi_without_step))
    try:
        _tiny_calibration(program)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer)
    assert any("fit_variational_step" in m for m in tracer.missing)
    assert metrics["mi.fit_step_calls"] is None and metrics["mi.fit_step_s"] is None
    assert metrics["calibration.iterations"] == 7


def test_result_line_holds_every_per_layer_metric():
    import run

    declared = run.declared_units("per_layer")
    traced = {"layers": {"cf.batches": 12, "evaluation.attack_s": None},
              "trace_missing": ["evaluation.attack (evaluation.attack_metrics)"],
              "setup": [{"load_s": 1.0, "split_s": 1.0, "bin_s": 0.0}], "train_s": 2.0,
              "requests": [], "audit": {"seconds": 1.0}}
    metrics, absent = run.per_layer(traced, untraced_wall=4.0)
    assert set(metrics) == set(declared)
    assert all(m["unit"] == declared[k] for k, m in metrics.items())
    assert metrics["cf.batches"]["value"] == 12
    assert metrics["evaluation.attack_s"]["value"] == 0 and "evaluation.attack_s" in absent
    assert metrics["trace.overhead_pct"]["value"] == pytest.approx(25.0)
