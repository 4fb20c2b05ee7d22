import threading

import numpy as np
import pytest

from _oracles import reference_ball_descent, reference_calibrate
from attrunlearn import calibration, data, evaluation, nets, scenario
from attrunlearn.calibration import CalibrationConfig, CalibrationError, project_ball
from attrunlearn.scenario import calibrate_many


@pytest.fixture(scope="module")
def planted():
    dataset, table = data.synthetic_dataset(400, 120, d_signal=4, seed=17)
    return dataset, table


END_TO_END = CalibrationConfig(
    iterations=600, batch_size=128, step_size=1e-3,
    variational_lr=1e-2, inner_steps=2, seed=5,
)


class TestProjectBall:
    def test_inside_ball_returned_unchanged(self):
        rng = np.random.default_rng(0)
        U0 = rng.normal(size=(6, 3))
        U = U0 + 0.01 * rng.normal(size=(6, 3))
        out = project_ball(U, U0, eps=10.0)
        assert out is U  # bit-identical, no copy

    def test_outside_ball_rescaled_to_radius(self):
        rng = np.random.default_rng(1)
        U0 = rng.normal(size=(5, 4))
        V = rng.normal(size=(5, 4))
        eps = np.linalg.norm(V) / 2.0
        out = project_ball(U0 + V, U0, eps)
        assert np.allclose(out, U0 + V / 2.0)
        assert np.linalg.norm(out - U0) == pytest.approx(eps, rel=1e-12)

    def test_zero_radius_returns_origin(self):
        rng = np.random.default_rng(2)
        U0 = rng.normal(size=(4, 2))
        out = project_ball(U0 + 5.0, U0, 0.0)
        assert np.array_equal(out, U0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_ball(np.zeros((2, 2)), np.zeros((2, 2)), -1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_ball(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            U0 = rng.normal(size=(4, 3))
            U = U0 + rng.normal(size=(4, 3)) * rng.uniform(0, 4)
            eps = rng.uniform(0, 2)
            once = project_ball(U, U0, eps)
            twice = project_ball(once, U0, eps)
            assert twice.tobytes() == once.tobytes()
            assert np.linalg.norm(once - U0) <= eps + 1e-9


class TestBallDescent:
    """``BallDescent`` against a dense Adam step on an N x d gradient and the
    out-of-place projection."""

    @pytest.mark.parametrize("eps", [0.0, 0.05, 1e3])  # pinned, active, never reached
    def test_matches_dense_reference_bitwise(self, eps):
        rng = np.random.default_rng(6)
        U0 = rng.standard_normal((300, 4))
        original = U0.tobytes()
        steps = []
        for _ in range(40):  # 480 sampled rows: the Adam moments go dense part way
            idx = rng.choice(300, size=12, replace=False)
            grad_rows = rng.standard_normal((12, 4))
            grad_rows[:2] = 0.0  # sampled rows whose gradient is exactly zero
            steps.append((idx, grad_rows))
        descent = calibration.BallDescent(U0, eps, step_size=1e-2)
        rescaled = 0
        for (idx, grad_rows), (U, distance) in zip(
            steps, reference_ball_descent(U0, eps, 1e-2, steps)
        ):
            assert descent.step(idx, grad_rows) == distance
            assert descent.U.tobytes() == U.tobytes()
            rescaled += abs(distance - eps) <= 1e-9  # on the sphere: the ball was active
        assert descent.opt.held_rows(0) is None
        assert U0.tobytes() == original
        assert rescaled == 0 if eps > 1.0 else rescaled > 20

    def test_one_adam_step_and_one_projection_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(7)
        U0 = rng.normal(size=(40, 3))
        calls = []
        real_step, real_project = calibration.optimizer_step, calibration.project_ball

        def step(state, params, grads, **kwargs):
            calls.append(("adam", len(params), [g.shape for g in grads]))
            return real_step(state, params, grads, **kwargs)

        def project(*args, **kwargs):
            calls.append(("project",))
            return real_project(*args, **kwargs)

        monkeypatch.setattr(calibration, "optimizer_step", step)
        monkeypatch.setattr(calibration, "project_ball", project)
        cfg = CalibrationConfig(iterations=5, batch_size=8, seed=1)
        calibration.calibrate(U0, np.arange(40) % 2, cfg)
        assert calls == [("adam", 1, [(8, 3)]), ("project",)] * 5


class TestCalibrate:
    def test_zero_iterations_returns_original(self):
        rng = np.random.default_rng(4)
        U0 = rng.normal(size=(10, 4))
        labels = np.array([0, 1] * 5)
        res = calibration.calibrate(U0, labels, CalibrationConfig(iterations=0, seed=1))
        assert np.array_equal(res.embeddings, U0)
        assert len(res.mi_trace) == 0

    def test_zero_eps_pins_to_original(self):
        rng = np.random.default_rng(5)
        U0 = rng.normal(size=(12, 4))
        labels = np.array([0, 1] * 6)
        cfg = CalibrationConfig(eps_ratio=0.0, iterations=50, batch_size=6, seed=2)
        res = calibration.calibrate(U0, labels, cfg)
        assert np.allclose(res.embeddings, U0)
        assert np.all(res.distance_trace <= 1e-9)

    def test_end_to_end_unlearns_planted_attribute(self, planted):
        dataset, table = planted
        U0 = dataset.oracle_embeddings
        V = dataset.oracle_item_embeddings
        labels = table.get("attr0").labels
        folds = evaluation.make_folds(dataset.n_users, 5, seed=2)

        pre = evaluation.attack_metrics(U0, [("attr0", labels, 2)], folds)
        assert pre.bacc_average >= 90.0

        res = calibration.calibrate(U0, labels, END_TO_END, attribute="attr0", cardinality=2)
        post = evaluation.attack_metrics(res.embeddings, [("attr0", labels, 2)], folds)
        assert post.bacc_average <= 60.0

        rec_pre = evaluation.hr_ndcg_at_k(U0, V, dataset, k=10)
        rec_post = evaluation.hr_ndcg_at_k(res.embeddings, V, dataset, k=10)
        assert abs(rec_post.ndcg - rec_pre.ndcg) / rec_pre.ndcg <= 0.10

    def test_ball_feasible_every_iteration(self, planted):
        dataset, table = planted
        U0 = dataset.oracle_embeddings
        cfg = CalibrationConfig(
            eps_ratio=0.005, iterations=150, batch_size=128,
            variational_lr=1e-2, seed=3,
        )
        res = calibration.calibrate(U0, table.get("attr0").labels, cfg)
        eps = cfg.eps_ratio * dataset.n_users
        assert np.all(res.distance_trace <= eps + 1e-9)
        assert len(res.mi_trace) == cfg.iterations

    def test_unlearning_monotone_trailing_window(self, planted):
        dataset, table = planted
        res = calibration.calibrate(
            dataset.oracle_embeddings, table.get("attr0").labels, END_TO_END,
            attribute="attr0", cardinality=2,
        )
        n10 = len(res.mi_trace) // 10
        assert res.mi_trace[-n10:].mean() <= res.mi_trace[:n10].mean()

    def test_inputs_not_mutated(self, planted):
        dataset, table = planted
        U0 = dataset.oracle_embeddings
        labels = table.get("attr0").labels
        u_copy, l_copy = U0.copy(), labels.copy()
        cfg = CalibrationConfig(iterations=30, batch_size=64, seed=6)
        calibration.calibrate(U0, labels, cfg)
        assert np.array_equal(U0, u_copy)
        assert np.array_equal(labels, l_copy)

    def test_non_finite_estimate_aborts_with_trace(self, monkeypatch):
        rng = np.random.default_rng(7)
        U0 = rng.normal(size=(16, 4))
        labels = np.array([0, 1] * 8)

        def bad_step(model, embeddings, batch_labels):
            return float("nan"), np.zeros_like(embeddings)

        monkeypatch.setattr(calibration.mi, "contrastive_step", bad_step)
        with pytest.raises(CalibrationError, match="non-finite"):
            calibration.calibrate(U0, labels, CalibrationConfig(iterations=5, batch_size=8))

    def test_non_finite_estimate_carries_earlier_estimates(self, monkeypatch):
        rng = np.random.default_rng(7)
        U0 = rng.normal(size=(16, 4))
        labels = np.array([0, 1] * 8)
        cfg = CalibrationConfig(iterations=5, batch_size=8)
        clean = calibration.calibrate(U0, labels, CalibrationConfig(iterations=3, batch_size=8))
        real, calls = calibration.mi.contrastive_step, []

        def nan_on_fourth(model, embeddings, batch_labels):
            calls.append(None)
            estimate, grad = real(model, embeddings, batch_labels)
            return (float("nan") if len(calls) == 4 else estimate), grad

        monkeypatch.setattr(calibration.mi, "contrastive_step", nan_on_fourth)
        with pytest.raises(CalibrationError) as info:
            calibration.calibrate(U0, labels, cfg)
        assert info.value.trace == clean.mi_trace.tolist()
        assert len(info.value.trace) == 3

    def test_non_finite_u0_rejected(self):
        U0 = np.random.default_rng(7).normal(size=(16, 4))
        U0[3, 2] = np.nan
        with pytest.raises(ValueError, match="U0 has non-finite entries"):
            calibration.calibrate(U0, np.array([0, 1] * 8), CalibrationConfig(iterations=5))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            calibration.calibrate(
                np.zeros((4, 2)), np.array([0, 1]), CalibrationConfig(iterations=1)
            )


@pytest.fixture(scope="module")
def multi():
    dataset, table = data.synthetic_dataset(
        120, 60, d_signal=2, seed=8, cardinalities=(2, 3, 2)
    )
    entries = [(a.name, a.labels, a.cardinality) for a in table.attributes]
    return dataset.oracle_embeddings, entries


class TestCalibrateMany:
    def test_single_attribute_matches_calibrate(self, multi):
        U0, entries = multi
        cfg = CalibrationConfig(iterations=80, batch_size=32, seed=9)
        many = calibrate_many(U0, entries[:1], cfg)
        solo = calibration.calibrate(
            U0, entries[0][1], cfg, attribute=entries[0][0], cardinality=entries[0][2]
        )
        assert many[entries[0][0]].embeddings.tobytes() == solo.embeddings.tobytes()

    def test_workers_do_not_change_outputs(self, multi, monkeypatch):
        monkeypatch.setattr(nets, "parallel_fits", lambda: 3)  # a real pool on any host
        U0, entries = multi
        cfg = CalibrationConfig(iterations=60, batch_size=32, seed=10)
        seq = calibrate_many(U0, entries, cfg, workers=1)
        par = calibrate_many(U0, entries, cfg, workers=3)
        for name in (e[0] for e in entries):
            assert seq[name].embeddings.tobytes() == par[name].embeddings.tobytes()

    def test_serial_while_blas_takes_every_core(self, multi, monkeypatch):
        # parallel_fits() is 1 with BLAS unpinned: workers=3 is only an upper bound
        monkeypatch.setattr(nets, "parallel_fits", lambda: 1)
        U0, entries = multi
        cfg = CalibrationConfig(iterations=30, batch_size=32, seed=10)
        seq = calibrate_many(U0, entries, cfg, workers=1)
        real, threads = scenario.calibrate, []

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario, "calibrate", spy)
        par = calibrate_many(U0, entries, cfg, workers=3)
        assert threads == [threading.get_ident()] * len(entries)
        for name in (e[0] for e in entries):
            assert seq[name].embeddings.tobytes() == par[name].embeddings.tobytes()

    def test_empty_list(self, multi):
        U0, _ = multi
        assert calibrate_many(U0, [], CalibrationConfig()) == {}

    def test_duplicate_attributes_rejected(self, multi):
        U0, entries = multi
        with pytest.raises(ValueError, match="duplicate"):
            calibrate_many(U0, [entries[0], entries[0]], CalibrationConfig())


class TestFusedPath:
    @pytest.mark.parametrize("inner_steps", [1, 2])
    def test_matches_recomputing_reference_bitwise(self, multi, inner_steps):
        U0, entries = multi
        name, labels, card = entries[1]
        cfg = CalibrationConfig(
            eps_ratio=0.002, iterations=40, batch_size=32, variational_lr=1e-2,
            inner_steps=inner_steps, seed=13,
        )
        res = calibration.calibrate(U0, labels, cfg, attribute=name, cardinality=card)
        assert res.distance_trace.max() == pytest.approx(cfg.eps_ratio * len(U0))
        ref = reference_calibrate(U0, labels, cfg, attribute=name, cardinality=card)
        got = (res.embeddings, res.mi_trace, res.nll_trace, res.distance_trace)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()

    def test_two_classifier_forward_passes_per_iteration(self, multi, monkeypatch):
        U0, entries = multi
        real = nets._forward_cached
        calls = []

        def counting(net, batch):
            calls.append(len(batch))
            return real(net, batch)

        monkeypatch.setattr(nets, "_forward_cached", counting)
        cfg = CalibrationConfig(iterations=3, batch_size=32, seed=14)
        calibration.calibrate(U0, entries[0][1], cfg)
        assert calls == [32] * (2 * cfg.iterations)


class TestPlumbing:
    def test_config_hash_stable_and_sensitive(self):
        a = CalibrationConfig(seed=1)
        b = CalibrationConfig(seed=1)
        c = CalibrationConfig(seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        U0 = rng.normal(size=(12, 3))
        labels = np.array([0, 1] * 6)
        cfg = CalibrationConfig(iterations=7, batch_size=6, seed=12)
        res = calibration.calibrate(U0, labels, cfg)
        path = tmp_path / "trace.csv"
        calibration.trace_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8  # header + one row per iteration
        assert lines[0] == "iteration,mi_estimate,nll,distance"
