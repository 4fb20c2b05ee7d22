import numpy as np
import pytest

from _oracles import float_digest
from attrunlearn import calibration, combination, data, mi
from attrunlearn.calibration import CalibrationConfig
from attrunlearn.combination import (
    CombinationConfig,
    average_combination,
    combine,
    joint_unlearn,
    optimize_weights,
    project_simplex_softmax,
    summed_estimate_and_alpha_gradient,
    summed_mi_estimate,
)
from attrunlearn.scenario import calibrate_many


CALIB = CalibrationConfig(
    iterations=400, batch_size=128, step_size=1e-3,
    variational_lr=1e-2, inner_steps=2, seed=31,
)
COMB = CombinationConfig(iterations=150, batch_size=128, step_size=1e-2, seed=31)


@pytest.fixture(scope="module")
def two_attr():
    dataset, table = data.synthetic_dataset(
        300, 100, d_signal=3, seed=23, cardinalities=(2, 3)
    )
    entries = [(a.name, a.labels, a.cardinality) for a in table.attributes]
    return dataset.oracle_embeddings, entries


def _calibrated(U0, entries, config, workers=1):
    """U0's calibration under ``config`` for each entry, in entry order."""
    results = calibrate_many(U0, entries, config, workers)
    return [results[name].embeddings for name, _, _ in entries]


@pytest.fixture(scope="module")
def two_attr_calibrated(two_attr):
    U0, entries = two_attr
    return U0, entries, _calibrated(U0, entries, CALIB, 2)


class TestSoftmaxProjection:
    def test_zeros_to_uniform(self):
        assert np.allclose(project_simplex_softmax(np.zeros(3)), 1 / 3)

    def test_constant_shift_to_uniform(self):
        for c in (-7.0, 0.3, 1e4):
            out = project_simplex_softmax(np.full(5, c))
            assert np.allclose(out, 0.2)

    def test_two_component_value(self):
        out = project_simplex_softmax(np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(0.7311, abs=5e-5)
        assert out[1] == pytest.approx(0.2689, abs=5e-5)

    def test_overflow_guarded(self):
        out = project_simplex_softmax(np.array([1e4, 0.0]))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)

    def test_simplex_membership_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            alpha = rng.normal(scale=10, size=rng.integers(1, 6))
            out = project_simplex_softmax(alpha)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) <= 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            alpha = rng.normal(size=4)
            c = rng.normal() * 5
            a = project_simplex_softmax(alpha)
            b = project_simplex_softmax(alpha + c)
            assert np.abs(a - b).max() <= 1e-12


class TestCombine:
    def test_single_matrix_identity(self):
        m = np.random.default_rng(2).normal(size=(4, 3))
        assert np.allclose(combine([m], np.array([1.0])), m)

    def test_identical_inputs_fixed_point(self):
        m = np.random.default_rng(3).normal(size=(5, 2))
        for alpha in (np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([1 / 3] * 3)):
            out = combine([m] * len(alpha), alpha)
            assert np.allclose(out, m)

    def test_hand_weighted_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = combine([a, b], np.array([0.25, 0.75]))
        assert np.allclose(out, np.array([[4.0, 5.0], [6.0, 7.0]]))

    def test_shape_and_length_mismatch(self):
        with pytest.raises(ValueError):
            combine([np.zeros((2, 2)), np.zeros((3, 2))], np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            combine([np.zeros((2, 2))], np.array([0.5, 0.5]))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(3, 3)) for _ in range(3)]
        alpha, beta = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        lhs = combine(mats, a * alpha + b * beta)
        rhs = a * combine(mats, alpha) + b * combine(mats, beta)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestAverageCombination:
    def test_two_equal_matrices(self):
        m = np.random.default_rng(5).normal(size=(4, 2))
        out = average_combination([m.copy(), m.copy()])
        assert np.allclose(out.embeddings, m)
        assert np.allclose(out.alpha, 0.5)

    def test_single_matrix(self):
        m = np.random.default_rng(6).normal(size=(3, 2))
        out = average_combination([m])
        assert np.allclose(out.embeddings, m)
        assert out.alpha.tolist() == [1.0]

    def test_three_matrix_mean_hand_check(self):
        mats = [np.full((2, 2), v) for v in (0.0, 3.0, 6.0)]
        out = average_combination(mats)
        assert np.allclose(out.embeddings, np.full((2, 2), 3.0))


class TestSummedStep:
    def test_batch_gradient_is_sum_of_input_gradients(self, two_attr):
        U0, entries = two_attr
        rng = np.random.default_rng(3)
        idx = rng.permutation(len(U0))[:48]
        models = [
            mi.make_variational_model(U0.shape[1], card, seed=t, attribute=name)
            for t, (name, _, card) in enumerate(entries)
        ]
        rows = [U0[idx], U0[idx] + 0.1 * rng.standard_normal((48, U0.shape[1]))]
        labels = [lab[idx] for _, lab, _ in entries]
        alpha = np.array([0.3, 0.7])
        _, _, grad_batch = summed_estimate_and_alpha_gradient(models, rows, labels, alpha)
        batch = sum(w * r for w, r in zip(alpha, rows))
        expected = sum(mi.contrastive_step(m, batch, y)[1] for m, y in zip(models, labels))
        assert grad_batch.tobytes() == expected.tobytes()


class TestOptimizeWeights:
    def test_single_attribute_passthrough(self, two_attr_calibrated, monkeypatch):
        _, entries, calibrated = two_attr_calibrated

        def no_classifier(*args, **kwargs):
            raise AssertionError("a one-attribute weight fit built a classifier")

        monkeypatch.setattr(mi, "make_variational_model", no_classifier)
        res = optimize_weights(calibrated[:1], entries[:1], COMB)
        assert res.alpha.tolist() == [1.0]
        assert res.embeddings.tobytes() == calibrated[0].tobytes()
        assert len(res.mi_trace) == 0 and res.alpha_trace.shape == (0, 0)

    def test_identical_embeddings_keep_uniform_alpha(self, two_attr):
        U0, entries = two_attr
        same = [U0.copy(), U0.copy()]
        res = optimize_weights(same, entries, COMB)
        assert np.allclose(res.alpha, 0.5, atol=1e-12)

    def test_not_worse_than_average(self, two_attr_calibrated):
        U0, entries, calibrated = two_attr_calibrated
        opt = optimize_weights(calibrated, entries, COMB)
        avg = average_combination(calibrated, entries)
        mi_opt = summed_mi_estimate(opt.embeddings, entries, seed=77)
        mi_avg = summed_mi_estimate(avg.embeddings, entries, seed=77)
        assert mi_opt <= mi_avg + 0.02

    def test_alpha_trace_stays_on_simplex(self, two_attr_calibrated):
        _, entries, calibrated = two_attr_calibrated
        res = optimize_weights(calibrated, entries, COMB)
        assert np.all(res.alpha_trace > 0)
        assert np.abs(res.alpha_trace.sum(axis=1) - 1.0).max() <= 1e-9

    def test_recombining_alpha_reproduces_embeddings(self, two_attr_calibrated):
        _, entries, calibrated = two_attr_calibrated
        res = optimize_weights(calibrated, entries, COMB)
        redo = combine(calibrated, res.alpha)
        assert np.array_equal(redo, res.embeddings)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimize_weights([], [], COMB)

    def test_non_finite_estimate_names_the_attribute(self, two_attr, monkeypatch):
        U0, entries = two_attr
        real = combination.mi.contrastive_step

        def nan_for_second(model, embeddings, labels):
            estimate, grad = real(model, embeddings, labels)
            return (float("nan") if model.attribute == entries[1][0] else estimate), grad

        monkeypatch.setattr(combination.mi, "contrastive_step", nan_for_second)
        with pytest.raises(RuntimeError, match=repr(entries[1][0])):
            optimize_weights([U0, U0], entries, COMB)

    def test_seeded_outputs_pinned(self, two_attr):
        U0, entries = two_attr
        rng = np.random.default_rng(8)
        mats = [U0 + 0.1 * rng.standard_normal(U0.shape) for _ in entries]
        res = optimize_weights(mats, entries, CombinationConfig(iterations=40, batch_size=64, seed=9))
        # any change to the arithmetic of the weight fit changes this digest
        assert float_digest(res.alpha, res.embeddings, res.mi_trace, res.alpha_trace) == (
            "1e22dbcb76b20f409ecf80499387041df9bc08bb37dab1de38eaa57de5b492a3"
        )


class TestSummedMiEstimate:
    def test_seeded_value_pinned(self, two_attr):
        U0, entries = two_attr
        # any change to the protocol's fit budget, batches or learning rate changes this digest
        assert float_digest(summed_mi_estimate(U0, entries, seed=13)) == (
            "a6461fb445da407c33c8f4bac7b561cc797059d272790932620207d5cc40af59"
        )


class TestJointUnlearn:
    def test_seeded_outputs_pinned(self, two_attr):
        U0, entries = two_attr
        cfg = CalibrationConfig(
            eps_ratio=0.01, iterations=30, batch_size=64, variational_lr=1e-2, seed=43
        )
        mats, alpha, p2 = joint_unlearn(U0, entries, cfg)
        # any change to the arithmetic of the joint descent or the protocol changes this digest
        assert float_digest(*mats, alpha, p2) == (
            "598a2bc7c053f3d2d070c7d2af95058ced250798deac16ba617508568e2fadcd"
        )

    def test_zero_eps_pins_components_to_origin(self, two_attr):
        U0, entries = two_attr
        cfg = CalibrationConfig(
            eps_ratio=0.0, iterations=60, batch_size=64, variational_lr=1e-2, seed=41
        )
        mats, alpha, p2 = joint_unlearn(U0, entries, cfg)
        for m in mats:
            assert np.allclose(m, U0)
        baseline = summed_mi_estimate(combine(mats, alpha), entries, seed=cfg.seed)
        assert p2 == pytest.approx(baseline, abs=1e-9)

    def test_single_attribute_matches_calibrate_floor(self, two_attr):
        U0, entries = two_attr
        res = calibration.calibrate(
            U0, entries[0][1], CALIB, attribute=entries[0][0], cardinality=entries[0][2]
        )
        p1 = summed_mi_estimate(res.embeddings, entries[:1], seed=CALIB.seed)
        _, _, p2 = joint_unlearn(U0, entries[:1], CALIB)
        assert abs(p1 - p2) <= 0.05

    def test_joint_not_worse_than_two_step(self, two_attr_calibrated):
        U0, entries, calibrated = two_attr_calibrated
        opt = optimize_weights(calibrated, entries, COMB)
        p1 = summed_mi_estimate(opt.embeddings, entries, seed=CALIB.seed)
        _, _, p2 = joint_unlearn(U0, entries, CALIB, alpha_step=COMB.step_size)
        assert p2 <= p1 + 0.05


    def test_non_finite_estimate_names_the_attribute(self, two_attr, monkeypatch):
        U0, entries = two_attr

        def nan_step(model, embeddings, labels):
            return float("nan"), np.zeros_like(embeddings)

        monkeypatch.setattr(combination.mi, "contrastive_step", nan_step)
        with pytest.raises(RuntimeError, match=repr(entries[0][0])):
            joint_unlearn(U0, entries, CalibrationConfig(iterations=2, batch_size=16))


class TestBoundCheck:
    def test_zero_eps_collapses_p1_p2(self, two_attr):
        U0, entries = two_attr
        calib = CalibrationConfig(
            eps_ratio=0.0, iterations=60, batch_size=64, variational_lr=1e-2, seed=51
        )
        comb = CombinationConfig(iterations=40, batch_size=64, seed=51)
        report = combination.bound_check(U0, _calibrated(U0, entries, calib), entries, calib, comb)
        assert report.p1 == pytest.approx(report.p2, abs=0.05)
        assert report.eps == 0.0
        assert report.k == 2

    def test_duplicated_attribute_degenerate(self):
        # needs enough users that the estimation protocol's memorization floor
        # is small relative to the 0.05 comparison tolerance
        dataset, table = data.synthetic_dataset(
            700, 150, d_signal=3, seed=23, cardinalities=(2, 3)
        )
        U0 = dataset.oracle_embeddings
        a = table.get("attr0")
        dup = [
            (a.name, a.labels, a.cardinality),
            (a.name + "_copy", a.labels.copy(), a.cardinality),
        ]
        calib = CalibrationConfig(
            iterations=1200, batch_size=256, variational_lr=1e-2, inner_steps=2, seed=61
        )
        comb = CombinationConfig(iterations=80, batch_size=256, seed=61)
        report = combination.bound_check(U0, _calibrated(U0, dup, calib), dup, calib, comb)
        assert report.p1 == pytest.approx(report.p2, abs=0.05)

    def test_needs_two_attributes(self, two_attr):
        U0, entries = two_attr
        with pytest.raises(ValueError):
            combination.bound_check(U0, [U0], entries[:1], CALIB, COMB)

    def test_report_fields(self, two_attr):
        U0, entries = two_attr
        calib = CalibrationConfig(
            eps_ratio=0.0, iterations=30, batch_size=64, seed=71
        )
        comb = CombinationConfig(iterations=20, batch_size=64, seed=71)
        report = combination.bound_check(U0, _calibrated(U0, entries, calib), entries, calib, comb)
        assert report.c_norm == pytest.approx(np.linalg.norm(U0))
        assert report.gap == pytest.approx(report.p1 - report.p2)
        payload = report.to_json()
        assert '"p1"' in payload and '"notes"' in payload
