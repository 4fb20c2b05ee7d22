import numpy as np
import pytest

from attrunlearn import data, mi
from _oracles import (
    central_difference,
    exact_mi_nats,
    kink_free_mi_instance,
    max_relative_error,
)


def constant_model(d=4, p=3):
    """Classifier whose output ignores the input entirely."""
    model = mi.make_variational_model(d, p, seed=0)
    for layer in model.network.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    return model


class TestFitStep:
    def test_separable_data_drives_nll_to_zero(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-3, 0.3, (60, 4)), rng.normal(3, 0.3, (60, 4))])
        y = np.repeat([0, 1], 60)
        model = mi.make_variational_model(4, 2, seed=1, learning_rate=1e-2)
        nll = None
        for _ in range(800):
            nll = mi.fit_variational_step(model, x, y)
        assert nll < 0.05

    def test_independent_labels_plateau_at_marginal_entropy(self):
        # sample large / capacity small so the plateau is the marginal entropy,
        # not a memorized training loss
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2048, 4))
        y = rng.permutation(np.arange(2048) % 2)
        model = mi.make_variational_model(4, 2, seed=2, learning_rate=1e-3, hidden=16)
        for _ in range(800):
            nll = mi.fit_variational_step(model, x, y)
        assert nll == pytest.approx(np.log(2), abs=0.05)

    def test_single_point_fit_monotone_early(self):
        x = np.ones((8, 3))
        y = np.zeros(8, dtype=int)
        model = mi.make_variational_model(3, 2, seed=3, learning_rate=1e-3)
        nlls = [mi.fit_variational_step(model, x, y) for _ in range(30)]
        assert all(b <= a + 1e-12 for a, b in zip(nlls, nlls[1:]))

    def test_empty_batch_rejected(self):
        model = constant_model()
        with pytest.raises(ValueError):
            mi.fit_variational_step(model, np.empty((0, 4)), np.empty(0, dtype=int))

    def test_non_finite_loss_rejected(self):
        model = mi.make_variational_model(4, 2, seed=4)
        x = np.random.default_rng(5).normal(size=(6, 4))
        x[2] = np.nan
        before = model.network.flat.copy()
        with pytest.raises(RuntimeError, match="non-finite classifier loss"):
            mi.fit_variational_step(model, x, np.array([0, 1] * 3))
        assert np.array_equal(model.network.flat, before)  # no step was taken


class TestEstimate:
    def test_constant_conditional_gives_zero(self):
        rng = np.random.default_rng(4)
        model = constant_model()
        est = mi.estimate_vclub(model, rng.normal(size=(32, 4)), rng.integers(0, 3, 32))
        assert abs(est) < 1e-12

    def test_hand_two_sample_case(self):
        logp = np.array([[-0.1, -2.0], [-1.5, -0.2]])
        labels = np.array([0, 1])
        assert mi.vclub_from_logprobs(logp, labels) == pytest.approx(0.8, abs=1e-12)

    def test_planted_signal_exceeds_threshold(self):
        dataset, table = data.synthetic_dataset(300, 80, d_signal=4, seed=6)
        U = dataset.oracle_embeddings
        labels = table.get("attr0").labels
        model = mi.make_variational_model(U.shape[1], 2, seed=7, learning_rate=1e-2)
        mi.fit_variational(model, U, labels, 600, 128, np.random.default_rng(8))
        value = mi.mi_over_embedding(model, U, labels, 128, passes=2, rng=9)
        assert value > 0.3

    def test_batch_of_one_rejected(self):
        model = constant_model()
        with pytest.raises(ValueError):
            mi.estimate_vclub(model, np.ones((1, 4)), np.array([0]))

    def test_identical_rows_identity(self):
        # every row shares the same x, so the negative term equals the positive
        rng = np.random.default_rng(10)
        model = mi.make_variational_model(4, 3, seed=11)
        batch = np.tile(rng.normal(size=(1, 4)), (16, 1))
        labels = rng.integers(0, 3, 16)
        est = mi.estimate_vclub(model, batch, labels)
        assert abs(est) < 1e-12


class TestInputGradient:
    def test_constant_conditional_zero_gradient(self):
        rng = np.random.default_rng(12)
        model = constant_model()
        grads = mi.contrastive_step(model, rng.normal(size=(8, 4)), rng.integers(0, 3, 8))[1]
        assert np.all(grads == 0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(13)
        model, batch, labels = kink_free_mi_instance(rng)

        def value(x):
            return mi.estimate_vclub(model, x, labels)

        analytic = mi.contrastive_step(model, batch, labels)[1]
        numeric = central_difference(value, batch)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_contrastive_step_value_is_the_estimate(self):
        rng = np.random.default_rng(15)
        model, batch, labels = kink_free_mi_instance(rng, rows=7)
        value, grads = mi.contrastive_step(model, batch, labels)
        assert value == mi.estimate_vclub(model, batch, labels)
        assert grads.tobytes() == mi.contrastive_step(model, batch, labels)[1].tobytes()

    def test_duplicated_rows_sum_to_original(self):
        rng = np.random.default_rng(14)
        model, batch, labels = kink_free_mi_instance(rng, rows=6)
        base = mi.contrastive_step(model, batch, labels)[1]
        doubled = mi.contrastive_step(
            model, np.vstack([batch, batch]), np.concatenate([labels, labels])
        )[1]
        assert np.allclose(doubled[:6] + doubled[6:], base, atol=1e-12)


class TestDiscreteOracle:
    def test_product_joint_zero(self):
        assert mi.discrete_mi_oracle(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_joint_ln2(self):
        assert mi.discrete_mi_oracle(np.diag([0.5, 0.5])) == pytest.approx(np.log(2), rel=1e-12)

    def test_mixed_joint_value(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert mi.discrete_mi_oracle(joint) == pytest.approx(0.1927, abs=5e-5)
        assert mi.discrete_mi_oracle(joint) == pytest.approx(exact_mi_nats(joint), abs=1e-14)

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            mi.discrete_mi_oracle(np.array([[0.5, 0.6], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            mi.discrete_mi_oracle(np.array([[-0.1, 0.6], [0.3, 0.2]]))

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            table = rng.random((3, 4))
            table /= table.sum()
            value = mi.discrete_mi_oracle(table)
            assert value >= -1e-14
            assert value == pytest.approx(mi.discrete_mi_oracle(table.T), abs=1e-12)


class TestMiOverEmbedding:
    def test_constant_model_zero(self):
        rng = np.random.default_rng(16)
        model = constant_model()
        value = mi.mi_over_embedding(
            model, rng.normal(size=(64, 4)), rng.integers(0, 3, 64), 16, passes=2, rng=1
        )
        assert abs(value) < 1e-12

    def test_shuffled_labels_near_zero_after_fit(self):
        rng = np.random.default_rng(17)
        U = rng.normal(size=(2048, 8))
        labels = rng.permutation(np.arange(2048) % 2)
        model = mi.make_variational_model(8, 2, seed=18, learning_rate=1e-3, hidden=16)
        mi.fit_variational(model, U, labels, 600, 256, np.random.default_rng(19))
        value = mi.mi_over_embedding(model, U, labels, 256, passes=2, rng=20)
        assert value <= 0.05

    def test_upper_bound_tendency_on_known_joint(self):
        joint = mi.DiscreteJoint(np.array([[0.35, 0.15], [0.15, 0.35]]))
        rng = np.random.default_rng(21)
        x, y = joint.sample(4000, rng)
        model = mi.make_variational_model(2, 2, seed=22, learning_rate=1e-2)
        mi.fit_variational(model, x, y, 1200, 256, rng)
        value = mi.mi_over_embedding(model, x, y, 256, passes=2, rng=23)
        assert value >= mi.discrete_mi_oracle(joint) - 0.05
