import numpy as np
import pytest

from attrunlearn import nets
from _oracles import kink_free_net_instance as safe_instance
from _oracles import reference_forward_backward


def backprop(net, batch, logit_grads):
    """Parameter and input gradients of ``logit_grads`` from one forward_backward call."""
    return nets.forward_backward(net, batch, lambda _: (None, logit_grads))[1]


class TestInit:
    def test_construction_counts(self):
        net = nets.init_network([32, 100, 2], seed=7)
        assert net.n_parameters() == 32 * 100 + 100 + 100 * 2 + 2
        assert all(np.all(l.biases == 0) for l in net.layers)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            nets.init_network([32], seed=0)
        with pytest.raises(ValueError):
            nets.init_network([4, 0, 2], seed=0)

    def test_seed_determinism_bit_identical(self):
        a = nets.init_network([5, 8, 3], seed=123)
        b = nets.init_network([5, 8, 3], seed=123)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.biases.tobytes() == lb.biases.tobytes()

    def test_layers_become_views_of_one_buffer(self):
        W0, b0 = np.arange(6.0).reshape(3, 2), np.array([0.5, -0.5, 1.0])
        W1, b1 = np.array([[1.0, -2.0, 3.0]]), np.array([0.25])
        net = nets.DenseNetwork([nets.Layer(W0.copy(), b0.copy()), nets.Layer(W1.copy(), b1)])
        for got, want in zip(net.parameters(), [W0, b0, W1, b1]):
            assert got.tobytes() == want.tobytes()
            assert np.shares_memory(got, net.flat)
        assert net.flat.tobytes() == np.concatenate([W0.ravel(), b0, W1.ravel(), b1]).tobytes()
        net.flat[:] = 7.0
        assert np.all(net.layers[0].weights == 7.0) and np.all(net.layers[1].biases == 7.0)

    def test_init_bounds_follow_fan_in_out(self):
        net = nets.init_network([10, 20, 4], seed=5)
        bound = np.sqrt(6.0 / 30.0)
        assert np.abs(net.layers[0].weights).max() <= bound


class TestForward:
    def test_zero_network_gives_uniform_softmax(self):
        net = nets.init_network([3, 4, 2], seed=0)
        for layer in net.layers:
            layer.weights[:] = 0
        logits = nets.forward(net, np.ones((5, 3)))
        assert np.all(logits == 0)
        probs = np.exp(nets.log_softmax(logits))
        assert np.allclose(probs, 0.5)

    def test_single_linear_layer_matches_hand_matmul(self):
        net = nets.DenseNetwork(
            [nets.Layer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5]))]
        )
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        expected = np.array([[3.5, 6.5], [2.5, 5.5]])
        assert np.allclose(nets.forward(net, x), expected)

    def test_empty_batch(self):
        net = nets.init_network([3, 2], seed=0)
        out = nets.forward(net, np.empty((0, 3)))
        assert out.shape == (0, 2)

    def test_shape_mismatch(self):
        net = nets.init_network([3, 2], seed=0)
        with pytest.raises(ValueError):
            nets.forward(net, np.ones((2, 4)))


class TestLogSoftmaxNLL:
    def test_symmetric_logits(self):
        loss, _ = nets.log_softmax_nll(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated_logits(self):
        loss, _ = nets.log_softmax_nll(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(loss)

    def test_scalar_log_sum_exp_value(self):
        loss, _ = nets.log_softmax_nll(np.array([[0.5, -0.5]]), np.array([1]))
        assert loss == pytest.approx(np.log(1 + np.e), rel=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            nets.log_softmax_nll(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        _, grad = nets.log_softmax_nll(logits, rng.integers(0, 4, size=6))
        assert np.abs(grad.sum(axis=1)).max() < 1e-9

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        probs = np.exp(nets.log_softmax(rng.normal(size=(8, 5)) * 10))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


class TestBackward:
    def test_zero_upstream_gives_zero_bundle(self):
        net = nets.init_network([3, 4, 2], seed=1)
        batch = np.ones((2, 3))
        bundle = backprop(net, batch, np.zeros((2, 2)))
        assert all(np.all(g == 0) for g in bundle.param_grads)
        assert np.all(bundle.input_grads == 0)

    def test_single_linear_layer_hand_chain_rule(self):
        W = np.array([[1.0, -2.0], [0.5, 3.0]])
        net = nets.DenseNetwork([nets.Layer(W.copy(), np.zeros(2))])
        x = np.array([[2.0, 1.0]])
        up = np.array([[1.0, -1.0]])
        bundle = backprop(net, x, up)
        assert np.allclose(bundle.param_grads[0], up.T @ x)
        assert np.allclose(bundle.param_grads[1], up[0])
        assert np.allclose(bundle.input_grads, up @ W)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net, batch, labels = safe_instance(rng)
        assert nets.gradient_check(net, batch, labels) < 1e-4

    def test_bitwise_equal_to_out_of_place_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net, batch, _ = safe_instance(rng)
            up = rng.standard_normal((len(batch), net.output_dim))
            bundle = backprop(net, batch, up)
            param_grads, input_grads = reference_forward_backward(net, batch, up)
            for got, want in zip(bundle.param_grads, param_grads):
                assert got.tobytes() == want.tobytes()
            assert bundle.input_grads.tobytes() == input_grads.tobytes()

    def test_partial_passes_match_full_pass_and_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net, batch, _ = safe_instance(rng)
            up = rng.standard_normal((len(batch), net.output_dim))
            full = backprop(net, batch, up)
            param_grads, input_grads = reference_forward_backward(net, batch, up)

            def head(_):
                return None, up

            no_inputs = nets.forward_backward(net, batch, head, inputs=False)[1]
            no_params = nets.forward_backward(net, batch, head, params=False)[1]
            assert no_inputs.input_grads is None
            assert no_params.param_grads == [] and no_params.flat is None
            assert len(no_inputs.param_grads) == len(param_grads)
            for got, want in zip(no_inputs.param_grads, param_grads):
                assert got.tobytes() == want.tobytes()
                assert np.shares_memory(got, no_inputs.flat)
            flat_want = np.concatenate([g.ravel() for g in param_grads])
            assert no_inputs.flat.tobytes() == full.flat.tobytes() == flat_want.tobytes()
            assert no_params.input_grads.tobytes() == full.input_grads.tobytes()
            assert no_params.input_grads.tobytes() == input_grads.tobytes()

    def test_leaves_logit_grads_untouched(self):
        net = nets.init_network([3, 5, 4], seed=2)
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((6, 3))
        up = rng.standard_normal((6, 4))
        before = up.copy()
        bundle = backprop(net, batch, up)
        assert up.tobytes() == before.tobytes()
        param_grads, input_grads = reference_forward_backward(net, batch, before)
        for got, want in zip(bundle.param_grads, param_grads):
            assert got.tobytes() == want.tobytes()
        assert bundle.input_grads.tobytes() == input_grads.tobytes()


class TestOptimizer:
    def test_zero_gradient_from_fresh_state(self):
        p = np.array([1.0, 2.0])
        state = nets.OptimizerState(learning_rate=0.1)
        nets.optimizer_step(state, [p], [np.zeros(2)])
        assert np.allclose(p, [1.0, 2.0])

    def test_constant_gradient_moves_against_sign(self):
        p = np.zeros(3)
        state = nets.OptimizerState(learning_rate=1e-2)
        g = np.array([1.0, -1.0, 2.0])
        for _ in range(50):
            nets.optimizer_step(state, [p], [g.copy()])
        assert np.all(np.sign(p) == -np.sign(g))

    def test_first_step_magnitude(self):
        p = np.array([0.0])
        state = nets.OptimizerState(learning_rate=1e-3)
        nets.optimizer_step(state, [p], [np.array([1.0])])
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)
        assert state.step_count == 1

    def test_flat_step_matches_per_parameter_steps(self):
        rng = np.random.default_rng(5)
        flat_net = nets.init_network([6, 9, 3], seed=4)
        per_net = nets.init_network([6, 9, 3], seed=4)
        flat_state = nets.OptimizerState(learning_rate=1e-2)
        per_state = nets.OptimizerState(learning_rate=1e-2)
        for _ in range(50):
            batch = rng.standard_normal((8, 6))
            bundle = backprop(flat_net, batch, rng.standard_normal((8, 3)))
            per_grads = [g.copy() for g in bundle.param_grads]
            nets.optimizer_step(flat_state, [flat_net.flat], [bundle.flat])
            nets.optimizer_step(per_state, per_net.parameters(), per_grads)
            assert flat_net.flat.tobytes() == per_net.flat.tobytes()

    def test_non_finite_gradient_rejected(self):
        state = nets.OptimizerState()
        with pytest.raises(ValueError, match="non-finite"):
            nets.optimizer_step(state, [np.zeros(2)], [np.array([np.nan, 0.0])])


class TestRowForm:
    """``optimizer_step`` with ``rows=`` against the dense step on a full gradient."""

    @staticmethod
    def run_both(rng, shapes, batches, steps):
        """Step dense and row-form copies of random tables side by side, with
        row 0 of every sampled gradient exactly zero; checks them bitwise
        after every step and returns the row-form state."""
        dense_params = [rng.standard_normal(shape) for shape in shapes]
        row_params = [p.copy() for p in dense_params]
        dense = nets.OptimizerState(learning_rate=1e-2)
        by_rows = nets.OptimizerState(learning_rate=1e-2)
        for _ in range(steps):
            rows, grads, fulls = [], [], []
            for p, b in zip(dense_params, batches):
                idx = rng.choice(len(p), size=b, replace=False)
                g = rng.standard_normal((b,) + p.shape[1:])
                g[0] = 0.0
                full = np.zeros_like(p)
                full[idx] = g
                rows.append(idx)
                grads.append(g)
                fulls.append(full)
            nets.optimizer_step(dense, dense_params, fulls)
            nets.optimizer_step(by_rows, row_params, grads, rows=rows)
            for want, got in zip(dense_params, row_params):
                assert got.tobytes() == want.tobytes()
        return by_rows

    def test_mostly_untouched_table(self):
        state = self.run_both(np.random.default_rng(0), [(2000, 4)], [16], steps=40)
        held = state.held_rows(0)
        assert held is not None and len(held) < 1000  # never went dense

    def test_crosses_half_table_switch(self):
        shapes, batches = [(60, 3), (25, 2)], [7, 5]
        # one step touches fewer than half of each table's rows ...
        state = self.run_both(np.random.default_rng(1), shapes, batches, steps=1)
        assert [len(state.held_rows(i)) for i in (0, 1)] == batches
        # ... and thirty touch more, so the run goes dense part way through
        state = self.run_both(np.random.default_rng(1), shapes, batches, steps=30)
        assert state.held_rows(0) is None and state.held_rows(1) is None

    def test_sampled_zero_gradient_row_unchanged(self):
        p = np.random.default_rng(2).standard_normal((10, 3))
        before = p.copy()
        state = nets.OptimizerState(learning_rate=0.1)
        nets.optimizer_step(state, [p], [np.zeros((2, 3))], rows=[np.array([4, 7])])
        assert p.tobytes() == before.tobytes()
        assert state.held_rows(0).tolist() == [4, 7]

    def test_dense_step_after_row_steps(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((50, 2))
        q = p.copy()
        dense, by_rows = nets.OptimizerState(), nets.OptimizerState()
        for _ in range(3):
            idx = rng.choice(50, size=4, replace=False)
            g = rng.standard_normal((4, 2))
            full = np.zeros_like(p)
            full[idx] = g
            nets.optimizer_step(dense, [p], [full])
            nets.optimizer_step(by_rows, [q], [g], rows=[idx])
        g = rng.standard_normal((50, 2))
        nets.optimizer_step(dense, [p], [g])
        nets.optimizer_step(by_rows, [q], [g])
        assert q.tobytes() == p.tobytes()

    def test_bad_rows_rejected(self):
        state = nets.OptimizerState()
        with pytest.raises(ValueError, match="repeated rows"):
            nets.optimizer_step(state, [np.zeros((5, 2))], [np.ones((2, 2))], rows=[[3, 3]])
        with pytest.raises(ValueError, match="grad shape"):
            nets.optimizer_step(state, [np.zeros((5, 2))], [np.ones((3, 2))], rows=[[0, 1]])
        with pytest.raises(ValueError, match="mismatch"):
            nets.optimizer_step(state, [np.zeros((5, 2))], [np.ones((1, 2))], rows=[])


class TestGradientCheck:
    def test_random_instances_under_tolerance(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            net, batch, labels = safe_instance(rng)
            assert nets.gradient_check(net, batch, labels) < 1e-4

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(99)
        net, batch, labels = safe_instance(rng)
        _, logit_grads = nets.log_softmax_nll(nets.forward(net, batch), labels)
        bundle = backprop(net, batch, logit_grads)
        bundle.param_grads[0] = bundle.param_grads[0] * 1.05 + 1e-3
        assert nets.fd_relative_error(net, batch, labels, bundle) > 1e-2

    def test_refuses_large_nets(self):
        net = nets.init_network([100, 120, 10], seed=0)
        with pytest.raises(ValueError):
            nets.gradient_check(net, np.zeros((2, 100)), np.array([0, 1]))

    def test_dead_relu_direction_skipped(self):
        # single hidden unit forced dead for every batch row: its weights get
        # zero gradient both analytically and numerically
        net = nets.init_network([2, 1, 2], seed=3)
        net.layers[0].weights[:] = -1.0
        net.layers[0].biases[:] = -5.0
        batch = np.abs(np.random.default_rng(0).normal(size=(3, 2)))
        assert nets.gradient_check(net, batch, np.array([0, 1, 0])) < 1e-4


class TestDeterminismAndSnapshot:
    def test_forward_is_deterministic(self):
        net = nets.init_network([4, 6, 3], seed=8)
        x = np.random.default_rng(1).normal(size=(5, 4))
        assert nets.forward(net, x).tobytes() == nets.forward(net, x).tobytes()
