"""Dense-network primitives: init, forward/backward, Adam, finite-difference checks.

Everything is float64 numpy. The networks here are small fixed MLPs (the
attribute classifiers used elsewhere in the package); the backward pass is
hand-written and verifiable against central differences via
:func:`gradient_check`.

Training loops call :func:`forward_backward`, which backpropagates through the
activations of the one forward pass that produced the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_MAX_CHECK_PARAMS = 10_000


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)


@dataclass
class DenseNetwork:
    """An MLP: ReLU after every layer but the last, whose outputs are logits."""

    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...], views into the layers."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


@dataclass
class GradientBundle:
    """Gradients in the same [dW0, db0, dW1, db1, ...] order as ``parameters()``."""

    param_grads: list[np.ndarray]
    input_grads: np.ndarray | None = None


@dataclass
class OptimizerState:
    """Adam state; moments are allocated lazily to match the first step's params."""

    learning_rate: float = 1e-3
    step_count: int = 0
    first_moments: list[np.ndarray] = field(default_factory=list)
    second_moments: list[np.ndarray] = field(default_factory=list)


def init_network(layer_sizes: list[int], seed: int) -> DenseNetwork:
    """Build an MLP with ReLU hidden layers and an identity (logit) output layer.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero; the
    same seed always produces bit-identical parameters.
    """
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {layer_sizes}")
    if any(int(s) <= 0 or int(s) != s for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive integers, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(weights, np.zeros(fan_out)))
    return DenseNetwork(layers)


def _forward_cached(net: DenseNetwork, batch: np.ndarray):
    """Forward pass keeping per-layer inputs and pre-activations for backprop."""
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input dim {net.input_dim}"
        )
    h = np.asarray(batch, dtype=np.float64)
    last = len(net.layers) - 1
    inputs, preacts = [], []
    for i, layer in enumerate(net.layers):
        inputs.append(h)
        z = h @ layer.weights.T
        z += layer.biases
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < last else z
    return h, inputs, preacts


def forward(net: DenseNetwork, batch: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch. Deterministic; raises on shape mismatch."""
    logits, _, _ = _forward_cached(net, batch)
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax_nll(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels plus the logit gradient.

    The gradient is (softmax - onehot) / B, so every row sums to zero.
    """
    labels = np.asarray(labels)
    batch = logits.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != ({batch},)")
    n_classes = logits.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    logp = log_softmax(logits)
    rows = np.arange(batch)
    loss = -float(logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= batch
    return loss, grad


def forward_backward(
    net: DenseNetwork,
    batch: np.ndarray,
    head: Callable[[np.ndarray], tuple[object, np.ndarray]],
) -> tuple[object, GradientBundle]:
    """One forward pass, then backpropagation of the gradients ``head`` puts on it.

    ``head(logits)`` returns ``(value, logit_grads)``; the result is that value
    and the parameter and input gradients of ``logit_grads``.
    """
    logits, inputs, preacts = _forward_cached(net, batch)
    value, logit_grads = head(logits)
    if logit_grads.shape != logits.shape:
        raise ValueError(f"upstream shape {logit_grads.shape} != {logits.shape}")
    delta = np.asarray(logit_grads, dtype=np.float64)
    last = len(net.layers) - 1
    param_grads: list[np.ndarray] = [None] * (2 * len(net.layers))
    for i in range(last, -1, -1):
        layer = net.layers[i]
        if i < last:  # below the output layer delta is this loop's own array
            delta *= preacts[i] > 0
        param_grads[2 * i] = delta.T @ inputs[i]
        param_grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ layer.weights
    return value, GradientBundle(param_grads=param_grads, input_grads=delta)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


def optimizer_step(
    state: OptimizerState, params: list[np.ndarray], grads: list[np.ndarray]
) -> list[np.ndarray]:
    """One bias-corrected Adam step, applied to ``params`` in place.

    Rejects non-finite gradients with a diagnostic rather than poisoning the
    moment accumulators.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"param {i}: shape {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {i}")
    if not state.first_moments:
        state.first_moments = [np.zeros_like(p) for p in params]
        state.second_moments = [np.zeros_like(p) for p in params]
    state.step_count += 1
    t = state.step_count
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moments, state.second_moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPSILON)
    return params


def _nll_loss(net: DenseNetwork, batch: np.ndarray, labels: np.ndarray) -> float:
    loss, _ = log_softmax_nll(forward(net, batch), labels)
    return loss


_FD_STEP = 1e-5  # central-difference step of the gradient check


def fd_relative_error(
    net: DenseNetwork, batch: np.ndarray, labels: np.ndarray, bundle: GradientBundle
) -> float:
    """Max relative error of ``bundle`` against central differences of the NLL.

    Components where both gradients are below 1e-8 are skipped (dead-ReLU
    directions legitimately carry zero gradient on both sides).
    """
    worst = 0.0

    def compare(arr: np.ndarray, analytic: np.ndarray) -> None:
        nonlocal worst
        flat = arr.reshape(-1)
        aflat = analytic.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _FD_STEP
            up = _nll_loss(net, batch, labels)
            flat[j] = orig - _FD_STEP
            down = _nll_loss(net, batch, labels)
            flat[j] = orig
            numeric = (up - down) / (2.0 * _FD_STEP)
            denom = max(abs(aflat[j]), abs(numeric))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(aflat[j] - numeric) / denom)

    for param, grad in zip(net.parameters(), bundle.param_grads):
        compare(param, grad)
    if bundle.input_grads is not None:
        compare(batch, bundle.input_grads)
    return worst


def gradient_check(net: DenseNetwork, batch: np.ndarray, labels: np.ndarray) -> float:
    """Compare analytic NLL gradients (parameters and inputs) to central differences.

    Intended for small nets only; refuses anything above 1e4 parameters.
    """
    if net.n_parameters() > _MAX_CHECK_PARAMS:
        raise ValueError(f"net too large for FD check ({net.n_parameters()} params)")
    batch = np.array(batch, dtype=np.float64)
    _, bundle = forward_backward(net, batch, lambda logits: log_softmax_nll(logits, labels))
    return fd_relative_error(net, batch, labels, bundle)
