"""Dense-network primitives: init, forward/backward, Adam, finite-difference checks.

Everything is float64 numpy. The networks here are small fixed MLPs (the
attribute classifiers used elsewhere in the package); the backward pass is
hand-written and verifiable against central differences via
:func:`gradient_check`.

Training loops call :func:`forward_backward`, which backpropagates through the
activations of the one forward pass that produced the logits. It forms only
the gradients its caller reads: ``params=False`` drops every layer's weight
and bias gradient, ``inputs=False`` the first layer's input gradient.

A :class:`DenseNetwork` holds all its parameters in one float64 buffer,
``net.flat``, and each layer's ``weights`` and ``biases`` are views of it in
``parameters()`` order. A :class:`GradientBundle` lays its parameter
gradients out the same way in ``bundle.flat``, so one Adam step over
``net.flat`` is bitwise a step of each of ``parameters()`` under a state of
its own: Adam is elementwise.

:func:`optimizer_step` steps one array under one :class:`OptimizerState`,
densely or, with ``rows``, on the rows a batch touched.

:func:`thread_map` is the package's one parallel mechanism: independent,
deterministic work items (calibrations, attacker folds, the ranking audit's
user blocks) run on a thread pool and come back in submission order, so their
results do not depend on the thread count. It alone decides whether they run
at once: serially while BLAS may take every core (see :func:`parallel_fits`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

_MAX_CHECK_PARAMS = 10_000


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)


def _parameter_views(flat: np.ndarray, layers: list[Layer]) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] shaped like ``layers``' parameters, as views of ``flat``."""
    views, start = [], 0
    for layer in layers:
        for p in (layer.weights, layer.biases):
            views.append(flat[start : start + p.size].reshape(p.shape))
            start += p.size
    return views


@dataclass
class DenseNetwork:
    """An MLP: ReLU after every layer but the last, whose outputs are logits.

    Construction copies the layers' values into ``flat`` and rebinds each
    layer's ``weights`` and ``biases`` to views of it.
    """

    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.empty(sum(l.weights.size + l.biases.size for l in self.layers))
        views = _parameter_views(self.flat, self.layers)
        for layer, w, b in zip(self.layers, views[::2], views[1::2]):
            w[...], b[...] = layer.weights, layer.biases
            layer.weights, layer.biases = w, b

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Parameter list [W0, b0, W1, b1, ...], views of ``flat``."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def n_parameters(self) -> int:
        return self.flat.size


@dataclass
class GradientBundle:
    """Gradients in the same [dW0, db0, dW1, db1, ...] order as ``parameters()``,
    views of ``flat`` laid out as the net's ``flat``; empty lists and None
    where they were not formed."""

    param_grads: list[np.ndarray]
    input_grads: np.ndarray | None = None
    flat: np.ndarray | None = None


# the variables OpenBLAS, numpy's bundled BLAS, reads for its thread count, in
# its order; with none of them set it starts a thread per core
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def parallel_fits() -> int:
    """How many matmul-bound fits can run at once: the usable cores over the
    threads each BLAS call may start, and 1 when BLAS may take every core.

    A threaded BLAS called from several Python threads at once is slower than
    one thread calling it: on a 2-core host the acceptance pipeline's 15
    attacker fits took 8.5-9.1 s on 2 threads with OpenBLAS at its default,
    5.5-6.6 s serially, and 3.7-4.1 s on 2 threads with one BLAS thread.
    """
    for name in _BLAS_THREAD_VARS:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, usable_cores() // int(value))
    return 1


def thread_map(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads, in item order.

    It is a plain ``map`` in the calling thread with one worker, one item, or
    ``parallel_fits() == 1`` (one usable core, or BLAS free to start a thread
    per core): the package's one rule for when matmul-bound work (fits,
    ranking blocks) may share the cores.
    Otherwise it runs on ``min(workers, len(items))`` threads, not capped at
    ``parallel_fits()``: threads beyond the cores cost nothing measurable, as
    three calibrations of 60,000 rows took 0.80, 0.54 and 0.53 s (medians of
    5) on 1, 2 and 3 threads on a 2-core host with one BLAS thread.
    An exception from ``fn`` propagates (the first in item order), items not
    yet started are cancelled, and the pool's threads are joined first.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1 or parallel_fits() == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


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
    *,
    params: bool = True,
    inputs: bool = True,
) -> tuple[object, GradientBundle]:
    """One forward pass, then backpropagation of the gradients ``head`` puts on it.

    ``head(logits)`` returns ``(value, logit_grads)``; the result is that value
    and the parameter gradients (with ``params``) and input gradients (with
    ``inputs``) of ``logit_grads``. Each gradient formed is bitwise the one
    the full pass forms.
    """
    logits, layer_inputs, preacts = _forward_cached(net, batch)
    value, logit_grads = head(logits)
    if logit_grads.shape != logits.shape:
        raise ValueError(f"upstream shape {logit_grads.shape} != {logits.shape}")
    delta = np.asarray(logit_grads, dtype=np.float64)
    last = len(net.layers) - 1
    flat = np.empty(net.flat.size) if params else None
    param_grads = _parameter_views(flat, net.layers) if params else []
    for i in range(last, -1, -1):
        if i < last:  # below the output layer delta is this loop's own array
            delta *= preacts[i] > 0
        if params:
            np.matmul(delta.T, layer_inputs[i], out=param_grads[2 * i])
            np.sum(delta, axis=0, out=param_grads[2 * i + 1])
        if i > 0 or inputs:
            delta = delta @ net.layers[i].weights
    return value, GradientBundle(param_grads, delta if inputs else None, flat)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8
# a table stepped in row form holds moments for its touched rows only until
# this share of its rows has been touched. The held-row step costs a few row
# gathers per held row, so it grows with the rows touched so far: at
# 60,000 x 32 with one BLAS thread it cost 5 ms at a twentieth of the table
# and as much as the dense step (25 ms) at about a third. A 2,000-step
# calibration descent took the same time with the switch at a quarter.
_DENSE_SHARE = 0.5


@dataclass
class OptimizerState:
    """Adam state of one array: its moments and two workspaces of their shape,
    allocated on its first step.

    An array first stepped in row form holds moments only for the rows it has
    been given, in first-touch order (``_slot`` maps a row to its position, -1
    for none). Every other row has had zero moments and a zero gradient in
    every step so far, so the dense step would have left it bitwise unchanged:
    skipping it is exact. Once ``_DENSE_SHARE`` of the rows have been touched
    the moments cover every row in place.
    """

    learning_rate: float = 1e-3
    step_count: int = 0
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)
    _work: tuple = field(default=(), init=False, repr=False)
    _rows: np.ndarray | None = field(default=None, init=False, repr=False)
    _slot: np.ndarray | None = field(default=None, init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def _allocate(self, shape) -> None:
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self._work = (np.empty(shape), np.empty(shape))

    def held_rows(self) -> np.ndarray | None:
        """Rows of the array that a step may change, or None for all of them."""
        return None if self._rows is None else self._rows[: self._count]

    def _positions(self, rows: np.ndarray | None) -> np.ndarray | None:
        """Positions of ``rows`` (None: every row) in the moment arrays,
        taking in the rows not held yet."""
        if self._rows is None:
            return rows
        if rows is not None:
            new = rows[self._slot[rows] < 0]
            count = self._count + len(new)
            if count < _DENSE_SHARE * len(self._slot):
                self._slot[new] = np.arange(self._count, count)
                self._rows[self._count : count] = new
                self._count = count
                return self._slot[rows]
        # the moments go dense, in row order
        held, k = self.held_rows(), self._count
        m, v = self.m[:k], self.v[:k]
        self._allocate((len(self._slot),) + m.shape[1:])
        self.m[held], self.v[held] = m, v
        self._rows = self._slot = None
        return rows


def optimizer_step(
    state: OptimizerState,
    param: np.ndarray,
    grad: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """One bias-corrected Adam step, applied to ``param`` in place.

    With ``rows`` (distinct row indices), ``grad`` holds those rows of the
    gradient only; every other row's gradient is zero. The arithmetic is the
    dense step's: every held moment decays, the gradient is added on the given
    rows, and the update runs through the workspaces. Until the moments go
    dense (see :class:`OptimizerState`) the cost grows with the rows touched
    so far rather than the array; after that it is a whole-array step again.
    The result is bitwise the dense step's, except where a decayed first
    moment off the given rows has underflowed to -0.0, to which the dense step
    adds +0.0. Rejects non-finite gradients with a diagnostic rather than
    poisoning the moment accumulators.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    shape = param.shape if rows is None else (len(rows),) + param.shape[1:]
    if grad.shape != shape:
        raise ValueError(f"grad shape {grad.shape}, expected {shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    if rows is not None and not np.diff(np.sort(rows)).all():
        raise ValueError("repeated rows")
    if state.m is None:  # the first step allocates, for its rows or the whole array
        shape = param.shape
        if rows is not None:
            state._slot = np.full(len(param), -1, dtype=np.int64)
            state._rows = np.empty(int(np.ceil(_DENSE_SHARE * len(param))), dtype=np.int64)
            shape = (len(state._rows),) + param.shape[1:]
        state._allocate(shape)
    state.step_count += 1
    t = state.step_count
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    at = state._positions(rows)
    held = state.held_rows()  # the moments and workspaces over the held rows
    k = None if held is None else len(held)
    m, v, w0, w1 = (a[:k] for a in (state.m, state.v, *state._work))
    if at is not None and 2 * len(at) >= len(m):
        # the rows cover at least half the moments: one scatter into a zeroed
        # workspace, then whole-array steps beat two gathers and scatters
        w1.fill(0.0)
        w1[at] = grad
        grad, at = w1, None
    m *= b1
    v *= b2
    if at is None:
        m += np.multiply(grad, 1.0 - b1, out=w0)
        np.multiply(grad, 1.0 - b2, out=w0)
        v += np.multiply(w0, grad, out=w0)
    else:
        m[at] += (1.0 - b1) * grad
        v[at] += (1.0 - b2) * grad * grad
    # lr * (m / bias1) / (sqrt(v / bias2) + eps), through the workspaces
    np.divide(m, bias1, out=w0)
    w0 *= state.learning_rate
    np.divide(v, bias2, out=w1)
    np.sqrt(w1, out=w1)
    w1 += _ADAM_EPSILON
    w0 /= w1
    if held is None:
        param -= w0
    else:
        param[held] -= w0


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
