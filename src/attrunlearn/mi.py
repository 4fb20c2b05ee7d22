"""Classifier-based mutual information machinery.

A small dense classifier models the conditional q(label | embedding); its
in-batch contrastive log-ratio (vCLUB) gives an MI surrogate that can be both
estimated and differentiated with respect to the embeddings. An exact
discrete-table MI oracle is included for verification.

Every loop that descends the estimate alternates two calls, each one forward
pass of the classifier: :func:`fit_variational_step` (likelihood ascent on the
classifier) and :func:`contrastive_step` (the batch estimate and its gradient
with respect to the embedding rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .nets import DenseNetwork, OptimizerState


@dataclass
class VariationalModel:
    """Conditional classifier q(label | embedding) plus its training state."""

    network: DenseNetwork
    cardinality: int
    optimizer: OptimizerState
    attribute: str = ""


@dataclass
class DiscreteJoint:
    """Exact joint probability table over (x-category, y-category)."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if (self.table < 0).any():
            raise ValueError("joint table has negative entries")
        if abs(self.table.sum() - 1.0) > 1e-12:
            raise ValueError(f"joint table sums to {self.table.sum()}, not 1")

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n pairs; x is returned one-hot encoded, y as integer labels."""
        flat = rng.choice(self.table.size, size=n, p=self.table.ravel())
        xi, yi = np.unravel_index(flat, self.table.shape)
        x = np.zeros((n, self.table.shape[0]))
        x[np.arange(n), xi] = 1.0
        return x, yi.astype(np.int64)


def make_variational_model(
    input_dim: int,
    cardinality: int,
    seed: int,
    hidden: int = 100,
    learning_rate: float = 1e-4,
    attribute: str = "",
) -> VariationalModel:
    """One-hidden-layer classifier (width 100 by default) with its own Adam state."""
    net = nets.init_network([input_dim, hidden, cardinality], seed)
    return VariationalModel(net, cardinality, OptimizerState(learning_rate=learning_rate), attribute)


def fit_variational_step(
    model: VariationalModel, embeddings: np.ndarray, labels: np.ndarray
) -> float:
    """One likelihood-ascent step on the classifier; returns the NLL before the step."""
    if len(embeddings) == 0:
        raise ValueError("empty batch")

    def nll_head(logits):
        loss, logit_grads = nets.log_softmax_nll(logits, labels)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite classifier loss {loss}")
        return loss, logit_grads

    loss, bundle = nets.forward_backward(model.network, embeddings, nll_head, inputs=False)
    nets.optimizer_step(model.optimizer, model.network.flat, bundle.flat)
    return loss


def vclub_from_logprobs(logp: np.ndarray, labels: np.ndarray) -> float:
    """In-batch contrastive estimate from a (B, p) log-probability matrix.

    mean_i[ logp[i, y_i] ] - mean_{i,j}[ logp[i, y_j] ]; the negative term uses
    all B x B in-batch pairs.
    """
    b = logp.shape[0]
    labels = np.asarray(labels)
    positive = logp[np.arange(b), labels].mean()
    counts = np.bincount(labels, minlength=logp.shape[1]).astype(np.float64)
    negative = (logp @ counts).mean() / b
    return float(positive - negative)


def vclub_logprob_gradient(logp_shape: tuple[int, int], labels: np.ndarray) -> np.ndarray:
    """d(estimate)/d logp: (onehot - label_counts/B) / B."""
    b, p = logp_shape
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=p).astype(np.float64)
    grad = np.tile(-counts / (b * b), (b, 1))
    grad[np.arange(b), labels] += 1.0 / b
    return grad


def estimate_vclub(model: VariationalModel, embeddings: np.ndarray, labels: np.ndarray) -> float:
    """The contrastive upper-bound estimate on one batch, in nats (no mutation)."""
    if len(embeddings) < 2:
        raise ValueError("need a batch of at least 2 rows")
    logp = nets.log_softmax(nets.forward(model.network, embeddings))
    return vclub_from_logprobs(logp, labels)


def contrastive_step(
    model: VariationalModel, embeddings: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch estimate and its gradient with respect to each embedding row.

    One forward pass serves both; the classifier is not touched. The value is
    bitwise the one :func:`estimate_vclub` returns for the same batch.
    """
    if len(embeddings) < 2:
        raise ValueError("need a batch of at least 2 rows")

    def vclub_head(logits):
        logp = nets.log_softmax(logits)
        g = vclub_logprob_gradient(logp.shape, labels)
        # through log-softmax: dz = g - softmax * rowsum(g)
        return vclub_from_logprobs(logp, labels), g - np.exp(logp) * g.sum(axis=1, keepdims=True)

    estimate, bundle = nets.forward_backward(model.network, embeddings, vclub_head, params=False)
    return estimate, bundle.input_grads


def discrete_mi_oracle(joint: DiscreteJoint | np.ndarray) -> float:
    """Exact MI in nats of a discrete joint table, with 0*log(0) = 0."""
    if not isinstance(joint, DiscreteJoint):
        joint = DiscreteJoint(joint)
    p = joint.table
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = np.ones_like(p)
    ratio[mask] = p[mask] / (px @ py)[mask]
    return float((p[mask] * np.log(ratio[mask])).sum())


class BatchSampler:
    """Uniform without-replacement batches, reshuffling per epoch-style pass."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if batch_size < 2:
            raise ValueError("batch size must be >= 2")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


def fit_variational(
    model: VariationalModel,
    embeddings: np.ndarray,
    labels: np.ndarray,
    iterations: int,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Run several ascent steps over shuffled batches; returns the last NLL."""
    sampler = BatchSampler(len(embeddings), batch_size, rng)
    nll = float("nan")
    for _ in range(iterations):
        idx = sampler.next_batch()
        nll = fit_variational_step(model, embeddings[idx], labels[idx])
    return nll


def mi_over_embedding(
    model: VariationalModel,
    embeddings: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    passes: int,
    rng: np.random.Generator | int = 0,
) -> float:
    """Average batch estimate over shuffled batches covering the matrix `passes` times."""
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    n = len(embeddings)
    batch_size = min(batch_size, n)
    values = []
    for _ in range(passes):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if len(idx) < 2:
                continue
            values.append(estimate_vclub(model, embeddings[idx], labels[idx]))
    return float(np.mean(values))
