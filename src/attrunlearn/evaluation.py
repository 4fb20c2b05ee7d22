"""Attack-based and ranking-based evaluation of a user embedding matrix.

The attacker is a dense classifier trained per fold on the embeddings it is
evaluated against (gray-box: released embeddings only, never the originals
when scoring a manipulated matrix). Ranking quality is leave-one-out HR@K /
NDCG@K against the full negative item set.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import nets
from .data import AttributeTable, InteractionDataset
from .nets import DenseNetwork, OptimizerState

log = logging.getLogger(__name__)

# scores per ranking block (1 MB of float64): larger blocks rank no faster at
# 60k users x 1000 items and raise the peak memory of a small run
_RANK_BLOCK_CELLS = 1 << 17


@dataclass
class FoldSpec:
    seed: int
    assignments: np.ndarray  # (N,) fold index per user
    n_folds: int = 5


@dataclass
class AttributeAttackStats:
    bacc_mean: float
    bacc_std: float
    f1_mean: float
    f1_std: float


@dataclass
class AttackReport:
    per_attribute: dict[str, AttributeAttackStats]
    bacc_average: float
    f1_average: float

    def to_json(self) -> str:
        payload = {
            name: {
                "bacc_mean": s.bacc_mean,
                "bacc_std": s.bacc_std,
                "f1_mean": s.f1_mean,
                "f1_std": s.f1_std,
            }
            for name, s in self.per_attribute.items()
        }
        payload["averages"] = {"bacc": self.bacc_average, "f1": self.f1_average}
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass
class RecReport:
    hr: float
    ndcg: float
    k: int

    def to_json(self) -> str:
        return json.dumps({"hr_at_k": self.hr, "ndcg_at_k": self.ndcg, "k": self.k}, indent=2)


def make_folds(n_users: int, n_folds: int = 5, seed: int = 0) -> FoldSpec:
    """Partition users into folds whose sizes differ by at most one.

    Needs 2 <= n_folds <= n_users, so that every fold has a test side and a
    train side.
    """
    if not 2 <= n_folds <= n_users:
        raise ValueError(f"need 2 <= n_folds <= n_users, got {n_folds} folds of {n_users} users")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_users)
    assignments = np.empty(n_users, dtype=np.int64)
    assignments[order] = np.arange(n_users) % n_folds
    return FoldSpec(seed=seed, assignments=assignments, n_folds=n_folds)


def bacc(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Balanced accuracy in percent: mean per-class recall over observed classes."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions/labels length mismatch")
    recalls = []
    for cls in np.unique(labels):
        mask = labels == cls
        recalls.append(float((predictions[mask] == cls).mean()))
    return 100.0 * float(np.mean(recalls))


def micro_f1(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged F1 in percent, 0.0 for empty input.

    For single-label multiclass prediction this equals plain accuracy: every
    error is simultaneously one false positive and one false negative, so the
    pooled 2TP / (2TP + FP + FN) is the share of exact matches.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions/labels length mismatch")
    if not labels.size:
        return 0.0
    return 100.0 * int((predictions == labels).sum()) / labels.size


# the attacker: one 100-unit hidden layer, full-batch Adam at 1e-2 under an L2
# penalty, stopped once the penalized loss has not improved by 1e-4 for 10 steps
_ATTACKER_HIDDEN = 100
_ATTACKER_L2 = 1.0
_ATTACKER_LEARNING_RATE = 1e-2
_ATTACKER_TOL = 1e-4
_ATTACKER_PATIENCE = 10


def train_attacker(
    embeddings: np.ndarray,
    labels: np.ndarray,
    cardinality: int,
    seed: int = 0,
    max_iterations: int = 500,
) -> DenseNetwork:
    """Train the adversarial classifier on raw embeddings.

    Full-batch Adam with an L2 weight penalty of l2/(2*n_samples)*sum(W^2),
    stopping early once the penalized loss stops improving by ``_ATTACKER_TOL``
    for ``_ATTACKER_PATIENCE`` consecutive iterations.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(np.unique(labels)) < 2:
        raise ValueError("attacker needs at least 2 classes in the training data")
    net = nets.init_network([embeddings.shape[1], _ATTACKER_HIDDEN, cardinality], seed)
    opt = OptimizerState(learning_rate=_ATTACKER_LEARNING_RATE)
    n = len(labels)
    best = np.inf
    stale = 0
    for _ in range(max_iterations):
        loss, bundle = nets.forward_backward(
            net, embeddings, lambda logits: nets.log_softmax_nll(logits, labels), inputs=False
        )
        penalty = 0.0
        for layer in net.layers:
            penalty += float((layer.weights**2).sum())
        loss += _ATTACKER_L2 * penalty / (2.0 * n)
        for li, layer in enumerate(net.layers):
            bundle.param_grads[2 * li] += (_ATTACKER_L2 / n) * layer.weights  # into bundle.flat
        nets.optimizer_step(opt, net.flat, bundle.flat)
        if loss < best - _ATTACKER_TOL:
            best = loss
            stale = 0
        else:
            stale += 1
            if stale >= _ATTACKER_PATIENCE:
                break
    return net


def predict(net: DenseNetwork, embeddings: np.ndarray) -> np.ndarray:
    return nets.forward(net, embeddings).argmax(axis=1)


def _usable_folds(labels: np.ndarray, folds: FoldSpec) -> FoldSpec:
    """``folds``, or the first regenerated split whose every train side holds
    at least two classes."""
    spec = folds
    for attempt in range(20):
        ok = all(
            len(np.unique(labels[spec.assignments != f])) >= 2 for f in range(spec.n_folds)
        )
        if ok:
            return spec
        log.warning(
            "fold split (seed=%d) left a train side single-class; regenerating", spec.seed
        )
        spec = make_folds(len(labels), spec.n_folds, spec.seed + 1 + attempt)
    raise ValueError("could not build folds with >=2 train classes")


def _attack_fold(
    U: np.ndarray, labels: np.ndarray, cardinality: int, spec: FoldSpec, fold: int,
    max_iterations: int,
) -> tuple[float, float]:
    """BAcc and micro-F1 on fold ``fold`` of an attacker trained on the others."""
    train_mask = spec.assignments != fold
    net = train_attacker(
        U[train_mask], labels[train_mask], cardinality, seed=spec.seed * 1000 + fold,
        max_iterations=max_iterations,
    )
    preds = predict(net, U[~train_mask])
    return bacc(preds, labels[~train_mask]), micro_f1(preds, labels[~train_mask])


def attack_metrics(
    U: np.ndarray, attributes: AttributeTable | list, folds: FoldSpec, max_iterations: int = 500
) -> AttackReport:
    """Five-fold cross-validated attack against every attribute in the table.

    Classifiers are always trained on the same matrix they are evaluated on,
    for at most ``max_iterations`` full-batch steps each. Each attribute's
    folds are checked (and regenerated) first; then every (attribute, fold)
    fit runs on one thread pool of ``nets.parallel_fits()`` threads. The fits
    are seeded and independent, and their scores are regrouped in entry and
    fold order, so the report is the serial one whatever the thread count.
    """
    entries = attributes.entries() if isinstance(attributes, AttributeTable) else attributes
    if not entries:
        raise ValueError("attack needs at least one attribute")
    jobs = []
    for i, (name, labels, cardinality) in enumerate(entries):
        labels = np.asarray(labels)
        if len(labels) != len(U):
            raise ValueError(f"attribute {name!r}: labels do not cover all users")
        spec = _usable_folds(labels, folds)
        jobs += [(i, labels, cardinality, spec, f) for f in range(spec.n_folds)]
    scores = nets.thread_map(
        lambda job: _attack_fold(U, *job[1:], max_iterations), jobs, nets.parallel_fits()
    )
    per_attr = {}
    for i, (name, _, _) in enumerate(entries):  # a repeated name keeps its last entry
        baccs, f1s = zip(*[score for job, score in zip(jobs, scores) if job[0] == i])
        per_attr[name] = AttributeAttackStats(
            bacc_mean=float(np.mean(baccs)),
            bacc_std=float(np.std(baccs)),
            f1_mean=float(np.mean(f1s)),
            f1_std=float(np.std(f1s)),
        )
    return AttackReport(
        per_attribute=per_attr,
        bacc_average=float(np.mean([s.bacc_mean for s in per_attr.values()])),
        f1_average=float(np.mean([s.f1_mean for s in per_attr.values()])),
    )


def hr_ndcg_at_k(
    user_embeddings: np.ndarray,
    item_embeddings: np.ndarray,
    dataset: InteractionDataset,
    k: int = 10,
) -> RecReport:
    """Leave-one-out HR@K and NDCG@K over the full negative item set.

    Each user's held-out item is ranked among all items outside their train
    pairs; score ties resolve toward the smaller item id. A hit contributes
    1/log2(rank+1) to NDCG, so NDCG <= HR at the same K. Users are scored in
    blocks of about ``_RANK_BLOCK_CELLS`` scores, so memory stays flat in N.
    The blocks run on ``nets.thread_map`` with ``nets.parallel_fits()``
    threads, as the attack's fits do. Each block's ranks are integers computed
    from its own rows alone and are joined in block order, so the report is
    the serial one whatever the thread count. Both matrices must be finite
    and of one width.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, m = dataset.n_users, len(item_embeddings)
    if len(user_embeddings) != n:
        raise ValueError(f"{len(user_embeddings)} user embedding rows for {n} users")
    if user_embeddings.shape[1] != item_embeddings.shape[1]:
        raise ValueError(f"user embeddings of width {user_embeddings.shape[1]} "
                         f"for item embeddings of width {item_embeddings.shape[1]}")
    # a NaN score is never ahead of another, so it would rank every test item first
    if not (np.isfinite(user_embeddings).all() and np.isfinite(item_embeddings).all()):
        raise ValueError("user and item embeddings must be finite")
    test = np.asarray(dataset.test_items, dtype=np.int64)
    for u in np.flatnonzero(test < 0):
        log.warning("user %d has no test item; skipped", u)
    pairs = dataset.train_pairs[np.argsort(dataset.train_pairs[:, 0], kind="stable")]
    bounds = np.searchsorted(pairs[:, 0], np.arange(n + 1))
    ids = np.arange(m)
    block = max(1, _RANK_BLOCK_CELLS // max(m, 1))

    def rank_block(lo: int) -> np.ndarray:
        hi = min(lo + block, n)
        scores = user_embeddings[lo:hi] @ item_embeddings.T
        rows = pairs[bounds[lo] : bounds[hi]]
        scores[rows[:, 0] - lo, rows[:, 1]] = -np.inf
        t = test[lo:hi]
        target = scores[np.arange(hi - lo), np.maximum(t, 0)][:, None]
        ahead = (scores > target) | ((scores == target) & (ids < t[:, None]))
        return 1 + ahead.sum(axis=1)

    blocks = nets.thread_map(rank_block, range(0, n, block), nets.parallel_fits())
    ranks = np.concatenate([np.zeros(0, np.int64), *blocks])  # in block order, so in user order
    ranked = test >= 0
    hit = ranked & (ranks <= k)
    gains = np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0)
    denom = max(int(ranked.sum()), 1)
    return RecReport(hr=float(hit.sum() / denom), ndcg=float(gains.sum() / denom), k=k)
