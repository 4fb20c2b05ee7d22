"""Step 2: merge per-attribute calibrated embeddings under simplex weights.

The weights are optimized against the summed contrastive MI estimate across
all requested attributes, with a softmax projection keeping them on the
simplex. Also houses the averaging ablation, the end-to-end joint optimizer,
and the empirical two-step-vs-joint gap check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import mi
from .calibration import BallDescent, CalibrationConfig, _attribute_seed


@dataclass
class CombinationConfig:
    iterations: int = 500
    batch_size: int = 256
    step_size: float = 1e-2  # plain gradient step on the weights
    variational_lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 2:
            raise ValueError("bad combination config")
        for key in ("step_size", "variational_lr"):  # NaN fails the comparison too
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key!r} must be finite and > 0, got {getattr(self, key)!r}")


@dataclass
class CombinationResult:
    alpha: np.ndarray
    embeddings: np.ndarray  # weighted combination under alpha
    attributes: list[str]
    mi_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    alpha_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


@dataclass
class BoundCheckReport:
    p1: float
    p2: float
    gap: float
    eps: float
    k: int
    c_norm: float  # Frobenius norm of the original embeddings (proxy for C)
    notes: str = (
        "c_norm is the Frobenius proxy for the spectral constant; the MI "
        "Lipschitz constant has no constructive value, so only the empirical "
        "gap is reported"
    )

    def to_json(self) -> str:
        return json.dumps(
            {k: (v if isinstance(v, (int, str)) else float(v)) for k, v in asdict(self).items()},
            indent=2,
            sort_keys=True,
        )


def project_simplex_softmax(alpha: np.ndarray) -> np.ndarray:
    """Softmax map onto the open simplex: strictly positive, unit sum, shift-invariant."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("weights must be finite")
    shifted = alpha - alpha.max()
    e = np.exp(shifted)
    return e / e.sum()


def combine(embeddings: list[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """Elementwise weighted sum of equally shaped matrices."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if len(embeddings) != len(alpha):
        raise ValueError(f"{len(embeddings)} matrices vs {len(alpha)} weights")
    if not embeddings:
        raise ValueError("nothing to combine")
    shape = embeddings[0].shape
    if any(e.shape != shape for e in embeddings):
        raise ValueError("embedding shapes differ")
    out = np.zeros(shape)
    for w, e in zip(alpha, embeddings):
        out += w * e
    return out


def _label_arrays(attributes: list[tuple[str, np.ndarray, int]]):
    names = [a[0] for a in attributes]
    labels = [np.asarray(a[1], dtype=np.int64) for a in attributes]
    cards = [int(a[2]) for a in attributes]
    return names, labels, cards


def summed_estimate_and_alpha_gradient(
    models: list,
    component_rows: list[np.ndarray],
    batch_labels: list[np.ndarray],
    alpha: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch value of the summed MI estimate at U(alpha), its alpha gradient,
    and its gradient with respect to the combined batch rows.

    The alpha gradient chains the estimate's embedding gradient into each
    component: d/d alpha_i = sum over batch rows of <dI/dU(alpha), U_i>.
    Classifiers are not touched. A non-finite estimate raises RuntimeError
    naming the model's attribute.
    """
    k = len(component_rows)
    batch = sum(w * r for w, r in zip(alpha, component_rows))
    total = 0.0
    grad_alpha = np.zeros(k)
    grad_batch = np.zeros_like(batch)
    for t, model in enumerate(models):
        estimate, grad_rows = mi.contrastive_step(model, batch, batch_labels[t])
        if not np.isfinite(estimate):
            raise RuntimeError(f"non-finite MI estimate for {model.attribute!r}")
        total += estimate
        grad_batch += grad_rows
        for i in range(k):
            grad_alpha[i] += float(np.sum(grad_rows * component_rows[i]))
    return total, grad_alpha, grad_batch


def _classifiers(d: int, names: list[str], cards: list[int], config, tag: str) -> list:
    """One fresh classifier per attribute, seeded from (config.seed, tag:name)."""
    return [
        mi.make_variational_model(
            d, card, seed=_attribute_seed(config.seed, f"{tag}:{name}"),
            learning_rate=config.variational_lr, attribute=name,
        )
        for name, card in zip(names, cards)
    ]


def _weight_step(models: list, mats: list, labels: list, alpha: np.ndarray, idx: np.ndarray):
    """One ascent step per classifier on the combined rows ``idx``, then the
    summed estimate there and its alpha and batch-row gradients."""
    rows = [m[idx] for m in mats]
    batch = sum(w * r for w, r in zip(alpha, rows))
    batch_labels = [lab[idx] for lab in labels]
    for model, lab in zip(models, batch_labels):
        mi.fit_variational_step(model, batch, lab)
    return summed_estimate_and_alpha_gradient(models, rows, batch_labels, alpha)


def optimize_weights(
    mats: list[np.ndarray],
    attributes: list[tuple[str, np.ndarray, int]],
    config: CombinationConfig,
) -> CombinationResult:
    """Descend the summed MI estimate over the simplex weights of the
    calibrated matrices ``mats``, one per attribute entry.

    Weights start uniform. Per iteration: sample a batch of combined rows,
    one ascent step for each attribute's classifier, then a plain gradient
    step on the weights followed by the softmax projection. The weight
    gradient is the batch inner product between the estimate's embedding
    gradient and each component matrix. Returns the weights, the release
    (the matrices combined under them) and the per-iteration summed
    estimate and weight traces.
    """
    if len(mats) == 0:
        raise ValueError("need at least one calibrated embedding")
    if len(mats) != len(attributes):
        raise ValueError("one attribute entry per calibrated embedding required")
    names, labels, cards = _label_arrays(attributes)
    n, d = mats[0].shape
    for lab in labels:
        if len(lab) != n:
            raise ValueError("labels do not cover all users")
    k = len(mats)

    rng = np.random.default_rng(_attribute_seed(config.seed, "|".join(names)))
    models = _classifiers(d, names, cards, config, "phi")
    alpha = np.full(k, 1.0 / k)
    sampler = mi.BatchSampler(n, config.batch_size, rng) if config.iterations else None

    mi_trace, alpha_trace = [], []
    for _ in range(config.iterations):
        total, grad_alpha, _ = _weight_step(models, mats, labels, alpha, sampler.next_batch())
        alpha = project_simplex_softmax(alpha - config.step_size * grad_alpha)
        mi_trace.append(total)
        alpha_trace.append(alpha.copy())

    return CombinationResult(
        alpha=alpha,
        embeddings=combine(mats, alpha),
        attributes=names,
        mi_trace=np.array(mi_trace),
        alpha_trace=np.array(alpha_trace) if alpha_trace else np.empty((0, k)),
    )


def average_combination(
    mats: list[np.ndarray],
    attributes: list[tuple[str, np.ndarray, int]] | None = None,
) -> CombinationResult:
    """Uniform-weight ablation: plain average of the calibrated matrices.

    The result names the attributes only when their entries are given.
    """
    if len(mats) == 0:
        raise ValueError("need at least one calibrated embedding")
    alpha = np.full(len(mats), 1.0 / len(mats))
    names = [a[0] for a in attributes] if attributes is not None else []
    return CombinationResult(alpha=alpha, embeddings=combine(mats, alpha), attributes=names)


# the shared leakage protocol: per attribute, a fresh classifier fit for 2000
# steps at learning rate 1e-4 on batches of 256 rows, then estimates averaged
# over 2 shuffled full passes
_PROTOCOL_FIT_ITERATIONS = 2000
_PROTOCOL_BATCH_SIZE = 256
_PROTOCOL_PASSES = 2
_PROTOCOL_LEARNING_RATE = 1e-4


def summed_mi_estimate(
    U: np.ndarray, attributes: list[tuple[str, np.ndarray, int]], seed: int
) -> float:
    """Shared protocol for comparing embeddings by total leakage.

    Fits a fresh classifier per attribute on U for a fixed budget
    (``_PROTOCOL_*``), then averages batch estimates over full passes and
    sums across attributes. Identical seeds give identical values for
    identical U. The deliberately small learning rate caps total weight
    movement, which keeps the fit from memorizing individual rows and
    inflating the contrastive estimate.
    """
    names, labels, cards = _label_arrays(attributes)
    total = 0.0
    for name, lab, card in zip(names, labels, cards):
        s = _attribute_seed(seed, f"eval:{name}")
        model = mi.make_variational_model(
            U.shape[1], card, seed=s, learning_rate=_PROTOCOL_LEARNING_RATE, attribute=name
        )
        rng = np.random.default_rng(s + 1)
        mi.fit_variational(model, U, lab, _PROTOCOL_FIT_ITERATIONS, _PROTOCOL_BATCH_SIZE, rng)
        total += mi.mi_over_embedding(model, U, lab, _PROTOCOL_BATCH_SIZE, _PROTOCOL_PASSES, rng)
    return total


def joint_unlearn(
    U0: np.ndarray,
    attributes: list[tuple[str, np.ndarray, int]],
    config: CalibrationConfig,
    alpha_step: float = 1e-2,
    eps: float | None = None,
) -> tuple[list[np.ndarray], np.ndarray, float]:
    """End-to-end comparator: alternate ball-projected updates of every
    component matrix with softmax-projected weight updates against the summed
    estimate. Returns (component matrices, weights, total leakage of the
    combination under the shared protocol).

    Component gradients carry an alpha factor (about 1/k each), so the budget
    is k * config.iterations to match the per-component movement the two-step
    pipeline gets; this compares optima rather than step counts.
    """
    names, labels, cards = _label_arrays(attributes)
    k = len(names)
    if k == 0:
        raise ValueError("need at least one attribute")
    n, d = U0.shape
    if eps is None:
        eps = config.eps_ratio * n
    iterations = k * config.iterations

    rng = np.random.default_rng(_attribute_seed(config.seed, "joint:" + "|".join(names)))
    models = _classifiers(d, names, cards, config, "joint-phi")
    descents = [BallDescent(U0, eps, config.step_size) for _ in range(k)]
    mats = [descent.U for descent in descents]  # updated in place
    alpha = np.full(k, 1.0 / k)
    sampler = mi.BatchSampler(n, config.batch_size, rng) if iterations else None

    for _ in range(iterations):
        idx = sampler.next_batch()
        _, grad_alpha, grad_batch = _weight_step(models, mats, labels, alpha, idx)
        for a, descent in zip(alpha, descents):
            descent.step(idx, a * grad_batch)
        alpha = project_simplex_softmax(alpha - alpha_step * grad_alpha)

    combined = combine(mats, alpha)
    p2 = summed_mi_estimate(combined, attributes, seed=config.seed)
    return mats, alpha, p2


def bound_check(
    U0: np.ndarray,
    mats: list[np.ndarray],
    attributes: list[tuple[str, np.ndarray, int]],
    calib_config: CalibrationConfig,
    comb_config: CombinationConfig,
) -> BoundCheckReport:
    """Empirical two-step vs joint comparison under a shared leakage protocol.
    ``mats`` are U0's calibrations under ``calib_config``, one per attribute."""
    if len(attributes) < 2:
        raise ValueError("bound check needs at least 2 attributes")
    two_step = optimize_weights(mats, attributes, comb_config)
    p1 = summed_mi_estimate(two_step.embeddings, attributes, seed=calib_config.seed)
    _, _, p2 = joint_unlearn(U0, attributes, calib_config, alpha_step=comb_config.step_size)
    return BoundCheckReport(
        p1=p1,
        p2=p2,
        gap=p1 - p2,
        eps=calib_config.eps_ratio * len(U0),
        k=len(attributes),
        c_norm=float(np.linalg.norm(U0)),
    )
