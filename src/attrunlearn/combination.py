"""Step 2: merge per-attribute calibrated embeddings under simplex weights.

The weights are optimized against the summed contrastive MI estimate across
all requested attributes, with a softmax projection keeping them on the
simplex. Also houses :func:`contrastive_descent`, the one descent loop that
calibration, the weight fit and the end-to-end joint optimizer run, the
averaging ablation, and the empirical two-step-vs-joint gap check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import mi
from .calibration import BallDescent, CalibrationConfig, CalibrationError, _attribute_seed
from .store import checked_fields


@dataclass
class CombinationConfig:
    iterations: int = 500
    batch_size: int = 256
    step_size: float = 1e-2  # plain gradient step on the weights
    variational_lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        checked_fields(self, {"iterations": 0, "batch_size": 2},
                       positive=("step_size", "variational_lr"))


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
    return _weighted_sum(alpha, embeddings)


def _label_arrays(attributes: list[tuple[str, np.ndarray, int]]):
    names = [a[0] for a in attributes]
    labels = [np.asarray(a[1], dtype=np.int64) for a in attributes]
    cards = [int(a[2]) for a in attributes]
    return names, labels, cards


def _weighted_sum(alpha, arrays: list[np.ndarray]) -> np.ndarray:
    """alpha-weighted sum of equally shaped arrays, begun at the first term."""
    out = alpha[0] * arrays[0]
    for w, a in zip(alpha[1:], arrays[1:]):
        out += w * a
    return out


def _contrastive_steps(models, batch, batch_labels, trace=()) -> tuple[float, list[np.ndarray]]:
    """Summed estimate on ``batch`` and each classifier's row gradient; a
    non-finite estimate raises CalibrationError carrying ``trace``."""
    steps = [mi.contrastive_step(m, batch, y) for m, y in zip(models, batch_labels)]
    for model, (estimate, _) in zip(models, steps):
        if not np.isfinite(estimate):
            raise CalibrationError(f"non-finite MI estimate for {model.attribute!r}", trace)
    return sum(e for e, _ in steps), [g for _, g in steps]


def _alpha_gradient(grads: list[np.ndarray], rows: list[np.ndarray]) -> np.ndarray:
    """d/d alpha_i = sum over classifiers t of <grads[t], rows[i]>."""
    return sum(np.array([np.sum(g * r) for r in rows]) for g in grads)


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
    Classifiers are not touched. A non-finite estimate raises a RuntimeError
    (:class:`CalibrationError`) naming the model's attribute.
    """
    total, grads = _contrastive_steps(models, _weighted_sum(alpha, component_rows), batch_labels)
    return total, _alpha_gradient(grads, component_rows), sum(grads[1:], grads[0])


def contrastive_descent(
    mats: list[np.ndarray], labels: list[np.ndarray], models: list,
    iterations: int, batch_size: int, seed: int, *, descents: list[BallDescent] = (),
    alpha_step: float | None = None, inner_steps: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The descent loop under calibration, the weight fit and the joint optimizer.

    Weights start uniform. Per iteration: sample a batch of users, combine
    the batch rows of ``mats`` under the weights, take ``inner_steps`` ascent
    steps per classifier (one per label array), then one contrastive step per
    classifier for the summed estimate and its batch-row gradient. Each
    :class:`BallDescent` in ``descents`` (their U are ``mats``) descends its
    rows along its weight times that gradient. Given ``alpha_step`` the
    weights take a gradient step and the softmax projection; else no weight
    gradient is formed, and one matrix enters every step exactly (weight 1.0).

    Returns the weights, then per iteration the summed estimate, the last
    NLL per classifier and the distance per descent (both iteration-major)
    and the weights, (iterations, k). A non-finite estimate raises
    :class:`CalibrationError`.
    """
    alpha = np.full(len(mats), 1.0 / len(mats))
    sampler = mi.BatchSampler(len(mats[0]), batch_size, np.random.default_rng(seed))
    mi_trace, nll_trace, dist_trace, alpha_trace = [], [], [], []
    for _ in range(iterations):
        idx = sampler.next_batch()
        rows = [m[idx] for m in mats]
        batch = _weighted_sum(alpha, rows)
        batch_labels = [lab[idx] for lab in labels]
        for _ in range(inner_steps):
            nlls = [mi.fit_variational_step(m, batch, y) for m, y in zip(models, batch_labels)]
        total, grads = _contrastive_steps(models, batch, batch_labels, mi_trace)
        if descents:
            grad = sum(grads[1:], grads[0])
            dist_trace += [descent.step(idx, a * grad) for a, descent in zip(alpha, descents)]
        if alpha_step is not None:
            alpha = project_simplex_softmax(alpha - alpha_step * _alpha_gradient(grads, rows))
            alpha_trace.append(alpha)
        mi_trace.append(total)
        nll_trace += nlls
    return (alpha, np.array(mi_trace), np.array(nll_trace), np.array(dist_trace),
            np.array(alpha_trace).reshape(len(alpha_trace), len(alpha)))


def _classifiers(d: int, names: list[str], cards: list[int], config, tag: str) -> list:
    """One fresh classifier per attribute, seeded from (config.seed, tag:name)."""
    return [
        mi.make_variational_model(
            d, card, seed=_attribute_seed(config.seed, f"{tag}:{name}"),
            learning_rate=config.variational_lr, attribute=name,
        )
        for name, card in zip(names, cards)
    ]


def optimize_weights(
    mats: list[np.ndarray],
    attributes: list[tuple[str, np.ndarray, int]],
    config: CombinationConfig,
) -> CombinationResult:
    """Descend the summed MI estimate over the simplex weights of the
    calibrated matrices ``mats``, one per attribute entry.

    Weights start uniform. Per iteration of :func:`contrastive_descent`: one
    ascent step for each attribute's classifier on a batch of combined rows,
    then a plain gradient step on the weights (the batch inner product of
    the estimate's row gradient with each component) and the softmax
    projection. Returns the weights, the release (the matrices combined
    under them) and the per-iteration summed estimate and weight traces.

    With one matrix the weight is 1.0 at every step (the softmax projection
    of a length-1 vector is exactly [1.0]), so no classifier is built, no
    iteration runs and both traces are empty.
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
    if len(mats) == 1:
        return CombinationResult(np.ones(1), combine(mats, np.ones(1)), names)
    models = _classifiers(d, names, cards, config, "phi")
    alpha, mi_trace, _, _, alpha_trace = contrastive_descent(
        mats, labels, models, config.iterations, config.batch_size,
        _attribute_seed(config.seed, "|".join(names)), alpha_step=config.step_size,
    )
    return CombinationResult(alpha, combine(mats, alpha), names, mi_trace, alpha_trace)


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
) -> tuple[list[np.ndarray], np.ndarray, float]:
    """End-to-end comparator: alternate ball-projected updates of every
    component matrix with softmax-projected weight updates against the summed
    estimate. Returns (component matrices, weights, total leakage of the
    combination under the shared protocol).

    Component gradients carry an alpha factor (about 1/k each), so the budget
    is k * config.iterations to match the per-component movement the two-step
    pipeline gets; this compares optima rather than step counts. Each
    iteration takes one classifier ascent step, whatever ``config.inner_steps``
    is.
    """
    names, labels, cards = _label_arrays(attributes)
    k = len(names)
    if k == 0:
        raise ValueError("need at least one attribute")
    n, d = U0.shape
    models = _classifiers(d, names, cards, config, "joint-phi")
    descents = [BallDescent(U0, config.eps_ratio * n, config.step_size) for _ in range(k)]
    mats = [descent.U for descent in descents]  # updated in place
    alpha, *_ = contrastive_descent(
        mats, labels, models, k * config.iterations, config.batch_size,
        _attribute_seed(config.seed, "joint:" + "|".join(names)),
        descents=descents, alpha_step=alpha_step,
    )
    p2 = summed_mi_estimate(combine(mats, alpha), attributes, seed=config.seed)
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
