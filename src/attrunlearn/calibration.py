"""Step 1 of the unlearning pipeline: per-attribute embedding calibration.

Alternates one classifier likelihood-ascent step with one embedding descent
step on the contrastive MI estimate, projecting back onto the Frobenius
epsilon-ball around the original embeddings after every update. With the
default one ascent step, an iteration runs the classifier forward twice: once
in :func:`mi.fit_variational_step` and once in :func:`mi.contrastive_step`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import mi
from .nets import OptimizerState, optimizer_step


@dataclass
class CalibrationConfig:
    eps_ratio: float = 0.5  # epsilon = eps_ratio * n_users
    iterations: int = 2000
    batch_size: int = 256
    step_size: float = 1e-3  # Adam lr for the embeddings
    variational_lr: float = 1e-4
    inner_steps: int = 1  # classifier steps per embedding step
    seed: int = 0

    def __post_init__(self):
        # the chained comparisons are false for NaN as well
        if not 0 <= self.eps_ratio < np.inf:
            raise ValueError(f"'eps_ratio' must be finite and >= 0, got {self.eps_ratio!r}")
        for key in ("step_size", "variational_lr"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key!r} must be finite and > 0, got {getattr(self, key)!r}")
        if self.iterations < 0 or self.batch_size < 2 or self.inner_steps < 1:
            raise ValueError("bad iterations/batch_size/inner_steps")

    def hash(self) -> str:
        """First 16 hex digits of SHA-256 over the fields as sorted-key JSON;
        it keys the store's calibrated matrices."""
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class CalibrationResult:
    embeddings: np.ndarray  # calibrated user matrix
    attribute: str
    mi_trace: np.ndarray
    nll_trace: np.ndarray
    distance_trace: np.ndarray  # Frobenius distance to the original, post-projection
    config_hash: str


class CalibrationError(RuntimeError):
    def __init__(self, message: str, trace: list[float]):
        super().__init__(f"{message}; MI trace tail: {trace[-10:]}")
        self.trace = trace


def project_ball(U: np.ndarray, U0: np.ndarray, eps: float) -> np.ndarray:
    """Project onto the Frobenius ball of radius eps centred at U0.

    Inside the ball the input is returned unchanged (the same object), so the
    operation is bitwise idempotent.
    """
    if U.shape != U0.shape:
        raise ValueError(f"shape mismatch {U.shape} vs {U0.shape}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    diff = U - U0
    norm = float(np.linalg.norm(diff))
    # the 1e-12 relative slack keeps re-projection bitwise idempotent despite
    # rounding in the rescale below (well inside the 1e-9 feasibility tolerance)
    if norm <= eps * (1.0 + 1e-12):
        return U
    if eps == 0.0:
        return U0.copy()
    return U0 + (eps / norm) * diff


def descend_rows(
    opt: OptimizerState, U: np.ndarray, U0: np.ndarray, eps: float,
    idx: np.ndarray, grad_rows: np.ndarray,
) -> np.ndarray:
    """One Adam step on U in place, with ``grad_rows`` on rows ``idx`` and zero
    elsewhere; returns the projection onto the eps-ball around U0."""
    full_grad = np.zeros_like(U)
    full_grad[idx] = grad_rows
    optimizer_step(opt, [U], [full_grad])
    return project_ball(U, U0, eps)


def _attribute_seed(base_seed: int, attribute: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{attribute}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def calibrate(
    U0: np.ndarray,
    labels: np.ndarray,
    config: CalibrationConfig,
    attribute: str = "attr",
    cardinality: int | None = None,
) -> CalibrationResult:
    """Remove one attribute's information from a copy of U0.

    Per iteration: sample a batch, take ``inner_steps`` classifier ascent
    steps, evaluate the batch MI estimate and its row gradient in one
    contrastive step, descend the sampled embedding rows through Adam, then
    project onto the epsilon-ball. Never mutates U0 or the labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(U0):
        raise ValueError(f"{len(labels)} labels for {len(U0)} users")
    if cardinality is None:
        cardinality = int(labels.max()) + 1
    if not np.all(np.isfinite(U0)):
        raise ValueError("U0 has non-finite entries")

    n, d = U0.shape
    eps = config.eps_ratio * n
    seed = _attribute_seed(config.seed, attribute)
    rng = np.random.default_rng(seed)
    model = mi.make_variational_model(
        d, cardinality, seed=seed + 1, learning_rate=config.variational_lr, attribute=attribute
    )
    U = U0.copy()
    emb_opt = OptimizerState(learning_rate=config.step_size)
    sampler = mi.BatchSampler(n, config.batch_size, rng) if config.iterations else None

    mi_trace: list[float] = []
    nll_trace: list[float] = []
    dist_trace: list[float] = []
    for _ in range(config.iterations):
        idx = sampler.next_batch()
        batch, batch_labels = U[idx], labels[idx]
        for _ in range(config.inner_steps):
            nll = mi.fit_variational_step(model, batch, batch_labels)
        estimate, grad_rows = mi.contrastive_step(model, batch, batch_labels)
        if not np.isfinite(estimate):
            raise CalibrationError(f"non-finite MI estimate for {attribute!r}", mi_trace)
        U = descend_rows(emb_opt, U, U0, eps, idx, grad_rows)
        mi_trace.append(estimate)
        nll_trace.append(nll)
        dist_trace.append(float(np.linalg.norm(U - U0)))

    return CalibrationResult(
        embeddings=U,
        attribute=attribute,
        mi_trace=np.array(mi_trace),
        nll_trace=np.array(nll_trace),
        distance_trace=np.array(dist_trace),
        config_hash=config.hash(),
    )


def trace_to_csv(result: CalibrationResult, path) -> None:
    """Emit the optimization trace as (iteration, mi, nll, distance) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mi_estimate", "nll", "distance"])
        for i, (m, nl, dist) in enumerate(
            zip(result.mi_trace, result.nll_trace, result.distance_trace)
        ):
            writer.writerow([i, f"{m:.10g}", f"{nl:.10g}", f"{dist:.10g}"])
