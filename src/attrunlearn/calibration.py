"""Step 1 of the unlearning pipeline: per-attribute embedding calibration.

Calibration runs :func:`combination.contrastive_descent`, the one descent
loop, on one matrix under the weight 1.0: per iteration, ``inner_steps``
classifier ascent steps, then one embedding descent step on the contrastive MI
estimate, projected onto the Frobenius epsilon-ball around U0.

The descent step (:class:`BallDescent`) allocates no N x d array. Adam takes
the batch's gradient rows in row form, ``nets.optimizer_step(..., rows=...)``:
it decays the held moments, adds the gradient on the batch rows only and
updates through preallocated workspaces. Rows never touched are skipped until
half the table has been touched, which is exact: their moments and gradient
are zero, so a dense step leaves them bitwise unchanged. Apart from the ball
norm, the step thus costs the rows touched so far while iterations x batch
size < N/2, and O(N x d) after that. U - U0 lives in a buffer refreshed on the
changed rows; the ball test takes the norm of the whole buffer in row order
(a norm over the touched rows alone sums in another order), and inside the
ball that norm is also the step's distance. The result is bitwise the dense
step on an N x d gradient followed by :func:`project_ball`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import mi
from .nets import OptimizerState, optimizer_step
from .store import atomic_write, checked_fields


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
        checked_fields(self, {"eps_ratio": 0, "iterations": 0, "batch_size": 2, "inner_steps": 1},
                       positive=("step_size", "variational_lr"))

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
    """A non-finite MI estimate; ``trace`` holds the estimates of the iterations before it."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(f"{message}; MI trace tail: {trace[-10:]}")
        self.trace = trace


# relative slack of the ball test: it keeps re-projection bitwise idempotent
# despite rounding in the rescale (well inside the 1e-9 feasibility tolerance)
_BALL_SLACK = 1e-12


def _inside_ball(norm: float, eps: float) -> bool:
    return norm <= eps * (1.0 + _BALL_SLACK)


def project_ball(
    U: np.ndarray, U0: np.ndarray, eps: float,
    diff: np.ndarray | None = None, norm: float | None = None,
) -> np.ndarray:
    """Project onto the Frobenius ball of radius eps centred at U0.

    Inside the ball the input is returned unchanged (the same object), so the
    operation is bitwise idempotent. A caller that keeps ``diff`` = U - U0
    (and may pass its norm) gets the projection written into U and ``diff``
    in place instead of into new arrays.
    """
    if U.shape != U0.shape:
        raise ValueError(f"shape mismatch {U.shape} vs {U0.shape}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    in_place = diff is not None
    if not in_place:
        diff = U - U0
    if norm is None:
        norm = float(np.linalg.norm(diff))
    if _inside_ball(norm, eps):
        return U
    if not in_place:
        return U0.copy() if eps == 0.0 else U0 + (eps / norm) * diff
    if eps == 0.0:
        U[...] = U0
    else:
        np.add(U0, np.multiply(diff, eps / norm, out=U), out=U)
    np.subtract(U, U0, out=diff)
    return U


class BallDescent:
    """Adam descent of a copy of U0 (``U``) inside the eps-ball around U0,
    with U - U0 kept in ``diff``; the module docstring says why each step
    equals a dense Adam step followed by :func:`project_ball`."""

    def __init__(self, U0: np.ndarray, eps: float, step_size: float):
        self.U0, self.eps = U0, eps
        self.U = U0.copy()
        self.diff = np.zeros_like(U0)
        self.opt = OptimizerState(learning_rate=step_size)

    def step(self, idx: np.ndarray, grad_rows: np.ndarray) -> float:
        """One Adam step with ``grad_rows`` on the distinct rows ``idx``, then
        the projection; returns the distance of U from U0 after it."""
        U, U0, diff = self.U, self.U0, self.diff
        optimizer_step(self.opt, [U], [grad_rows], rows=[idx])
        changed = self.opt.held_rows(0)
        if changed is None:
            np.subtract(U, U0, out=diff)
        else:
            diff[changed] = U[changed] - U0[changed]
        norm = float(np.linalg.norm(diff))
        project_ball(U, U0, self.eps, diff=diff, norm=norm)
        # the norm is taken again only if the projection rescaled
        return norm if _inside_ball(norm, self.eps) else float(np.linalg.norm(diff))


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

    Per iteration of :func:`combination.contrastive_descent`: sample a batch,
    take ``inner_steps`` classifier ascent steps, evaluate the batch MI
    estimate and its row gradient in one contrastive step, descend the
    sampled rows through Adam, then project onto the epsilon-ball. Never
    mutates U0 or the labels.
    """
    from .combination import contrastive_descent  # combination imports this module

    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(U0):
        raise ValueError(f"{len(labels)} labels for {len(U0)} users")
    if cardinality is None:
        cardinality = int(labels.max()) + 1
    if not np.all(np.isfinite(U0)):
        raise ValueError("U0 has non-finite entries")

    n, d = U0.shape
    seed = _attribute_seed(config.seed, attribute)
    model = mi.make_variational_model(
        d, cardinality, seed=seed + 1, learning_rate=config.variational_lr, attribute=attribute
    )
    descent = BallDescent(U0, config.eps_ratio * n, config.step_size)
    _, mi_trace, nll_trace, dist_trace, _ = contrastive_descent(
        [descent.U], [labels], [model], config.iterations, config.batch_size, seed,
        descents=[descent], inner_steps=config.inner_steps,
    )
    return CalibrationResult(
        descent.U, attribute, mi_trace, nll_trace, dist_trace, config_hash=config.hash()
    )


def trace_to_csv(result: CalibrationResult, path) -> None:
    """Emit the optimization trace as (iteration, mi, nll, distance) CSV rows,
    each ended by CRLF as ``csv.writer`` ends them."""
    rows = enumerate(zip(result.mi_trace, result.nll_trace, result.distance_trace))
    text = "iteration,mi_estimate,nll,distance\r\n" + "".join(
        f"{i},{m:.10g},{nl:.10g},{dist:.10g}\r\n" for i, (m, nl, dist) in rows)
    atomic_write(path, text.encode())
