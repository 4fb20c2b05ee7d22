"""Matrix-factorization recommender trained with a pairwise ranking loss.

The unlearning pipeline is model-agnostic and only ever consumes the user
embedding matrix; item embeddings stay frozen once training ends.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .nets import OptimizerState, optimizer_step
from .store import atomic_write, checked_fields

CHECKPOINT_MAGIC = b"LEGOCF01"
_L2_WEIGHT = 1e-5  # BPR's L2 penalty on the embedding rows of each batch


@dataclass(frozen=True)
class CFTrainConfig:
    dim: int = 32
    epochs: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        checked_fields(self, {"dim": 1, "epochs": 0, "batch_size": 1, "seed": 0},
                       positive=("learning_rate",))


@dataclass
class CFModel:
    user_embeddings: np.ndarray  # (N, d)
    item_embeddings: np.ndarray  # (M, d)
    train_diagnostics: dict | None = None

    @property
    def dim(self) -> int:
        return self.user_embeddings.shape[1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pairwise_loss(
    user_emb: np.ndarray, item_emb: np.ndarray, triples: np.ndarray
) -> float:
    """Mean -log sigmoid(s_ui - s_uj) over (user, pos, neg) triples."""
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    x = np.einsum("nd,nd->n", user_emb[u], item_emb[i] - item_emb[j])
    # -log sigmoid(x) = log(1 + exp(-x)), stable form
    return float(np.logaddexp(0.0, -x).mean())


def _membership_bitmap(pairs: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """Packed bit set of (user, item) pairs: bit u*n_items+i, N*M/8 bytes."""
    keys = pairs[:, 0].astype(np.int64) * n_items + pairs[:, 1]
    bits = np.zeros((n_users * n_items + 7) // 8, dtype=np.uint8)
    np.bitwise_or.at(bits, keys >> 3, (1 << (keys & 7)).astype(np.uint8))
    return bits


def _sample_negatives(
    rng: np.random.Generator, users: np.ndarray, n_items: int, positives: np.ndarray
) -> np.ndarray:
    """Uniform item draws, redrawn (up to 20 rounds) where ``positives`` has the pair."""
    neg = rng.integers(0, n_items, size=len(users))
    base = users.astype(np.int64) * n_items
    for _ in range(20):
        keys = base + neg
        bad = ((positives[keys >> 3] >> (keys & 7)) & 1).astype(bool)
        if not bad.any():
            break
        neg[bad] = rng.integers(0, n_items, size=int(bad.sum()))
    return neg


def _sum_rows(index: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``index`` (ascending, all below ``n``) and, per
    row, the sum of its ``values`` rows, added from 0.0 in batch order: bitwise
    what ``np.add.at`` scatters into a zero table."""
    counts = np.bincount(index, minlength=n)
    rows = np.flatnonzero(counts)
    slot = np.empty(n, dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    d = values.shape[1]
    flat = (slot[index][:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=len(rows) * d)
    return rows, sums.reshape(len(rows), d)


def train_cf(dataset: InteractionDataset, config: CFTrainConfig) -> CFModel:
    """Train user/item embeddings with BPR-style sampled pairwise updates.

    Deterministic given the seed. Aborts on non-finite loss. The returned
    model carries a diagnostics dict with the pairwise loss on a fixed triple
    sample before and after training.
    """
    if len(dataset.train_pairs) == 0:
        raise ValueError("empty train set")
    rng = np.random.default_rng(config.seed)
    n, m, d = dataset.n_users, dataset.n_items, config.dim
    # one table, user rows then item rows, stepped under one Adam state
    table = 0.1 * rng.standard_normal((n + m, d))
    user_emb, item_emb = table[:n], table[n:]

    positives = _membership_bitmap(dataset.train_pairs, n, m)

    diag_idx = rng.integers(0, len(dataset.train_pairs), size=min(4096, len(dataset.train_pairs)))
    diag_pairs = dataset.train_pairs[diag_idx]
    diag_neg = _sample_negatives(rng, diag_pairs[:, 0], m, positives)
    diag_triples = np.column_stack([diag_pairs, diag_neg])
    initial_loss = pairwise_loss(user_emb, item_emb, diag_triples)

    state = OptimizerState(learning_rate=config.learning_rate)
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset.train_pairs))
        for start in range(0, len(order), config.batch_size):
            pairs = dataset.train_pairs[order[start : start + config.batch_size]]
            u, i = pairs[:, 0], pairs[:, 1]
            j = _sample_negatives(rng, u, m, positives)
            eu, ei, ej = user_emb[u], item_emb[i], item_emb[j]
            du = ei - ej
            x = np.einsum("nd,nd->n", eu, du)
            coeff = -_sigmoid(-x)[:, None] / len(u)  # d(mean loss)/dx, per row
            l2 = _L2_WEIGHT / len(u)
            # users, then the positives' item rows, then the negatives'
            rows, grads = _sum_rows(
                np.concatenate([u, n + i, n + j]),
                np.concatenate([coeff * du + l2 * eu, coeff * eu + l2 * ei, -coeff * eu + l2 * ej]),
                n + m,
            )
            optimizer_step(state, table, grads, rows=rows)
        loss = pairwise_loss(user_emb, item_emb, diag_triples)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged (loss={loss}) at epoch {len(epoch_losses)}")
        epoch_losses.append(loss)

    final_loss = epoch_losses[-1] if epoch_losses else initial_loss
    return CFModel(
        user_emb,
        item_emb,
        train_diagnostics={
            "initial_loss": initial_loss,
            "final_loss": final_loss,
            "epoch_losses": epoch_losses,
        },
    )


def save_model(model: CFModel, path) -> str:
    """Publish the checkpoint through ``atomic_write``; returns its bytes' hex SHA-256."""
    n, d = model.user_embeddings.shape
    m = model.item_embeddings.shape[0]
    chunks = (CHECKPOINT_MAGIC + struct.pack("<III", n, m, d),
              np.ascontiguousarray(model.user_embeddings, dtype="<f8"),
              np.ascontiguousarray(model.item_embeddings, dtype="<f8"))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    atomic_write(path, *chunks)
    return digest.hexdigest()


def load_model(path, sha256: str) -> CFModel:
    """Read a checkpoint; bytes whose hex SHA-256 is not ``sha256``, a bad magic or a
    length other than its header gives is a ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path}: checksum mismatch")
    head = len(CHECKPOINT_MAGIC) + 12
    if len(raw) < head or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    n, m, d = struct.unpack("<III", raw[len(CHECKPOINT_MAGIC) : head])
    if len(raw) != head + 8 * (n + m) * d:
        raise ValueError(f"{path}: {len(raw)} bytes for {n}+{m} rows of {d}")
    table = np.frombuffer(raw, dtype="<f8", offset=head).reshape(n + m, d).copy()
    return CFModel(table[:n], table[n:])
