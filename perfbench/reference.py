"""Checks of the program's outputs, computed apart from the program.

Nothing here imports the package under test: files are parsed from their
documented byte layouts, rankings are recomputed with a vectorised formula,
and request counts are derived from the script alone. Each check returns a
list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

STORE_MAGIC = b"LEGOEMB1"
CHECKPOINT_MAGIC = b"LEGOCF01"


def digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype="<f8").tobytes()).hexdigest()


def read_store_file(path) -> np.ndarray:
    """Parse magic, u32 n, u32 d, float64 rows and the 8-byte SHA-256 prefix checksum."""
    raw = Path(path).read_bytes()
    head = len(STORE_MAGIC) + 8
    if len(raw) < head + 8 or raw[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise ValueError(f"{path}: not an embedding file")
    n, d = struct.unpack("<II", raw[len(STORE_MAGIC) : head])
    if len(raw) != head + 8 * n * d + 8:
        raise ValueError(f"{path}: {len(raw)} bytes for a {n}x{d} matrix")
    if hashlib.sha256(raw[:-8]).digest()[:8] != raw[-8:]:
        raise ValueError(f"{path}: checksum mismatch")
    return np.frombuffer(raw[head:-8], dtype="<f8").reshape(n, d)


def read_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse magic, u32 n, u32 m, u32 d, then user rows and item rows."""
    raw = Path(path).read_bytes()
    head = len(CHECKPOINT_MAGIC) + 12
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    n, m, d = struct.unpack("<III", raw[len(CHECKPOINT_MAGIC) : head])
    if len(raw) != head + 8 * (n + m) * d:
        raise ValueError(f"{path}: {len(raw)} bytes for {n}+{m} rows of {d}")
    values = np.frombuffer(raw[head:], dtype="<f8")
    return values[: n * d].reshape(n, d), values[n * d :].reshape(m, d)


def rank_metrics(users, items, train_pairs, test_items, k=10, chunk=2048):
    """Leave-one-out HR@k and NDCG@k, vectorised over blocks of users.

    Train items are masked out. A held-out item's rank is one plus the number
    of unmasked items that score higher, or score the same with a smaller id.
    Returns (hr, ndcg, ranks).
    """
    n = len(users)
    order = np.argsort(train_pairs[:, 0], kind="stable")
    pairs = train_pairs[order]
    bounds = np.searchsorted(pairs[:, 0], np.arange(n + 1))
    ids = np.arange(items.shape[0])
    ranks = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        scores = users[start:stop] @ items.T
        rows = pairs[bounds[start] : bounds[stop]]
        scores[rows[:, 0] - start, rows[:, 1]] = -np.inf
        test = test_items[start:stop]
        target = scores[np.arange(stop - start), test][:, None]
        ahead = (scores > target) | ((scores == target) & (ids[None, :] < test[:, None]))
        ranks[start:stop] = 1 + ahead.sum(axis=1)
    hit = ranks <= k
    gains = np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(hit.mean()), float(gains.mean()), ranks


def check_rank_report(reported: dict, expected_hr: float, expected_ndcg: float,
                      n_users: int) -> list[str]:
    """HR must match to the user; NDCG to rounding."""
    problems = []
    if round(reported["hr"] * n_users) != round(expected_hr * n_users):
        problems.append(f"HR@10 {reported['hr']} != reference {expected_hr}")
    if not abs(reported["ndcg"] - expected_ndcg) <= 1e-12 * max(1.0, expected_ndcg):
        problems.append(f"NDCG@10 {reported['ndcg']!r} != reference {expected_ndcg!r}")
    return problems


def check_attack_report(report: dict, attributes) -> list[str]:
    """One entry per attacked attribute, each BAcc and micro-F1 a finite percentage."""
    problems = []
    if set(report) - {"averages"} != set(attributes):
        problems.append(f"attack report names {sorted(set(report) - {'averages'})}, "
                        f"expected {sorted(attributes)}")
    for name in attributes:
        for key in ("bacc_mean", "f1_mean"):
            value = report.get(name, {}).get(key)
            if not (isinstance(value, float) and 0.0 <= value <= 100.0):
                problems.append(f"attack on {name!r}: {key} {value!r} is not a percentage")
    return problems


def check_simplex(alpha, k: int) -> list[str]:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (k,):
        return [f"{len(alpha)} weights for {k} attributes"]
    if not np.all(np.isfinite(alpha)) or not np.all(alpha > 0):
        return [f"weights {alpha.tolist()} not all positive and finite"]
    if abs(alpha.sum() - 1.0) > 1e-9:
        return [f"weights sum to {alpha.sum()!r}"]
    return []


def check_combination(release, components, alpha) -> list[str]:
    """The release must equal sum_i alpha_i * U_i over the stored components."""
    expected = np.tensordot(np.asarray(alpha, dtype=np.float64), np.stack(components), axes=1)
    if release.shape != expected.shape:
        return [f"release shape {release.shape} != {expected.shape}"]
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(release - expected).max())
    if not err <= 1e-12 * scale * len(components):
        return [f"release differs from the weighted sum by {err:.3e}"]
    return []


def check_ball(calibrated, original, eps: float) -> list[str]:
    distance = float(np.sqrt(((calibrated - original) ** 2).sum()))
    if not distance <= eps * (1.0 + 1e-9):
        return [f"calibrated matrix lies {distance!r} from the original, radius {eps!r}"]
    return []


def expected_counts(script) -> list[tuple[int, int]]:
    """(calibrations, cache hits) each request must report, from the script alone."""
    seen: set[str] = set()
    out = []
    for request in script:
        names = set(request)
        out.append((len(names - seen), len(names & seen)))
        seen |= names
    return out


def check_counts(script, reports) -> list[str]:
    """Each report's calibrations and cache hits must follow from the script."""
    problems = []
    for i, (request, want, report) in enumerate(zip(script, expected_counts(script), reports)):
        if report is None:
            continue
        got = (report["calibrations_executed"], report["cache_hits"])
        if got != want:
            problems.append(f"request {i} {sorted(request)}: (calibrations, hits) {got} != {want}")
    return problems


def store_entries(directory) -> dict[str, tuple[str, np.ndarray]]:
    """attribute -> (key, matrix) for every entry the store's manifest lists."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    out = {}
    for key, entry in manifest.items():
        if entry["file"] != hashlib.sha256(key.encode()).hexdigest()[:24] + ".emb":
            raise ValueError(f"store entry {key!r} is filed as {entry['file']}")
        matrix = read_store_file(directory / entry["file"])
        if matrix.shape != (entry["n"], entry["d"]):
            raise ValueError(f"store entry {key!r}: manifest shape disagrees with the file")
        out[key.split("__")[1]] = (key, matrix)
    return out
