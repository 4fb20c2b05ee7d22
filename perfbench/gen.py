"""Seeded input generators for the benchmark workloads.

Every generator writes MovieLens-format files (ML-100K ``u.data``/``u.user``
or ML-1M ``ratings.dat``/``users.dat``) that the program's own loaders parse.
Sizes never depend on the seed: the seed only changes which users like which
items and which labels they carry, so run-to-run timing differences come from
the machine, not from the inputs.

Attributes are planted the way the test suite's ML-100K surrogate plants
them: most of each attribute's signal sits in one shared low-dimensional
subspace, small private blocks keep each attribute identifiable, and the rest
of every user vector is attribute-free taste. Item choice follows the user
vectors through a Gumbel-perturbed ranking.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ML100K_OCCUPATIONS = (
    "administrator", "artist", "doctor", "educator", "engineer",
    "entertainment", "executive", "healthcare", "homemaker", "lawyer",
    "librarian", "marketing", "none", "other", "programmer", "retired",
    "salesman", "scientist", "student", "technician", "writer",
)
_OCC_BASE = {
    "student": 0.21, "other": 0.11, "educator": 0.10, "administrator": 0.08,
    "engineer": 0.07, "programmer": 0.07, "librarian": 0.05, "writer": 0.05,
    "executive": 0.03, "scientist": 0.03, "artist": 0.03, "technician": 0.03,
    "marketing": 0.03, "entertainment": 0.02, "healthcare": 0.02, "retired": 0.02,
    "salesman": 0.01, "lawyer": 0.01, "none": 0.01, "homemaker": 0.01, "doctor": 0.01,
}
ML1M_AGE_CODES = (1, 18, 25, 35, 45, 50, 56)  # binned <25 / 25-35 / >35

# Extra attributes of the request-stream workload: name -> cardinality.
EXTRA_ATTRIBUTES = {"region": 4, "income": 3, "device": 2}

# Sizes of each workload's inputs, independent of the seed.
ML100K = {"users": 943, "items": 1682, "ratings": 100_000}
STREAM = {"users": 3000, "items": 1200, "ratings_per_user": 30}
USERS60K = {"users": 60_000, "items": 1000, "ratings_per_user": 6}


def _categorical(rng, weights: np.ndarray) -> np.ndarray:
    """One draw per row of an (n, p) non-negative weight matrix."""
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    draws = rng.random(len(weights))[:, None]
    return np.minimum((cum < draws).sum(axis=1), weights.shape[1] - 1)


def _demographics(rng, n: int):
    """Gender (0=M, 1=F), age bin, and an occupation correlated with both."""
    gender = (rng.random(n) < 0.29).astype(np.int64)
    age_bin = rng.choice(3, size=n, p=[0.40, 0.36, 0.24])
    occ = np.tile([_OCC_BASE[o] for o in ML100K_OCCUPATIONS], (n, 1))
    col = {name: i for i, name in enumerate(ML100K_OCCUPATIONS)}
    young, old, female = age_bin == 0, age_bin == 2, gender == 1
    occ[young, col["student"]] *= 4.0
    occ[young, col["retired"]] *= 0.02
    occ[old, col["retired"]] *= 8.0
    occ[old, col["student"]] *= 0.05
    for name, factor in (("homemaker", 6.0), ("librarian", 3.0), ("healthcare", 3.0),
                         ("engineer", 0.25), ("programmer", 0.4)):
        occ[female, col[name]] *= factor
    occ[~female, col["homemaker"]] *= 0.05
    return gender, age_bin, _categorical(rng, occ)


def _class_means(rng, card: int, dims: int, scale: float) -> np.ndarray:
    """Class means whose between-class spread is the average one of iid N(0, scale^2)
    means, so that every seed plants an attribute equally strongly."""
    means = rng.standard_normal((card, dims))
    means -= means.mean(axis=0)
    target = scale * np.sqrt(dims * (card - 1) / card)
    return means * (target / np.sqrt((means**2).sum(axis=1).mean()))


def _user_vectors(rng, planted, shared_dims=4, private_scale=0.35, block_noise=0.5,
                  taste_dims=12) -> np.ndarray:
    """Unit-RMS user vectors; ``planted`` lists (labels, cardinality, scale, width)."""
    n = len(planted[0][0])
    shared = block_noise * rng.standard_normal((n, shared_dims))
    blocks = []
    for labels, card, scale, width in planted:
        shared += _class_means(rng, card, shared_dims, scale)[labels]
        means = _class_means(rng, card, width, private_scale * scale)
        blocks.append(means[labels] + block_noise * rng.standard_normal((n, width)))
    blocks.append(shared)
    blocks.append(rng.standard_normal((n, taste_dims)))
    z = np.hstack(blocks)
    return z / np.sqrt((z**2).mean())


def _exact_counts(rng, raw: np.ndarray, total: int, lo: int, hi: int) -> np.ndarray:
    """Round per-user counts to integers in [lo, hi] that sum to exactly ``total``."""
    counts = np.clip(np.round(raw * total / raw.sum()), lo, hi).astype(np.int64)
    while counts.sum() != total:
        step = 1 if counts.sum() < total else -1
        room = counts < hi if step > 0 else counts > lo
        pick = rng.choice(np.flatnonzero(room), size=min(abs(total - counts.sum()), room.sum()),
                          replace=False)
        counts[pick] += step
    return counts


def _choose_items(rng, z, items, counts, choice_noise, chunk=4000):
    """Each user's ``counts[u]`` favourite items under Gumbel-perturbed scores.

    Scores are standardized per user. Everything is float32, which keeps the
    60k-user set quick to write.
    """
    users, chosen = [], []
    items32 = items.T.astype(np.float32)
    for start in range(0, len(z), chunk):
        scores = z[start : start + chunk].astype(np.float32) @ items32
        scores -= scores.mean(axis=1, keepdims=True)
        scores /= scores.std(axis=1, keepdims=True)
        uniform = np.maximum(rng.random(scores.shape, dtype=np.float32), np.float32(1e-37))
        scores -= np.float32(choice_noise) * np.log(-np.log(uniform))
        cnt = counts[start : start + chunk]
        top = int(cnt.max())
        part = np.argpartition(-scores, top - 1, axis=1)[:, :top]
        best = np.argsort(-np.take_along_axis(scores, part, axis=1), axis=1, kind="stable")
        order = np.take_along_axis(part, best, axis=1)
        mask = np.arange(top)[None, :] < cnt[:, None]
        users.append(np.repeat(np.arange(start, start + len(cnt)), cnt))
        chosen.append(order[mask])
    return np.concatenate(users), np.concatenate(chosen)


def _rating_rows(rng, users, chosen):
    """(user, item, rating, timestamp) rows, 1-based ids, in shuffled order."""
    stamps = 874_000_000 + rng.integers(0, 2_000_000, size=len(users))
    ratings = rng.integers(1, 6, size=len(users))
    order = rng.permutation(len(users))
    return np.column_stack([users + 1, chosen + 1, ratings, stamps])[order]


def _write_lines(path: Path, rows: np.ndarray, sep: str, header: str = "") -> None:
    line = sep.join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + (line * len(rows)) % tuple(rows.ravel().tolist()))


def write_ml100k(directory, seed: int) -> dict:
    """ML-100K surrogate: 943 users, 1682 items, exactly 100,000 ratings."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 100])
    n, m = ML100K["users"], ML100K["items"]
    gender, age_bin, occupation = _demographics(rng, n)
    lo = np.array([18, 28, 41])[age_bin]
    hi = np.array([28, 41, 70])[age_bin]
    ages = rng.integers(lo, hi)
    z = _user_vectors(rng, [(gender, 2, 0.5, 2), (age_bin, 3, 0.5, 2), (occupation, 21, 0.5, 3)])
    items = rng.standard_normal((m, z.shape[1]))
    counts = _exact_counts(rng, np.clip(rng.lognormal(4.35, 0.65, n), 20, 700),
                           ML100K["ratings"], 20, 700)
    users, chosen = _choose_items(rng, z, items, counts, choice_noise=0.5)
    _write_lines(directory / "u.data", _rating_rows(rng, users, chosen), "\t")
    with open(directory / "u.user", "w") as fh:
        fh.write("".join(
            f"{u + 1}|{ages[u]}|{'F' if gender[u] else 'M'}|"
            f"{ML100K_OCCUPATIONS[occupation[u]]}|00000\n"
            for u in range(n)
        ))
    return {"ratings": directory / "u.data", "users": directory / "u.user"}


def _write_ml1m(directory, rng, n, m, per_user, planted_extra, choice_noise):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    gender, age_bin, occupation = _demographics(rng, n)
    codes = np.array(ML1M_AGE_CODES)
    age_code = np.where(age_bin == 0, codes[rng.integers(0, 2, n)],
                        np.where(age_bin == 1, codes[rng.integers(2, 4, n)],
                                 codes[rng.integers(4, 7, n)]))
    extra = {name: rng.integers(0, card, n) for name, card in planted_extra.items()}
    planted = [(gender, 2, 0.5, 2), (age_bin, 3, 0.5, 2), (occupation, 21, 0.5, 3)]
    planted += [(labels, planted_extra[name], 0.6, 2) for name, labels in extra.items()]
    z = _user_vectors(rng, planted)
    items = rng.standard_normal((m, z.shape[1]))
    counts = np.full(n, per_user, dtype=np.int64)
    users, chosen = _choose_items(rng, z, items, counts, choice_noise)
    _write_lines(directory / "ratings.dat", _rating_rows(rng, users, chosen), "::")
    with open(directory / "users.dat", "w") as fh:
        fh.write("".join(
            f"{u + 1}::{'F' if gender[u] else 'M'}::{age_code[u]}::{occupation[u]}::00000\n"
            for u in range(n)
        ))
    paths = {"ratings": directory / "ratings.dat", "users": directory / "users.dat"}
    if extra:
        names = list(extra)
        rows = np.column_stack([np.arange(1, n + 1)] + [extra[k] for k in names])
        _write_lines(directory / "extra.dat", rows, "::", "::".join(["user"] + names) + "\n")
        paths["extra"] = directory / "extra.dat"
    return paths


def write_stream(directory, seed: int) -> dict:
    """ML-1M-format set of 3000 users with three extra planted attributes."""
    rng = np.random.default_rng([seed, 200])
    return _write_ml1m(directory, rng, STREAM["users"], STREAM["items"],
                       STREAM["ratings_per_user"], EXTRA_ATTRIBUTES, choice_noise=0.5)


def write_users60k(directory, seed: int) -> dict:
    """ML-1M-format set of 60,000 users with 6 ratings each over 1000 items."""
    rng = np.random.default_rng([seed, 300])
    return _write_ml1m(directory, rng, USERS60K["users"], USERS60K["items"],
                       USERS60K["ratings_per_user"], {}, choice_noise=0.5)


def read_extra(path) -> dict[str, np.ndarray]:
    """Parse ``extra.dat``: a header of column names, then one row per raw user id."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("::")
        rows = np.array([line.rstrip("\n").split("::") for line in fh], dtype=np.int64)
    return {name: rows[:, i] for i, name in enumerate(header)}
