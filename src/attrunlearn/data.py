"""MovieLens-style ingestion: parsing, attribute binning, leave-one-out splits.

Also provides a synthetic generator with attributes planted as linear signal
in the user preference vectors, used as a controllable test bed.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

ML100K_OCCUPATIONS = (
    "administrator", "artist", "doctor", "educator", "engineer",
    "entertainment", "executive", "healthcare", "homemaker", "lawyer",
    "librarian", "marketing", "none", "other", "programmer", "retired",
    "salesman", "scientist", "student", "technician", "writer",
)


@dataclass
class RawRatings:
    ratings: np.ndarray  # (n, 4) int64 columns: user, item, rating, timestamp
    user_ids: np.ndarray  # (U,) int64, ascending and distinct
    ages: np.ndarray  # (U,) int64, one per user_ids entry
    genders: np.ndarray  # (U,) str, as written in the user file
    occupations: np.ndarray  # (U,) str, as written in the user file


@dataclass
class Attribute:
    name: str
    cardinality: int
    labels: np.ndarray  # (N,) ints in [0, cardinality)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.cardinality):
            raise ValueError(
                f"attribute {self.name!r}: labels outside [0, {self.cardinality})"
            )


@dataclass
class AttributeTable:
    attributes: list[Attribute]
    user_ids: np.ndarray  # raw user id per label row

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.attributes]

    def get(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise KeyError(f"unknown attribute {name!r}; have {self.names}")

    def subset(self, names) -> "AttributeTable":
        return AttributeTable([self.get(n) for n in names], self.user_ids)

    def entries(self, names=None) -> list[tuple[str, np.ndarray, int]]:
        """(name, labels, cardinality) per attribute (all, or ``names`` in order)."""
        chosen = self.attributes if names is None else [self.get(n) for n in names]
        return [(a.name, a.labels, a.cardinality) for a in chosen]

    def align(self, dataset: "InteractionDataset") -> "AttributeTable":
        """Reorder label rows to the dataset's dense user index."""
        missing = dataset.user_ids[~np.isin(dataset.user_ids, self.user_ids)]
        if len(missing):
            raise ValueError(f"no attribute labels for raw users {missing[:5].tolist()}")
        by_id = np.argsort(self.user_ids, kind="stable")
        # side="right" picks a repeated id's last row
        order = by_id[np.searchsorted(self.user_ids[by_id], dataset.user_ids, side="right") - 1]
        return AttributeTable(
            [Attribute(a.name, a.cardinality, a.labels[order]) for a in self.attributes],
            dataset.user_ids.copy(),
        )


@dataclass
class InteractionDataset:
    n_users: int
    n_items: int
    train_pairs: np.ndarray  # (T, 2) dense (user, item)
    test_items: np.ndarray  # (N,) dense item per user
    user_ids: np.ndarray  # dense -> raw
    item_ids: np.ndarray  # dense -> raw
    oracle_embeddings: np.ndarray | None = None  # synthetic generator only
    oracle_item_embeddings: np.ndarray | None = None

    def fingerprint(self) -> str:
        """Stable content hash used as a cache key component."""
        h = hashlib.sha256()
        h.update(np.int64([self.n_users, self.n_items]).tobytes())
        h.update(np.ascontiguousarray(self.train_pairs, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.test_items, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]

    def summary(self) -> dict:
        n_inter = len(self.train_pairs) + self.n_users
        return {
            "users": self.n_users,
            "items": self.n_items,
            "interactions": n_inter,
            "train_interactions": int(len(self.train_pairs)),
            "sparsity_percent": round(100.0 * (1.0 - n_inter / (self.n_users * self.n_items)), 3),
        }


def _parse_lines(path, sep: str, width: int, parse) -> list:
    """``parse(fields)`` for each non-empty line; errors name the file and line."""
    rows = []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append(parse(parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


_MAX_BULK_DIGITS = 18  # longer fields may not fit an int64; the line reader takes them


def _bulk_ints(text: str, sep: str, width: int) -> np.ndarray | None:
    """The (rows, width) integers of ``text`` if every non-empty line is
    ``width`` plain digit fields joined by ``sep``, else None.

    On such text this is bitwise what the line reader returns; anything
    else (signs, padding, a wrong field count, no rows) is left to it. Text
    that already holds a space goes to it too, since the bulk parse would
    read that space as a separator.
    """
    if " " in text:
        return None
    body = text.replace(sep, " ")
    b = np.frombuffer(body.encode("latin-1"), dtype=np.uint8)
    counts = np.bincount(b, minlength=256)
    if counts.sum() != counts[ord("0") : ord("9") + 1].sum() + counts[ord(" ")] + counts[ord("\n")]:
        return None
    seps = np.flatnonzero(b < ord("0"))  # the spaces and line breaks
    runs = np.diff(seps, prepend=-1, append=len(b)) - 1  # digits before each, and after the last
    space = b[seps] == ord(" ")
    if (runs[:-1][space] == 0).any() or (runs[1:][space] == 0).any():
        return None  # a space not between two fields
    ends = np.append(np.flatnonzero(~space), len(seps))  # the separator ending each line
    filled = runs[ends] > 0
    if (not filled.any() or runs.max() > _MAX_BULK_DIGITS
            or (np.diff(ends, prepend=-1) - 1 != (width - 1) * filled).any()):
        return None
    return np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, width)


def _parse_ratings(path, sep: str) -> np.ndarray:
    with open(path, "r", encoding="latin-1") as fh:
        arr = _bulk_ints(fh.read(), sep, 4)
    if arr is None:  # the line reader parses the rest, or names the bad line
        rows = _parse_lines(path, sep, 4, lambda parts: [int(p) for p in parts])
        if not rows:
            raise ValueError(f"{path}: no rating rows")
        arr = np.array(rows, dtype=np.int64)
    if arr[:, 0].min() < 0 or arr[:, 1].min() < 0:
        raise ValueError(f"{path}: negative ids")
    return arr


def _parse_users(path, sep: str, age: int, gender: int) -> tuple[np.ndarray, ...]:
    """Id-sorted (ids, ages, genders, occupations) of a 5-field user file: id first,
    occupation fourth, ``age``/``gender`` by position. A repeated id is an error."""
    rows = _parse_lines(path, sep, 5, lambda p: (int(p[0]), int(p[age]), p[gender], p[3]))
    if not rows:
        raise ValueError(f"{path}: no user rows")
    ids, ages, genders, occupations = zip(*rows)
    ids, first, counts = np.unique(np.int64(ids), return_index=True, return_counts=True)
    if counts.max() > 1:
        raise ValueError(f"{path}: user id {ids[counts.argmax()]} listed more than once")
    return ids, np.int64(ages)[first], np.array(genders)[first], np.array(occupations)[first]


def load_ml100k(data_path, user_path) -> RawRatings:
    """Parse the tab-separated ``u.data`` and pipe-separated ``u.user`` files."""
    return RawRatings(
        _parse_ratings(data_path, "\t"), *_parse_users(user_path, "|", age=1, gender=2)
    )


def load_ml1m(ratings_path, users_path) -> RawRatings:
    """Parse the '::'-separated ``ratings.dat`` / ``users.dat`` files."""
    # users.dat order is id::gender::age::occupation::zip
    return RawRatings(
        _parse_ratings(ratings_path, "::"), *_parse_users(users_path, "::", age=2, gender=1)
    )


def _reject_first(bad: np.ndarray, ids: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise for the first user flagged ``bad``, naming its id and its value."""
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"user {ids[row]}: " + message.format(values[row].item()))


def _age_bin(age, dataset_tag: str):
    lo, hi = (28, 40) if dataset_tag == "ml-100k" else (25, 35)
    return np.asarray(age >= lo, dtype=np.int64) + (age > hi)


def bin_attributes(
    raw: RawRatings, dataset_tag: str, dataset: InteractionDataset | None = None
) -> AttributeTable:
    """Encode gender/age/occupation as dense categorical labels.

    Gender: M=0, F=1. Age: three bins (<28, 28-40, >40 for ml-100k;
    <25, 25-35, >35 for ml-1m). Occupation: the 21 canonical categories
    (ml-100k strings, ml-1m integer codes). Rows follow raw-user-id order, or
    the dataset's dense index when one is supplied.
    """
    if dataset_tag not in ("ml-100k", "ml-1m"):
        raise ValueError(f"unknown dataset tag {dataset_tag!r}")
    ids = raw.user_ids
    g = np.char.upper(np.char.strip(raw.genders))
    _reject_first((g != "M") & (g != "F"), ids, raw.genders, "unknown gender {!r}")
    gender = (g == "F").astype(np.int64)
    age = _age_bin(raw.ages, dataset_tag)
    occ = np.char.strip(raw.occupations)
    if dataset_tag == "ml-100k":
        catalogue = np.array(ML100K_OCCUPATIONS)  # alphabetical, so searchsorted finds a name
        occupation = np.searchsorted(catalogue, occ).clip(max=len(catalogue) - 1)
        _reject_first(catalogue[occupation] != occ, ids, occ, "unknown occupation {!r}")
    else:
        occupation = occ.astype(np.int64)
        bad = (occupation < 0) | (occupation >= 21)
        _reject_first(bad, ids, occupation, "occupation code {} outside [0, 21)")
    table = AttributeTable(
        [
            Attribute("gender", 2, gender),
            Attribute("age", 3, age),
            Attribute("occupation", 21, occupation),
        ],
        ids,
    )
    return table.align(dataset) if dataset is not None else table


def _leave_one_out(users, items, stamps) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out rule over events of dense users 0..N-1, each with an event.

    A user's latest event is the test item, timestamp ties going to the
    larger item id; the user's other distinct items, sorted, are the train
    pairs. Returns (train_pairs (T, 2), test_items (N,)).
    """
    order = np.lexsort((items, stamps, users))
    users, items = users[order], items[order]
    test_items = items[np.append(users[1:] != users[:-1], True)]
    n_items = int(items.max()) + 1
    keys = np.unique((users * n_items + items)[items != test_items[users]])
    return np.column_stack(np.divmod(keys, n_items)), test_items


_MIN_INTERACTIONS = 5  # preprocess_split keeps users with at least this many ratings


def preprocess_split(raw: RawRatings) -> InteractionDataset:
    """Leave-one-out split: drop users with fewer than ``_MIN_INTERACTIONS``
    ratings, hold out each user's latest item.

    Ratings are treated as implicit positives. Timestamp ties are broken by
    the larger item id so the split is deterministic.
    """
    ratings = raw.ratings
    uids, counts = np.unique(ratings[:, 0], return_counts=True)
    user_ids = uids[counts >= _MIN_INTERACTIONS]
    if not len(user_ids):
        raise ValueError("no users meet the interaction threshold")
    ratings = ratings[np.isin(ratings[:, 0], user_ids)]
    item_ids = np.unique(ratings[:, 1])
    train_pairs, test_items = _leave_one_out(
        np.searchsorted(user_ids, ratings[:, 0]),
        np.searchsorted(item_ids, ratings[:, 1]),
        ratings[:, 3],
    )
    return InteractionDataset(
        n_users=len(user_ids),
        n_items=len(item_ids),
        train_pairs=train_pairs,
        test_items=test_items,
        user_ids=user_ids,
        item_ids=item_ids,
    )


# synthetic_dataset's make-up: class means at 0.3 with within-class spread 0.1
# in each attribute block, 12 attribute-free taste dimensions at unit scale,
# and item loadings on the attribute blocks shrunk to 0.1
_SIGNAL_SCALE = 0.3
_BLOCK_NOISE = 0.1
_TASTE_DIMS = 12
_ITEM_SIGNAL_SCALE = 0.1


def synthetic_dataset(
    n_users: int,
    n_items: int,
    d_signal: int,
    seed: int,
    cardinalities: tuple[int, ...] = (2,),
    items_per_user: int = 20,
) -> tuple[InteractionDataset, AttributeTable]:
    """Deterministic test bed with attributes planted as linear latent signal.

    Each attribute occupies its own ``d_signal``-wide block of the user
    preference vectors: class means drawn at ``_SIGNAL_SCALE`` with tight
    within-class spread ``_BLOCK_NOISE``, so a linear probe reads the label
    easily while the block stays a small fraction of the total variance. The
    remaining ``_TASTE_DIMS`` carry attribute-free standard-normal taste.
    Items load on the signal blocks only at ``_ITEM_SIGNAL_SCALE`` (sensitive
    attributes are rarely the main driver of preference). With d_signal=0 the
    labels are independent of everything. The true vectors are attached to
    the returned dataset as ``oracle_embeddings`` / ``oracle_item_embeddings``;
    the user matrix is normalized to unit RMS.
    """
    if n_users < 4 or n_items < 4:
        raise ValueError("need at least 4 users and 4 items")
    if items_per_user >= n_items:
        raise ValueError("items_per_user must leave room for ranking")
    rng = np.random.default_rng(seed)
    k = len(cardinalities)
    d_total = k * d_signal + _TASTE_DIMS

    labels = []
    for p in cardinalities:
        lab = rng.permutation(np.arange(n_users) % p)
        labels.append(lab.astype(np.int64))

    z = np.empty((n_users, d_total))
    z[:, k * d_signal :] = rng.standard_normal((n_users, _TASTE_DIMS))
    for t, p in enumerate(cardinalities):
        if d_signal == 0:
            continue
        block = slice(t * d_signal, (t + 1) * d_signal)
        means = _SIGNAL_SCALE * rng.standard_normal((p, d_signal))
        z[:, block] = means[labels[t]] + _BLOCK_NOISE * rng.standard_normal((n_users, d_signal))
    z /= np.sqrt((z**2).mean())

    items = rng.standard_normal((n_items, d_total))
    items[:, : k * d_signal] *= _ITEM_SIGNAL_SCALE
    scores = z @ items.T
    scores = (scores - scores.mean(axis=1, keepdims=True)) / (
        scores.std(axis=1, keepdims=True) + 1e-12
    )
    gumbel = rng.gumbel(0.0, 0.7, size=scores.shape)
    order = np.argsort(-(scores + gumbel), axis=1, kind="stable")
    chosen = order[:, :items_per_user]

    stamps = np.stack([rng.permutation(items_per_user) for _ in range(n_users)])
    train_pairs, test_items = _leave_one_out(
        np.repeat(np.arange(n_users), items_per_user), chosen.ravel(), stamps.ravel()
    )

    dataset = InteractionDataset(
        n_users=n_users,
        n_items=n_items,
        train_pairs=train_pairs,
        test_items=test_items,
        user_ids=np.arange(n_users, dtype=np.int64),
        item_ids=np.arange(n_items, dtype=np.int64),
        oracle_embeddings=z,
        oracle_item_embeddings=items,
    )
    table = AttributeTable(
        [Attribute(f"attr{t}", p, labels[t]) for t, p in enumerate(cardinalities)],
        np.arange(n_users, dtype=np.int64),
    )
    return dataset, table
