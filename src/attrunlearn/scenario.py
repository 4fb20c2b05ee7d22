"""Scenario orchestration: configs, dynamic privacy-request runs, DP baseline.

A scenario is an ordered list of requests, each naming the attributes that
must be protected from that point on. Calibrated per-attribute embeddings are
cached in the store, and so are the combination weights of each attribute set
(in its ``weights/`` directory). A later request pays for the attributes never
seen before, plus one weight fit when its set, calibrations or combination
config are new; a repeated set only recombines its cached calibrations.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import nets
from .calibration import CalibrationConfig, CalibrationResult, calibrate
from .cf import CFModel, CFTrainConfig, load_model, save_model, train_cf
from .combination import CombinationConfig, combine, optimize_weights
from .data import (
    AttributeTable,
    InteractionDataset,
    bin_attributes,
    load_ml100k,
    load_ml1m,
    preprocess_split,
)
from .evaluation import AttackReport, RecReport, attack_metrics, hr_ndcg_at_k, make_folds
from .store import EmbeddingStore, StoreError, checked_fields, write_embedding_file, write_json

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
WEIGHTS_DIR = "weights"  # beside the calibrations, inside the store directory


@dataclass(frozen=True)
class AttackSettings:
    n_folds: int = 5
    seed: int = 11
    max_iterations: int = 500

    def __post_init__(self):
        checked_fields(self, {"n_folds": 2, "max_iterations": 0, "seed": 0})


@dataclass
class ScenarioScript:
    requests: list[list[str]]

    def __post_init__(self):
        if not isinstance(self.requests, list) or not self.requests:
            raise ValueError("script requests must be a non-empty list")
        normalized = []
        for i, req in enumerate(self.requests):
            if not isinstance(req, list) or not all(isinstance(a, str) for a in req):
                raise ValueError(f"request {i} must be a list of attribute names")
            if not req:
                raise ValueError(f"request {i} is empty")
            normalized.append(sorted(set(req)))
        self.requests = normalized

    @classmethod
    def from_json(cls, path) -> "ScenarioScript":
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("script must be a JSON object")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported script schema {payload.get('schema_version')}")
        return cls(payload.get("requests"))

    def to_json(self, path) -> None:
        write_json(path, {"schema_version": SCHEMA_VERSION, "requests": self.requests})


_DATASET_KEYS = {"format": "dataset_format", "ratings_path": "ratings_path",
                 "users_path": "users_path"}  # key in the "dataset" section -> Config field
_SECTIONS = {"cf": CFTrainConfig, "calibration": CalibrationConfig,
             "combination": CombinationConfig, "attack": AttackSettings}


def _checked(where: str, values, keys) -> dict:
    """``values``, if it is an object whose keys are all in ``keys``; the values
    are checked by the dataclass they build."""
    if not isinstance(values, dict):
        raise ValueError(f"config {where} must be an object")
    unknown = sorted(set(values) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    return values


@dataclass(frozen=True)
class Config:
    dataset_format: str = "ml-100k"  # or "ml-1m"
    ratings_path: str = ""
    users_path: str = ""
    cf: CFTrainConfig = field(default_factory=CFTrainConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    combination: CombinationConfig = field(default_factory=CombinationConfig)
    attack: AttackSettings = field(default_factory=AttackSettings)
    output_dir: str = "out"
    store_dir: str = ""  # empty -> <output_dir>/store
    workers: int = 2
    evaluate: bool = True
    rec_k: int = 10

    def __post_init__(self):
        checked_fields(self, {"workers": 1, "rec_k": 1})
        if self.dataset_format not in ("ml-100k", "ml-1m"):
            raise ValueError(f"unknown dataset format {self.dataset_format!r}")
        if not self.ratings_path or not self.users_path:
            raise ValueError("ratings_path and users_path are required")
        if not self.output_dir:
            raise ValueError("config key 'output_dir' must not be empty")

    def resolved_store_dir(self) -> str:
        return self.store_dir or str(Path(self.output_dir) / "store")

    @classmethod
    def from_json(cls, path) -> "Config":
        with open(path) as fh:
            payload = json.load(fh)
        version = payload.get("schema_version") if isinstance(payload, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {version}")
        values = {k: v for k, v in payload.items() if k != "schema_version"}
        top = {f.name for f in fields(cls)} - set(_DATASET_KEYS.values()) | {"dataset"}
        values = _checked("the top level", values, top)
        dataset = _checked("section 'dataset'", values.pop("dataset", {}), _DATASET_KEYS)
        for name, section_cls in _SECTIONS.items():
            if name in values:
                section = _checked(f"section {name!r}", values[name],
                                   {f.name for f in fields(section_cls)})
                try:
                    values[name] = section_cls(**section)
                except ValueError as exc:
                    raise ValueError(f"{exc} in section {name!r}") from None
        return cls(**values, **{_DATASET_KEYS[k]: v for k, v in dataset.items()})

    def to_json(self, path) -> None:
        payload = asdict(self)
        payload["dataset"] = {key: payload.pop(name) for key, name in _DATASET_KEYS.items()}
        payload["schema_version"] = SCHEMA_VERSION
        write_json(path, payload)


@dataclass
class RunReport:
    request: list[str]
    alpha: np.ndarray
    calibrations_executed: int
    cache_hits: int
    weights_cached: bool  # alpha read from the weights store, not fitted
    timings: dict[str, float]
    unlearn_seconds: float
    attack: AttackReport | None = None
    rec: RecReport | None = None

    def to_dict(self) -> dict:
        payload = {
            "request": self.request,
            "alpha": self.alpha.tolist(),
            "calibrations_executed": self.calibrations_executed,
            "cache_hits": self.cache_hits,
            "weights_cached": self.weights_cached,
            "timings_seconds": self.timings,
            "unlearn_seconds": self.unlearn_seconds,
        }
        if self.attack is not None:
            payload["attack"] = json.loads(self.attack.to_json())
        if self.rec is not None:
            payload["rec"] = json.loads(self.rec.to_json())
        return payload


def load_dataset(config: Config) -> tuple[InteractionDataset, AttributeTable]:
    loader = load_ml100k if config.dataset_format == "ml-100k" else load_ml1m
    raw = loader(config.ratings_path, config.users_path)
    dataset = preprocess_split(raw)
    table = bin_attributes(raw, config.dataset_format, dataset)
    return dataset, table


def ensure_model(config: Config, dataset: InteractionDataset) -> CFModel:
    """Load the checkpoint if the record beside it names this training config and
    the checkpoint's SHA-256, and the file reads back whole, else train."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"model_{dataset.fingerprint()}_{config.cf.seed}.cf"
    record = ckpt.with_suffix(".json")
    trained_with = asdict(config.cf)
    try:
        recorded = json.loads(record.read_text())
    except (FileNotFoundError, ValueError):  # no record, or one that does not parse
        recorded = None
    if isinstance(recorded, dict) and recorded.get("cf") == trained_with and ckpt.exists():
        try:
            model = load_model(ckpt, recorded.get("sha256"))
        except ValueError as exc:
            log.warning("checkpoint unreadable (%s); retraining", exc)
        else:
            if model.user_embeddings.shape == (dataset.n_users, config.cf.dim):
                return model
    model = train_cf(dataset, config.cf)
    # checkpoint first, record second: a record never names a checkpoint not yet whole
    write_json(record, {"cf": trained_with, "sha256": save_model(model, ckpt)})
    return model


def dp_baseline(U0: np.ndarray, noise_scale: float, seed: int) -> np.ndarray:
    """Gaussian perturbation baseline: U0 plus iid noise of the given scale."""
    if noise_scale < 0:
        raise ValueError("noise scale must be >= 0")
    if noise_scale == 0:
        return U0.copy()
    rng = np.random.default_rng(seed)
    return U0 + noise_scale * rng.standard_normal(U0.shape)


def calibrate_many(
    U0: np.ndarray,
    entries: list[tuple[str, np.ndarray, int]],
    config: CalibrationConfig,
    workers: int = 1,
) -> dict[str, CalibrationResult]:
    """Calibrate U0 once per (name, labels, cardinality) entry, on up to
    ``workers`` threads of ``nets.thread_map`` (which decides whether they
    share the cores); results are keyed by name in entry order.

    Each run derives its own seed from (config.seed, name), so the results are
    the same whatever the worker count.
    """
    names = [name for name, _, _ in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate attribute ids in {names}")

    def run(entry):
        name, labels, cardinality = entry
        return name, calibrate(U0, labels, config, attribute=name, cardinality=cardinality)

    return dict(nets.thread_map(run, entries, workers))


def calibrated_matrices(
    store: EmbeddingStore,
    U0: np.ndarray,
    entries: list[tuple[str, np.ndarray, int]],
    config: Config,
) -> tuple[dict[str, np.ndarray], list[str], dict[str, str]]:
    """The calibrated copy of U0 per (name, labels, cardinality) entry, by name in
    entry order, the names calibrated now and the store key of each name.

    A name whose store entry is missing or unusable is calibrated (on up to
    ``config.workers`` threads) and its result put in the store.
    """
    keys = store.key(U0, entries, config.calibration.hash())
    cached: dict[str, np.ndarray] = {}
    to_run: list[str] = []
    for name, _, _ in entries:
        if keys[name] in store:
            try:
                cached[name] = store.get(keys[name])
                continue
            except StoreError as exc:
                log.warning("store entry for %r unusable (%s); recalibrating", name, exc)
        to_run.append(name)

    fresh = calibrate_many(
        U0, [e for e in entries if e[0] in to_run], config.calibration, config.workers
    )
    for name, result in fresh.items():
        store.put(keys[name], result.embeddings)
        cached[name] = result.embeddings
    return {name: cached[name] for name, _, _ in entries}, to_run, keys


def weights_key(component_keys: list[str], config: CombinationConfig) -> str:
    """SHA-256 over the components' store keys, in entry order, and the
    combination config's fields, as sorted-key JSON. The store keys pin U0,
    the labels, the cardinalities and the calibration config."""
    payload = {"components": component_keys, "combination": asdict(config)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def combined_release(
    weights: EmbeddingStore,
    mats: dict[str, np.ndarray],
    entries: list[tuple[str, np.ndarray, int]],
    keys: dict[str, str],
    config: CombinationConfig,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The weights, the release (``mats`` combined under them) and whether the
    weights were read from ``weights`` rather than fitted.

    ``mats`` and ``keys`` are ``calibrated_matrices``' results for ``entries``.
    The fit is seeded, so a stored (1, k) entry under the set's
    ``weights_key`` is the alpha it would return, and the release combined
    from it is bitwise the fit's. A missing, unreadable or misshapen entry is
    fitted and put. One matrix needs no fit and is never looked up.
    """
    matrices = list(mats.values())
    if len(matrices) == 1:
        combo = optimize_weights(matrices, entries, config)
        return combo.alpha, combo.embeddings, False
    key = weights_key([keys[name] for name, _, _ in entries], config)
    if key in weights:
        try:
            alpha = weights.get(key)
        except StoreError as exc:
            log.warning("weights entry for %s unusable (%s); refitting", list(mats), exc)
        else:
            if alpha.shape == (1, len(matrices)):
                return alpha[0], combine(matrices, alpha[0]), True
            log.warning("weights entry for %s has shape %s, not (1, %d); refitting",
                        list(mats), alpha.shape, len(matrices))
    combo = optimize_weights(matrices, entries, config)
    weights.put(key, combo.alpha[None, :])
    return combo.alpha, combo.embeddings, False


def run_scenario(
    config: Config,
    script: ScenarioScript,
    dataset: InteractionDataset,
    attributes: AttributeTable,
    model: CFModel,
) -> list[RunReport]:
    """Execute each request, reusing cached calibrations across requests.

    Per request: ``calibrated_matrices`` calibrates only attributes with no
    store entry and pulls the rest from the store, then ``combined_release``
    reads the set's combination weights from the store's ``weights/``
    directory or fits and puts them, and the release is (optionally)
    evaluated. The store is the one in ``config.resolved_store_dir()``. The
    reported ``unlearn_seconds`` covers calibration + combination + store
    traffic; evaluation is timed separately.
    """
    store = EmbeddingStore(config.resolved_store_dir())
    weights = EmbeddingStore(store.directory / WEIGHTS_DIR)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    U0 = model.user_embeddings
    folds = (make_folds(dataset.n_users, config.attack.n_folds, config.attack.seed)
             if config.evaluate else None)

    reports = []
    for r_idx, request in enumerate(script.requests):
        t_unlearn = time.perf_counter()
        entries = attributes.entries(request)  # raises KeyError for unknown attributes
        mats, to_run, keys = calibrated_matrices(store, U0, entries, config)
        t_calib = time.perf_counter() - t_unlearn

        t0 = time.perf_counter()
        alpha, release, weights_cached = combined_release(
            weights, mats, entries, keys, config.combination)
        t_comb = time.perf_counter() - t0
        unlearn_seconds = time.perf_counter() - t_unlearn

        attack = rec = None
        t_eval = 0.0
        if config.evaluate:
            t0 = time.perf_counter()
            attack = attack_metrics(
                release,
                attributes.subset(request),
                folds,
                max_iterations=config.attack.max_iterations,
            )
            rec = hr_ndcg_at_k(
                release, model.item_embeddings, dataset, k=config.rec_k
            )
            t_eval = time.perf_counter() - t0

        report = RunReport(
            request=list(request),
            alpha=alpha,
            calibrations_executed=len(to_run),
            cache_hits=len(request) - len(to_run),
            weights_cached=weights_cached,
            timings={
                "calibration": t_calib,
                "combination": t_comb,
                "evaluation": t_eval,
            },
            unlearn_seconds=unlearn_seconds,
            attack=attack,
            rec=rec,
        )
        reports.append(report)
        write_json(out_dir / f"request_{r_idx:02d}.json", report.to_dict())
        write_embedding_file(out_dir / f"request_{r_idx:02d}.emb", release)
    return reports
