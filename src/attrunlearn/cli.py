"""Command-line entry points; every subcommand writes a JSON report.

Subcommands: train, calibrate, combine, attack, rec-eval, scenario,
bound-check, dp. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import calibrate, trace_to_csv
from .combination import bound_check
from .evaluation import attack_metrics, hr_ndcg_at_k, make_folds
from .scenario import (
    Config,
    ScenarioScript,
    calibrated_matrices,
    dp_baseline,
    ensure_model,
    load_dataset,
    run_scenario,
)
from .store import (EmbeddingStore, atomic_write, read_embedding_file, write_embedding_file,
                    write_json)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attrunlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="path to a Config JSON file")
        return p

    add("train", help="train the recommender and write a checkpoint")
    p = add("calibrate", help="calibrate one attribute out of the user embeddings")
    p.add_argument("--attr", required=True)
    p.add_argument("--trace-csv", default=None, help="also dump the optimization trace")
    p = add("combine", help="combine cached calibrations for a set of attributes")
    p.add_argument("--attrs", required=True, help="comma-separated attribute names")
    p = add("attack", help="attribute-inference attack report for an embedding matrix")
    p.add_argument("--embeddings", default=None, help="embedding file (default: trained model)")
    p = add("rec-eval", help="leave-one-out HR/NDCG report for an embedding matrix")
    p.add_argument("--embeddings", default=None)
    p = add("scenario", help="run a dynamic privacy-request script")
    p.add_argument("--script", required=True)
    p = add("bound-check", help="two-step vs joint leakage comparison")
    p.add_argument("--attrs", required=True)
    p = add("dp", help="Gaussian-noise baseline; sweeps sigma and reports the curve")
    p.add_argument("--sigma", required=True, help="noise scale, or comma-separated list")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _write_report(config: Config, name: str, payload: dict) -> None:
    path = Path(config.output_dir) / name
    write_json(path, payload)
    print(path)


def _parse_sigmas(text: str) -> list[float]:
    """The comma-separated noise scales of ``dp --sigma``: at least one, each
    a finite number >= 0."""
    sigmas = []
    for part in (p.strip() for p in text.split(",")):
        if not part:
            continue
        try:
            sigma = float(part)
        except ValueError:
            raise ValueError(f"--sigma: {part!r} is not a number") from None
        if not 0 <= sigma < np.inf:  # NaN fails the comparison too
            raise ValueError(f"--sigma: {part!r} must be finite and >= 0")
        sigmas.append(sigma)
    if not sigmas:
        raise ValueError(f"--sigma: no noise scale in {text!r}")
    return sigmas


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _preflight(args):
    """Every refusal the CLI makes before a model is trained, in the order below.
    Returns (config, script, sigmas, dataset, table, entries, folds, U, store), None
    where the command needs none; ``combine``'s script is the one request its --attrs
    name."""
    config = Config.from_json(args.config)
    # a malformed script or sigma list fails before the data is loaded or a model trained
    script = ScenarioScript.from_json(args.script) if args.command == "scenario" else None
    sigmas = _parse_sigmas(args.sigma) if args.command == "dp" else None
    if args.command == "dp" and args.seed < 0:
        raise ValueError(f"--seed: {args.seed} must be >= 0")
    dataset, table = load_dataset(config)
    # unknown attribute names fail before a model is trained
    if args.command == "calibrate":
        names = [args.attr]
    elif args.command in ("combine", "bound-check"):
        # a name repeated in --attrs counts once, as in a script's request
        names = list(dict.fromkeys(n.strip() for n in args.attrs.split(",") if n.strip()))
    else:
        names = [name for request in script.requests for name in request] if script else []
    entries = table.entries(names)
    # so do requests naming no attribute, or one attribute to bound-check
    if args.command in ("combine", "bound-check") and not names:
        raise ValueError(f"--attrs: no attribute in {args.attrs!r}")
    if args.command == "bound-check" and len(names) < 2:
        raise ValueError(f"bound-check needs at least 2 attributes, got {names}")
    # and a fold count the users cannot fill, for every command that runs the attack
    attacks = args.command in ("attack", "dp") or (
        args.command in ("combine", "scenario") and config.evaluate)
    folds = (make_folds(dataset.n_users, config.attack.n_folds, config.attack.seed)
             if attacks else None)
    # and an embedding file or a trace directory that cannot serve
    emb_file = getattr(args, "embeddings", None)
    U = None if emb_file is None else read_embedding_file(emb_file)
    if U is not None and len(U) != dataset.n_users:
        raise ValueError(f"{len(U)} user embedding rows for {dataset.n_users} users")
    if U is not None and args.command == "rec-eval" and U.shape[1] != config.cf.dim:
        raise ValueError(f"--embeddings: {U.shape[1]} columns for a model of dim {config.cf.dim}")
    if U is not None and not np.isfinite(U).all():
        raise ValueError(f"--embeddings: {emb_file!r} holds non-finite values")
    trace_csv = getattr(args, "trace_csv", None)
    if trace_csv and not Path(trace_csv).parent.is_dir():
        raise ValueError(f"--trace-csv: directory {str(Path(trace_csv).parent)!r} does not exist")
    if trace_csv and Path(trace_csv).is_dir():
        raise ValueError(f"--trace-csv: {trace_csv!r} is a directory")
    # and a store directory that cannot be opened
    store = (EmbeddingStore(config.resolved_store_dir())
             if args.command in ("calibrate", "combine", "scenario", "bound-check") else None)
    # and an output, store or trace directory that cannot be written
    directories = [Path(config.output_dir)] + ([store.directory] if store else [])
    for directory in directories + ([Path(trace_csv).parent] if trace_csv else []):
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write(directory / ".preflight", b"")
        (directory / ".preflight").unlink(missing_ok=True)  # a concurrent run may be first
    if args.command == "combine":
        script = ScenarioScript([names])
    return config, script, sigmas, dataset, table, entries, folds, U, store


def _dispatch(args) -> int:
    config, script, sigmas, dataset, table, entries, folds, U, store = _preflight(args)
    # an attack on an embedding file needs no recommender; U is the user matrix worked on
    model = None if args.command == "attack" and U is not None else ensure_model(config, dataset)
    U = model.user_embeddings if U is None else U

    if args.command == "train":
        _write_report(
            config,
            "train_report.json",
            {
                "dataset": dataset.summary(),
                "diagnostics": model.train_diagnostics,
                "dim": model.dim,
            },
        )
        return 0

    if args.command == "calibrate":
        name, labels, cardinality = entries[0]
        result = calibrate(U, labels, config.calibration, attribute=name, cardinality=cardinality)
        keys = store.key(U, entries, config.calibration.hash())
        store.put(keys[name], result.embeddings)
        if args.trace_csv:
            trace_to_csv(result, args.trace_csv)
        _write_report(
            config,
            f"calibrate_{name}.json",
            {
                "attribute": name,
                "final_mi": float(result.mi_trace[-1]) if len(result.mi_trace) else None,
                "final_distance": float(result.distance_trace[-1])
                if len(result.distance_trace)
                else 0.0,
                "config_hash": result.config_hash,
            },
        )
        return 0

    if args.command == "attack":
        report = attack_metrics(U, table, folds, max_iterations=config.attack.max_iterations)
        _write_report(config, "attack_report.json", json.loads(report.to_json()))
        return 0

    if args.command == "rec-eval":
        report = hr_ndcg_at_k(U, model.item_embeddings, dataset, k=config.rec_k)
        _write_report(config, "rec_report.json", json.loads(report.to_json()))
        return 0

    if args.command in ("combine", "scenario"):
        reports = [r.to_dict() for r in run_scenario(config, script, dataset, table, model)]
        if args.command == "combine":
            _write_report(config, "combine_report.json", reports[0])
        else:
            _write_report(config, "scenario_report.json", {"requests": reports})
        return 0

    if args.command == "bound-check":
        mats, _, _ = calibrated_matrices(store, U, entries, config)
        report = bound_check(U, list(mats.values()), entries, config.calibration,
                             config.combination)
        _write_report(config, "bound_check.json", json.loads(report.to_json()))
        return 0

    if args.command == "dp":
        curve = []
        for sigma in sigmas:
            noisy = dp_baseline(U, sigma, args.seed)
            write_embedding_file(Path(config.output_dir) / f"dp_sigma_{sigma:g}.emb", noisy)
            attack = attack_metrics(
                noisy, table, folds, max_iterations=config.attack.max_iterations
            )
            rec = hr_ndcg_at_k(noisy, model.item_embeddings, dataset, k=config.rec_k)
            curve.append(
                {
                    "sigma": sigma,
                    "bacc_average": attack.bacc_average,
                    "f1_average": attack.f1_average,
                    "hr_at_k": rec.hr,
                    "ndcg_at_k": rec.ndcg,
                }
            )
        _write_report(config, "dp_report.json", {"curve": curve})
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
