"""One pass of a workload through the program, in a process of its own.

Usage: ``python3 perfbench/worker.py SPEC.json`` (written by ``run.py``).

The pass loads the generated inputs with the program's loader, trains the
recommender, issues the workload's requests one at a time through
``run_scenario`` (a closed loop with one client) and audits one release. It
writes its timings, the program's reports and the paths of everything the
parent checks to the result file named in the spec. The parent reads this
process's peak resident memory when it ends, so nothing but the program's
work should allocate much here.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gen
import workloads
from reference import digest
from tracer import Tracer, layer_metrics


def _import_program(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import attrunlearn

    expected = (root / "src" / "attrunlearn").resolve()
    if Path(attrunlearn.__file__).resolve().parent != expected:
        raise SystemExit(f"imported {attrunlearn.__file__}, expected the package under {expected}")
    from attrunlearn import (calibration, cf, combination, data, evaluation, mi, nets, scenario,
                             store)

    return {"calibration": calibration, "cf": cf, "combination": combination, "data": data,
            "evaluation": evaluation, "mi": mi, "nets": nets, "scenario": scenario, "store": store}


def _with_extra(program, table, dataset, path):
    """Append the generator's extra attributes, aligned to the dataset's users."""
    data = program["data"]
    columns = gen.read_extra(path)
    extra = data.AttributeTable(
        [data.Attribute(name, gen.EXTRA_ATTRIBUTES[name], columns[name])
         for name in gen.EXTRA_ATTRIBUTES],
        columns["user"],
    ).align(dataset)
    return data.AttributeTable(table.attributes + extra.attributes, table.user_ids)


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    p = _import_program(root)
    data, scenario, evaluation, store = p["data"], p["scenario"], p["evaluation"], p["store"]
    wl = workloads.WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    inputs = spec["inputs"]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(p)

    out: dict = {"attempted": 0, "failed": 0, "errors": []}
    t_program = time.perf_counter()

    setup = []
    loader_name = "load_ml100k" if wl.dataset_format == "ml-100k" else "load_ml1m"
    for _ in range(spec["setup_reps"]):
        t0 = time.perf_counter()
        raw = getattr(data, loader_name)(inputs["ratings"], inputs["users"])
        t1 = time.perf_counter()
        dataset = data.preprocess_split(raw)
        t2 = time.perf_counter()
        table = data.bin_attributes(raw, wl.dataset_format, dataset)
        if "extra" in inputs:
            table = _with_extra(p, table, dataset, inputs["extra"])
        t3 = time.perf_counter()
        setup.append({"load_s": t1 - t0, "split_s": t2 - t1, "bin_s": t3 - t2})
        del raw
    out["setup"] = setup
    out["attempted"] += len(setup)

    config = scenario.Config(
        dataset_format=wl.dataset_format,
        ratings_path=inputs["ratings"],
        users_path=inputs["users"],
        cf=p["cf"].CFTrainConfig(**wl.cf),
        calibration=p["calibration"].CalibrationConfig(**wl.calibration),
        combination=p["combination"].CombinationConfig(**wl.combination),
        output_dir=str(work / "train"),
        store_dir=str(work / "store"),
        workers=1,
        evaluate=False,
    )
    checkpoint = Path(config.output_dir) / f"model_{dataset.fingerprint()}_{config.cf.seed}.cf"
    out["checkpoint_preexisting"] = checkpoint.exists()
    t0 = time.perf_counter()
    model = scenario.ensure_model(config, dataset)
    out["train_s"] = time.perf_counter() - t0
    out["attempted"] += 1
    out["checkpoint"] = str(checkpoint)
    items_after_train = digest(model.item_embeddings)

    requests = []
    rounds = 0
    phase_start = time.perf_counter()
    # whole passes through the script until --seconds is spent; a traced run makes one
    while rounds == 0 or (not spec["trace"]
                          and time.perf_counter() - phase_start < spec["seconds"]):
        round_config = dataclasses.replace(config, store_dir=str(work / f"store{rounds}"))
        for i, attrs in enumerate(wl.script):
            req_dir = work / f"round{rounds}" / f"request{i:03d}"
            entry = {"round": rounds, "index": i, "attrs": list(attrs), "out": str(req_dir)}
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                reports = scenario.run_scenario(
                    dataclasses.replace(round_config, output_dir=str(req_dir)),
                    scenario.ScenarioScript([list(attrs)]), dataset, table, model,
                )
                entry["seconds"] = time.perf_counter() - t0
                entry["report"] = reports[0].to_dict()
            except Exception:  # one failed request is counted and the stream goes on
                out["failed"] += 1
                out["errors"].append(traceback.format_exc())
            requests.append(entry)
        rounds += 1
    out["requests"] = requests
    out["rounds"] = rounds
    out["store_dirs"] = [str(work / f"store{r}") for r in range(rounds)]

    audited = requests[wl.audit_request % len(wl.script)]  # from the first round
    audit = {"request": audited["attrs"], "release": str(Path(audited["out"]) / "request_00.emb")}
    # an untraced run audits audit_reps times and reports the median time
    audit_seconds = []
    for _ in range(1 if spec["trace"] else wl.audit_reps):
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            released = store.read_embedding_file(audit["release"])
            folds = evaluation.make_folds(dataset.n_users, config.attack.n_folds,
                                          config.attack.seed)
            if wl.attack_iterations:
                report = evaluation.attack_metrics(released, table.subset(audited["attrs"]),
                                                   folds, max_iterations=wl.attack_iterations)
                audit["attack"] = json.loads(report.to_json())
            rec = evaluation.hr_ndcg_at_k(released, model.item_embeddings, dataset,
                                          k=config.rec_k)
            audit_seconds.append(time.perf_counter() - t0)
            audit["rec"] = {"hr": rec.hr, "ndcg": rec.ndcg, "k": rec.k}
        except Exception:
            out["failed"] += 1
            out["errors"].append(traceback.format_exc())
    if audit_seconds:
        audit["seconds"] = statistics.median(audit_seconds)
    out["audit"] = audit
    out["program_s"] = time.perf_counter() - t_program

    if tracer is not None and wl.traced_attack_iterations:
        # traced but outside the timed pass: the attack layer's metrics are
        # defined on this workload too, and the overhead compares like with like
        out["attempted"] += 1
        try:
            folds = evaluation.make_folds(dataset.n_users, config.attack.n_folds,
                                          config.attack.seed)
            report = evaluation.attack_metrics(
                store.read_embedding_file(audit["release"]), table.subset(["gender"]), folds,
                max_iterations=wl.traced_attack_iterations)
            audit["traced_attack"] = json.loads(report.to_json())
        except Exception:
            out["failed"] += 1
            out["errors"].append(traceback.format_exc())

    if tracer is not None:
        tracer.restore()
        out["layers"] = layer_metrics(tracer)
        out["trace_missing"] = tracer.missing
        tracer.write(spec["trace_file"])

    # Everything below feeds the parent's checks and is not timed.
    out["item_digests"] = [items_after_train, digest(model.item_embeddings)]
    out["store_digests"] = {}
    for directory in out["store_dirs"]:
        st = store.EmbeddingStore(directory)
        out["store_digests"][directory] = {key: digest(st.get(key)) for key in st.keys()}
    out["eps"] = config.calibration.eps_ratio * dataset.n_users
    out["dataset"] = str(work / "dataset.npz")
    np.savez(out["dataset"], train_pairs=dataset.train_pairs, test_items=dataset.test_items)
    if wl.quality and spec["trace"]:
        # acceptance criteria 1 and 3: gender leaks from the trained matrix and
        # not from the gender-only release; ranking quality survives
        folds = evaluation.make_folds(dataset.n_users, config.attack.n_folds, config.attack.seed)
        gender = table.subset(["gender"])
        single = requests[wl.script.index(("gender",))]
        released = store.read_embedding_file(Path(single["out"]) / "request_00.emb")
        rec = evaluation.hr_ndcg_at_k(model.user_embeddings, model.item_embeddings, dataset,
                                      k=config.rec_k)
        out["trained"] = {
            "gender_bacc": evaluation.attack_metrics(model.user_embeddings, gender, folds)
            .per_attribute["gender"].bacc_mean,
            "released_gender_bacc": evaluation.attack_metrics(released, gender, folds)
            .per_attribute["gender"].bacc_mean,
            "ndcg": rec.ndcg,
            "hr": rec.hr,
        }
    return out


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
