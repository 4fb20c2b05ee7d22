"""Benchmark of attrunlearn: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload ml100k-release --seed 1 --seconds 8 --trace 0

Each run generates the workload's inputs from the seed, then runs the
program in a child process (``worker.py``) pinned to one BLAS/OpenMP thread,
in empty output and store directories, and checks every output against
``reference.py``. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the program runs
traced and the line carries the per-layer metrics and the tracing overhead
against the last untraced run. Spans of the traced pass go to
``.perfbench_out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and (through the environment) in the
# worker: on a 2-core machine BLAS thread pools are slower than one thread and
# make timings jump.
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"  # per-run inputs, outputs and stores; removed at exit
OUT = ROOT / ".perfbench_out"  # span files of traced runs, last untraced pass time
DEADLINE_S = 170.0  # every run must end within 180 s



def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": PINNED_THREADS,
    }


def run_worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one pass in a child process; returns its result and peak RSS in MB."""
    spec_path = Path(spec["work"]) / "spec.json"
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "ATTRUNLEARN_STORE"}
    env.update(PINNED_THREADS, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            env=env, stdout=sys.stderr)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise TimeoutError(f"worker passed the {DEADLINE_S:.0f} s deadline")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text()), usage.ru_maxrss / 1024.0


def verify(wl: workloads.Workload, result: dict) -> list[str]:
    """Every check of one pass's outputs; returns the problems found."""
    problems = []
    if result["checkpoint_preexisting"]:
        problems.append("a checkpoint existed before training; train_s would time a load")
    users, items = reference.read_checkpoint(result["checkpoint"])
    if set(result["item_digests"]) != {reference.digest(items)}:
        problems.append("item embeddings changed after training")
    eps = result["eps"]

    by_round: dict[int, list] = {}
    for entry in result["requests"]:
        by_round.setdefault(entry["round"], []).append(entry)
    for r, entries in by_round.items():
        problems += reference.check_counts(wl.script, [e.get("report") for e in entries])
        store_dir = result["store_dirs"][r]
        stored = reference.store_entries(store_dir)
        if set(stored) != {a for req in wl.script for a in req}:
            problems.append(f"store holds {sorted(stored)}")
        for attr, (key, matrix) in stored.items():
            if result["store_digests"][store_dir].get(key) != reference.digest(matrix):
                problems.append(f"store round trip of {attr!r} is not bitwise")
            problems += [f"{attr}: {p}" for p in reference.check_ball(matrix, users, eps)]
        for e in entries:
            if "report" not in e:
                continue  # counted as failed
            report = e["report"]
            release = reference.read_store_file(Path(e["out"]) / "request_00.emb")
            tag = f"round {r} request {e['index']}"
            if report["request"] != sorted(e["attrs"]):
                problems.append(f"{tag}: report names {report['request']}")
                continue
            if not np.all(np.isfinite(release)):
                problems.append(f"{tag}: release has non-finite entries")
            problems += [f"{tag}: {p}" for p in
                         reference.check_simplex(report["alpha"], len(e["attrs"]))]
            components = [stored[a][1] for a in report["request"]]
            problems += [f"{tag}: {p}" for p in
                         reference.check_combination(release, components, report["alpha"])]

    audit = result["audit"]
    for key, attrs in (("attack", audit["request"]), ("traced_attack", ["gender"])):
        if key in audit:
            problems += [f"audit: {p}" for p in reference.check_attack_report(audit[key], attrs)]
    if "rec" in audit:
        pairs = np.load(result["dataset"])
        release = reference.read_store_file(audit["release"])
        train_pairs, test_items = pairs["train_pairs"], pairs["test_items"]
        hr, ndcg, _ = reference.rank_metrics(release, items, train_pairs, test_items)
        problems += [f"audit: {p}" for p in
                     reference.check_rank_report(audit["rec"], hr, ndcg, len(release))]
        if "trained" in result:
            trained = result["trained"]
            hr0, ndcg0, _ = reference.rank_metrics(users, items, train_pairs, test_items)
            problems += [f"trained matrix: {p}" for p in
                         reference.check_rank_report(trained, hr0, ndcg0, len(users))]
            after = trained["released_gender_bacc"]
            drop = 100.0 * (ndcg0 - ndcg) / ndcg0
            if not (trained["gender_bacc"] >= 58.0 and after <= 55.0 and drop <= 10.0):
                problems.append(f"quality: gender BAcc {trained['gender_bacc']:.1f} -> {after:.1f} "
                                f"after the gender-only release (need >= 58 -> <= 55), NDCG@10 drop "
                                f"{drop:.1f}% on the audited release (need <= 10%)")
    return problems


def end_to_end(wl: workloads.Workload, result: dict, gen_s: float, peak_rss_mb: float) -> dict:
    setup = statistics.median(s["load_s"] + s["split_s"] + s["bin_s"] for s in result["setup"])
    cold = [c > 0 for c, _ in reference.expected_counts(wl.script)]
    per_round: dict[int, dict[bool, list]] = {}
    for entry in result["requests"]:
        if "seconds" in entry:
            per_round.setdefault(entry["round"], {True: [], False: []})[
                cold[entry["index"]]].append(entry["seconds"])
    values = {
        "setup_s": gen_s + setup,
        "train_s": result["train_s"],
        # mean request time of each pass through the script, median over passes
        "cold_request_s": statistics.median(
            statistics.mean(r[True]) for r in per_round.values() if r[True]),
        "warm_request_s": statistics.median(
            statistics.mean(r[False]) for r in per_round.values() if r[False]),
        "audit_s": result["audit"]["seconds"],
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": u} for k, u in declared_units("end_to_end").items()}


def pass_wall(result: dict) -> float:
    """Wall time of one setup, the training, the first pass through the script and the audit."""
    setup = result["setup"][0]
    requests = sum(e.get("seconds", 0.0) for e in result["requests"] if e["round"] == 0)
    return (setup["load_s"] + setup["split_s"] + setup["bin_s"] + result["train_s"] + requests
            + result["audit"].get("seconds", 0.0))


def per_layer(traced: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    """Every declared per-layer metric, and the names of those the trace could not measure.

    The result line must hold every metric of the manifest, so an absent one
    (a wrapped name gone from the program, a hook whose function changed
    shape) reads 0 there and is named in the summary line and on stderr.
    """
    units = declared_units("per_layer")
    values = dict(traced["layers"])
    values["trace.overhead_pct"] = 100.0 * (pass_wall(traced) / untraced_wall - 1.0)
    absent = sorted(k for k in units if values.get(k) is None)
    if absent or traced["trace_missing"]:
        print(f"perfbench: absent per-layer metrics {absent} read 0; names no longer in the "
              f"program {traced['trace_missing']}", file=sys.stderr)
    metrics = {k: {"value": 0 if values.get(k) is None else values[k], "unit": u}
               for k, u in units.items()}
    return metrics, absent


def measure(wl: workloads.Workload, args, work: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    t0 = time.perf_counter()
    inputs = {k: str(v) for k, v in wl.generate(work / "input", args.seed).items()}
    gen_s = time.perf_counter() - t0

    # The traced run's overhead is taken against the last untraced run of the
    # workload in this checkout; without one, it makes an untraced pass first.
    untraced_record = OUT / f"untraced-{wl.name}.json"
    passes = [False]
    if args.trace:
        passes = [True] if untraced_record.is_file() else [False, True]
    results = []
    for traced in passes:
        pass_dir = work / ("traced" if traced else "untraced")
        spec = {
            "root": str(ROOT), "workload": wl.name, "inputs": inputs, "work": str(pass_dir),
            "trace": traced, "setup_reps": 1 if args.trace else wl.setup_reps,
            "seconds": args.seconds,
            "result": str(pass_dir / "result.json"),
            "trace_file": str(OUT / f"trace-{wl.name}.jsonl"),
        }
        results.append(run_worker(spec, deadline))
    final, peak_rss_mb = results[-1]
    for error in final["errors"]:
        print(error, file=sys.stderr)

    try:
        problems = verify(wl, final)
    except (ValueError, KeyError, OSError) as exc:  # a missing or malformed output file
        problems = [f"outputs unreadable: {exc!r}"]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if args.trace:
        untraced_wall = (pass_wall(results[0][0]) if len(results) == 2
                         else json.loads(untraced_record.read_text())["pass_wall_s"])
        metrics, absent = per_layer(final, untraced_wall)
    else:
        absent = []
        metrics = end_to_end(wl, final, gen_s, peak_rss_mb)
        if not problems:
            untraced_record.write_text(
                json.dumps({"seed": args.seed, "pass_wall_s": pass_wall(final)}))
    summary = [{"traced": traced, "pass_wall_s": pass_wall(r), "train_s": r["train_s"],
                "setup_s": [s["load_s"] + s["split_s"] + s["bin_s"] for s in r["setup"]],
                "audit_s": r["audit"].get("seconds")}
               for traced, (r, _) in zip(passes, results)]
    print(json.dumps({"workload": wl.name, "seed": args.seed, "machine": machine_facts(),
                      "passes": summary, "rounds": final["rounds"],
                      "audit": final["audit"].get("attack"),
                      "traced_attack": final["audit"].get("traced_attack"),
                      "trained": final.get("trained"), "absent": absent}))
    print(json.dumps({"correct": not problems, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum wall time of the request phase; whole passes "
                             "through the script repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "attrunlearn" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'attrunlearn'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        return measure(workloads.WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
