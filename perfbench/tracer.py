"""Span tracing of the program's layers, from outside the program.

The tracer wraps the functions each layer exposes by rebinding the names its
callers look up (``mi.fit_variational_step``, ``nets.forward``,
``calibration.optimizer_step``, ``scenario.calibrate``,
``EmbeddingStore.get`` ...). Spans (name, start, end, parent) stay in memory
and are written out when the run ends. A name that no longer exists is
recorded as missing; every metric built on it is reported absent (``None``
here; ``run.py`` prints it as 0 and names it) and the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

# Spans whose descendants some metrics count separately; each gets one bit of
# the ancestor mask every span records.
CONTEXTS = ("cf.train_cf", "calibration.calibrate", "combination.optimize_weights",
            "mi.full_pass", "evaluation.train_attacker")


def _nonzero_rows(grads) -> int:
    return int(sum(np.count_nonzero(np.any(g != 0, axis=1)) for g in grads if g.ndim == 2))


def _count_adam_rows(prefix):
    def after(tracer, result, args, kwargs):
        params, grads = args[1], args[2]
        tracer.counters[prefix + ".rows_touched"] += _nonzero_rows(grads)
        tracer.counters[prefix + ".rows_updated"] += sum(len(p) for p in params if p.ndim == 2)
    return after


def _store_contains(tracer, result, args, kwargs):
    tracer.counters["store.hits"] += bool(result)


def _store_get(tracer, result, args, kwargs):
    tracer.counters["store.bytes_read"] += int(result.size) * 8


def _store_put(tracer, result, args, kwargs):
    tracer.counters["store.bytes_written"] += int(np.asarray(args[2]).size) * 8


def _run_scenario(tracer, result, args, kwargs):
    tracer.counters["scenario.requests"] += len(result)
    tracer.counters["scenario.calibrations_executed"] += sum(
        r.calibrations_executed for r in result)
    tracer.counters["scenario.cache_hits"] += sum(r.cache_hits for r in result)


def _optimize_weights(tracer, result, args, kwargs):
    tracer.counters["combination.attribute_iterations"] += (
        len(result.attributes) * len(result.mi_trace))


def _rank(tracer, result, args, kwargs):
    tracer.counters["evaluation.users_ranked"] += int(args[2].n_users)


def _train_attacker(default_budget):
    def after(tracer, result, args, kwargs):
        budget = int(kwargs.get("max_iterations", default_budget))
        tracer.counters["evaluation.attacker_budget"] += budget
    return after


def targets(program) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, after-hook) for every wrapped name.

    ``program`` maps module names to the imported modules of the package.
    """
    p = program
    attacker_budget = inspect.signature(p["evaluation"].train_attacker).parameters[
        "max_iterations"].default if hasattr(p["evaluation"], "train_attacker") else 0
    return [
        ("data.load", p["data"], "load_ml100k", None),
        ("data.load", p["data"], "load_ml1m", None),
        ("data.split", p["data"], "preprocess_split", None),
        ("data.bin", p["data"], "bin_attributes", None),
        ("cf.train_cf", p["scenario"], "train_cf", None),
        ("cf.adam", p["cf"], "optimizer_step", _count_adam_rows("cf")),
        ("nets.forward", p["nets"], "forward", None),
        ("nets.backward", p["nets"], "backward", None),
        ("nets.adam", p["nets"], "optimizer_step", None),
        ("mi.fit_step", p["mi"], "fit_variational_step", None),
        ("mi.estimate", p["mi"], "estimate_vclub", None),
        ("mi.input_grad", p["mi"], "vclub_input_gradient", None),
        ("mi.full_pass", p["mi"], "mi_over_embedding", None),
        ("calibration.calibrate", p["scenario"], "calibrate", None),
        ("calibration.adam", p["calibration"], "optimizer_step", _count_adam_rows("calibration")),
        ("calibration.project", p["calibration"], "project_ball", None),
        ("combination.optimize_weights", p["scenario"], "optimize_weights", _optimize_weights),
        ("combination.combine", p["combination"], "combine", None),
        ("combination.project_simplex", p["combination"], "project_simplex_softmax", None),
        ("store.contains", p["store"].EmbeddingStore, "__contains__", _store_contains),
        ("store.get", p["store"].EmbeddingStore, "get", _store_get),
        ("store.put", p["store"].EmbeddingStore, "put", _store_put),
        ("scenario.run_scenario", p["scenario"], "run_scenario", _run_scenario),
        ("evaluation.attack", p["evaluation"], "attack_metrics", None),
        ("evaluation.train_attacker", p["evaluation"], "train_attacker",
         _train_attacker(attacker_budget)),
        ("evaluation.rank", p["evaluation"], "hr_ndcg_at_k", _rank),
    ]


class Tracer:
    """In-memory span recorder; ``install`` wraps names, ``restore`` unwraps them."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ancestors: list[int] = []  # CONTEXTS bitmask of open spans
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self.hook_failed: set[str] = set()
        self._stack = [(-1, 0)]  # (span index, mask including that span)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after):
        bit = 1 << CONTEXTS.index(name) if name in CONTEXTS else 0
        names, starts, ends, parents, ancestors, stack = (
            self.names, self.starts, self.ends, self.parents, self.ancestors, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, mask = stack[-1]
            idx = len(names)
            names.append(name)
            parents.append(parent)
            ancestors.append(mask)
            ends.append(0.0)
            stack.append((idx, mask | bit))
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None and name not in self.hook_failed:
                try:
                    after(self, result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the function's signature or result changed shape; the
                    # counters this hook feeds are reported absent
                    self.hook_failed.add(name)
            return result

        return wrapper

    def install(self, program) -> None:
        for name, owner, attr, after in targets(program):
            fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
                continue
            setattr(owner, attr, self._wrap(name, fn, after))
            self._undo.append((owner, attr, fn))
            self.wrapped.add(name)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        """One JSON object per span: id, name, start, end (seconds), parent id (-1 at top)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(json.dumps({"id": i, "name": n, "start": round(s - t0, 7),
                                     "end": round(e - t0, 7), "parent": p}) + "\n")


class _Spans:
    """Array views of a tracer's spans for aggregation."""

    def __init__(self, tracer: Tracer):
        self.names = np.array(tracer.names, dtype=object)
        self.dur = np.array(tracer.ends) - np.array(tracer.starts)
        self.ancestors = np.array(tracer.ancestors, dtype=np.int64)
        parents = np.array(tracer.parents, dtype=np.int64)
        child_time = np.zeros(len(self.dur) + 1)
        np.add.at(child_time, parents, self.dur)  # index -1 collects top-level spans
        self.self_time = self.dur - child_time[: len(self.dur)]
        self.present = set(tracer.names)

    def mask(self, name, under=None, not_under=None):
        m = self.names == name
        if under is not None:
            m &= (self.ancestors & (1 << CONTEXTS.index(under))) != 0
        if not_under is not None:
            m &= (self.ancestors & (1 << CONTEXTS.index(not_under))) == 0
        return m

    def count(self, name, **kw) -> int:
        return int(self.mask(name, **kw).sum())

    def total(self, name, **kw) -> float:
        return float(self.dur[self.mask(name, **kw)].sum())


def _ratio(num, den):
    return None if not den else num / den


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics from the recorded spans; None marks a metric that is absent.

    A metric is absent when a span it needs was never wrapped (the name is
    gone from the program) or, for times and ratios, never entered on this
    workload. Counts of spans that were wrapped but never entered read 0.
    """
    s = _Spans(tracer)
    c = tracer.counters
    wrapped = tracer.wrapped

    def cnt(name, **kw):
        return s.count(name, **kw) if name in wrapped else None

    def tot(name, **kw):
        return s.total(name, **kw) if name in s.present else None

    def ctr(key, span):
        return c[key] if span in wrapped and span not in tracer.hook_failed else None

    def div(a, b):
        return None if a is None or b is None else _ratio(a, b)

    net_cal = _sum(cnt("nets.forward", under="calibration.calibrate"),
                   cnt("nets.backward", under="calibration.calibrate"))
    in_loop = {"under": "combination.optimize_weights", "not_under": "mi.full_pass"}
    net_comb = _sum(cnt("nets.forward", **in_loop), cnt("nets.backward", **in_loop))
    cal_iters = cnt("calibration.adam")
    comb_iters = cnt("combination.project_simplex", under="combination.optimize_weights")
    ow_s = tot("combination.optimize_weights")
    combine_s = tot("combination.combine", under="combination.optimize_weights")
    final_s = tot("mi.full_pass", under="combination.optimize_weights")
    comb_loop_s = None if None in (ow_s, combine_s, final_s) else ow_s - combine_s - final_s
    attacker_steps = cnt("nets.adam", under="evaluation.train_attacker")
    lookups = cnt("store.contains")
    scenario_self = (float(s.self_time[s.mask("scenario.run_scenario")].sum())
                     if "scenario.run_scenario" in s.present else None)
    return {
        "data.load_s": tot("data.load"),
        "data.split_s": tot("data.split"),
        "cf.train_s": tot("cf.train_cf"),
        "cf.batches": cnt("cf.adam"),
        "cf.adam_s": tot("cf.adam"),
        "cf.row_use": div(ctr("cf.rows_touched", "cf.adam"), ctr("cf.rows_updated", "cf.adam")),
        "nets.forward_calls": cnt("nets.forward"),
        "nets.backward_calls": cnt("nets.backward"),
        "nets.forward_s": tot("nets.forward"),
        "nets.backward_s": tot("nets.backward"),
        "nets.adam_calls": cnt("nets.adam"),
        "nets.adam_s": tot("nets.adam"),
        "mi.fit_step_calls": cnt("mi.fit_step"),
        "mi.fit_step_s": tot("mi.fit_step"),
        "mi.estimate_calls": cnt("mi.estimate"),
        "mi.estimate_s": tot("mi.estimate"),
        "mi.input_grad_calls": cnt("mi.input_grad"),
        "mi.input_grad_s": tot("mi.input_grad"),
        "mi.full_pass_s": tot("mi.full_pass"),
        "calibration.iterations": cal_iters,
        "calibration.iter_ms": div(_scale(tot("calibration.calibrate"), 1000.0), cal_iters),
        "calibration.adam_s": tot("calibration.adam"),
        "calibration.project_s": tot("calibration.project"),
        "calibration.row_use": div(ctr("calibration.rows_touched", "calibration.adam"),
                                   ctr("calibration.rows_updated", "calibration.adam")),
        "calibration.net_calls_per_iter": div(net_cal, cal_iters),
        "combination.iterations": comb_iters,
        "combination.iter_ms": div(_scale(comb_loop_s, 1000.0), comb_iters),
        "combination.net_calls_per_iter": div(
            net_comb, ctr("combination.attribute_iterations", "combination.optimize_weights")),
        "combination.combine_s": combine_s,
        "combination.final_estimate_s": final_s,
        "store.lookups": lookups,
        "store.hits": ctr("store.hits", "store.contains"),
        "store.hit_ratio": div(ctr("store.hits", "store.contains"), lookups),
        "store.puts": cnt("store.put"),
        "store.contains_s": tot("store.contains"),
        "store.get_s": tot("store.get"),
        "store.put_s": tot("store.put"),
        "store.bytes_read": ctr("store.bytes_read", "store.get"),
        "store.bytes_written": ctr("store.bytes_written", "store.put"),
        "scenario.requests": ctr("scenario.requests", "scenario.run_scenario"),
        "scenario.calibrations_executed": ctr("scenario.calibrations_executed",
                                              "scenario.run_scenario"),
        "scenario.cache_hits": ctr("scenario.cache_hits", "scenario.run_scenario"),
        "scenario.self_s": scenario_self,
        "evaluation.attack_s": tot("evaluation.attack"),
        "evaluation.attacker_fits": cnt("evaluation.train_attacker"),
        "evaluation.attacker_steps": attacker_steps,
        "evaluation.attacker_budget_use": div(
            attacker_steps, ctr("evaluation.attacker_budget", "evaluation.train_attacker")),
        "evaluation.rank_s": tot("evaluation.rank"),
        "evaluation.users_ranked": ctr("evaluation.users_ranked", "evaluation.rank"),
    }


def _sum(a, b):
    return None if a is None or b is None else a + b


def _scale(x, k):
    return None if x is None else x * k
