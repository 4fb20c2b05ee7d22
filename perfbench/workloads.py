"""The benchmark's three workloads: inputs, program settings and request scripts.

Nothing here imports the program, so the parent process can read a workload
without loading numpy's BLAS threads or the package under test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import gen

ML100K_ATTRS = ("gender", "age", "occupation")
ML100K_SUBSETS = (("gender",), ("age",), ("occupation",),
                  ("gender", "age"), ("gender", "occupation"), ("age", "occupation"))
STREAM_ORDER = ("gender", "age", "occupation") + tuple(gen.EXTRA_ATTRIBUTES)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # gen.write_* (directory, seed) -> paths
    dataset_format: str  # "ml-100k" or "ml-1m"
    cf: dict  # CFTrainConfig fields
    calibration: dict  # CalibrationConfig fields
    combination: dict  # CombinationConfig fields
    script: tuple  # requests, each a tuple of attribute names
    audit_request: int  # index of the request whose release is audited
    attack_iterations: int  # attacker max_iterations; 0 skips the attack
    setup_reps: int  # setups per untraced run; setup_s takes their median
    audit_reps: int = 1  # audits per untraced run; audit_s takes their median
    quality: bool = False  # the traced run gates the paper's gender/NDCG properties
    # attacker max_iterations of a gender attack the traced run makes after its
    # audit, for a workload whose audit skips the attack, so that every attack
    # metric is measured; 0 makes none
    traced_attack_iterations: int = 0


def _stream_script() -> tuple:
    """Six cold requests, each adding one unseen attribute, with warm pairs between.

    After the j-th attribute arrives, four pairs of already calibrated
    attributes are requested again. Every request but the first names two
    attributes, so cold and warm requests differ only in the calibration.
    """
    requests = [(STREAM_ORDER[0],)]
    for j in range(1, len(STREAM_ORDER)):
        requests.append((STREAM_ORDER[j - 1], STREAM_ORDER[j]))
        pairs = list(itertools.combinations(STREAM_ORDER[: j + 1], 2))
        requests.extend(pairs[(4 * j + s) % len(pairs)] for s in range(4))
    return tuple(requests)


ACCEPTANCE_CF = {"dim": 32, "epochs": 60, "learning_rate": 3e-3, "seed": 7}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ml100k-release",
            generate=gen.write_ml100k,
            dataset_format="ml-100k",
            cf=ACCEPTANCE_CF,
            calibration={"eps_ratio": 0.02, "variational_lr": 1e-3, "seed": 5},
            combination={"seed": 5},
            script=(ML100K_ATTRS,) + ML100K_SUBSETS * 2,
            audit_request=0,
            attack_iterations=500,
            setup_reps=5,
            quality=True,
        ),
        Workload(
            name="request-stream",
            generate=gen.write_stream,
            dataset_format="ml-1m",
            cf=dict(ACCEPTANCE_CF, epochs=15),
            calibration={"eps_ratio": 0.02, "variational_lr": 1e-3, "iterations": 300, "seed": 5},
            combination={"iterations": 100, "seed": 5},
            script=_stream_script(),
            audit_request=-1,
            attack_iterations=50,
            setup_reps=5,
        ),
        Workload(
            name="users-60k",
            generate=gen.write_users60k,
            dataset_format="ml-1m",
            cf=dict(ACCEPTANCE_CF, epochs=1, batch_size=4096),
            calibration={"eps_ratio": 0.02, "variational_lr": 1e-3, "iterations": 50, "seed": 5},
            combination={"iterations": 50, "seed": 5},
            script=(ML100K_ATTRS, ML100K_ATTRS, ("gender", "age"), ("gender", "occupation"),
                    ("age", "occupation")),
            audit_request=0,
            attack_iterations=0,
            traced_attack_iterations=3,
            setup_reps=3,
            audit_reps=3,
        ),
    )
}

