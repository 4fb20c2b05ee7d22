import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from _surrogate import generate_ml100k_like
from attrunlearn import cli, scenario
from attrunlearn.calibration import CalibrationConfig
from attrunlearn.cf import CFTrainConfig
from attrunlearn.cli import cli_main
from attrunlearn.combination import CombinationConfig
from attrunlearn.scenario import AttackSettings, Config, ScenarioScript, load_dataset
from attrunlearn.store import write_embedding_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = generate_ml100k_like(root / "data", n_users=60, n_items=50, n_ratings=900)
    config = Config(
        ratings_path=str(data_dir / "u.data"),
        users_path=str(data_dir / "u.user"),
        output_dir=str(root / "out"),
        store_dir=str(root / "store"),
        workers=2,
        cf=CFTrainConfig(epochs=4, dim=8),
        calibration=CalibrationConfig(iterations=40, batch_size=16, variational_lr=1e-2, seed=3),
        combination=CombinationConfig(iterations=15, batch_size=16, seed=3),
        attack=AttackSettings(n_folds=5, seed=4, max_iterations=30),
    )
    cfg_path = root / "config.json"
    config.to_json(cfg_path)
    return root, cfg_path


def _fresh_output_config(cfg, tmp_path) -> Path:
    """A copy of the config at ``cfg`` that writes into ``tmp_path / "out"``
    and keeps its store in ``tmp_path / "store"``."""
    payload = json.loads(cfg.read_text())
    payload["output_dir"] = str(tmp_path / "out")
    payload["store_dir"] = str(tmp_path / "store")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    return config_path


def test_bad_flags_exit_2(capsys):
    assert cli_main(["calibrate"]) == 2  # missing required --config/--attr
    assert cli_main(["not-a-command", "--config", "x"]) == 2


def test_missing_config_exit_1(capsys):
    assert cli_main(["train", "--config", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    *(pytest.param(s, "dims", id=str(s))
      for s in ("cf", "calibration", "combination", "attack", "dataset", None)),
    # settings that became constants
    *(pytest.param(s, k, id=f"{s}-{k}") for s, k in (
        ("cf", "l2_weight"), ("cf", "negatives_per_positive"),
        ("calibration", "hidden"), ("combination", "hidden"),
    )),
])
def test_unknown_config_key_exit_1(workspace, tmp_path, capsys, section, key):
    _, cfg = workspace
    payload = json.loads(cfg.read_text())
    (payload if section is None else payload[section])[key] = 8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert cli_main(["train", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err and (section is None or repr(section) in err)


# Every scalar config field as a JSON config spells it: its section (None for
# the top level), its type and its bound, (">=", b) or (">", 0). Written out
# here rather than read from the dataclasses, so that the table checks them.
_CONFIG_FIELDS = [
    ("cf", "dim", int, (">=", 1)),
    ("cf", "epochs", int, (">=", 0)),
    ("cf", "learning_rate", float, (">", 0)),
    ("cf", "batch_size", int, (">=", 1)),
    ("cf", "seed", int, (">=", 0)),
    ("calibration", "eps_ratio", float, (">=", 0)),
    ("calibration", "iterations", int, (">=", 0)),
    ("calibration", "batch_size", int, (">=", 2)),
    ("calibration", "step_size", float, (">", 0)),
    ("calibration", "variational_lr", float, (">", 0)),
    ("calibration", "inner_steps", int, (">=", 1)),
    ("calibration", "seed", int, None),
    ("combination", "iterations", int, (">=", 0)),
    ("combination", "batch_size", int, (">=", 2)),
    ("combination", "step_size", float, (">", 0)),
    ("combination", "variational_lr", float, (">", 0)),
    ("combination", "seed", int, None),
    ("attack", "n_folds", int, (">=", 2)),
    ("attack", "seed", int, (">=", 0)),
    ("attack", "max_iterations", int, (">=", 0)),
    (None, "output_dir", str, None),
    (None, "store_dir", str, None),
    (None, "workers", int, (">=", 1)),
    (None, "evaluate", bool, None),
    (None, "rec_k", int, (">=", 1)),
]


def _refused_values(kind, bound) -> list:
    """Values of another type, non-finite floats, a fractional int and the
    value just past ``bound``; an int is a valid float."""
    values = [v for v in ("x", True, 1) if type(v) is not kind and (kind, type(v)) != (float, int)]
    if kind is float:
        values += [float("nan"), float("inf"), float("-inf")]
    if kind is int:
        values.append(2.5)
    if bound == (">", 0):
        values.append(0.0)
    elif bound is not None:
        values.append(bound[1] - 1 if kind is int else float(np.nextafter(bound[1], -1.0)))
    return values


_HAND_PICKED_ROWS = [
    ("cf", "dim", "8"),
    (None, "workers", "2"),
    ("calibration", "iterations", "5"),
    (None, "rec_k", None),
    ("cf", "epochs", True),  # a bool is not an int
    ("calibration", "eps_ratio", "0.5"),
    (None, "evaluate", 1),
    # rates of the right type that are not finite and positive
    ("cf", "learning_rate", float("nan")),
    ("calibration", "eps_ratio", float("nan")),
    ("calibration", "step_size", -1e-3),
    ("calibration", "variational_lr", -1e-3),
    ("combination", "variational_lr", -0.5),
    ("combination", "step_size", float("inf")),
    ("cf", "seed", -2),  # numpy refuses a negative seed only when training starts
    (None, "output_dir", ""),  # would write into the current directory
    ("attack", "n_folds", 0), ("attack", "n_folds", 1),
    ("attack", "max_iterations", -1), ("attack", "seed", -1),
]
_BAD_CONFIG_ROWS = _HAND_PICKED_ROWS + [
    row for row in ((section, key, value) for section, key, kind, bound in _CONFIG_FIELDS
                    for value in _refused_values(kind, bound))
    if repr(row) not in map(repr, _HAND_PICKED_ROWS)
]


def _no_training(*_args, **_kwargs):
    pytest.fail("trained or scored for a request that cannot be served")


@pytest.mark.parametrize("section,key,value", _BAD_CONFIG_ROWS)
def test_wrong_typed_config_value_exit_1(workspace, tmp_path, capsys, monkeypatch,
                                         section, key, value):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    payload = json.loads(config_path.read_text())
    (payload if section is None else payload[section])[key] = value
    config_path.write_text(json.dumps(payload))
    monkeypatch.setattr(scenario, "train_cf", _no_training)
    assert cli_main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err and (section is None or repr(section) in err)
    assert not list(tmp_path.glob("out/model_*"))


_SECTION_CLASSES = {"cf": CFTrainConfig, "calibration": CalibrationConfig,
                    "combination": CombinationConfig, "attack": AttackSettings}


@pytest.mark.parametrize("section,key,value", _BAD_CONFIG_ROWS + [
    # the dataset fields, by their names in Python; a str field takes no Path
    (None, "dataset_format", 1), (None, "ratings_path", True), (None, "users_path", 1),
    (None, "output_dir", Path("out")), (None, "store_dir", Path("store")),
    # a section given as anything but its dataclass
    (None, "cf", {"dim": 8}), (None, "calibration", {"iterations": 5}),
    (None, "combination", CalibrationConfig()), (None, "attack", None),
])
def test_config_built_in_python_refuses_bad_value(section, key, value):
    if section is None:
        def build(**kwargs):
            return Config(**{"ratings_path": "r", "users_path": "u", **kwargs})
    else:
        build = _SECTION_CLASSES[section]
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        build(**{key: value})


@pytest.mark.parametrize("section", sorted(_SECTION_CLASSES) + [None])
def test_config_fields_cannot_be_assigned(section):
    # a field set after construction would never pass the construction check
    config = (Config(ratings_path="r", users_path="u") if section is None
              else _SECTION_CLASSES[section]())
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


def test_replace_checks_the_new_value():
    config = CFTrainConfig()
    assert dataclasses.replace(config, dim=8).dim == 8
    with pytest.raises(ValueError, match="'dim' must be int, got 8.0"):
        dataclasses.replace(config, dim=8.0)


def test_numpy_numbers_stored_as_plain_numbers():
    config = CalibrationConfig(iterations=np.int64(2000), eps_ratio=np.float32(0.5))
    assert type(config.iterations) is int and type(config.eps_ratio) is float
    assert CalibrationConfig(iterations=np.int64(2000)).hash() == CalibrationConfig().hash()
    assert config.hash() == CalibrationConfig().hash()


def test_int_too_large_for_a_float_refused():
    with pytest.raises(ValueError, match="'eps_ratio' must be finite"):
        CalibrationConfig(eps_ratio=10**400)


def test_int_accepted_where_float_declared(workspace, tmp_path):
    _, cfg = workspace
    payload = json.loads(cfg.read_text())
    loaded = []
    for value in (1, 1.0):
        payload["calibration"]["eps_ratio"] = value
        path = tmp_path / "int.json"
        path.write_text(json.dumps(payload))
        loaded.append(Config.from_json(path).calibration)
    assert loaded[0].eps_ratio == 1 and type(loaded[0].eps_ratio) is float
    # so both spellings name one store entry
    assert loaded[0].hash() == loaded[1].hash()


def test_train_writes_checkpoint_and_report(workspace, capsys):
    root, cfg = workspace
    assert cli_main(["train", "--config", str(cfg)]) == 0
    report = json.loads((root / "out" / "train_report.json").read_text())
    assert report["dataset"]["users"] == 60
    assert list(Path(root / "out").glob("model_*.cf"))


def test_calibrate_subcommand(workspace):
    root, cfg = workspace
    trace = root / "trace.csv"
    assert cli_main(["calibrate", "--config", str(cfg), "--attr", "gender",
                     "--trace-csv", str(trace)]) == 0
    report = json.loads((root / "out" / "calibrate_gender.json").read_text())
    assert report["attribute"] == "gender"
    assert trace.exists()
    assert (root / "store" / "manifest.json").exists()


def test_calibrate_unknown_attribute_fails(workspace, capsys):
    root, cfg = workspace
    assert cli_main(["calibrate", "--config", str(cfg), "--attr", "shoe_size"]) == 1
    assert "shoe_size" in capsys.readouterr().err


def test_combine_subcommand(workspace):
    root, cfg = workspace
    assert cli_main(["combine", "--config", str(cfg), "--attrs", "gender,age"]) == 0
    report = json.loads((root / "out" / "combine_report.json").read_text())
    assert report["request"] == ["age", "gender"]
    assert len(report["alpha"]) == 2


def test_attack_and_rec_eval(workspace):
    root, cfg = workspace
    assert cli_main(["attack", "--config", str(cfg)]) == 0
    attack = json.loads((root / "out" / "attack_report.json").read_text())
    assert set(attack) >= {"gender", "age", "occupation", "averages"}
    assert cli_main(["rec-eval", "--config", str(cfg)]) == 0
    rec = json.loads((root / "out" / "rec_report.json").read_text())
    assert 0.0 <= rec["ndcg_at_k"] <= rec["hr_at_k"] <= 1.0


def test_attack_on_embeddings_file_trains_no_model(workspace, tmp_path):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    dataset, _ = load_dataset(Config.from_json(config_path))
    emb = tmp_path / "u.emb"
    write_embedding_file(emb, np.random.default_rng(0).standard_normal((dataset.n_users, 8)))
    assert cli_main(["attack", "--config", str(config_path), "--embeddings", str(emb)]) == 0
    assert (tmp_path / "out" / "attack_report.json").exists()
    assert not list((tmp_path / "out").glob("model_*"))


@pytest.mark.parametrize("extra_rows", [-1, 1])
def test_rec_eval_wrong_row_count_exit_1(workspace, tmp_path, capsys, extra_rows):
    _, cfg = workspace
    dataset, _ = load_dataset(Config.from_json(cfg))
    emb = tmp_path / "u.emb"
    write_embedding_file(emb, np.zeros((dataset.n_users + extra_rows, 8)))
    assert cli_main(["rec-eval", "--config", str(cfg), "--embeddings", str(emb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{dataset.n_users} users" in err


@pytest.mark.parametrize("args", [
    ["calibrate", "--attr", "bogus"],
    ["combine", "--attrs", "gender,bogus"],
    ["bound-check", "--attrs", "gender,bogus"],
    ["scenario", "--script"],
], ids=lambda args: args[0])
def test_unknown_attribute_exit_1_before_training(workspace, tmp_path, capsys, args):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    if args[0] == "scenario":
        script_path = tmp_path / "script.json"
        ScenarioScript([["gender"], ["gender", "bogus"]]).to_json(script_path)
        args = [*args, str(script_path)]
    assert cli_main([*args, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err
    assert not list(tmp_path.glob("out/model_*"))


# root writes into a directory whatever its mode bits say
_NEEDS_MODE_BITS = pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")


@pytest.mark.parametrize("args, setup", [
    (["bound-check", "--attrs", "gender"], None),
    (["bound-check", "--attrs", "gender,gender"], None),
    (["bound-check", "--attrs", ","], None),
    (["combine", "--attrs", ","], None),
    (["dp", "--sigma", "0,0.5", "--seed", "-1"], None),
    (["attack"], "too-many-folds"),
    (["dp", "--sigma", "0,1"], "too-many-folds"),
    (["scenario", "--script", "{tmp}/script.json"], "too-many-folds"),
    (["combine", "--attrs", "gender,age"], "too-many-folds"),
    (["rec-eval", "--embeddings", "{tmp}/missing.emb"], None),
    (["rec-eval", "--embeddings", "{tmp}/u.emb"], "narrow-emb"),
    (["rec-eval", "--embeddings", "{tmp}/u.emb"], "nan-emb"),
    (["attack", "--embeddings", "{tmp}/u.emb"], "nan-emb"),
    (["calibrate", "--attr", "gender", "--trace-csv", "{tmp}/missing/trace.csv"], None),
    (["calibrate", "--attr", "gender", "--trace-csv", "{tmp}"], None),
    (["calibrate", "--attr", "gender"], "store-is-file"),
    (["combine", "--attrs", "gender"], "store-is-file"),
    (["bound-check", "--attrs", "gender,age"], "store-is-file"),
    pytest.param(["train"], "out-read-only", marks=_NEEDS_MODE_BITS),
    pytest.param(["calibrate", "--attr", "gender"], "store-read-only", marks=_NEEDS_MODE_BITS),
    pytest.param(["calibrate", "--attr", "gender", "--trace-csv", "{tmp}/traces/t.csv"],
                 "traces-read-only", marks=_NEEDS_MODE_BITS),
], ids=["bound-check-one-attr", "bound-check-repeated-attr", "bound-check-no-attr",
        "combine-no-attr", "dp-negative-seed", "attack-too-many-folds",
        "dp-too-many-folds", "scenario-too-many-folds", "combine-too-many-folds",
        "rec-eval-missing-emb", "rec-eval-narrow-emb", "rec-eval-nan-emb", "attack-nan-emb",
        "calibrate-missing-trace-dir", "calibrate-trace-is-dir",
        "calibrate-store-is-file", "combine-store-is-file", "bound-check-store-is-file",
        "train-out-read-only", "calibrate-store-read-only", "calibrate-trace-dir-read-only"])
def test_unservable_request_exit_1_before_training(
    workspace, tmp_path, capsys, monkeypatch, args, setup
):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    if setup == "store-is-file":  # the configured store directory is a regular file
        (tmp_path / "store").write_text("")
    if setup == "too-many-folds":  # more attack folds than the 60 users can fill
        payload = json.loads(config_path.read_text())
        payload["attack"]["n_folds"] = 1000
        config_path.write_text(json.dumps(payload))
        ScenarioScript([["gender"]]).to_json(tmp_path / "script.json")
    if setup in ("narrow-emb", "nan-emb"):  # 5 columns for a dim 8 model, or all NaN
        n_users = load_dataset(Config.from_json(config_path))[0].n_users
        U = np.ones((n_users, 5)) if setup == "narrow-emb" else np.full((n_users, 8), np.nan)
        write_embedding_file(tmp_path / "u.emb", U)
    read_only = {f"{name}-read-only": tmp_path / name
                 for name in ("out", "store", "traces")}.get(setup)
    if read_only:
        read_only.mkdir()
        read_only.chmod(0o555)

    monkeypatch.setattr(scenario, "train_cf", _no_training)
    for audit in ("attack_metrics", "hr_ndcg_at_k"):
        monkeypatch.setattr(cli, audit, _no_training)
    args = [a.format(tmp=tmp_path) for a in args]
    try:
        assert cli_main([*args, "--config", str(config_path)]) == 1
    finally:
        if read_only:
            read_only.chmod(0o755)
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("out/model_*"))
    assert not list(tmp_path.glob("store/*"))


def test_rec_k_below_one_exit_1_before_training(workspace, tmp_path, capsys):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    payload = json.loads(config_path.read_text())
    payload["rec_k"] = 0
    config_path.write_text(json.dumps(payload))
    assert cli_main(["rec-eval", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'rec_k'" in err
    assert not list(tmp_path.glob("out/model_*"))


@pytest.mark.parametrize("sigma", [",", "", "abc", "0.5,abc", "-1", "0,-0.5", "nan", "inf"])
def test_bad_sigma_exit_1_before_training(workspace, tmp_path, capsys, sigma):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    assert cli_main(["dp", "--config", str(config_path), "--sigma", sigma]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma")
    assert not list(tmp_path.glob("out/*"))


def test_corrupt_embeddings_file_exit_1(workspace, tmp_path, capsys):
    root, cfg = workspace
    assert cli_main(["dp", "--config", str(cfg), "--sigma", "0", "--seed", "1"]) == 0
    blob = bytearray((root / "out" / "dp_sigma_0.emb").read_bytes())
    blob[30] ^= 0xFF
    bad = tmp_path / "flipped.emb"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert cli_main(["attack", "--config", str(cfg), "--embeddings", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checksum mismatch" in err


def test_retrain_in_same_dir_recalibrates(workspace, tmp_path):
    _, cfg = workspace
    payload = json.loads(cfg.read_text())
    payload["output_dir"] = str(tmp_path / "out")
    payload["store_dir"] = ""
    counts = []
    for epochs in (1, 2):
        payload["cf"]["epochs"] = epochs
        path = tmp_path / f"epochs{epochs}.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["combine", "--config", str(path), "--attrs", "gender"]) == 0
        report = json.loads((tmp_path / "out" / "combine_report.json").read_text())
        counts.append((report["calibrations_executed"], report["cache_hits"]))
    assert counts == [(1, 0), (1, 0)]


def test_scenario_subcommand(workspace):
    root, cfg = workspace
    script_path = root / "script.json"
    ScenarioScript([["gender"], ["gender", "age"]]).to_json(script_path)
    assert cli_main(["scenario", "--config", str(cfg), "--script", str(script_path)]) == 0
    report = json.loads((root / "out" / "scenario_report.json").read_text())
    assert len(report["requests"]) == 2
    assert report["requests"][1]["cache_hits"] >= 1


@pytest.mark.parametrize("script", [
    [1, 2],
    {"schema_version": 1, "requests": 5},
    {"schema_version": 1, "requests": [1]},
    {"schema_version": 1, "requests": "gender"},
])
def test_malformed_script_exit_1_before_training(workspace, tmp_path, capsys, script):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    assert cli_main(["scenario", "--config", str(config_path), "--script", str(script_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.glob("out/*.cf"))


def test_bound_check_subcommand(workspace):
    root, cfg = workspace
    assert cli_main(["bound-check", "--config", str(cfg), "--attrs", "gender,age"]) == 0
    report = json.loads((root / "out" / "bound_check.json").read_text())
    assert {"p1", "p2", "gap", "eps", "k"} <= set(report)


def test_bound_check_reuses_combine_calibrations(workspace, tmp_path, monkeypatch):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    assert cli_main(["combine", "--config", str(config_path), "--attrs", "gender,age"]) == 0

    def no_calibration(*args, **kwargs):
        raise RuntimeError("calibrated although the store holds the entry")

    monkeypatch.setattr(scenario, "calibrate", no_calibration)
    assert cli_main(["bound-check", "--config", str(config_path), "--attrs", "gender,age"]) == 0
    assert (tmp_path / "out" / "bound_check.json").exists()
    assert cli_main(["combine", "--config", str(config_path), "--attrs", "gender,age,gender"]) == 0
    report = json.loads((tmp_path / "out" / "combine_report.json").read_text())
    assert (report["calibrations_executed"], report["cache_hits"]) == (0, 2)


def test_combine_reuses_the_weights_of_a_set_named_in_any_order(workspace, tmp_path,
                                                                monkeypatch):
    config_path = _fresh_output_config(workspace[1], tmp_path)
    out = tmp_path / "out"
    assert cli_main(["combine", "--config", str(config_path), "--attrs", "gender,age"]) == 0
    first = json.loads((out / "combine_report.json").read_text())
    released = (out / "request_00.emb").read_bytes()

    def no_fit(*args, **kwargs):
        raise RuntimeError("fitted weights that the store holds")

    monkeypatch.setattr(scenario, "optimize_weights", no_fit)
    assert cli_main(["combine", "--config", str(config_path), "--attrs", "age,gender"]) == 0
    second = json.loads((out / "combine_report.json").read_text())
    assert (first["weights_cached"], second["weights_cached"]) == (False, True)
    assert second["alpha"] == first["alpha"]
    assert (out / "request_00.emb").read_bytes() == released


def test_dp_subcommand_sweeps_sigma(workspace):
    root, cfg = workspace
    assert cli_main(["dp", "--config", str(cfg), "--sigma", "0,0.5", "--seed", "1"]) == 0
    report = json.loads((root / "out" / "dp_report.json").read_text())
    assert len(report["curve"]) == 2
    assert report["curve"][0]["sigma"] == 0.0
    assert (root / "out" / "dp_sigma_0.emb").exists()
