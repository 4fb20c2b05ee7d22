import dataclasses
import hashlib
import json
import logging
import os
import re
import struct
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from attrunlearn import cf, data, nets, scenario
from attrunlearn.calibration import CalibrationConfig
from attrunlearn.combination import CombinationConfig
from attrunlearn.scenario import AttackSettings, Config, ScenarioScript, dp_baseline, run_scenario
from attrunlearn.store import EmbeddingStore, StoreError, read_embedding_file, write_embedding_file


class TestEmbeddingFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 3))
        path = tmp_path / "m.emb"
        write_embedding_file(path, m)
        back = read_embedding_file(path)
        assert back.tobytes() == m.tobytes()
        assert back.flags.writeable and back.dtype == np.float64
        body = b"LEGOEMB1" + struct.pack("<II", 7, 3) + m.tobytes()
        assert path.read_bytes() == body + hashlib.sha256(body).digest()[:8]

    def test_checksum_detects_corruption(self, tmp_path):
        m = np.ones((4, 2))
        path = tmp_path / "m.emb"
        write_embedding_file(path, m)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="checksum"):
            read_embedding_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(StoreError, match="magic"):
            read_embedding_file(path)

    @pytest.mark.parametrize("blob, message", [
        (b"LEGOEMB1" + struct.pack("<II", 3, 2) + bytes(40), "payload size mismatch"),
        (b"LEGOEMB1" + struct.pack("<II", 1, 1) + bytes(12), "payload size mismatch"),
        (b"LEGOEMB", "truncated"),
    ], ids=["five-values-for-3x2", "partial-value", "truncated"])
    def test_malformed_file_named(self, tmp_path, blob, message):
        # a checksum that holds does not make a file whose length its header
        # does not give readable
        path = tmp_path / "m.emb"
        path.write_bytes(blob + hashlib.sha256(blob).digest()[:8])
        with pytest.raises(StoreError, match=re.escape(f"{path}: {message}") + "$"):
            read_embedding_file(path)


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store")
        m = np.random.default_rng(1).normal(size=(5, 4))
        store.put("k1", m)
        assert store.get("k1").tobytes() == m.tobytes()
        assert "k1" in store

    def test_missing_key(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store")
        with pytest.raises(StoreError, match="missing key"):
            store.get("nope")
        assert "nope" not in store

    def test_overwrite_updates(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store")
        store.put("k", np.zeros((2, 2)))
        store.put("k", np.ones((2, 2)))
        assert np.all(store.get("k") == 1.0)

    def test_concurrent_readers_see_consistent_matrix(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store")
        m = np.random.default_rng(2).normal(size=(943, 32))
        store.put("big", m)

        def read(_):
            return store.get("big").tobytes()

        with ThreadPoolExecutor(max_workers=8) as pool:
            blobs = list(pool.map(read, range(32)))
        assert all(b == m.tobytes() for b in blobs)

    def test_manifest_stays_consistent_after_partial_write(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store")
        store.put("a", np.ones((2, 2)))
        # orphan data file without a manifest entry (simulates a crash between
        # file write and manifest publish): store must keep serving intact keys
        (store.directory / "orphan.emb").write_bytes(b"garbage")
        assert store.get("a") is not None
        assert store.keys() == ["a"]

    def test_entry_found_after_its_manifest_line_is_lost(self, tmp_path):
        # a put racing in another process can overwrite the manifest with a
        # version that lacks this entry; lookups go by file name, not by manifest
        store = EmbeddingStore(tmp_path / "store")
        store.put("a", np.zeros((2, 2)))
        manifest = store.directory / "manifest.json"
        before = manifest.read_bytes()
        m = np.random.default_rng(3).normal(size=(6, 3))
        store.put("b", m)
        manifest.write_bytes(before)
        fresh = EmbeddingStore(store.directory)
        assert "b" in fresh
        assert fresh.get("b").tobytes() == m.tobytes()
        assert fresh.keys() == ["a"]

    def test_put_rewrites_a_manifest_that_does_not_parse(self, tmp_path, caplog):
        # an older version's racing puts could leave manifest.json unparseable
        store = EmbeddingStore(tmp_path / "store")
        old = np.random.default_rng(4).normal(size=(3, 2))
        store.put("old", old)
        (store.directory / "manifest.json").write_text('{"old": 1}\n}garbage')
        new = np.random.default_rng(5).normal(size=(4, 2))
        store.put("new", new)
        assert "does not parse" in caplog.text
        fresh = EmbeddingStore(store.directory)
        assert fresh.get("old").tobytes() == old.tobytes()
        assert fresh.get("new").tobytes() == new.tobytes()
        assert fresh.keys() == ["new"]

    def test_concurrent_processes_put_and_read_back(self, tmp_path):
        # 4 processes put distinct keys and 2 put one shared key, all at once
        child = textwrap.dedent("""
            import sys, time
            from pathlib import Path
            import numpy as np
            from attrunlearn.store import EmbeddingStore
            store_dir, go, keys = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
            while not go.exists():
                time.sleep(0.001)
            store = EmbeddingStore(store_dir)
            for key in keys:
                seed = int(key.split("_")[1])
                store.put(key, np.random.default_rng(seed).normal(size=(30, 4)))
        """)
        distinct = [[f"p{p}_{p * 100 + i}" for i in range(25)] for p in range(4)]
        shared = [["shared_999"] * 25] * 2
        env = {**os.environ, "PYTHONPATH": str(Path(scenario.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        go = tmp_path / "go"
        procs = [subprocess.Popen([sys.executable, "-c", child, str(tmp_path / "store"),
                                   str(go), *keys], env=env, stderr=subprocess.PIPE, text=True)
                 for keys in distinct + shared]
        time.sleep(0.5)  # let every child reach the start line
        go.touch()
        errors = [p.communicate(timeout=120)[1] for p in procs]
        assert [p.returncode for p in procs] == [0] * len(procs), errors
        store = EmbeddingStore(tmp_path / "store")
        for key in sum(distinct, []) + ["shared_999"]:
            want = np.random.default_rng(int(key.split("_")[1])).normal(size=(30, 4))
            assert key in store
            assert store.get(key).tobytes() == want.tobytes()


def make_pipeline(tmp_path, n_users=160, evaluate=False, workers=2):
    dataset, table = data.synthetic_dataset(
        n_users, 80, d_signal=3, seed=33, cardinalities=(2, 3, 2)
    )
    model = cf.CFModel(
        dataset.oracle_embeddings.copy(), dataset.oracle_item_embeddings.copy()
    )
    config = Config(
        ratings_path="unused",
        users_path="unused",
        calibration=CalibrationConfig(
            iterations=120, batch_size=64, variational_lr=1e-2, inner_steps=2, seed=3
        ),
        combination=CombinationConfig(iterations=40, batch_size=64, seed=3),
        attack=AttackSettings(n_folds=5, seed=4, max_iterations=60),
        output_dir=str(tmp_path / "out"),
        store_dir=str(tmp_path / "store"),
        workers=workers,
        evaluate=evaluate,
    )
    return config, dataset, table, model


class TestRunScenario:
    def test_growing_request_only_calibrates_new_attribute(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0"], ["attr0", "attr1"]])
        reports = run_scenario(config, script, dataset, table, model)
        assert reports[0].calibrations_executed == 1
        assert reports[0].cache_hits == 0
        assert reports[1].calibrations_executed == 1  # only attr1 is new
        assert reports[1].cache_hits == 1

    def test_shrinking_request_hits_cache_entirely(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"], ["attr0"]])
        reports = run_scenario(config, script, dataset, table, model)
        assert reports[1].calibrations_executed == 0
        assert reports[1].cache_hits == 1

    def test_counter_conservation(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr2"], ["attr1", "attr2"], ["attr0", "attr1", "attr2"]])
        reports = run_scenario(config, script, dataset, table, model)
        for report in reports:
            assert report.calibrations_executed + report.cache_hits == len(report.request)

    def test_cache_hit_reproduces_recalibrated_combination(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"]])
        first = run_scenario(config, script, dataset, table, model)[0]
        cold = read_embedding_file(Path(config.output_dir) / "request_00.emb")
        # second run: everything cached, same seeds -> value-identical U*
        config2, *_ = make_pipeline(tmp_path)
        second = run_scenario(config2, script, dataset, table, model)[0]
        warm = read_embedding_file(Path(config2.output_dir) / "request_00.emb")
        assert second.calibrations_executed == 0
        assert first.alpha.tobytes() == second.alpha.tobytes()
        assert cold.tobytes() == warm.tobytes()

    def test_corrupted_store_entry_recalibrated(self, tmp_path, caplog):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0"]])
        run_scenario(config, script, dataset, table, model)
        store = EmbeddingStore(config.store_dir)
        key = store.key(model.user_embeddings, table.entries(["attr0"]), config.calibration.hash())
        entry = store._load_manifest()[key["attr0"]]
        blob = bytearray((store.directory / entry["file"]).read_bytes())
        blob[30] ^= 0xFF
        (store.directory / entry["file"]).write_bytes(bytes(blob))
        import logging

        with caplog.at_level(logging.WARNING):
            reports = run_scenario(config, script, dataset, table, model)
        assert reports[0].calibrations_executed == 1
        assert "recalibrating" in caplog.text

    def test_retrained_model_recalibrates(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"]])
        run_scenario(config, script, dataset, table, model)
        retrained = cf.CFModel(model.user_embeddings * 1.01, model.item_embeddings)
        (report,) = run_scenario(config, script, dataset, table, retrained)
        assert (report.calibrations_executed, report.cache_hits, report.weights_cached) == (
            2, 0, False)
        (report,) = run_scenario(config, script, dataset, table, model)
        assert (report.calibrations_executed, report.cache_hits, report.weights_cached) == (
            0, 2, True)

    def test_permuted_labels_recalibrate(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"]])
        run_scenario(config, script, dataset, table, model)
        attr0 = table.get("attr0")
        permuted = np.random.default_rng(5).permutation(attr0.labels)
        relabelled = data.AttributeTable(
            [data.Attribute("attr0", attr0.cardinality, permuted), table.get("attr1")],
            table.user_ids,
        )
        reports = run_scenario(config, script, dataset, relabelled, model)
        assert (reports[0].calibrations_executed, reports[0].cache_hits) == (1, 1)
        assert not reports[0].weights_cached

    def test_key_covers_matrix_labels_and_cardinality(self):
        U0 = np.arange(12.0).reshape(6, 2)
        labels = np.array([0, 1, 0, 1, 0, 1])
        key = EmbeddingStore.key(U0, [("g", labels, 2)], "cfg")["g"]
        assert key.split("__")[1:] == ["g", "cfg"]
        variants = [
            (U0 + 1e-12, labels, 2),
            (U0.reshape(4, 3), labels, 2),
            (U0, labels[::-1], 2),
            (U0, labels, 3),
        ]
        for matrix, other_labels, cardinality in variants:
            assert EmbeddingStore.key(matrix, [("g", other_labels, cardinality)], "cfg")["g"] != key
        assert EmbeddingStore.key(U0.copy(), [("g", labels.astype(np.int32), 2)], "cfg")["g"] == key

    def test_workers_write_identical_entries_and_releases(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nets, "parallel_fits", lambda: 3)  # a real pool on any host
        script = ScenarioScript([["attr0", "attr1", "attr2"], ["attr1", "attr2"]])
        written = []
        for workers in (1, 3):
            config, dataset, table, model = make_pipeline(tmp_path / str(workers), workers=workers)
            run_scenario(config, script, dataset, table, model)
            store = EmbeddingStore(config.store_dir)
            entries = {key: (store.directory / entry["file"]).read_bytes()
                       for key, entry in store._load_manifest().items()}
            releases = [path.read_bytes()
                        for path in sorted(Path(config.output_dir).glob("request_*.emb"))]
            written.append((entries, releases))
        assert (len(written[0][0]), len(written[0][1])) == (3, 2)
        assert written[0] == written[1]

    def test_unknown_attribute_rejected(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        with pytest.raises(KeyError):
            run_scenario(config, ScenarioScript([["ghost"]]), dataset, table, model)

    def test_reports_written_as_json(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path, evaluate=True)
        script = ScenarioScript([["attr0"]])
        reports = run_scenario(config, script, dataset, table, model)
        payload = json.loads((tmp_path / "out" / "request_00.json").read_text())
        assert payload["request"] == ["attr0"]
        assert "attack" in payload and "rec" in payload
        assert reports[0].attack is not None

    def test_config_alone_places_store(self, tmp_path, monkeypatch):
        config, dataset, table, model = make_pipeline(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("ATTRUNLEARN_STORE", str(elsewhere))
        run_scenario(config, ScenarioScript([["attr0"]]), dataset, table, model)
        assert (Path(config.store_dir) / "manifest.json").exists()
        assert not elsewhere.exists()


def _weights_store(config, model, table, names):
    """The weights store beside ``config``'s calibrations, and the key of ``names``."""
    store = EmbeddingStore(config.store_dir)
    keys = store.key(model.user_embeddings, table.entries(names), config.calibration.hash())
    key = scenario.weights_key([keys[n] for n in names], config.combination)
    return EmbeddingStore(store.directory / scenario.WEIGHTS_DIR), key


def _refuse_fit(*args, **kwargs):
    raise AssertionError("fitted weights that the store holds")


class TestWeightsStore:
    def test_repeated_request_reads_weights_instead_of_fitting(self, tmp_path, monkeypatch):
        config, dataset, table, model = make_pipeline(tmp_path)
        first = run_scenario(config, ScenarioScript([["attr0"], ["attr0", "attr1"]]),
                             dataset, table, model)
        out = Path(config.output_dir)
        released = (out / "request_01.emb").read_bytes()
        weights, key = _weights_store(config, model, table, ["attr0", "attr1"])
        # one entry for the pair; the one-attribute request is never looked up
        assert weights.keys() == [key]
        assert weights.get(key).tobytes() == first[1].alpha[None, :].tobytes()
        assert [r.weights_cached for r in first] == [False, False]
        # the main store lists the calibrations alone
        assert sorted(k.split("__")[1] for k in EmbeddingStore(config.store_dir).keys()) == [
            "attr0", "attr1"]

        monkeypatch.setattr(scenario, "optimize_weights", _refuse_fit)
        (again,) = run_scenario(config, ScenarioScript([["attr1", "attr0"]]),
                                dataset, table, model)
        assert (again.calibrations_executed, again.weights_cached) == (0, True)
        assert again.alpha.tobytes() == first[1].alpha.tobytes()
        assert (out / "request_00.emb").read_bytes() == released
        assert json.loads((out / "request_00.json").read_text())["weights_cached"] is True

    def test_changed_combination_setting_refits(self, tmp_path):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"]])
        run_scenario(config, script, dataset, table, model)
        for f in dataclasses.fields(CombinationConfig):
            value = getattr(config.combination, f.name)
            combination = dataclasses.replace(
                config.combination,
                **{f.name: value * 2 if isinstance(value, float) else value + 1})
            changed = dataclasses.replace(config, combination=combination)
            (report,) = run_scenario(changed, script, dataset, table, model)
            assert (report.calibrations_executed, report.weights_cached) == (0, False), f.name
        (report,) = run_scenario(config, script, dataset, table, model)
        assert report.weights_cached

    @pytest.mark.parametrize("damage", ["flipped-byte", "wrong-shape"])
    def test_damaged_weights_entry_is_refitted(self, tmp_path, caplog, damage):
        config, dataset, table, model = make_pipeline(tmp_path)
        script = ScenarioScript([["attr0", "attr1"]])
        (first,) = run_scenario(config, script, dataset, table, model)
        released = (Path(config.output_dir) / "request_00.emb").read_bytes()
        weights, key = _weights_store(config, model, table, ["attr0", "attr1"])
        path = weights.directory / weights._file_name(key)
        entry = path.read_bytes()
        if damage == "flipped-byte":
            blob = bytearray(entry)
            blob[20] ^= 0xFF
            path.write_bytes(bytes(blob))
        else:
            weights.put(key, first.alpha[:, None])
        with caplog.at_level(logging.WARNING):
            (report,) = run_scenario(config, script, dataset, table, model)
        assert "refitting" in caplog.text
        assert not report.weights_cached
        assert path.read_bytes() == entry
        assert (Path(config.output_dir) / "request_00.emb").read_bytes() == released


class TestScriptAndConfig:
    def test_script_normalizes_and_validates(self):
        script = ScenarioScript([["b", "a", "a"]])
        assert script.requests == [["a", "b"]]
        with pytest.raises(ValueError):
            ScenarioScript([[]])
        with pytest.raises(ValueError):
            ScenarioScript([])

    def test_script_json_round_trip(self, tmp_path):
        script = ScenarioScript([["g"], ["g", "a"]])
        path = tmp_path / "script.json"
        script.to_json(path)
        again = ScenarioScript.from_json(path)
        assert again.requests == script.requests

    def test_config_json_round_trip(self, tmp_path):
        config = Config(ratings_path="r", users_path="u", workers=3)
        path = tmp_path / "config.json"
        config.to_json(path)
        again = Config.from_json(path)
        assert again.workers == 3
        assert again.calibration.hash() == config.calibration.hash()

    def test_int_in_float_field_stored_as_float(self):
        assert CalibrationConfig(eps_ratio=1).hash() == CalibrationConfig(eps_ratio=1.0).hash()
        assert scenario.weights_key(["k"], CombinationConfig(step_size=1)) == scenario.weights_key(
            ["k"], CombinationConfig(step_size=1.0))
        built = [CalibrationConfig(eps_ratio=1, step_size=np.int64(1)),
                 CombinationConfig(step_size=1, variational_lr=1), cf.CFTrainConfig(learning_rate=1)]
        for config in built:
            for f in dataclasses.fields(config):
                assert (type(getattr(config, f.name)) is float) == (f.type == "float"), f.name

    def test_config_hashes_keep_their_values(self, tmp_path):
        # pinned: store entries and weights written by earlier versions must still hit
        assert CalibrationConfig().hash() == "895c6552a5bdd182"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "schema_version": 1, "dataset": {"ratings_path": "r", "users_path": "u"},
            "calibration": {"eps_ratio": 1, "step_size": 1, "variational_lr": 0.01, "iterations": 40},
            "combination": {"step_size": 1, "variational_lr": 1}}))
        config = Config.from_json(path)
        assert config.calibration.hash() == "6a214bab7145220d"
        assert scenario.weights_key(["a"], config.combination) == (
            "e96a5a36014181c38e947bc2a0a3081f1241bea8dc8c8e9ed0148b3a8d95856c")

    def test_config_schema_version_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema"):
            Config.from_json(path)


class TestEnsureModel:
    def test_checkpoint_reused_only_for_the_same_training_config(self, tmp_path):
        dataset, _ = data.synthetic_dataset(40, 30, d_signal=2, seed=7)
        config = Config(ratings_path="unused", users_path="unused", output_dir=str(tmp_path))
        config.cf = cf.CFTrainConfig(dim=4, epochs=1, batch_size=64, seed=2)
        first = scenario.ensure_model(config, dataset)
        assert first.train_diagnostics is not None
        again = scenario.ensure_model(config, dataset)
        assert again.train_diagnostics is None  # loaded from the checkpoint
        assert again.user_embeddings.tobytes() == first.user_embeddings.tobytes()
        config.cf.epochs = 2
        second = scenario.ensure_model(config, dataset)
        assert second.train_diagnostics is not None
        assert not np.array_equal(second.user_embeddings, first.user_embeddings)
        assert len(list(tmp_path.glob("model_*.cf"))) == 1  # same name, new contents
        assert scenario.ensure_model(config, dataset).train_diagnostics is None

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:-16], lambda blob: blob + bytes(8), lambda blob: blob[:10],
        lambda blob: blob[:40] + bytes([blob[40] ^ 0xFF]) + blob[41:],
    ], ids=["truncated", "trailing-bytes", "cut-header", "flipped-byte"])
    def test_damaged_checkpoint_is_retrained(self, tmp_path, caplog, damage):
        dataset, _ = data.synthetic_dataset(40, 30, d_signal=2, seed=7)
        config = Config(ratings_path="unused", users_path="unused", output_dir=str(tmp_path))
        config.cf = cf.CFTrainConfig(dim=4, epochs=1, batch_size=64, seed=2)
        first = scenario.ensure_model(config, dataset)
        (ckpt,) = tmp_path.glob("model_*.cf")
        blob = ckpt.read_bytes()
        ckpt.write_bytes(damage(blob))
        with caplog.at_level("WARNING"):
            again = scenario.ensure_model(config, dataset)
        assert "checkpoint unreadable" in caplog.text
        assert again.train_diagnostics is not None  # retrained, not loaded
        assert again.user_embeddings.tobytes() == first.user_embeddings.tobytes()
        assert ckpt.read_bytes() == blob


class TestDpBaseline:
    def test_zero_noise_identity(self):
        U0 = np.random.default_rng(3).normal(size=(5, 4))
        out = dp_baseline(U0, 0.0, seed=1)
        assert np.array_equal(out, U0)
        assert out is not U0

    def test_seed_determinism(self):
        U0 = np.zeros((6, 3))
        a = dp_baseline(U0, 0.5, seed=9)
        b = dp_baseline(U0, 0.5, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_noise_scale_applied(self):
        U0 = np.zeros((2000, 8))
        out = dp_baseline(U0, 0.7, seed=10)
        assert out.std() == pytest.approx(0.7, rel=0.05)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            dp_baseline(np.zeros((2, 2)), -0.1, seed=0)
