import logging
import threading

import numpy as np
import pytest

from _oracles import float_digest, reference_attack_metrics, reference_micro_f1, top_k
from attrunlearn import data, evaluation, nets
from attrunlearn.evaluation import (
    FoldSpec,
    attack_metrics,
    bacc,
    hr_ndcg_at_k,
    make_folds,
    micro_f1,
    train_attacker,
)


class TestBacc:
    def test_all_correct(self):
        labels = np.array([0, 1, 2, 0, 1])
        assert bacc(labels, labels) == 100.0

    def test_binary_recall_mean(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 1, 0])  # class0 recall 1.0, class1 recall 0.5
        assert bacc(preds, labels) == pytest.approx(75.0)

    def test_three_class_hand_mean(self):
        # recalls 0.9, 0.6, 0.3 -> 60%
        labels = np.concatenate([np.zeros(10), np.ones(10), np.full(10, 2)]).astype(int)
        preds = labels.copy()
        preds[9] = 1
        preds[10:14] = 2
        preds[20:27] = 0
        assert bacc(preds, labels) == pytest.approx(60.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        perm = np.array([2, 0, 1])
        assert bacc(perm[preds], perm[labels]) == pytest.approx(bacc(preds, labels))

    def test_absent_class_excluded(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 2, 1, 1])  # class 2 never appears in labels
        assert bacc(preds, labels) == pytest.approx((0.5 + 1.0) / 2 * 100)


class TestMicroF1:
    def test_all_correct(self):
        labels = np.array([0, 1, 2])
        assert micro_f1(labels, labels) == 100.0

    def test_half_correct_balanced_binary(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 1, 1, 0])
        assert micro_f1(preds, labels) == pytest.approx(50.0)

    def test_seven_of_ten(self):
        labels = np.zeros(10, int)
        labels[5:] = 1
        preds = labels.copy()
        preds[[0, 5, 6]] = 1 - preds[[0, 5, 6]]
        assert micro_f1(preds, labels) == pytest.approx(70.0)

    def test_equals_accuracy_for_single_label(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 100)
        preds = rng.integers(0, 4, 100)
        assert micro_f1(preds, labels) == pytest.approx(100.0 * (preds == labels).mean())

    def test_bitwise_equal_to_pooled_counts(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            n, p = int(rng.integers(0, 60)), int(rng.integers(1, 8))
            labels = rng.integers(0, p, n)
            preds = np.where(rng.random(n) < rng.random(), labels, rng.integers(0, p, n))
            assert micro_f1(preds, labels) == reference_micro_f1(preds, labels)
        assert micro_f1(np.array([], int), np.array([], int)) == 0.0


class TestFolds:
    def test_partition_and_balance(self):
        spec = make_folds(23, n_folds=5, seed=3)
        assert len(spec.assignments) == 23
        sizes = np.bincount(spec.assignments, minlength=5)
        assert sizes.sum() == 23
        assert sizes.max() - sizes.min() <= 1

    def test_seed_determinism(self):
        a = make_folds(50, seed=9)
        b = make_folds(50, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    @pytest.mark.parametrize("n_folds", [0, 1, -2])
    def test_fewer_than_two_folds_rejected(self, n_folds):
        with pytest.raises(ValueError, match="n_folds"):
            make_folds(10, n_folds=n_folds)

    def test_more_folds_than_users_rejected(self):
        # 5 folds of 4 users would leave one test side empty and its BAcc NaN
        with pytest.raises(ValueError, match="n_folds <= n_users"):
            make_folds(4, n_folds=5)
        assert sorted(make_folds(5, n_folds=5).assignments) == [0, 1, 2, 3, 4]


class TestTrainAttacker:
    def test_separable_toy_data(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(-2, 0.2, (40, 4)), rng.normal(2, 0.2, (40, 4))])
        y = np.repeat([0, 1], 40)
        net = train_attacker(x, y, 2, seed=1)
        preds = evaluation.predict(net, x)
        assert (preds == y).mean() >= 0.99

    def test_shuffled_labels_chance_on_holdout(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1000, 8))
        y = rng.permutation(np.arange(1000) % 2)
        net = train_attacker(x[:800], y[:800], 2, seed=2)
        preds = evaluation.predict(net, x[800:])
        assert abs(bacc(preds, y[800:]) - 50.0) <= 5.0

    def test_zero_iterations_returns_initialization(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 4))
        y = np.array([0, 1] * 10)
        net = train_attacker(x, y, 2, seed=7, max_iterations=0)
        fresh = nets.init_network([4, 100, 2], 7)
        for trained, init in zip(net.layers, fresh.layers):
            assert trained.weights.tobytes() == init.weights.tobytes()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_attacker(np.zeros((4, 2)), np.zeros(4, int), 2)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3))
        y = np.array([0, 1, 2] * 10)
        a = train_attacker(x, y, 3, seed=11, max_iterations=50)
        b = train_attacker(x, y, 3, seed=11, max_iterations=50)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()

    def test_seeded_weights_pinned(self):
        dataset, table = data.synthetic_dataset(300, 100, d_signal=3, seed=23, cardinalities=(2, 3))
        a = table.get("attr1")
        net = train_attacker(dataset.oracle_embeddings, a.labels, a.cardinality, seed=3,
                             max_iterations=30)
        # any change to the arithmetic of forward_backward or Adam changes this digest
        assert float_digest(*net.parameters()) == (
            "620b0c3edd7c5154c40a02fec743c1e6feaaaed50f729b8f635c1e3830ef83e9"
        )


class TestAttackMetrics:
    def test_onehot_oracle_embeddings_near_perfect(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, 120)
        U = np.zeros((120, 3))
        U[np.arange(120), labels] = 1.0
        report = attack_metrics(U, [("attr", labels, 3)], make_folds(120, seed=1))
        assert report.per_attribute["attr"].bacc_mean >= 95.0

    def test_random_embeddings_chance(self):
        rng = np.random.default_rng(7)
        labels = rng.permutation(np.arange(600) % 2)
        U = rng.normal(size=(600, 16))
        report = attack_metrics(U, [("attr", labels, 2)], make_folds(600, seed=2))
        assert abs(report.per_attribute["attr"].bacc_mean - 50.0) <= 5.0

    def test_fold_regenerated_when_train_side_single_class(self, caplog):
        rng = np.random.default_rng(8)
        labels = np.zeros(20, int)
        labels[[3, 7]] = 1
        U = rng.normal(size=(20, 4))
        U[labels == 1] += 3.0
        # force both positive users into the same fold so that fold's train
        # side would be single-class and the fold assignment must be regenerated
        assignments = np.arange(20) % 5
        assignments[[3, 7]] = 0
        assignments[[0, 5]] = 3, 1
        bad = FoldSpec(seed=123, assignments=assignments, n_folds=5)
        with caplog.at_level(logging.WARNING):
            report = attack_metrics(U, [("attr", labels, 2)], bad)
        assert "regenerating" in caplog.text
        assert 0.0 <= report.per_attribute["attr"].bacc_mean <= 100.0

    def test_no_attribute_rejected(self):
        with pytest.raises(ValueError, match="at least one attribute"):
            attack_metrics(np.zeros((10, 2)), [], make_folds(10, seed=0))

    def test_report_json_shape(self):
        rng = np.random.default_rng(9)
        labels = rng.permutation(np.arange(60) % 2)
        U = rng.normal(size=(60, 4))
        report = attack_metrics(U, [("g", labels, 2)], make_folds(60, seed=3))
        payload = report.to_json()
        assert '"bacc_mean"' in payload and '"averages"' in payload


def _fit_threads(monkeypatch, threads):
    monkeypatch.setattr(nets, "parallel_fits", lambda: threads)


class TestPooledAttack:
    """The pooled attack against the serial loop of ``reference_attack_metrics``."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_report_equals_serial_loop(self, monkeypatch, threads):
        _fit_threads(monkeypatch, threads)
        dataset, table = data.synthetic_dataset(
            150, 40, d_signal=2, seed=31, cardinalities=(2, 21), items_per_user=8)
        U = dataset.oracle_embeddings
        assert [c for _, _, c in table.entries()] == [2, 21]
        folds = make_folds(len(U), seed=4)
        pooled = attack_metrics(U, table, folds, max_iterations=40)
        assert pooled.to_json() == reference_attack_metrics(U, table, folds, 40).to_json()

    def test_regenerated_folds_equal_serial_loop(self, monkeypatch, caplog):
        _fit_threads(monkeypatch, 3)
        rng = np.random.default_rng(8)
        labels = np.zeros(20, int)
        labels[[3, 7]] = 1
        U = rng.normal(size=(20, 4))
        U[labels == 1] += 3.0
        assignments = np.arange(20) % 5
        assignments[[3, 7]] = 0
        assignments[[0, 5]] = 3, 1
        bad = FoldSpec(seed=123, assignments=assignments, n_folds=5)
        entries = [("attr", labels, 2), ("other", rng.permutation(np.arange(20) % 3), 3)]
        with caplog.at_level(logging.WARNING):
            pooled = attack_metrics(U, entries, bad, max_iterations=30)
        assert "regenerating" in caplog.text
        assert pooled.to_json() == reference_attack_metrics(U, entries, bad, 30).to_json()

    def test_repeated_name_keeps_last_entry_as_serial_loop(self, monkeypatch):
        _fit_threads(monkeypatch, 3)
        rng = np.random.default_rng(12)
        U = rng.normal(size=(40, 3))
        entries = [("a", np.arange(40) % 2, 2), ("a", rng.permutation(np.arange(40) % 3), 3)]
        folds = make_folds(40, seed=5)
        pooled = attack_metrics(U, entries, folds, max_iterations=20)
        assert pooled.to_json() == reference_attack_metrics(U, entries, folds, 20).to_json()

    def test_non_finite_embeddings_raise_through_the_pool(self, monkeypatch):
        _fit_threads(monkeypatch, 3)
        U = np.random.default_rng(13).normal(size=(30, 3))
        U[4, 1] = np.nan
        entries = [("a", np.arange(30) % 2, 2), ("b", np.arange(30) % 3, 3)]
        before = threading.active_count()
        with pytest.raises(ValueError, match="non-finite gradient"):
            attack_metrics(U, entries, make_folds(30, seed=1), max_iterations=20)
        assert threading.active_count() == before


class TestThreadMap:
    def test_order_independent_of_workers(self, monkeypatch):
        _fit_threads(monkeypatch, 3)
        items = list(range(23))
        square = lambda x: (x, x * x)  # noqa: E731
        assert nets.thread_map(square, items, 1) == nets.thread_map(square, items, 3)
        assert nets.thread_map(square, items, 3) == [(x, x * x) for x in items]
        assert nets.thread_map(square, [], 3) == []

    def test_runs_items_at_once(self, monkeypatch):
        _fit_threads(monkeypatch, 3)
        # each item waits for the other two: this passes only on three live threads
        barrier = threading.Barrier(3, timeout=30)

        def wait_for_all(x):
            barrier.wait()
            return x

        assert nets.thread_map(wait_for_all, [1, 2, 3], 3) == [1, 2, 3]

    def test_one_worker_stays_in_calling_thread(self):
        caller = threading.get_ident()
        assert set(nets.thread_map(lambda _: threading.get_ident(), range(4), 1)) == {caller}

    def test_usable_cores_positive(self):
        assert nets.usable_cores() >= 1

    @pytest.mark.parametrize("env, fits", [
        ({}, 1),  # BLAS starts a thread per core
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
    ])
    def test_parallel_fits_leave_blas_its_threads(self, monkeypatch, env, fits):
        monkeypatch.setattr(nets, "usable_cores", lambda: 4)
        for name in nets._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert nets.parallel_fits() == fits


def ranking_fixture():
    """1 user, 6 items; user embedding picks item scores directly."""
    item_emb = np.eye(6)
    dataset = data.InteractionDataset(
        n_users=1,
        n_items=6,
        train_pairs=np.empty((0, 2), dtype=np.int64),
        test_items=np.array([2]),
        user_ids=np.arange(1),
        item_ids=np.arange(6),
    )
    return item_emb, dataset


class TestHrNdcg:
    def test_rank_one_unit_scores(self):
        item_emb, dataset = ranking_fixture()
        U = np.array([[0.0, 0.0, 9.0, 0.0, 0.0, 0.0]])
        rep = hr_ndcg_at_k(U, item_emb, dataset, k=10)
        assert rep.hr == 1.0
        assert rep.ndcg == 1.0

    def test_rank_three_gain(self):
        item_emb, dataset = ranking_fixture()
        U = np.array([[9.0, 8.0, 7.0, 0.0, 0.0, 0.0]])  # test item 2 ranked third
        rep = hr_ndcg_at_k(U, item_emb, dataset, k=10)
        assert rep.ndcg == pytest.approx(1.0 / np.log2(4))
        assert rep.hr == 1.0

    def test_rank_eleven_misses_at_k10(self):
        item_emb = np.eye(12)
        dataset = data.InteractionDataset(
            n_users=1,
            n_items=12,
            train_pairs=np.empty((0, 2), dtype=np.int64),
            test_items=np.array([11]),
            user_ids=np.arange(1),
            item_ids=np.arange(12),
        )
        U = np.array([np.arange(12, 0, -1.0)])  # item 11 scored last
        rep = hr_ndcg_at_k(U, item_emb, dataset, k=10)
        assert rep.hr == 0.0
        assert rep.ndcg == 0.0

    def test_train_items_excluded_from_ranking(self):
        item_emb, dataset = ranking_fixture()
        dataset.train_pairs = np.array([[0, 0], [0, 1]])
        U = np.array([[9.0, 8.0, 7.0, 0.0, 0.0, 0.0]])
        rep = hr_ndcg_at_k(U, item_emb, dataset, k=1)
        assert rep.hr == 1.0  # items 0,1 masked away, test item tops the list

    def test_score_ties_resolve_to_smaller_id(self):
        item_emb, dataset = ranking_fixture()
        U = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])  # items 0-3 tied, test=2
        rep = hr_ndcg_at_k(U, item_emb, dataset, k=10)
        assert rep.ndcg == pytest.approx(1.0 / np.log2(4))  # rank 3 behind ids 0,1

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(10)
        dataset, _ = data.synthetic_dataset(40, 30, d_signal=2, seed=11)
        U = rng.normal(size=(40, 16))
        V = rng.normal(size=(30, 16))
        a = hr_ndcg_at_k(U, V, dataset, k=10)
        b = hr_ndcg_at_k(3.7 * U, V, dataset, k=10)  # positive scaling of scores
        assert a.hr == b.hr
        assert a.ndcg == pytest.approx(b.ndcg, abs=1e-12)

    def test_ndcg_never_exceeds_hr(self):
        rng = np.random.default_rng(12)
        dataset, _ = data.synthetic_dataset(60, 40, d_signal=2, seed=13)
        for _ in range(10):
            U = rng.normal(size=(60, 16))
            V = rng.normal(size=(40, 16))
            rep = hr_ndcg_at_k(U, V, dataset, k=10)
            assert rep.ndcg <= rep.hr + 1e-12

    def test_matches_per_user_top_k_oracle_with_ties(self):
        rng = np.random.default_rng(14)
        dataset, _ = data.synthetic_dataset(50, 30, d_signal=2, seed=15, items_per_user=8)
        U = rng.integers(-2, 3, size=(50, 3)).astype(float)  # small integers: many tied scores
        V = rng.integers(-2, 3, size=(30, 3)).astype(float)
        rep = hr_ndcg_at_k(U, V, dataset, k=5)
        hits, gains = 0, 0.0
        for u in range(dataset.n_users):
            train = set(dataset.train_pairs[dataset.train_pairs[:, 0] == u, 1].tolist())
            ranked = top_k((U, V), u, 30 - len(train), exclusions=train).tolist()
            rank = ranked.index(int(dataset.test_items[u])) + 1
            hits += rank <= 5
            gains += 1.0 / np.log2(rank + 1) if rank <= 5 else 0.0
        assert rep.hr == hits / 50
        assert rep.ndcg == pytest.approx(gains / 50, abs=1e-12)

    @pytest.mark.parametrize("side", ["users", "items"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, side, bad):
        # an all-NaN user matrix used to put every test item first: HR and NDCG 1.0
        item_emb, dataset = ranking_fixture()
        U = np.array([[9.0, 8.0, 7.0, 0.0, 0.0, 0.0]])
        if side == "users":
            U[0, 4] = bad
        else:
            item_emb[4, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            hr_ndcg_at_k(U, item_emb, dataset, k=10)

    def test_width_mismatch_rejected(self):
        item_emb, dataset = ranking_fixture()
        with pytest.raises(ValueError, match="width 5 .*width 6"):
            hr_ndcg_at_k(np.ones((1, 5)), item_emb, dataset, k=10)


class TestPooledRanking:
    """Ranking blocks on ``nets.thread_map`` against the per-user ``top_k`` oracle."""

    def test_report_independent_of_threads_and_equal_to_oracle(self, monkeypatch):
        rng = np.random.default_rng(16)
        n, m, k = 23, 12, 4
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_CELLS", 4 * m)  # blocks of 4 users, the last of 3
        U = rng.integers(-2, 3, size=(n, 3)).astype(float)  # small integers: many tied scores
        V = rng.integers(-2, 3, size=(m, 3)).astype(float)
        test = rng.integers(0, m, size=n)
        test[5] = -1  # no test item: skipped
        # each of these users' three best-scored other items are train items, so
        # masking moves their ranks; they sit on both sides of the 3|4 and 7|8 boundaries
        train = {u: set(top_k((U, V), u, 4, exclusions={test[u]}).tolist()[:3])
                 for u in (0, 3, 4, 7, 8, 13, 21, 22)}
        pairs = np.array([(u, i) for u, items in train.items() for i in sorted(items)], dtype=np.int64)
        dataset = data.InteractionDataset(
            n_users=n, n_items=m, train_pairs=pairs[rng.permutation(len(pairs))],
            test_items=test, user_ids=np.arange(n), item_ids=np.arange(m))

        starts = []
        thread_map = nets.thread_map

        def recording(fn, items, workers):
            starts.append(list(items))
            return thread_map(fn, starts[-1], workers)

        monkeypatch.setattr(nets, "thread_map", recording)
        reports = []
        for threads in (1, 3):
            _fit_threads(monkeypatch, threads)
            reports.append(hr_ndcg_at_k(U, V, dataset, k=k))
        assert starts == [[0, 4, 8, 12, 16, 20]] * 2
        assert reports[0] == reports[1]

        hits, gains = 0, 0.0
        for u in np.flatnonzero(test >= 0):
            excluded = train.get(u, set())
            ranked = top_k((U, V), u, m - len(excluded), exclusions=excluded).tolist()
            rank = ranked.index(int(test[u])) + 1
            hits += rank <= k
            gains += 1.0 / np.log2(rank + 1) if rank <= k else 0.0
        assert reports[1].hr == hits / (n - 1)
        assert reports[1].ndcg == pytest.approx(gains / (n - 1), abs=1e-12)
