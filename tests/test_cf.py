import numpy as np
import pytest

from _oracles import float_digest, reference_train_cf, top_k
from attrunlearn import cf, data


def tiny_dataset():
    """3 users, 3 items; user 0 interacts with item 0 only (plus the held-out 1)."""
    train_pairs = np.array([[0, 0], [1, 1], [1, 2], [2, 2], [2, 0]])
    return data.InteractionDataset(
        n_users=3,
        n_items=3,
        train_pairs=train_pairs,
        test_items=np.array([1, 0, 1]),
        user_ids=np.arange(3),
        item_ids=np.arange(3),
    )


@pytest.fixture(scope="module")
def synthetic():
    return data.synthetic_dataset(150, 60, d_signal=3, seed=21)


class TestTraining:
    def test_preference_learned_on_tiny_fixture(self):
        dataset = tiny_dataset()
        config = cf.CFTrainConfig(dim=8, epochs=300, learning_rate=0.05, batch_size=8, seed=1)
        model = cf.train_cf(dataset, config)
        scores = model.user_embeddings[0] @ model.item_embeddings.T
        assert scores[0] > scores[2]

    def test_zero_epochs_equals_initialization(self):
        dataset = tiny_dataset()
        config = cf.CFTrainConfig(dim=4, epochs=0, seed=5)
        model = cf.train_cf(dataset, config)
        rng = np.random.default_rng(5)
        expected_user = 0.1 * rng.standard_normal((3, 4))
        assert np.allclose(model.user_embeddings, expected_user)

    def test_seed_determinism(self, synthetic):
        dataset, _ = synthetic
        config = cf.CFTrainConfig(dim=8, epochs=3, seed=7)
        a = cf.train_cf(dataset, config)
        b = cf.train_cf(dataset, config)
        assert a.user_embeddings.tobytes() == b.user_embeddings.tobytes()
        assert a.item_embeddings.tobytes() == b.item_embeddings.tobytes()

    def test_seeded_outputs_pinned(self, synthetic):
        dataset, _ = synthetic
        model = cf.train_cf(dataset, cf.CFTrainConfig(dim=8, epochs=3, batch_size=256, seed=7))
        # any change to the BPR arithmetic, the negative draws or Adam changes this digest
        assert float_digest(
            model.user_embeddings, model.item_embeddings, model.train_diagnostics["epoch_losses"]
        ) == "47ddfbddaff663813e642302d8df89c7313c7dffaf6190ebb20f4f16a470f878"

    @pytest.mark.parametrize("case", ["shared-rows", "synthetic"])
    def test_matches_add_at_reference(self, synthetic, case):
        if case == "shared-rows":
            # one batch holds every pair: user 0 appears twice, and its only
            # possible negative, item 2, is user 1's positive in the same batch
            dataset = data.InteractionDataset(
                n_users=2,
                n_items=3,
                train_pairs=np.array([[0, 0], [0, 1], [1, 2]]),
                test_items=np.array([2, 0]),
                user_ids=np.arange(2),
                item_ids=np.arange(3),
            )
            config = cf.CFTrainConfig(dim=4, epochs=6, learning_rate=0.05, batch_size=8, seed=2)
        else:
            dataset = synthetic[0]
            config = cf.CFTrainConfig(dim=8, epochs=2, batch_size=128, seed=5)
        model = cf.train_cf(dataset, config)
        users, items, losses = reference_train_cf(dataset, config)
        assert model.user_embeddings.tobytes() == users.tobytes()
        assert model.item_embeddings.tobytes() == items.tobytes()
        assert model.train_diagnostics["epoch_losses"] == losses

    def test_loss_decreases_30_percent(self, synthetic):
        dataset, _ = synthetic
        config = cf.CFTrainConfig(
            dim=16, epochs=50, learning_rate=0.01, batch_size=512, seed=3
        )
        model = cf.train_cf(dataset, config)
        diag = model.train_diagnostics
        assert diag["final_loss"] <= 0.7 * diag["initial_loss"]

    def test_empty_train_set_rejected(self):
        dataset = tiny_dataset()
        dataset.train_pairs = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            cf.train_cf(dataset, cf.CFTrainConfig())

    def test_negatives_filtered_above_fifty_million_cells(self, monkeypatch):
        n, m = 50_001, 1000  # 50,001,000 cells
        rng = np.random.default_rng(3)
        items = (rng.integers(0, m, n)[:, None] + 37 * np.arange(5)) % m
        users = np.repeat(np.arange(n), 5)
        train_pairs = np.column_stack([users, items.ravel()])
        dataset = data.InteractionDataset(
            n_users=n,
            n_items=m,
            train_pairs=train_pairs,
            test_items=np.zeros(n, dtype=np.int64),
            user_ids=np.arange(n),
            item_ids=np.arange(m),
        )
        real = cf._sample_negatives
        drawn = []

        def recording(rng, users, n_items, positives):
            neg = real(rng, users, n_items, positives)
            drawn.append(users * m + neg)
            return neg

        monkeypatch.setattr(cf, "_sample_negatives", recording)
        cf.train_cf(dataset, cf.CFTrainConfig(dim=2, epochs=1, batch_size=8192, seed=4))
        keys = np.concatenate(drawn)
        assert len(keys) == 4096 + len(train_pairs)
        assert not np.isin(keys, users * m + items.ravel()).any()


class TestTopK:
    """The ranking oracle in ``_oracles`` that ``hr_ndcg_at_k`` is checked against."""

    def test_equal_scores_ascending_ids(self):
        model = cf.CFModel(np.zeros((1, 3)), np.zeros((6, 3)))
        assert top_k(model, 0, 4).tolist() == [0, 1, 2, 3]

    def test_exclusions_leave_single_item(self):
        rng = np.random.default_rng(0)
        model = cf.CFModel(rng.normal(size=(1, 3)), rng.normal(size=(5, 3)))
        assert top_k(model, 0, 1, exclusions={0, 1, 3, 4}).tolist() == [2]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(8)
        model = cf.CFModel(rng.normal(size=(2, 5)), rng.normal(size=(10, 5)))
        scores = model.user_embeddings[1] @ model.item_embeddings.T
        oracle = sorted(range(10), key=lambda m: (-scores[m], m))
        assert top_k(model, 1, 3).tolist() == oracle[:3]
        for k in range(1, 11):
            assert top_k(model, 1, k).tolist() == oracle[:k]

    def test_k_too_large(self):
        model = cf.CFModel(np.zeros((1, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            top_k(model, 0, 4, exclusions={1})

    def test_accepts_embedding_pair(self):
        rng = np.random.default_rng(4)
        users, items = rng.normal(size=(2, 3)), rng.normal(size=(6, 3))
        model = cf.CFModel(users.copy(), items.copy())
        assert np.array_equal(top_k((users, items), 0, 3), top_k(model, 0, 3))


class TestSwapInAndCheckpoint:
    def test_user_swap_keeps_items_bitwise(self, synthetic):
        dataset, _ = synthetic
        model = cf.train_cf(dataset, cf.CFTrainConfig(dim=8, epochs=2, seed=1))
        items_before = model.item_embeddings.tobytes()
        swapped = np.random.default_rng(9).normal(size=model.user_embeddings.shape)
        ranks_a = top_k(model, 0, 5)
        ranks_b = top_k((swapped, model.item_embeddings), 0, 5)
        assert model.item_embeddings.tobytes() == items_before
        assert ranks_a.shape == ranks_b.shape

    def test_checkpoint_round_trip(self, tmp_path, synthetic):
        dataset, _ = synthetic
        model = cf.train_cf(dataset, cf.CFTrainConfig(dim=8, epochs=1, seed=1))
        path = tmp_path / "model.cf"
        loaded = cf.load_model(path, cf.save_model(model, path))
        assert loaded.user_embeddings.tobytes() == model.user_embeddings.tobytes()
        assert loaded.item_embeddings.tobytes() == model.item_embeddings.tobytes()

    def test_one_table_is_the_checkpoint_payload(self, tmp_path, synthetic):
        dataset, _ = synthetic
        model = cf.train_cf(dataset, cf.CFTrainConfig(dim=8, epochs=1, seed=1))
        # user rows then item rows of one (n+m) x d table, stepped as one array
        table = model.user_embeddings.base
        assert table is not None and model.item_embeddings.base is table
        assert table.shape == (dataset.n_users + dataset.n_items, 8)
        path = tmp_path / "model.cf"
        sha = cf.save_model(model, path)
        assert path.read_bytes()[len(cf.CHECKPOINT_MAGIC) + 12 :] == table.tobytes()
        loaded = cf.load_model(path, sha)
        assert loaded.item_embeddings.base is loaded.user_embeddings.base
        assert loaded.user_embeddings.base.tobytes() == table.tobytes()
