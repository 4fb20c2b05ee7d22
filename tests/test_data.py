import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from attrunlearn import data
from _oracles import (
    linear_probe_bacc, reference_align, reference_bin_attributes, reference_split,
)
from _surrogate import generate_ml100k_like

ML100K_DIR = os.environ.get("ML100K_DIR", "")
HAVE_ML100K = bool(ML100K_DIR) and Path(ML100K_DIR, "u.data").exists()


def train_item_sets(dataset) -> list[set[int]]:
    """Each dense user's train items, read from ``train_pairs``."""
    sets = [set() for _ in range(dataset.n_users)]
    for user, item in np.asarray(dataset.train_pairs).tolist():
        sets[user].add(item)
    return sets


def write_fixture(tmp_path, ratings, users):
    dpath = tmp_path / "u.data"
    upath = tmp_path / "u.user"
    dpath.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in ratings))
    upath.write_text("".join(f"{u}|{a}|{g}|{o}|00000\n" for u, a, g, o in users))
    return dpath, upath


FIXTURE_RATINGS = [
    (1, 10, 5, 100), (1, 11, 4, 101), (1, 12, 3, 102), (1, 13, 5, 103), (1, 14, 4, 104),
    (2, 10, 2, 200), (2, 11, 1, 201), (2, 13, 4, 199), (2, 15, 5, 150), (2, 16, 3, 140),
    (3, 10, 4, 50), (3, 11, 4, 51), (3, 12, 4, 52), (3, 13, 4, 53),  # only 4 interactions
]
FIXTURE_USERS = [(1, 27, "M", "student"), (2, 28, "F", "engineer"), (3, 41, "M", "writer")]


class TestLoaders:
    def test_fixture_row_count(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], FIXTURE_USERS)
        raw = data.load_ml100k(dpath, upath)
        assert len(raw.ratings) == 3
        assert len(raw.user_ids) == 3

    def test_empty_file_rejected(self, tmp_path):
        dpath = tmp_path / "u.data"
        dpath.write_text("")
        upath = tmp_path / "u.user"
        upath.write_text("1|24|M|student|00000\n")
        with pytest.raises(ValueError, match="no rating rows"):
            data.load_ml100k(dpath, upath)

    def test_malformed_row_reports_line(self, tmp_path):
        dpath = tmp_path / "u.data"
        dpath.write_text("1\t2\t3\t4\n1\t2\t3\n")
        upath = tmp_path / "u.user"
        upath.write_text("1|24|M|student|00000\n")
        with pytest.raises(ValueError, match=":2:"):
            data.load_ml100k(dpath, upath)

    def test_malformed_user_row_reports_line(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], FIXTURE_USERS)
        upath.write_text("1|24|M|student|00000\n2|old|F|writer|00000\n")
        with pytest.raises(ValueError, match=":2:"):
            data.load_ml100k(dpath, upath)
        upath.write_text("1|24|M|student|00000\n\n3|30|M|writer\n")
        with pytest.raises(ValueError, match=":3: expected 5 fields"):
            data.load_ml100k(dpath, upath)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            data.load_ml100k(tmp_path / "nope.data", tmp_path / "nope.user")

    def test_ml1m_format(self, tmp_path):
        rpath = tmp_path / "ratings.dat"
        upath = tmp_path / "users.dat"
        rpath.write_text("1::20::5::978300760\n2::20::3::978300810\n")
        upath.write_text("1::F::1::10::48067\n2::M::56::16::70072\n")
        raw = data.load_ml1m(rpath, upath)
        assert len(raw.ratings) == 2
        assert raw.user_ids.tolist() == [1, 2]
        assert raw.genders[0] == "F"
        assert raw.ages[1] == 56

    @pytest.mark.skipif(not HAVE_ML100K, reason="official ML-100K not present")
    def test_official_ml100k_counts(self):
        raw = data.load_ml100k(Path(ML100K_DIR, "u.data"), Path(ML100K_DIR, "u.user"))
        assert len(raw.ratings) == 100_000
        assert len(raw.user_ids) == 943
        assert len(np.unique(raw.ratings[:, 1])) == 1682
        dataset = data.preprocess_split(raw)
        assert dataset.n_users == 943  # every user has >=20 ratings


def line_reader_ratings(path, sep):
    """The ratings matrix as the per-line reader builds it."""
    rows = data._parse_lines(path, sep, 4, lambda parts: [int(p) for p in parts])
    return np.array(rows, dtype=np.int64)


class TestBulkRatings:
    """``_parse_ratings`` reads plain files in bulk, bitwise as the line reader does."""

    def assert_bulk_equals_line_reader(self, path, sep):
        text = Path(path).read_text(encoding="latin-1")
        assert data._bulk_ints(text, sep, 4) is not None  # the bulk path is taken
        got, want = data._parse_ratings(path, sep), line_reader_ratings(path, sep)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_ml100k_fixture(self, tmp_path):
        dpath, _ = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        self.assert_bulk_equals_line_reader(dpath, "\t")

    def test_ml100k_surrogate(self, tmp_path):
        root = generate_ml100k_like(tmp_path / "ml100k")
        self.assert_bulk_equals_line_reader(root / "u.data", "\t")

    def test_ml1m_fixture(self, tmp_path):
        rpath, _ = write_ml1m_users(tmp_path, np.random.default_rng(4))
        self.assert_bulk_equals_line_reader(rpath, "::")

    @pytest.mark.parametrize("text,bulk", [
        ("1\t2\t3\t4\r\n\n007\t6\t7\t8", True),  # CRLF, a blank line, leading zeros
        ("1\t2\t3\t 4\n", False),  # int() takes padding
        ("+1\t2\t3\t4\n", False),
        ("1\t2\t3\t123456789012345678\n", True),
        ("1\t2\t3\t1234567890123456789\n", False),  # too long to take in bulk
    ])
    def test_irregular_text_parses_as_line_reader(self, tmp_path, text, bulk):
        path = tmp_path / "u.data"
        path.write_bytes(text.encode("latin-1"))
        assert (data._bulk_ints(path.read_text(encoding="latin-1"), "\t", 4) is not None) == bulk
        want = line_reader_ratings(path, "\t")
        assert data._parse_ratings(path, "\t").tobytes() == want.tobytes()

    @pytest.mark.parametrize("text,sep,message", [
        ("1\t2\t3\n1\t2\t3\t4\t5\n", "\t", ":1: expected 4 fields, got 3"),
        ("1\t2\t3\t4\n\n1::2::3::4\n", "\t", ":3: expected 4 fields, got 1"),
        ("1\t2\t3\t4\n1\tx\t3\t4\n", "\t", ":2: invalid literal"),
        # four fields with one empty: twelve numbers that could pass for three rows
        ("\t1\t2\t3\n" * 4, "\t", ":1: invalid literal"),
        ("1\t2\t\t3\n" * 4, "\t", ":1: invalid literal"),
        ("\n\n", "\t", "no rating rows"),
        ("-1\t2\t3\t4\n", "\t", "negative ids"),
        # a space is not the separator, even where it stands for one
        ("1 2 3 4\n", "\t", ":1: expected 4 fields, got 1"),
        ("1 2\t3\t4\n", "\t", ":1: expected 4 fields, got 3"),
        ("1::2::3::4\n1::2 3::4\n", "::", ":2: expected 4 fields, got 3"),
    ])
    def test_malformed_text_still_named(self, tmp_path, text, sep, message):
        path = tmp_path / "u.data"
        path.write_text(text)
        assert data._bulk_ints(text, sep, 4) is None
        with pytest.raises(ValueError, match=message):
            data._parse_ratings(path, sep)


class TestBinning:
    def test_age_bin_boundaries(self, tmp_path):
        users = [(1, 27, "M", "student"), (2, 28, "M", "student"), (3, 40, "M", "student"),
                 (4, 41, "M", "student")]
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], users)
        raw = data.load_ml100k(dpath, upath)
        table = data.bin_attributes(raw, "ml-100k")
        assert table.get("age").labels.tolist() == [0, 1, 1, 2]

    def test_ml1m_age_bins(self):
        assert data._age_bin(24, "ml-1m") == 0
        assert data._age_bin(25, "ml-1m") == 1
        assert data._age_bin(35, "ml-1m") == 1
        assert data._age_bin(36, "ml-1m") == 2

    def test_gender_encoding(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], FIXTURE_USERS)
        table = data.bin_attributes(data.load_ml100k(dpath, upath), "ml-100k")
        assert table.get("gender").labels.tolist() == [0, 1, 0]
        assert table.get("gender").cardinality == 2

    def test_occupation_catalog_has_21_codes(self):
        assert len(data.ML100K_OCCUPATIONS) == 21
        assert len(set(data.ML100K_OCCUPATIONS)) == 21

    def test_unknown_occupation_rejected(self, tmp_path):
        users = [(1, 30, "M", "astronaut")]
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], users)
        raw = data.load_ml100k(dpath, upath)
        with pytest.raises(ValueError, match="unknown occupation"):
            data.bin_attributes(raw, "ml-100k")


class TestSplit:
    def test_light_users_removed(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        assert dataset.n_users == 2  # user 3 has only 4 interactions
        assert 3 not in dataset.user_ids

    def test_latest_timestamp_is_test(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        u0 = int(np.where(dataset.user_ids == 1)[0][0])
        raw_test = dataset.item_ids[dataset.test_items[u0]]
        assert raw_test == 14  # t=104 is user 1's latest

    def test_timestamp_tie_breaks_to_larger_item(self, tmp_path):
        ratings = [(1, i, 5, 7) for i in (10, 11, 12, 13, 14)]
        dpath, upath = write_fixture(tmp_path, ratings, FIXTURE_USERS[:1])
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        assert dataset.item_ids[dataset.test_items[0]] == 14

    def test_split_disjoint_and_complete(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        assert len(dataset.test_items) == dataset.n_users
        for u in range(dataset.n_users):
            assert dataset.test_items[u] not in train_item_sets(dataset)[u]

    def test_reindex_bijective(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        assert len(np.unique(dataset.user_ids)) == dataset.n_users
        assert len(np.unique(dataset.item_ids)) == dataset.n_items

    def test_attribute_alignment_covers_all_users(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        raw = data.load_ml100k(dpath, upath)
        dataset = data.preprocess_split(raw)
        table = data.bin_attributes(raw, "ml-100k", dataset)
        for attr in table.attributes:
            assert len(attr.labels) == dataset.n_users
        # dense user 0 is raw user 1 (M=0), dense 1 is raw 2 (F=1)
        assert table.get("gender").labels.tolist() == [0, 1]

    def test_summary_json(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        dataset = data.preprocess_split(data.load_ml100k(dpath, upath))
        summary = dataset.summary()
        assert summary["users"] == 2
        assert 0 <= summary["sparsity_percent"] <= 100


def assert_same_split(got, want):
    assert (got.n_users, got.n_items) == (want.n_users, want.n_items)
    for name in ("train_pairs", "test_items", "user_ids", "item_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert train_item_sets(got) == train_item_sets(want)
    assert got.fingerprint() == want.fingerprint()


class TestSplitOracle:
    """``preprocess_split`` against the per-rating loop it replaced."""

    @pytest.mark.parametrize("case", ["duplicate", "tie", "only_test_item", "light_user"])
    def test_matches_reference(self, tmp_path, case):
        ratings = list(FIXTURE_RATINGS)
        if case == "duplicate":
            ratings += [(1, 12, 2, 90), (2, 16, 4, 141)]  # users 1 and 2 rate an item again
        elif case == "tie":
            ratings += [(2, 12, 5, 201), (2, 14, 5, 201)]  # test item 14 wins the tie on id
        elif case == "only_test_item":
            ratings += [(4, 20, r, 300 + r) for r in range(5)]  # five ratings of one item
        elif case == "light_user":
            ratings += [(5, 10, 3, 400)]  # a second user under min_interactions
        dpath, upath = write_fixture(tmp_path, ratings, FIXTURE_USERS)
        raw = data.load_ml100k(dpath, upath)
        got, want = data.preprocess_split(raw), reference_split(raw)
        assert_same_split(got, want)
        if case == "only_test_item":
            assert train_item_sets(got)[-1] == set()
        if case == "light_user":
            assert 5 not in got.user_ids and 3 not in got.user_ids

    def test_matches_reference_on_surrogate(self, tmp_path):
        root = generate_ml100k_like(tmp_path / "ml100k")
        raw = data.load_ml100k(root / "u.data", root / "u.user")
        assert_same_split(data.preprocess_split(raw), reference_split(raw))


def assert_same_table(got, want):
    assert got.names == want.names
    for a, b in zip([got.user_ids] + [x.labels for x in got.attributes],
                    [want.user_ids] + [x.labels for x in want.attributes]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert [x.cardinality for x in got.attributes] == [x.cardinality for x in want.attributes]


def write_ml1m_users(tmp_path, rng, n_users=200):
    """ML-1M ratings/users files: shuffled user lines, every age bin and code 0..20."""
    ids = rng.permutation(np.arange(1, 3 * n_users, 3))[:n_users]
    ages = rng.choice([1, 18, 24, 25, 35, 36, 45, 50, 56], n_users)
    genders = rng.choice(["M", "F", " f", "m "], n_users)
    codes = np.arange(n_users) % 21
    upath = tmp_path / "users.dat"
    upath.write_text("".join(f"{u}::{g}::{a}::{c}::00000\n"
                             for u, g, a, c in zip(ids, genders, ages, codes)))
    rpath = tmp_path / "ratings.dat"
    rpath.write_text("".join(f"{u}::{i}::4::{t}\n" for t, u in enumerate(ids[: n_users // 2])
                             for i in range(6)))
    return rpath, upath


class TestBinningOracle:
    """``bin_attributes`` and ``AttributeTable.align`` against the per-user loop."""

    MIXED_USERS = [(7, 40, "m", "writer"), (3, 27, " F", "none "), (5, 28, "M ", " student"),
                   (1, 41, "f", "administrator"), (2, 18, "M", "technician")]

    @pytest.mark.parametrize("users", [FIXTURE_USERS, MIXED_USERS])
    def test_matches_reference_on_fixture(self, tmp_path, users):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, users)
        raw = data.load_ml100k(dpath, upath)
        dataset = data.preprocess_split(raw)
        assert_same_table(data.bin_attributes(raw, "ml-100k"),
                          reference_bin_attributes(raw, "ml-100k"))
        assert_same_table(data.bin_attributes(raw, "ml-100k", dataset),
                          reference_bin_attributes(raw, "ml-100k", dataset))

    def test_matches_reference_on_surrogate(self, tmp_path):
        root = generate_ml100k_like(tmp_path / "ml100k")
        raw = data.load_ml100k(root / "u.data", root / "u.user")
        dataset = data.preprocess_split(raw)
        assert_same_table(data.bin_attributes(raw, "ml-100k", dataset),
                          reference_bin_attributes(raw, "ml-100k", dataset))

    def test_matches_reference_on_ml1m(self, tmp_path):
        raw = data.load_ml1m(*write_ml1m_users(tmp_path, np.random.default_rng(4)))
        dataset = data.preprocess_split(raw)
        assert dataset.n_users < len(raw.user_ids)  # alignment drops users
        assert_same_table(data.bin_attributes(raw, "ml-1m"), reference_bin_attributes(raw, "ml-1m"))
        assert_same_table(data.bin_attributes(raw, "ml-1m", dataset),
                          reference_bin_attributes(raw, "ml-1m", dataset))

    def test_align_matches_reference_on_unsorted_and_repeated_ids(self, tmp_path):
        rng = np.random.default_rng(8)
        raw = data.load_ml1m(*write_ml1m_users(tmp_path, rng))
        dataset = data.preprocess_split(raw)
        ids = rng.permutation(np.append(raw.user_ids, raw.user_ids[:20]))  # 20 ids twice
        labels = rng.integers(0, 4, len(ids))
        table = data.AttributeTable([data.Attribute("region", 4, labels)], ids)
        assert_same_table(table.align(dataset), reference_align(table, dataset))

    @pytest.mark.parametrize("tag,users,message", [
        ("ml-100k", [(1, 30, "M", "student"), (2, 30, "X", "student")],
         "user 2: unknown gender 'X'"),
        ("ml-100k", [(1, 30, "M", "student"), (4, 30, "F", " pilot")],
         "user 4: unknown occupation 'pilot'"),
        ("ml-1m", [(1, 30, "M", "20"), (9, 30, "F", "21")], "user 9: occupation code 21 outside"),
        ("ml-1m", [(3, 30, "M", "-1"), (9, 30, "F", "2")], "user 3: occupation code -1 outside"),
    ])
    def test_bad_value_names_user_and_value(self, tmp_path, tag, users, message):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], users)
        raw = data.load_ml100k(dpath, upath)
        with pytest.raises(ValueError, match=message) as got:
            data.bin_attributes(raw, tag)
        with pytest.raises(ValueError) as want:
            reference_bin_attributes(raw, tag)
        assert str(got.value) == str(want.value)

    def test_duplicate_user_id_rejected(self, tmp_path):
        users = [(1, 30, "M", "student"), (2, 30, "F", "writer"), (1, 31, "F", "writer")]
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS[:3], users)
        with pytest.raises(ValueError, match="user id 1 listed more than once"):
            data.load_ml100k(dpath, upath)

    def test_align_missing_user_rejected(self, tmp_path):
        dpath, upath = write_fixture(tmp_path, FIXTURE_RATINGS, FIXTURE_USERS)
        raw = data.load_ml100k(dpath, upath)
        dataset = data.preprocess_split(raw)
        table = data.AttributeTable([data.Attribute("g", 2, [0, 1])], np.array([2, 9]))
        with pytest.raises(ValueError, match=r"no attribute labels for raw users \[1\]$"):
            table.align(dataset)
        with pytest.raises(ValueError, match=r"no attribute labels for raw users \[1\]$"):
            reference_align(table, dataset)


def synthetic_digest(*args, **kwargs):
    dataset, table = data.synthetic_dataset(*args, **kwargs)
    h = hashlib.sha256()
    for a in (dataset.train_pairs, dataset.test_items, dataset.oracle_embeddings,
              dataset.oracle_item_embeddings, *(a.labels for a in table.attributes)):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr([sorted(s) for s in train_item_sets(dataset)]).encode())
    return h.hexdigest()[:16]


class TestSynthetic:
    @pytest.mark.parametrize("args,kwargs,expected", [
        ((200, 100, 4, 1), {}, "d2e88c3c3cf2dbfb"),
        ((120, 80, 3, 5), {"cardinalities": (2, 3)}, "8dbb65d35eab8223"),
        ((60, 40, 2, 13), {"items_per_user": 5}, "fda39b9d884de32a"),
        ((90, 50, 3, 29), {"cardinalities": (2, 4)}, "6cfb4158292eaa8a"),
        ((80, 30, 0, 31), {"items_per_user": 6}, "f1bc8900068d92da"),  # no planted signal
    ])
    def test_outputs_pinned(self, args, kwargs, expected):
        # digests of earlier versions' outputs: the first three from the per-user split
        # loop, the last two from when the generator's make-up was set by arguments
        assert synthetic_digest(*args, **kwargs) == expected

    def test_planted_signal_recoverable(self):
        dataset, table = data.synthetic_dataset(200, 100, d_signal=4, seed=1)
        score = linear_probe_bacc(dataset.oracle_embeddings, table.get("attr0").labels)
        assert score >= 90.0

    def test_seed_reproducibility(self):
        a, ta = data.synthetic_dataset(50, 40, d_signal=2, seed=9)
        b, tb = data.synthetic_dataset(50, 40, d_signal=2, seed=9)
        assert np.array_equal(a.train_pairs, b.train_pairs)
        assert np.array_equal(a.test_items, b.test_items)
        assert np.array_equal(ta.get("attr0").labels, tb.get("attr0").labels)
        assert np.array_equal(a.oracle_embeddings, b.oracle_embeddings)

    def test_no_signal_gives_chance_probe(self):
        dataset, table = data.synthetic_dataset(2000, 100, d_signal=0, seed=3)
        score = linear_probe_bacc(dataset.oracle_embeddings, table.get("attr0").labels)
        assert abs(score - 50.0) <= 5.0

    def test_multi_attribute_generation(self):
        dataset, table = data.synthetic_dataset(120, 80, d_signal=3, seed=5, cardinalities=(2, 3))
        assert table.names == ["attr0", "attr1"]
        assert table.get("attr1").cardinality == 3
        assert dataset.n_users == 120

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            data.synthetic_dataset(2, 100, 2, 0)
