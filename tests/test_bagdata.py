"""Store round-trips, synthetic generation, splits, and balanced sampling."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frmil.bagdata import (
    InstanceBag,
    SingleClassError,
    SplitError,
    StoreMissingFileError,
    StoreSizeError,
    StoreValueError,
    SyntheticSpec,
    balanced_batches,
    generate_synthetic,
    make_bag,
    read_split,
    read_store,
    split_ids,
    witness_count,
    write_split,
    write_store,
)
from oracles import pad_to


def small_bags(rng, n_bags=6, dim=4):
    bags = []
    for i in range(n_bags):
        n = int(rng.integers(1, 7))
        bags.append(make_bag(f"b{i}", int(i % 2), rng.normal(size=(n, dim))))
    return bags


class TestStoreRoundTrip:
    def test_write_read_bitwise_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        bags = small_bags(rng)
        write_store(bags, tmp_path)
        loaded = read_store(tmp_path)
        assert loaded.dim == 4
        for bag in bags:
            again = loaded.bag(bag.bag_id)
            assert again.features.tobytes() == bag.features.tobytes()
            assert again.label == bag.label

    def test_write_returns_nothing(self, tmp_path):
        # the store is read back with read_store; no rebuilt copy is made
        assert write_store(small_bags(np.random.default_rng(0)),
                           tmp_path) is None

    def test_truncated_file_names_bag(self, tmp_path):
        rng = np.random.default_rng(1)
        bags = small_bags(rng)
        write_store(bags, tmp_path)
        victim = tmp_path / "features" / "b2.f32"
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(StoreSizeError, match="b2"):
            read_store(tmp_path)

    def test_missing_file_distinct_error(self, tmp_path):
        rng = np.random.default_rng(2)
        write_store(small_bags(rng), tmp_path)
        (tmp_path / "features" / "b1.f32").unlink()
        with pytest.raises(StoreMissingFileError, match="b1"):
            read_store(tmp_path)

    def test_non_finite_distinct_error(self, tmp_path):
        rng = np.random.default_rng(3)
        write_store(small_bags(rng), tmp_path)
        bad = np.full(4, np.nan, dtype="<f4")
        path = tmp_path / "features" / "b0.f32"
        n = path.stat().st_size // 16
        path.write_bytes(np.tile(bad, n).tobytes())
        with pytest.raises(StoreValueError, match="b0"):
            read_store(tmp_path)

    def test_failed_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        # old and new bags of one size, so the old manifest's size checks
        # would pass over a mix of old and new feature files
        rng = np.random.default_rng(4)
        old, new = ([make_bag(f"b{i}", label, rng.normal(size=(3, 4)))
                     for i, label in enumerate(labels)]
                    for labels in ([1, 0, 0, 1, 0, 1], [1, 1, 0, 0, 1, 0]))
        write_store(old, tmp_path)
        real, writes = Path.write_bytes, []

        def write_bytes(path, data):
            writes.append(path.name)
            if len(writes) == 4:
                raise OSError("disk full")
            return real(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        with pytest.raises(OSError, match="disk full"):
            write_store(new, tmp_path)
        assert writes == ["b0.f32", "b1.f32", "b2.f32", "b3.f32"]
        with pytest.raises(StoreMissingFileError, match="no manifest"):
            read_store(tmp_path)

    def test_empty_manifest_is_valid(self, tmp_path):
        write_store([], tmp_path)
        store = read_store(tmp_path)
        assert len(store) == 0

    def test_mixed_dims_rejected(self, tmp_path):
        a = make_bag("a", 0, np.zeros((2, 3)))
        b = make_bag("b", 1, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="dimension"):
            write_store([a, b], tmp_path)


class TestInstanceBag:
    def test_rejects_non_finite(self):
        with pytest.raises(StoreValueError):
            make_bag("x", 0, np.array([[1.0, np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_bag("x", 0, np.zeros((0, 3)))

    def test_mask_length_checked(self):
        with pytest.raises(ValueError, match="mask"):
            InstanceBag("x", 0, np.zeros((3, 2)), np.ones(2, bool))


class TestPadTo:
    def test_noop_at_same_size(self):
        bag = make_bag("x", 1, np.ones((3, 2)))
        same = pad_to(bag, 3)
        assert same.n_rows == 3 and same.mask.all()

    def test_appends_zero_rows_with_false_mask(self):
        bag = make_bag("x", 1, np.ones((3, 2)))
        padded = pad_to(bag, 5)
        assert padded.n_rows == 5 and padded.mask.sum() == 3
        np.testing.assert_array_equal(padded.mask, [True] * 3 + [False] * 2)
        np.testing.assert_array_equal(padded.features[3:], np.zeros((2, 2)))

    def test_shrinking_raises(self):
        bag = make_bag("x", 1, np.ones((3, 2)))
        with pytest.raises(ValueError):
            pad_to(bag, 2)


class TestSyntheticGeneration:
    def test_witness_counts(self):
        assert witness_count(0.1, 50) == 5
        assert witness_count(0.1, 3) == 1   # at-least-one MIL assumption
        assert witness_count(0.02, 10) == 1

    def test_every_positive_bag_has_witnesses(self):
        spec = SyntheticSpec(n_bags=30, dim=8, bag_min=3, bag_max=12,
                             witness_rate=0.2, separation=3.0, seed=5)
        bags = generate_synthetic(spec)
        labels = [b.label for b in bags]
        assert set(labels) == {0, 1}
        # witnesses sit far along a fixed axis; check positive bags contain
        # instances with clearly larger norm than any negative-bag instance
        neg_top = max(np.linalg.norm(b.features, axis=1).max()
                      for b in bags if b.label == 0)
        for b in bags:
            if b.label == 1:
                k = witness_count(0.2, b.n_rows)
                norms = np.linalg.norm(b.features.astype(np.float64), axis=1)
                assert (norms > neg_top).sum() >= max(1, k - 1)

    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SyntheticSpec(n_bags=12, dim=6, seed=7)
        write_store(generate_synthetic(spec), tmp_path / "a")
        write_store(generate_synthetic(spec), tmp_path / "b")
        s1, s2 = read_store(tmp_path / "a"), read_store(tmp_path / "b")
        for bag_id in s1.ids():
            assert (s1.bag(bag_id).features.tobytes()
                    == s2.bag(bag_id).features.tobytes())
        m1 = (tmp_path / "a" / "manifest.json").read_text()
        m2 = (tmp_path / "b" / "manifest.json").read_text()
        assert m1 == m2

    def test_zero_separation_classes_indistinguishable(self):
        spec = SyntheticSpec(n_bags=100, dim=16, separation=0.0, seed=11)
        bags = generate_synthetic(spec)
        mus = np.array([float((b.features.astype(np.float64) ** 2)
                              .sum(axis=1).mean()) for b in bags])
        labels = np.array([b.label for b in bags])
        # per-bag mean magnitude carries no label signal: rank AUC near 0.5
        ranks = mus.argsort().argsort() + 1
        n_pos = labels.sum()
        auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) \
            / (n_pos * (len(labels) - n_pos))
        assert 0.35 < auc < 0.65

    def test_pos_frac_rounding(self):
        spec = SyntheticSpec(n_bags=21, dim=4, pos_frac=0.5, seed=1)
        bags = generate_synthetic(spec)
        assert sum(b.label for b in bags) == 11  # round half up

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="witness_rate"):
            SyntheticSpec(witness_rate=0.0).validate()
        with pytest.raises(ValueError, match="noise_scale"):
            SyntheticSpec(noise_scale=0.0).validate()
        with pytest.raises(ValueError, match="bag size"):
            SyntheticSpec(bag_min=5, bag_max=2).validate()


class TestSplit:
    def labeled(self, n_pos=30, n_neg=50):
        return ([(f"p{i}", 1) for i in range(n_pos)]
                + [(f"n{i}", 0) for i in range(n_neg)])

    def test_all_train(self):
        split = split_ids(self.labeled(), (1.0, 0.0, 0.0), seed=0)
        assert len(split["train"]) == 80
        assert split["val"] == [] and split["test"] == []

    def test_stratified_within_one_bag(self):
        labeled = self.labeled(37, 63)
        split = split_ids(labeled, (0.6, 0.2, 0.2), seed=3)
        global_frac = 37 / 100
        for name in ("train", "val", "test"):
            ids = split[name]
            pos = sum(1 for i in ids if i.startswith("p"))
            assert abs(pos - global_frac * len(ids)) <= 1.0

    def test_disjoint_and_complete(self):
        labeled = self.labeled()
        split = split_ids(labeled, (0.5, 0.25, 0.25), seed=4)
        ids = split["train"] + split["val"] + split["test"]
        assert sorted(ids) == sorted(i for i, _ in labeled)
        assert len(set(ids)) == len(ids)

    def test_two_seeds_differ_same_sizes(self):
        labeled = self.labeled()
        a = split_ids(labeled, (0.6, 0.2, 0.2), seed=1)
        b = split_ids(labeled, (0.6, 0.2, 0.2), seed=2)
        assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}
        assert a != b

    def test_class_starvation_raises(self):
        labeled = [("p0", 1), ("n0", 0), ("n1", 0), ("n2", 0)]
        with pytest.raises(SplitError):
            split_ids(labeled, (0.5, 0.25, 0.25), seed=0)

    def test_split_file_round_trip(self, tmp_path):
        split = split_ids(self.labeled(), (0.6, 0.2, 0.2), seed=9)
        write_split(split, tmp_path / "splits.json")
        assert read_split(tmp_path / "splits.json") == split
        raw = json.loads((tmp_path / "splits.json").read_text())
        assert set(raw) == {"train", "val", "test"}


class TestBalancedBatches:
    def test_three_pos_five_neg(self):
        labeled = [(f"p{i}", 1) for i in range(3)] + [(f"n{i}", 0) for i in range(5)]
        pairs = balanced_batches(labeled, seed=0, epoch=0)
        assert len(pairs) == 5
        negs = [n for _, n in pairs]
        assert sorted(negs) == [f"n{i}" for i in range(5)]
        pos_counts = Counter(p for p, _ in pairs)
        assert all(c in (1, 2) for c in pos_counts.values())
        assert sum(pos_counts.values()) == 5

    def test_single_pair(self):
        pairs = balanced_batches([("p", 1), ("n", 0)], seed=3, epoch=7)
        assert pairs == [("p", "n")]

    def test_every_batch_balanced_over_epochs(self):
        rng = np.random.default_rng(13)
        for _ in range(4):
            n_pos = int(rng.integers(1, 12))
            n_neg = int(rng.integers(1, 12))
            labeled = ([(f"p{i}", 1) for i in range(n_pos)]
                       + [(f"n{i}", 0) for i in range(n_neg)])
            for epoch in range(10):
                pairs = balanced_batches(labeled, seed=5, epoch=epoch)
                assert len(pairs) == max(n_pos, n_neg)
                for p, n in pairs:
                    assert p.startswith("p") and n.startswith("n")
                larger = [p for p, _ in pairs] if n_pos >= n_neg \
                    else [n for _, n in pairs]
                assert len(set(larger)) == len(larger)

    def test_deterministic_per_seed_epoch(self):
        labeled = [(f"p{i}", 1) for i in range(4)] + [(f"n{i}", 0) for i in range(9)]
        assert balanced_batches(labeled, 11, 2) == balanced_batches(labeled, 11, 2)
        assert balanced_batches(labeled, 11, 2) != balanced_batches(labeled, 11, 3)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError, match="negative"):
            balanced_batches([("p0", 1), ("p1", 1)], seed=0, epoch=0)
