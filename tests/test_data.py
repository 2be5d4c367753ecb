"""CSV ingestion and round trip, normalization, synthetic blobs, and splits."""

import warnings

import numpy as np
import pytest

from dynhd.data import (NormalizationStats, SyntheticSpec, _largest_remainder,
                        apply_normalizer, fit_normalizer, leave_one_domain_out,
                        load_csv, make_blobs, remap_labels, split, write_csv)
from dynhd.model import Dataset


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f1,f2,label\n0,1,a\n1,0,b\n")
        d = load_csv(str(path))
        assert d.n == 2
        assert len(d) == 2
        np.testing.assert_array_equal(d.features, [[0.0, 1.0], [1.0, 0.0]])
        assert d.label_names == ["a", "b"]
        assert d.labels.tolist() == [0, 1]
        assert d.domains is None

    def test_labels_mapped_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("f1,label\n1,z\n2,a\n3,z\n4,m\n")
        d = load_csv(str(path))
        assert d.label_names == ["z", "a", "m"]
        assert d.labels.tolist() == [0, 1, 0, 2]

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,label\nx,1,a\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,label\n0,1,a\n0,b\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(str(path))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("f1,label\ninf,a\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    def test_domain_column_densely_mapped(self, tmp_path):
        path = tmp_path / "dom.csv"
        path.write_text("f1,label,site\n1,a,east\n2,b,west\n3,a,east\n")
        d = load_csv(str(path), domain_column="site")
        assert d.n == 1
        assert d.domain_names == ["east", "west"]
        assert d.domains.tolist() == [0, 1, 0]

    def test_label_column_selects_by_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("kind,f1\np,0.5\nq,1.5\n")
        d = load_csv(str(path), label_column="kind")
        assert d.label_names == ["p", "q"]
        np.testing.assert_array_equal(d.features, [[0.5], [1.5]])

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f1,f2\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(str(path))

    def test_missing_domain_column_rejected(self, tmp_path):
        path = tmp_path / "nodom.csv"
        path.write_text("f1,label\n1,a\n")
        with pytest.raises(ValueError, match="domain"):
            load_csv(str(path), domain_column="site")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_csv(str(path))

    def test_label_column_as_domain_column_rejected_before_opening(
            self, tmp_path):
        absent = str(tmp_path / "absent.csv")
        with pytest.raises(ValueError) as exc:
            load_csv(absent, "label", "label")
        assert str(exc.value) == (f"{absent}: column 'label' cannot be both "
                                  "the label and the domain column")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "absent.csv"))


class TestWriteCsvRoundTrip:
    def test_values_round_trip_exactly(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=44))
        d = Dataset(rng.standard_normal((10, 3)),
                    rng.integers(0, 2, size=10), ["a", "b"])
        path = tmp_path / "out.csv"
        write_csv(str(path), d)
        back = load_csv(str(path))
        np.testing.assert_array_equal(back.features, d.features)
        # ids re-densify by first appearance; names identify samples
        assert ([back.label_names[i] for i in back.labels]
                == [d.label_names[i] for i in d.labels])
        realigned = remap_labels(back, d.label_names)
        np.testing.assert_array_equal(realigned.labels, d.labels)

    def test_domains_round_trip(self, tmp_path):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([0, 1]),
                    ["a,b", 'say "hi"'], np.array([1, 0]), ["d0", "d,1"])
        path = tmp_path / "dom.csv"
        write_csv(str(path), d)
        # only the names holding a comma or a quote are quoted
        assert path.read_text() == ('f0,label,domain\n1.0,"a,b","d,1"\n'
                                    '2.0,"say ""hi""",d0\n')
        back = load_csv(str(path), domain_column="domain")
        assert back.label_names == ["a,b", 'say "hi"']
        # ids re-densify by first appearance: original id 1 appears first
        assert back.domain_names == ["d,1", "d0"]
        assert [back.domain_names[i] for i in back.domains] == ["d,1", "d0"]


class TestNormalizer:
    def test_hand_computed(self):
        d = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), ["a", "b"])
        stats = fit_normalizer(d)
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0
        out = apply_normalizer(stats, d)
        np.testing.assert_array_equal(out.features, [[-1.0], [1.0]])

    def test_constant_column_maps_to_zero(self):
        d = Dataset(np.full((4, 2), 7.0), np.zeros(4, dtype=np.int64), ["a"])
        out = apply_normalizer(fit_normalizer(d), d)
        np.testing.assert_array_equal(out.features, np.zeros((4, 2)))

    def test_train_split_recenters_to_zero_mean_unit_std(self):
        rng = np.random.Generator(np.random.Philox(key=55))
        d = Dataset(rng.standard_normal((50, 4)) * 3.0 + 5.0,
                    rng.integers(0, 2, size=50), ["a", "b"])
        out = apply_normalizer(fit_normalizer(d), d)
        np.testing.assert_allclose(out.features.mean(axis=0), np.zeros(4),
                                   atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), np.ones(4),
                                   atol=1e-9)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 2)), np.array([], dtype=np.int64), ["a"])
        with pytest.raises(ValueError):
            fit_normalizer(empty)

    def test_width_mismatch_rejected(self):
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        d = Dataset(np.zeros((2, 2)), np.array([0, 0]), ["a"])
        with pytest.raises(ValueError):
            apply_normalizer(stats, d)

    def test_std_below_floor_rejected(self):
        # a std under STD_FLOOR is refused when the stats are built, before
        # it can overflow a feature
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="stds finite and at least "
                                                 "1e-12$"):
                NormalizationStats([0.0, 0.0], [1e-320, 1.0])

    def test_input_dataset_unmodified(self):
        d = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), ["a", "b"])
        before = d.features.copy()
        apply_normalizer(fit_normalizer(d), d)
        np.testing.assert_array_equal(d.features, before)


class TestRemapLabels:
    def test_same_order_is_identity(self):
        d = Dataset(np.zeros((2, 1)), np.array([0, 1]), ["a", "b"])
        assert remap_labels(d, ["a", "b"]) is d

    def test_reorders_ids_to_target(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([0, 1]), ["a", "b"])
        out = remap_labels(d, ["b", "a"])
        assert out.label_names == ["b", "a"]
        assert out.labels.tolist() == [1, 0]
        np.testing.assert_array_equal(out.features, d.features)

    def test_subset_maps_into_target(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([0, 1]), ["c", "a"])
        out = remap_labels(d, ["a", "b", "c"])
        assert out.label_names == ["a", "b", "c"]
        assert out.labels.tolist() == [2, 0]

    def test_disjoint_names_rejected(self):
        d = Dataset(np.zeros((1, 1)), np.array([0]), ["a"])
        with pytest.raises(ValueError, match=r"label\(s\) \['a'\] not among "
                           r"the 1 labels of the target"):
            remap_labels(d, ["z"])


class TestMakeBlobs:
    def test_zero_noise_collapses_classes(self):
        spec = SyntheticSpec(n=3, classes=2, domains=1,
                             samples_per_class_per_domain=4, intra_std=0.0)
        d = make_blobs(spec)
        for c in range(2):
            rows = d.features[d.labels == c]
            assert np.all(rows == rows[0])

    def test_single_domain_everywhere(self):
        spec = SyntheticSpec(n=2, classes=2, domains=1,
                             samples_per_class_per_domain=3)
        d = make_blobs(spec)
        assert d.domain_names == ["d0"]
        assert np.all(d.domains == 0)

    def test_fixed_seed_reproduces_bit_identically(self):
        spec = SyntheticSpec(n=4, classes=3, domains=2,
                             samples_per_class_per_domain=5,
                             domain_offset_std=0.5, seed=9)
        a, b = make_blobs(spec), make_blobs(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.domains, b.domains)

    @pytest.mark.parametrize("n, classes, domains, per, seed", [
        (1, 1, 1, 1, 0), (4, 3, 2, 5, 9), (3, 1, 4, 2, 7), (2, 5, 1, 3, 11),
        (5, 2, 3, 1, 2**64 - 1)])
    def test_matches_per_row_draw_order(self, n, classes, domains, per,
                                        seed):
        # the documented layout: L centers, M offsets, then one noise row
        # per sample, domain-major, then class, then repetition
        spec = SyntheticSpec(n=n, classes=classes, domains=domains,
                             samples_per_class_per_domain=per,
                             separation=3.0, intra_std=0.7,
                             domain_offset_std=1.5, seed=seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        centers = rng.standard_normal((classes, n)) * 3.0
        offsets = rng.standard_normal((domains, n)) * 1.5
        noise = rng.standard_normal((domains * classes * per, n)) * 0.7
        features, labels, doms = [], [], []
        for m in range(domains):
            for c in range(classes):
                for _ in range(per):
                    features.append(centers[c] + offsets[m]
                                    + noise[len(features)])
                    labels.append(c)
                    doms.append(m)
        d = make_blobs(spec)
        assert np.array_equal(d.features, np.array(features))
        assert np.array_equal(d.labels, labels)
        assert np.array_equal(d.domains, doms)
        assert d.labels.dtype == d.domains.dtype == np.int64

    def test_counts_and_layout(self):
        spec = SyntheticSpec(n=2, classes=3, domains=2,
                             samples_per_class_per_domain=4)
        d = make_blobs(spec)
        assert len(d) == 2 * 3 * 4
        assert d.label_names == ["c0", "c1", "c2"]
        assert d.domain_names == ["d0", "d1"]
        for c in range(3):
            assert (d.labels == c).sum() == 8
        for m in range(2):
            assert (d.domains == m).sum() == 12

    def test_domain_offsets_shift_whole_domains(self):
        spec = SyntheticSpec(n=3, classes=2, domains=2,
                             samples_per_class_per_domain=6, intra_std=0.0,
                             domain_offset_std=2.0, seed=3)
        d = make_blobs(spec)
        for c in range(2):
            d0 = d.features[(d.labels == c) & (d.domains == 0)][0]
            d1 = d.features[(d.labels == c) & (d.domains == 1)][0]
            assert not np.array_equal(d0, d1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(SyntheticSpec(n=0, classes=2, domains=1,
                                     samples_per_class_per_domain=1))
        with pytest.raises(ValueError):
            make_blobs(SyntheticSpec(n=2, classes=2, domains=1,
                                     samples_per_class_per_domain=1,
                                     intra_std=-1.0))

    def test_summed_overflow_names_every_setting(self):
        # each draw is finite here; only their sums overflow
        spec = SyntheticSpec(n=2, classes=2, domains=1,
                             samples_per_class_per_domain=1, separation=1e308,
                             intra_std=0.0, domain_offset_std=1e308, seed=0)
        with pytest.raises(ValueError, match=r"^synthetic features overflow "
                           r"at separation=1e\+308, "
                           r"domain_offset_std=1e\+308, intra_std=0\.0$"):
            make_blobs(spec)


class TestSplit:
    def balanced(self, per_class=25, classes=4):
        total = per_class * classes
        rng = np.random.Generator(np.random.Philox(key=66))
        labels = np.repeat(np.arange(classes), per_class)
        return Dataset(rng.standard_normal((total, 2)), labels,
                       [f"c{i}" for i in range(classes)])

    def test_80_20_counts_per_class(self):
        train, test = split(self.balanced(), [0.8, 0.2], seed=1)
        assert len(train) == 80
        assert len(test) == 20
        for c in range(4):
            assert (train.labels == c).sum() == 20
            assert (test.labels == c).sum() == 5

    def test_partition_is_exact(self):
        d = self.balanced(per_class=7, classes=3)
        parts = split(d, [0.5, 0.3, 0.2], seed=2)
        assert sum(len(p) for p in parts) == len(d)
        seen = np.concatenate([p.features @ np.array([1.0, 10.0])
                               for p in parts])
        want = d.features @ np.array([1.0, 10.0])
        assert sorted(seen.tolist()) == sorted(want.tolist())

    def test_same_seed_identical(self):
        d = self.balanced()
        a1, b1 = split(d, [0.8, 0.2], seed=5)
        a2, b2 = split(d, [0.8, 0.2], seed=5)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.features, b2.features)

    def test_different_seed_differs(self):
        d = self.balanced()
        a1, _ = split(d, [0.8, 0.2], seed=5)
        a2, _ = split(d, [0.8, 0.2], seed=6)
        assert not np.array_equal(a1.features, a2.features)

    def test_stratification_within_one_sample(self):
        # 10 per class, 3 classes, uneven fractions
        d = self.balanced(per_class=10, classes=3)
        parts = split(d, [0.55, 0.45], seed=3)
        for p, frac in zip(parts, [0.55, 0.45]):
            for c in range(3):
                assert abs((p.labels == c).sum() - frac * 10) < 1.0

    def test_domains_travel_with_samples(self):
        d = make_blobs(SyntheticSpec(n=2, classes=2, domains=2,
                                     samples_per_class_per_domain=10,
                                     seed=4))
        train, test = split(d, [0.5, 0.5], seed=7)
        assert train.domains is not None and test.domains is not None
        assert ((train.domains == 0).sum() + (test.domains == 0).sum()
                == (d.domains == 0).sum())

    @pytest.mark.parametrize("fractions", [
        [0.8, 0.2], [0.55, 0.45], [0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3],
        [0.7, 0.0, 0.3]])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_equals_list_bucketing(self, fractions, seed):
        # Class sizes 7, 1, 4, 12 and 0: one class has a single sample
        # and one has none.
        labels = np.repeat(np.arange(5), [7, 1, 4, 12, 0])
        rng = np.random.Generator(np.random.Philox(key=seed % 97))
        d = Dataset(rng.standard_normal((labels.size, 3)), labels,
                    [f"c{i}" for i in range(5)], labels % 2, ["a", "b"])
        got = split(d, fractions, seed)
        want = list_bucketed_split(d, fractions, seed)
        assert len(got) == len(want) == len(fractions)
        for part, expected in zip(got, want):
            assert part.features.tobytes() == expected.features.tobytes()
            assert part.labels.tolist() == expected.labels.tolist()
            assert part.domains.tolist() == expected.domains.tolist()

    @pytest.mark.parametrize("fractions, bad", [
        ([0.5, float("nan")], "nan"), ([float("inf"), 0.5], "inf"),
        ([1.2, -0.2], "-0.2")])
    def test_non_finite_or_negative_fraction_named(self, fractions, bad):
        with pytest.raises(ValueError) as exc:
            split(self.balanced(), fractions, seed=0)
        msg = f"fractions must be finite and >= 0, got {bad}"
        assert str(exc.value) == msg

    def test_invalid_fractions_rejected(self):
        d = self.balanced()
        with pytest.raises(ValueError):
            split(d, [0.8, 0.1], seed=0)
        with pytest.raises(ValueError):
            split(d, [1.2, -0.2], seed=0)
        with pytest.raises(ValueError):
            split(d, [], seed=0)


def list_bucketed_split(d, fractions, seed):
    """The list-extending split that the np.split one replaced; its
    exactness reference."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    buckets = [[] for _ in fractions]
    for c in range(d.n_classes):
        members = rng.permutation(np.flatnonzero(d.labels == c))
        start = 0
        for j, count in enumerate(_largest_remainder(fractions,
                                                     members.size)):
            buckets[j].extend(members[start:start + count].tolist())
            start += count
    parts = []
    for bucket in buckets:
        idx = np.array(bucket, dtype=np.int64)
        parts.append(d.subset(idx[rng.permutation(idx.size)]))
    return parts


class TestLeaveOneDomainOut:
    def make(self):
        return make_blobs(SyntheticSpec(n=2, classes=2, domains=3,
                                        samples_per_class_per_domain=5,
                                        domain_offset_std=1.0, seed=8))

    def test_test_side_is_exactly_held_domain(self):
        d = self.make()
        train, test = leave_one_domain_out(d, 1)
        assert np.all(test.domains == 1)
        assert not np.any(train.domains == 1)
        assert len(train) + len(test) == len(d)

    def test_domain_selectable_by_name(self):
        d = self.make()
        _, test = leave_one_domain_out(d, "d2")
        assert np.all(test.domains == 2)

    def test_unknown_domain_rejected(self):
        d = self.make()
        with pytest.raises(ValueError):
            leave_one_domain_out(d, "d9")
        with pytest.raises(ValueError):
            leave_one_domain_out(d, 7)

    def test_no_domains_rejected(self):
        d = Dataset(np.zeros((2, 1)), np.array([0, 1]), ["a", "b"])
        with pytest.raises(ValueError):
            leave_one_domain_out(d, 0)

    @pytest.mark.parametrize("held", [1.7, 1.0, True, None, [1]])
    def test_held_domain_of_another_type_rejected(self, held):
        with pytest.raises(ValueError) as exc:
            leave_one_domain_out(self.make(), held)
        assert str(exc.value) == ("held_domain must be a domain name or an "
                                  f"integer id, got {held!r}")

    def test_numpy_integer_id_accepted(self):
        _, test = leave_one_domain_out(self.make(), np.int64(2))
        assert len(test) > 0 and np.all(test.domains == 2)


class TestDatasetCache:
    def test_load_write_load_csv_round_trip(self, tmp_path):
        d = make_blobs(SyntheticSpec(n=4, classes=3, domains=1,
                                     samples_per_class_per_domain=6,
                                     seed=13))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(str(first), d)
        loaded = load_csv(str(first), domain_column="domain")
        write_csv(str(second), loaded)
        assert first.read_text() == second.read_text()
