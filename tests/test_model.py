"""Domain types, dataset validation, and the model file round-trip."""

import json
import os

import numpy as np
import pytest

from dynhd.data import NormalizationStats
from dynhd.encoder import init_encoder
from dynhd.model import (ClassModel, Dataset, EncoderState, RegenPlan,
                         atomic_write_text, load_model, save_model,
                         validate_dataset)


def small_dataset(**kwargs):
    defaults = dict(
        features=np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]),
        labels=np.array([0, 1, 0]),
        label_names=["a", "b"],
    )
    defaults.update(kwargs)
    return Dataset(**defaults)


class TestEncoderState:
    def test_shape_accessors(self):
        e = EncoderState(np.zeros((4, 2)), np.zeros(4), seed=1, draw_counter=12)
        assert e.dim == 4 and e.n_features == 2

    def test_check_rejects_mismatched_phases(self):
        e = EncoderState(np.zeros((4, 2)), np.zeros(3), seed=1, draw_counter=0)
        with pytest.raises(ValueError):
            e.check()

    def test_check_rejects_phase_out_of_range(self):
        e = EncoderState(np.zeros((2, 2)), np.array([0.0, 7.0]), seed=1,
                         draw_counter=0)
        with pytest.raises(ValueError):
            e.check()

    def test_copy_is_independent(self):
        e = init_encoder(3, 2, 4)
        c = e.copy()
        c.bases[0, 0] += 1.0
        assert e.bases[0, 0] != c.bases[0, 0]


class TestClassModel:
    def test_accessors(self):
        m = ClassModel(np.zeros((3, 8)), ["x", "y", "z"])
        assert m.dim == 8 and m.n_classes == 3

    def test_check_rejects_duplicate_labels(self):
        m = ClassModel(np.zeros((2, 4)), ["x", "x"])
        with pytest.raises(ValueError):
            m.check()

    def test_check_rejects_label_count_mismatch(self):
        m = ClassModel(np.zeros((2, 4)), ["x"])
        with pytest.raises(ValueError):
            m.check()


class TestRegenPlan:
    def test_valid_plan(self):
        p = RegenPlan(np.array([1, 3]), np.array([0.1, 0.5, 0.0, 0.2]),
                      "insignificant", 0.5)
        assert p.indices.tolist() == [1, 3]

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            RegenPlan(np.array([0]), np.array([1.0]), "bogus", 0.5)

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            RegenPlan(np.array([3, 1]), np.array([]), "misleading", 0.5)
        with pytest.raises(ValueError):
            RegenPlan(np.array([1, 1]), np.array([]), "misleading", 0.5)

    def test_rejects_rate_out_of_range(self):
        with pytest.raises(ValueError):
            RegenPlan(np.array([0]), np.array([]), "misleading", 1.5)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RegenPlan(np.array([-1]), np.array([]), "misleading", 0.5)


class TestValidateDataset:
    def test_well_formed_dataset_has_no_failures(self):
        assert validate_dataset(small_dataset()).ok

    def test_nan_feature_flagged(self):
        d = small_dataset(
            features=np.array([[0.0, np.nan], [1.0, 0.0], [0.5, 0.5]]))
        report = validate_dataset(d)
        assert not report.ok
        assert any("non-finite" in f for f in report.failures)

    def test_unknown_label_flagged(self):
        d = small_dataset(labels=np.array([0, 2, 0]))
        report = validate_dataset(d)
        assert any("label out of set" in f for f in report.failures)

    def test_domain_consistency_flagged(self):
        d = small_dataset(domains=np.array([0, 0, 1]))  # no domain_names
        report = validate_dataset(d)
        assert not report.ok

    def test_domain_id_out_of_set_flagged(self):
        d = small_dataset(domains=np.array([0, 0, 5]), domain_names=["d0"])
        report = validate_dataset(d)
        assert any("domain out of set" in f for f in report.failures)

    def test_never_mutates(self):
        d = small_dataset()
        before = d.features.copy()
        validate_dataset(d)
        np.testing.assert_array_equal(d.features, before)


class TestDataset:
    def test_subset_preserves_order_and_names(self):
        d = small_dataset(domains=np.array([0, 1, 0]),
                          domain_names=["d0", "d1"])
        s = d.subset([2, 0])
        np.testing.assert_array_equal(s.features,
                                      d.features[[2, 0]])
        assert s.labels.tolist() == [0, 0]
        assert s.domains.tolist() == [0, 0]
        assert s.label_names == d.label_names


class TestModelFile:
    def roundtrip(self, tmp_path, normalizer=None):
        enc = init_encoder(17, 3, 8)
        model = ClassModel(
            np.random.Generator(np.random.Philox(key=2)).standard_normal(
                (4, 8)),
            ["a", "b", "c", "d"])
        path = os.path.join(tmp_path, "model.json")
        save_model(path, enc, model, normalizer=normalizer)
        return enc, model, path, load_model(path)

    def test_bit_exact_roundtrip(self, tmp_path):
        enc, model, _, (enc2, model2, stats) = self.roundtrip(tmp_path)
        np.testing.assert_array_equal(enc.bases, enc2.bases)
        np.testing.assert_array_equal(enc.phases, enc2.phases)
        assert enc2.seed == enc.seed
        assert enc2.draw_counter == enc.draw_counter
        np.testing.assert_array_equal(model.classes, model2.classes)
        assert model2.labels == model.labels
        assert stats is None

    def test_normalizer_roundtrip(self, tmp_path):
        norm = NormalizationStats(np.array([0.25, -1.5, 3.0]),
                                  np.array([1.0, 2.0, 1e-12]))
        _, _, _, (_, _, stats) = self.roundtrip(tmp_path, normalizer=norm)
        np.testing.assert_array_equal(stats.mean, norm.mean)
        np.testing.assert_array_equal(stats.std, norm.std)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        _, _, path, (enc2, model2, _) = self.roundtrip(tmp_path)
        path2 = os.path.join(tmp_path, "model2.json")
        save_model(path2, enc2, model2)
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()

    def test_file_is_plain_json_with_expected_fields(self, tmp_path):
        _, _, path, _ = self.roundtrip(tmp_path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert {"version", "n", "D", "seed", "draw_counter", "bases",
                "phases", "labels", "classes"} <= set(doc)
        assert doc["n"] == 3 and doc["D"] == 8

    def test_unsupported_version_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        atomic_write_text(path, json.dumps({"version": 999}))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        {"mean": [0.0, 1.0], "std": [1.0, 1.0]},
        {"mean": [0.0] * 4, "std": [1.0] * 4},
        {"std": [1.0, 2.0]},
        {"mean": [0.0, float("nan"), 1.0]},
        {"std": [1.0, float("inf"), 1.0]},
        {"std": [1.0, 0.0, 1.0]},
        {"std": [1.0, -2.0, 1.0]},
    ])
    def test_inconsistent_normalizer_rejected(self, tmp_path, edit):
        norm = NormalizationStats(np.zeros(3), np.ones(3))
        _, _, path, _ = self.roundtrip(tmp_path, normalizer=norm)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["normalizer"].update(edit)
        atomic_write_text(path, json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"malformed model file {path}: ")

    @pytest.mark.parametrize("key, value", [
        ("version", True), ("version", 1.0), ("n", 3.0), ("D", "8"),
        ("seed", True), ("seed", 0.5), ("draw_counter", 320.9),
        ("draw_counter", None), ("labels", "abcd"), ("labels", [1, 2, 3, 4]),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, key, value):
        _, _, path, _ = self.roundtrip(tmp_path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[key] = value
        atomic_write_text(path, json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(
            f"malformed model file {path}: {key} must be a JSON ")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(os.path.join(tmp_path, "absent.json"))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = os.path.join(tmp_path, "x.txt")
    atomic_write_text(path, "hello\n")
    atomic_write_text(path, "world\n")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "world\n"
    assert os.listdir(tmp_path) == ["x.txt"]
