"""Domain types, dataset validation, and the model file round-trip."""

import base64
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import dynhd.encoder
from dynhd.data import NormalizationStats, apply_normalizer, split, write_csv
from dynhd.encoder import init_encoder, regenerate_dims
from dynhd.inference import score_queries, topk_accuracy
from dynhd.model import (MODEL_FILE_KEYS, REPR_CHARS, ClassModel, Dataset,
                         EncoderState, RegenPlan, atomic_write_text,
                         check_json_kind, load_model, save_model)
from dynhd.trainer import TrainConfig, train

def assert_same_encoder(a, b):
    assert np.array_equal(a.bases, b.bases)
    assert np.array_equal(a.phases, b.phases)
    assert a.seed == b.seed and a.draw_counter == b.draw_counter


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
        e = EncoderState(np.zeros((4, 2)), np.zeros(4), seed=1,
                         draw_counter=12, regen_history=[])
        assert e.dim == 4 and e.n_features == 2

    def test_copy_is_independent(self):
        e = init_encoder(3, 2, 4)
        c = e.copy()
        c.bases[0, 0] += 1.0
        assert e.bases[0, 0] != c.bases[0, 0]

    def test_copy_copies_the_history(self):
        e = init_encoder(3, 2, 4)
        assert e.regen_history == []
        e = regenerate_dims(e, RegenPlan(np.array([1, 3]), np.zeros(4),
                                         "insignificant", 0.5))
        c = e.copy()
        c.regen_history[0][0] = 0
        c.regen_history.append(np.array([2]))
        assert [idx.tolist() for idx in e.regen_history] == [[1, 3]]


class TestClassModel:
    def test_accessors(self):
        m = ClassModel(np.zeros((3, 8)), ["x", "y", "z"])
        assert m.dim == 8 and m.n_classes == 3

    def test_check_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            ClassModel(np.zeros((2, 4)), ["x", "x"])

    def test_check_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            ClassModel(np.zeros((2, 4)), ["x"])

    def test_check_rejects_overflowing_norms_of_finite_rows(self):
        classes = np.ones((3, 4))
        classes[[0, 2]] *= 1e200  # finite entries, squared norm 4e400
        assert np.isfinite(classes).all()
        with pytest.raises(ValueError) as exc:
            ClassModel(classes, ["x", "y", "z"])
        assert str(exc.value) == "class row(s) [0, 2] have non-finite norms"

    def test_check_accepts_the_largest_finite_norm(self):
        ClassModel(np.full((1, 4), 1e153), ["x"])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_at_construction(self, value):
        classes = np.zeros((2, 4))
        classes[1, 2] = value
        with pytest.raises(ValueError,
                           match="^class hypervectors contain non-finite "
                                 "entries$"):
            ClassModel(classes, ["x", "y"])


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

    @pytest.mark.parametrize("indices", [
        [0.9, 2.5], np.array([1.0, 2.0]), [[0, 1]], np.zeros((1, 0)),
        np.zeros(0), [], np.array([True, False]),
        np.array([3, 1], dtype=np.uint64), [8]])
    def test_rejects_indices_outside_the_index_set_rule(self, indices):
        with pytest.raises(ValueError) as exc:
            RegenPlan(indices, np.zeros(8), "insignificant", 0.25)
        assert str(exc.value) == (
            "plan indices must be a strictly increasing list of integers in "
            f"[0, 8), got {indices!r}")

    @pytest.mark.parametrize("indices", [np.array([], dtype=np.int64),
                                         np.array([0, 7], dtype=np.uint8)])
    def test_integer_indices_stored_as_int64(self, indices):
        p = RegenPlan(indices, np.zeros(8), "insignificant", 0.25)
        assert p.indices.dtype == np.int64
        assert p.indices.tolist() == indices.tolist()

    def test_rejects_2d_scores(self):
        with pytest.raises(ValueError) as exc:
            RegenPlan(np.array([1]), np.zeros((2, 4)), "insignificant", 0.25)
        assert str(exc.value) == "plan scores must be 1-D, got shape (2, 4)"


class TestValidateDataset:
    """A Dataset checks its invariants when it is built."""

    def test_well_formed_dataset_has_no_failures(self):
        d = small_dataset(domains=[1, 0, 1], domain_names=["d0", "d1"])
        assert len(d) == 3 and d.n == 2 and d.n_classes == 2
        assert d.labels.dtype == d.domains.dtype == np.int64

    def test_nan_feature_flagged(self):
        with pytest.raises(ValueError, match=r"non-finite feature in "
                           r"sample\(s\) \[0, 2\]"):
            small_dataset(features=np.array([[0.0, np.nan], [1.0, 0.0],
                                             [np.inf, -np.inf]]))

    def test_unknown_label_flagged(self):
        # 2 == L names no class; -1 would wrap around to the last class
        for labels in ([0, 2, 0], [0, -1, 0], [0, 7, 0]):
            with pytest.raises(ValueError,
                               match=r"label out of set in sample\(s\) \[1\]"):
                small_dataset(labels=np.array(labels))

    def test_domain_consistency_flagged(self):
        for kwargs in (dict(domains=np.array([0, 0, 1])),
                       dict(domain_names=["d0", "d1"])):
            with pytest.raises(ValueError, match="domains and domain_names "
                               "must both be present or both absent"):
                small_dataset(**kwargs)

    def test_domain_id_out_of_set_flagged(self):
        with pytest.raises(ValueError,
                           match=r"domain out of set in sample\(s\) \[2\]"):
            small_dataset(domains=np.array([0, 0, 5]), domain_names=["d0"])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(features=np.zeros(3)), "features must be a 2-D array"),
        (dict(labels=np.array([0, 1])),
         "labels length must equal the sample count"),
        (dict(label_names=["a", "a"]), "label names must be unique"),
        (dict(domains=np.array([0, 0]), domain_names=["d0"]),
         "domains length must equal the sample count"),
        (dict(domains=np.array([0, 0, 0]), domain_names=["d0", "d0"]),
         "domain names must be unique")],
        ids=["features-1d", "labels-length", "label-names", "domains-length",
             "domain-names"])
    def test_each_invariant_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            small_dataset(**kwargs)

    def test_derived_datasets_are_checked(self):
        d = small_dataset()
        with pytest.raises(ValueError, match="label out of set"):
            replace(d, label_names=["a"])
        far = NormalizationStats([-1e308, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite feature"):
            apply_normalizer(far, small_dataset(
                features=np.array([[1e308, 1.0], [0.0, 0.0], [0.5, 0.5]])))

    def test_never_mutates(self):
        """Construction leaves the caller's arrays unchanged."""
        features = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        labels = np.array([0, 1, 0])
        Dataset(features, labels, ["a", "b"])
        with pytest.raises(ValueError):
            Dataset(features, labels, ["a"])
        np.testing.assert_array_equal(
            features, [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(labels, [0, 1, 0])


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


def edit_field(doc, field, edit):
    """Apply edit(node, leaf) to the dotted field of a model document."""
    *parents, leaf = field.split(".")
    node = doc
    for part in parents:
        node = node[part]
    edit(node, leaf)


def pack(values):
    """A float array as a model file stores it: base64 of its little-endian
    float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def unpack(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def pack_mask(indices, dim):
    """A regenerated index set as a model file stores it: base64 of its
    dim-bit mask, bit i of the mask being bit i % 8 of byte i // 8."""
    raw = bytearray(-(-dim // 8))
    for i in indices:
        raw[i // 8] |= 1 << (i % 8)
    return base64.b64encode(bytes(raw)).decode()


def b64(*octets):
    return base64.b64encode(bytes(octets)).decode()


PACKED_FIELDS = ["classes", "normalizer.mean", "normalizer.std"]
NORMALIZER_RANGE = ("normalizer means must be finite and its stds finite and "
                    "at least 1e-12")

BAD_MASK = "must be a non-empty 13-bit mask (2 bytes), got "


class TestModelFile:
    def roundtrip(self, tmp_path, normalizer=None, dim=8,
                  history=([1, 5], [0, 5, 7])):
        """Save a model with the given rounds of history; returns the
        encoder, model, path and what loads back."""
        enc = init_encoder(17, 3, dim)
        for idx in history:
            enc = regenerate_dims(enc, RegenPlan(np.array(idx),
                                                 np.zeros(dim),
                                                 "insignificant", 0.25))
        model = ClassModel(
            np.random.Generator(np.random.Philox(key=2)).standard_normal(
                (4, dim)),
            ["a", "b", "c", "d"])
        path = os.path.join(tmp_path, "model.json")
        save_model(path, enc, model, normalizer=normalizer)
        return enc, model, path, load_model(path)

    def edited(self, tmp_path, field, edit, dim=8):
        """The path of a saved model whose field was edited in place."""
        norm = NormalizationStats(np.zeros(3), np.ones(3))
        _, _, path, _ = self.roundtrip(tmp_path, normalizer=norm, dim=dim)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit_field(doc, field, edit)
        atomic_write_text(path, json.dumps(doc))
        return path

    def test_bit_exact_roundtrip(self, tmp_path):
        enc, model, _, (enc2, model2, stats) = self.roundtrip(tmp_path)
        assert_same_encoder(enc, enc2)
        assert ([idx.tolist() for idx in enc2.regen_history]
                == [[1, 5], [0, 5, 7]])
        assert all(idx.dtype == np.int64 for idx in enc2.regen_history)
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

    def test_file_stores_the_replay_log_and_packed_arrays(self, tmp_path):
        norm = NormalizationStats(np.array([0.25, -0.0, 3.0]),
                                  np.array([1.0, 2.0, 1e-12]))
        _, model, path, _ = self.roundtrip(tmp_path, normalizer=norm)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert list(doc) == ["version", "n", "D", "seed", "regen_history",
                             "labels", "classes", "normalizer"]
        assert doc["version"] == 4 and doc["n"] == 3 and doc["D"] == 8
        # {1, 5} is the byte 0b00100010, {0, 5, 7} the byte 0b10100001
        assert doc["regen_history"] == ["Ig==", "oQ=="]
        assert (base64.b64decode(doc["classes"], validate=True)
                == model.classes.astype("<f8").tobytes())
        assert doc["normalizer"] == {"mean": pack(norm.mean),
                                     "std": pack(norm.std)}

    def test_signed_zeros_and_subnormals_roundtrip(self, tmp_path):
        classes = np.array([[-0.0, 5e-324, -2.2250738585072014e-308, 0.0]])
        norm = NormalizationStats([-0.0, 5e-324], [1e-12, 1e300])
        path = os.path.join(tmp_path, "model.json")
        save_model(path, init_encoder(5, 2, 4), ClassModel(classes, ["a"]),
                   normalizer=norm)
        _, model, stats = load_model(path)
        assert model.classes.tobytes() == classes.tobytes()
        assert stats.mean.tobytes() == norm.mean.tobytes()
        assert stats.std.tobytes() == norm.std.tobytes()

    @pytest.mark.parametrize("mean, std", [
        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, -np.inf], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [1e-320, 1.0])])
    def test_bad_normalizer_rejected_before_any_file(self, tmp_path, mean,
                                                      std):
        """A normalizer a model file could not hold fails when it is built,
        so ``save_model`` never writes one that ``load_model`` rejects."""
        with pytest.raises(ValueError, match=f"^{NORMALIZER_RANGE}$"):
            save_model(os.path.join(tmp_path, "model.json"),
                       init_encoder(1, 2, 8),
                       ClassModel(np.zeros((2, 8)), ["a", "b"]),
                       normalizer=NormalizationStats(mean, std))
        assert os.listdir(tmp_path) == []

    def test_normalizer_for_another_n_rejected_before_any_file(self,
                                                               tmp_path):
        with pytest.raises(ValueError,
                           match="^normalizer has 3 features, expected 2$"):
            save_model(os.path.join(tmp_path, "model.json"),
                       init_encoder(1, 2, 8),
                       ClassModel(np.zeros((2, 8)), ["a", "b"]),
                       normalizer=NormalizationStats(np.zeros(3), np.ones(3)))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seed", [True, 1.5, -1, "1"])
    def test_bad_encoder_seed_rejected_before_any_file(self, tmp_path, seed):
        with pytest.raises(ValueError, match="^seed must be "):
            save_model(os.path.join(tmp_path, "model.json"),
                       replace(init_encoder(1, 2, 8), seed=seed),
                       ClassModel(np.zeros((2, 8)), ["a", "b"]))
        assert os.listdir(tmp_path) == []

    def test_numpy_integer_encoder_seed_saved_as_int(self, tmp_path):
        enc = replace(init_encoder(1, 2, 8), seed=np.int64(1))
        assert type(enc.seed) is int
        path = os.path.join(tmp_path, "model.json")
        save_model(path, enc, ClassModel(np.zeros((2, 8)), ["a", "b"]))
        assert_same_encoder(enc, load_model(path)[0])

    def test_history_roundtrips_at_an_uneven_dim(self, tmp_path):
        """At D=13 the mask's second byte holds bits 8-12 and three
        padding bits."""
        history = ([0, 8, 12], [12], [3, 7, 8])
        enc, _, path, (enc2, _, _) = self.roundtrip(tmp_path, dim=13,
                                                    history=history)
        assert_same_encoder(enc, enc2)
        assert [idx.tolist() for idx in enc2.regen_history] == list(history)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["regen_history"] == [
                b64(0x01, 0x11), b64(0x00, 0x10), b64(0x88, 0x01)]

    @pytest.mark.parametrize("dim", [1, 8, 13, 24, 25, 48, 49, 2048])
    def test_history_entry_is_the_base64_of_ceil_d_over_8_bytes(
            self, tmp_path, dim):
        _, _, path, _ = self.roundtrip(tmp_path, dim=dim,
                                       history=([0], [dim - 1]))
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)["regen_history"]
        nbytes = -(-dim // 8)
        assert [len(entry) for entry in history] == [4 * -(-nbytes // 3)] * 2

    def test_unknown_key_rejected(self, tmp_path):
        def extend(node, leaf):
            node.update(feature_names=["x", "y", "z"], bases="")

        path = self.edited(tmp_path, "version", extend)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"malformed model file {path}: unknown key(s) ['bases', "
            f"'feature_names']; expected a subset of "
            f"{sorted(MODEL_FILE_KEYS)}")

    def test_unsupported_version_rejected(self, tmp_path):
        # 1-3 are the retired formats: bases and phases, then JSON number
        # lists for the float arrays, then JSON integer lists for the
        # history
        for version in (1, 2, 3, 999):
            path = self.edited(tmp_path, "version",
                               lambda node, leaf: node.update({leaf: version}))
            with pytest.raises(ValueError) as exc:
                load_model(path)
            assert str(exc.value) == (
                f"malformed model file {path}: unsupported model file "
                f"version {version}")

    # Each edit is (arrays to pack into the normalizer, the check's message).
    @pytest.mark.parametrize("edit", [
        ({"mean": [0.0, 1.0], "std": [1.0, 1.0]},
         "normalizer has 2 features, expected 3"),
        ({"mean": [0.0] * 4, "std": [1.0] * 4},
         "normalizer has 4 features, expected 3"),
        ({"std": [1.0, 2.0]},
         "mean and std must be 1-D arrays of equal length"),
        ({"mean": [0.0, float("nan"), 1.0]}, NORMALIZER_RANGE),
        ({"std": [1.0, float("inf"), 1.0]}, NORMALIZER_RANGE),
        ({"std": [1.0, 0.0, 1.0]}, NORMALIZER_RANGE),
        ({"std": [1.0, -2.0, 1.0]}, NORMALIZER_RANGE),
        ({"std": [1.0, 1e-320, 1.0]}, NORMALIZER_RANGE),
    ])
    def test_inconsistent_normalizer_rejected(self, tmp_path, edit):
        arrays, message = edit
        path = self.edited(tmp_path, "normalizer", lambda node, leaf: node[
            leaf].update({k: pack(v) for k, v in arrays.items()}))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"malformed model file {path}: {message}"

    @pytest.mark.parametrize("key, value", [
        ("version", True), ("version", 2.0), ("n", 3.0), ("D", "8"),
        ("seed", True), ("seed", 0.5), ("labels", "abcd"),
        ("labels", [1, 2, 3, 4]), ("classes", 0.5),
        ("regen_history", None), ("regen_history", "[[1, 5]]"),
        ("regen_history", {"0": [1, 5]}), ("regen_history", 3),
    ])
    def test_wrongly_typed_v2_field_rejected(self, tmp_path, key, value):
        path = self.edited(tmp_path, key,
                           lambda node, leaf: node.update({leaf: value}))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(
            f"malformed model file {path}: {key} must be a JSON ")

    @pytest.mark.parametrize("field", PACKED_FIELDS)
    @pytest.mark.parametrize("entry", ["0.5", True, None])
    def test_non_number_v2_array_entry_rejected(self, tmp_path, field, entry):
        """A float array written the retired way, as a JSON number list
        (here with a non-number entry), is not a packed string."""
        values = [0.0, entry, 1.0]
        path = self.edited(tmp_path, field,
                           lambda node, leaf: node.update({leaf: values}))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"malformed model file {path}: {field} must be a JSON string, "
            f"got {values!r}")

    @pytest.mark.parametrize("field", PACKED_FIELDS)
    @pytest.mark.parametrize("text, problem", [
        (0.5, "must be a JSON string, got 0.5"),
        # the decoder's own wording follows "is not base64: "
        ("AAAA AAAAAAA", "is not base64: "),
        ("AAAAAAAAAAA=\n", "is not base64: "),
        ("AAAAAAAAAAA", "is not base64: "),
        ("AAAA\u00e9AAA", "is not base64: "),
        ("AAAAAAAAAAAAAAAA", None),  # 12 bytes, not whole float64 values
    ], ids=["number", "space", "line-break", "padding", "non-ascii",
            "byte-count"])
    def test_corrupt_packed_array_rejected(self, tmp_path, field, text,
                                           problem):
        if problem is None:
            problem = ("must hold 32 float64 values (256 bytes), got 12 "
                       "bytes" if field == "classes" else
                       "must hold whole float64 values, got 12 bytes")
        path = self.edited(tmp_path, field,
                           lambda node, leaf: node.update({leaf: text}))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(
            f"malformed model file {path}: {field} {problem}")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_packed_non_finite_class_entry_rejected(self, tmp_path, value):
        def poison(node, leaf):
            classes = unpack(node[leaf]).copy()
            classes[5] = value
            node[leaf] = pack(classes)

        path = self.edited(tmp_path, "classes", poison)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (f"malformed model file {path}: class "
                                  "hypervectors contain non-finite entries")

    def test_overflowing_class_norms_rejected(self, tmp_path):
        def scale(node, leaf):
            node[leaf] = pack(unpack(node[leaf]) * 1e200)

        path = self.edited(tmp_path, "classes", scale)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (f"malformed model file {path}: class "
                                  "row(s) [0, 1, 2, 3] have non-finite norms")

    # Cases 1 and 7 break the second round; "1" is not a list at all.
    @pytest.mark.parametrize("history, message", [
        ([[1, 5]], "regen_history[0] must be a JSON string, got [1, 5]"),
        ([pack_mask([1, 5], 13), b64(0x00, 0x20)],
         "regen_history[1] " + BAD_MASK + "bit 13 set"),
        ([b64(0x01, 0x80)], "regen_history[0] " + BAD_MASK + "bit 15 set"),
        ([b64(0x00, 0x00)], "regen_history[0] " + BAD_MASK + "no bit set"),
        ([""], "regen_history[0] " + BAD_MASK + "0 bytes"),
        ([b64(0x01, 0x00, 0x00)], "regen_history[0] " + BAD_MASK + "3 bytes"),
        ([1], "regen_history[0] must be a JSON string, got 1"),
        ([pack_mask([1, 5], 13), None],
         "regen_history[1] must be a JSON string, got None"),
        ([True], "regen_history[0] must be a JSON string, got True"),
        ([[0, 2**70]], "regen_history[0] must be a JSON string, got "
                       "[0, 1180591620717411303424]"),
        ("1", "regen_history must be a JSON array, got '1'"),
    ])
    def test_corrupt_regen_history_rejected(self, tmp_path, history,
                                            message):
        path = self.edited(tmp_path, "regen_history",
                           lambda node, leaf: node.update({leaf: history}),
                           dim=13)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"malformed model file {path}: {message}"

    @pytest.mark.parametrize("text", ["AAA", "AA A", "AAA=\n", "AA\u00e9="],
                             ids=["padding", "space", "line-break",
                                  "non-ascii"])
    def test_non_base64_regen_history_rejected(self, tmp_path, text):
        path = self.edited(tmp_path, "regen_history",
                           lambda node, leaf: node.update({leaf: [text]}),
                           dim=13)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        # the decoder's own wording follows
        assert str(exc.value).startswith(
            f"malformed model file {path}: regen_history[0] is not base64: ")

    @pytest.mark.parametrize("entry", [[5, 1], [1, 1, 5], [], [-1], [8]])
    def test_hand_built_bad_history_is_not_saved(self, tmp_path, entry):
        """A mask would silently sort, merge or drop such an entry and so
        save a different encoder; save_model refuses it, writing nothing."""
        enc, model, path, _ = self.roundtrip(tmp_path)
        os.remove(path)
        bad = replace(enc, regen_history=[np.array([2]), np.array(entry)])
        with pytest.raises(ValueError) as exc:
            save_model(path, bad, model)
        assert str(exc.value) == (
            "regen_history[1] must be a non-empty, strictly increasing list "
            f"of integers in [0, 8), got {np.array(entry)!r}")
        assert os.listdir(tmp_path) == []

    def test_replay_out_of_memory_names_the_shape(self, tmp_path,
                                                  monkeypatch):
        _, _, path, _ = self.roundtrip(tmp_path)

        def out_of_memory(seed, n, dim):
            raise MemoryError

        monkeypatch.setattr(dynhd.encoder, "init_encoder", out_of_memory)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (f"malformed model file {path}: n=3 and D=8 "
                                  "need more memory than is available")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(os.path.join(tmp_path, "absent.json"))


def test_train_save_load_roundtrip_is_exact(tmp_path):
    data = Dataset(
        np.random.Generator(np.random.Philox(key=4)).standard_normal((40, 5)),
        np.arange(40) % 4, ["a", "b", "c", "d"])
    train_ds, valid_ds = split(data, [0.75, 0.25], seed=1)
    cfg = TrainConfig(dim=64, epochs_per_round=1, rounds=3, regen_rate=0.25,
                      strategy="insignificant", shuffle=True, seed=9)
    enc, model, records = train(cfg, train_ds, valid_ds)
    logged = [rec["regen_indices"] for rec in records
              if rec["type"] == "round"][:-1]
    assert [idx.tolist() for idx in enc.regen_history] == logged
    path = os.path.join(tmp_path, "trained.json")
    save_model(path, enc, model)
    enc2, model2, _ = load_model(path)
    assert_same_encoder(enc, enc2)
    assert [idx.tolist() for idx in enc2.regen_history] == logged
    assert np.array_equal(model.classes, model2.classes)


def test_regenerated_run_predicts_the_same_after_reload(tmp_path):
    """Save then load replays the bases, phases and draw counter of a run
    that regenerated, so every score and top-k figure is unchanged."""
    data = Dataset(
        np.random.Generator(np.random.Philox(key=6)).standard_normal(
            (120, 6)) + np.repeat(np.eye(4, 6) * 2.0, 30, axis=0),
        np.repeat(np.arange(4), 30), ["a", "b", "c", "d"])
    train_ds, test_ds = split(data, [0.75, 0.25], seed=2)
    cfg = TrainConfig(dim=300, epochs_per_round=2, rounds=5, regen_rate=0.2,
                      strategy="insignificant", shuffle=True, seed=3)
    enc, model, _ = train(cfg, train_ds, test_ds)
    assert len(enc.regen_history) == 5
    path = os.path.join(tmp_path, "regenerated.json")
    save_model(path, enc, model)
    enc2, model2, _ = load_model(path)
    assert enc2.draw_counter == enc.draw_counter
    scores, _, _ = score_queries(model, enc, test_ds)
    scores2, _, _ = score_queries(model2, enc2, test_ds)
    assert scores2.tobytes() == scores.tobytes()
    for k in (1, 2):
        assert (topk_accuracy(model2, enc2, test_ds, k)
                == topk_accuracy(model, enc, test_ds, k))


class TestCheckJsonKind:
    @pytest.mark.parametrize("value, kind, tail", [
        ("x" * 200, "integer", "got " + repr("x" * 200)[:REPR_CHARS]
         + "..."),
        ([1, "y" * 200], "integer array",
         "got " + repr("y" * 200)[:REPR_CHARS] + "... at index 1"),
        ("x" * 78, "integer", "got " + repr("x" * 78)),
    ], ids=["value", "entry", "at-the-cap"])
    def test_echo_is_capped(self, value, kind, tail):
        with pytest.raises(ValueError) as exc:
            check_json_kind("field", value, kind)
        assert str(exc.value) == f"field must be a JSON {kind}, {tail}"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = os.path.join(tmp_path, "x.txt")
    atomic_write_text(path, "hello\n")
    atomic_write_text(path, "world\n")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "world\n"
    assert os.listdir(tmp_path) == ["x.txt"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_take_a_new_files_mode(tmp_path, umask):
    model_path, csv_path = tmp_path / "model.json", tmp_path / "data.csv"
    model_path.write_text("{}")
    model_path.chmod(0o644)  # a model being re-trained is replaced
    old = os.umask(umask)
    try:
        save_model(str(model_path), init_encoder(0, 2, 4),
                   ClassModel(np.ones((2, 4)), ["a", "b"]))
        write_csv(str(csv_path), small_dataset())
    finally:
        os.umask(old)
    for path in (model_path, csv_path):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
