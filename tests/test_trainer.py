"""Training loop: bundling, similarity-weighted updates, the
regenerate-retrain schedule, early stopping, and report plumbing."""

import json

import numpy as np
import pytest

from dynhd.analysis import (misleading_scores, select_insignificant,
                            select_misleading)
from dynhd.data import (SyntheticSpec, apply_normalizer, fit_normalizer,
                        make_blobs, split)
from dynhd.encoder import encode, encode_batch, init_encoder, regenerate_dims
from dynhd.inference import row_norms
from dynhd.model import ClassModel, Dataset
from dynhd.trainer import (TrainConfig, TrainReport, adaptive_epoch,
                           domain_models, initial_pass, train,
                           _adaptive_pass)


def blob_data(seed=3, classes=3, n=4, per=10, separation=6.0, domains=1,
              offset=0.0):
    spec = SyntheticSpec(n=n, classes=classes, domains=domains,
                        samples_per_class_per_domain=per,
                        separation=separation, domain_offset_std=offset,
                        seed=seed)
    d = make_blobs(spec)
    return apply_normalizer(fit_normalizer(d), d)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig(dim=64).validate()

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0},
        {"dim": 8, "eta": 0.0},
        {"dim": 8, "eta": -0.5},
        {"dim": 8, "epochs_per_round": 0},
        {"dim": 8, "rounds": -1},
        {"dim": 8, "regen_rate": 1.5},
        {"dim": 8, "regen_rate": -0.1},
        {"dim": 8, "strategy": "bogus"},
        {"dim": 8, "patience": -1},
        {"dim": 8, "seed": -1},
        {"dim": 8, "eta": float("nan")},
        {"dim": 8, "eta": float("inf")},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()


class TestInitialPass:
    def test_singleton_class(self):
        e = init_encoder(9, 3, 16)
        f = np.array([0.2, -0.4, 1.0])
        data = Dataset(f[None, :], np.array([1]), ["a", "b"])
        m = initial_pass(e, data)
        np.testing.assert_array_equal(m.classes[1], encode(e, f))
        np.testing.assert_array_equal(m.classes[0], np.zeros(16))

    def test_two_samples_sum(self):
        e = init_encoder(9, 2, 8)
        feats = np.array([[0.1, 0.5], [-0.3, 0.2]])
        data = Dataset(feats, np.array([0, 0]), ["a"])
        m = initial_pass(e, data)
        np.testing.assert_array_equal(
            m.classes[0], encode(e, feats[0]) + encode(e, feats[1]))

    def test_labels_copied_in_order(self):
        e = init_encoder(1, 2, 4)
        data = Dataset(np.zeros((1, 2)), np.array([0]), ["x", "y"])
        assert initial_pass(e, data).labels == ["x", "y"]

    def test_empty_dataset_rejected(self):
        e = init_encoder(1, 2, 4)
        empty = Dataset(np.empty((0, 2)), np.array([], dtype=np.int64), ["a"])
        with pytest.raises(ValueError):
            initial_pass(e, empty)


class TestAdaptivePass:
    def test_hand_traced_update(self):
        # h=(1,0) scores (0, 1) against the two classes; wrong winner 1 gets
        # a zero-weight pull, true class 0 gains eta*(1-0)*h exactly
        classes = np.array([[0.0, 1.0], [1.0, 0.0]])
        norms = row_norms(classes)
        acc = _adaptive_pass(classes, norms, np.array([[1.0, 0.0]]),
                             np.array([1.0]), np.array([0]),
                             np.array([0]), eta=0.1)
        assert acc == 0.0
        np.testing.assert_array_equal(classes, [[0.1, 1.0], [1.0, 0.0]])

    def test_correct_prediction_leaves_model_unchanged(self):
        classes = np.array([[1.0, 0.0], [0.0, 1.0]])
        before = classes.copy()
        acc = _adaptive_pass(classes, row_norms(classes),
                             np.array([[1.0, 0.0]]), np.array([1.0]),
                             np.array([0]), np.array([0]), eta=0.5)
        assert acc == 1.0
        np.testing.assert_array_equal(classes, before)

    def test_tie_predicts_lower_index(self):
        # equidistant sample labeled 1: class 0 wins the tie, so an update
        # must fire
        classes = np.array([[1.0, 0.0], [1.0, 0.0]])
        acc = _adaptive_pass(classes, row_norms(classes),
                             np.array([[1.0, 0.0]]), np.array([1.0]),
                             np.array([1]), np.array([0]), eta=0.1)
        assert acc == 0.0


class TestAdaptiveEpoch:
    def test_matches_scripted_sequential_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        e = init_encoder(5, 3, 12)
        feats = rng.standard_normal((6, 3)) * 0.5
        labels = np.array([0, 1, 2, 0, 1, 2])
        data = Dataset(feats, labels, ["a", "b", "c"])
        m = ClassModel(rng.standard_normal((3, 12)), ["a", "b", "c"])
        want = m.classes.copy()

        _, acc = adaptive_epoch(m, e, data, eta=0.2)

        enc = encode_batch(e, feats)
        hits = 0
        for i in range(6):
            h = enc[i]
            hn = np.sqrt(np.dot(h, h))
            sims = [np.dot(want[l], h)
                    / (np.sqrt(np.dot(want[l], want[l])) * hn)
                    for l in range(3)]
            pred = min(range(3), key=lambda l: (-sims[l], l))
            y = int(labels[i])
            if pred == y:
                hits += 1
                continue
            want[y] = want[y] + 0.2 * (1.0 - sims[y]) * h
            want[pred] = want[pred] - 0.2 * (1.0 - sims[pred]) * h
        assert acc == hits / 6
        np.testing.assert_allclose(m.classes, want, atol=1e-12)

    def test_mutates_model_in_place(self):
        e = init_encoder(5, 2, 8)
        data = blob_data(seed=4, classes=2, n=2, per=5)
        m = initial_pass(e, data)
        out, _ = adaptive_epoch(m, e, data, eta=0.1)
        assert out is m

    def test_validation_errors(self):
        e = init_encoder(5, 2, 8)
        data = blob_data(seed=4, classes=2, n=2, per=5)
        m = initial_pass(e, data)
        for eta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                adaptive_epoch(m, e, data, eta=eta)
        with pytest.raises(ValueError):
            adaptive_epoch(m, init_encoder(5, 2, 16), data, eta=0.1)
        renamed = Dataset(data.features, data.labels, ["x", "y"])
        with pytest.raises(ValueError):
            adaptive_epoch(m, e, renamed, eta=0.1)


class TestTrainBaseline:
    def test_equals_manual_initial_plus_epochs(self):
        data = blob_data(seed=6, classes=3, n=4, per=12)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=1)
        cfg = TrainConfig(dim=64, eta=0.05, epochs_per_round=3, rounds=0,
                          seed=17)
        enc, model, report = train(cfg, train_ds, valid_ds)

        e = init_encoder(17, 4, 64)
        m = initial_pass(e, train_ds)
        for _ in range(3):
            adaptive_epoch(m, e, train_ds, eta=0.05)
        np.testing.assert_array_equal(model.classes, m.classes)
        np.testing.assert_array_equal(enc.bases, e.bases)
        assert len(report.epochs) == 3
        assert len(report.rounds) == 1
        assert report.rounds[0].regen_indices is None

    def test_zero_rate_matches_flat_run_bit_exact(self):
        data = blob_data(seed=7, classes=3, n=4, per=12)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=2)
        looped = TrainConfig(dim=48, epochs_per_round=2, rounds=2,
                             regen_rate=0.0, strategy="insignificant",
                             seed=11)
        flat = TrainConfig(dim=48, epochs_per_round=6, rounds=0, seed=11)
        _, m1, r1 = train(looped, train_ds, valid_ds)
        _, m2, r2 = train(flat, train_ds, valid_ds)
        np.testing.assert_array_equal(m1.classes, m2.classes)
        # empty plans are recorded as [], the final segment as None
        assert [rec.regen_indices for rec in r1.rounds] == [[], [], None]

    def test_deterministic_across_runs(self):
        data = blob_data(seed=8, classes=3, n=4, per=10)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=3)
        cfg = TrainConfig(dim=32, epochs_per_round=2, rounds=2,
                          regen_rate=0.25, strategy="insignificant", seed=5)
        enc1, m1, r1 = train(cfg, train_ds, valid_ds)
        enc2, m2, r2 = train(cfg, train_ds, valid_ds)
        np.testing.assert_array_equal(m1.classes, m2.classes)
        np.testing.assert_array_equal(enc1.bases, enc2.bases)
        assert enc1.draw_counter == enc2.draw_counter
        assert ([rec.val_accuracy for rec in r1.rounds]
                == [rec.val_accuracy for rec in r2.rounds])
        assert ([rec.regen_indices for rec in r1.rounds]
                == [rec.regen_indices for rec in r2.rounds])


class TestTrainRegeneration:
    def replicate(self, cfg, train_ds, plan_fn):
        """Re-run the schedule through the public pieces, re-encoding from
        scratch every epoch instead of patching caches."""
        e = init_encoder(cfg.seed, train_ds.n, cfg.dim)
        m = initial_pass(e, train_ds)
        plans = []
        for segment in range(cfg.rounds + 1):
            for _ in range(cfg.epochs_per_round):
                adaptive_epoch(m, e, train_ds, eta=cfg.eta)
            if segment < cfg.rounds:
                plan = plan_fn(m, e)
                plans.append(plan.indices.tolist())
                e = regenerate_dims(e, plan)
                if plan.indices.size:
                    m.classes[:, plan.indices] = 0.0
        return e, m, plans

    def test_insignificant_schedule_matches_replication(self):
        data = blob_data(seed=9, classes=3, n=4, per=10)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=4)
        cfg = TrainConfig(dim=40, eta=0.05, epochs_per_round=2, rounds=3,
                          regen_rate=0.2, strategy="insignificant", seed=23)
        enc, model, report = train(cfg, train_ds, valid_ds)
        e, m, plans = self.replicate(
            cfg, train_ds,
            lambda model_, enc_: select_insignificant(model_,
                                                      cfg.regen_rate))
        np.testing.assert_array_equal(model.classes, m.classes)
        np.testing.assert_array_equal(enc.bases, e.bases)
        np.testing.assert_array_equal(enc.phases, e.phases)
        assert enc.draw_counter == e.draw_counter
        assert [rec.regen_indices for rec in report.rounds[:-1]] == plans

    def test_misleading_schedule_matches_replication(self):
        data = blob_data(seed=10, classes=3, n=4, per=10, separation=2.0)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=5)
        cfg = TrainConfig(dim=40, eta=0.05, epochs_per_round=2, rounds=2,
                          regen_rate=0.15, strategy="misleading", seed=29)
        enc, model, report = train(cfg, train_ds, valid_ds)
        e, m, plans = self.replicate(
            cfg, train_ds,
            lambda model_, enc_: select_misleading(
                misleading_scores(model_, enc_, train_ds), cfg.regen_rate))
        np.testing.assert_array_equal(model.classes, m.classes)
        np.testing.assert_array_equal(enc.bases, e.bases)
        assert enc.draw_counter == e.draw_counter
        assert [rec.regen_indices for rec in report.rounds[:-1]] == plans

    def test_dimensionality_never_changes(self):
        data = blob_data(seed=11, classes=2, n=3, per=8)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=6)
        cfg = TrainConfig(dim=24, epochs_per_round=1, rounds=4,
                          regen_rate=0.5, strategy="insignificant", seed=2)
        enc, model, _ = train(cfg, train_ds, valid_ds)
        assert model.dim == 24
        assert enc.dim == 24


class TestEarlyStopping:
    def test_saturated_accuracy_stops(self):
        data = blob_data(seed=12, classes=2, n=4, per=20, separation=10.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=7)
        cfg = TrainConfig(dim=128, epochs_per_round=1, rounds=5,
                          regen_rate=0.1, strategy="insignificant",
                          patience=1, seed=3)
        _, _, report = train(cfg, train_ds, valid_ds)
        assert report.stopped_early
        assert len(report.rounds) < 6
        # no regeneration runs on the stopping segment
        assert report.rounds[-1].regen_indices is None

    def test_patience_zero_never_stops(self):
        data = blob_data(seed=12, classes=2, n=4, per=20, separation=10.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=7)
        cfg = TrainConfig(dim=128, epochs_per_round=1, rounds=3,
                          patience=0, seed=3)
        _, _, report = train(cfg, train_ds, valid_ds)
        assert not report.stopped_early
        assert len(report.rounds) == 4


class TestTrainValidation:
    def setup_method(self):
        data = blob_data(seed=13, classes=2, n=3, per=6)
        self.train_ds, self.valid_ds = split(data, [0.75, 0.25], seed=8)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 3)), np.array([], dtype=np.int64),
                        list(self.train_ds.label_names))
        cfg = TrainConfig(dim=8)
        with pytest.raises(ValueError):
            train(cfg, empty, self.valid_ds)
        with pytest.raises(ValueError):
            train(cfg, self.train_ds, empty)

    def test_feature_count_mismatch_rejected(self):
        wider = Dataset(np.zeros((2, 4)), np.array([0, 1]),
                        list(self.train_ds.label_names))
        with pytest.raises(ValueError):
            train(TrainConfig(dim=8), self.train_ds, wider)

    def test_label_set_mismatch_rejected(self):
        other = Dataset(self.valid_ds.features, self.valid_ds.labels,
                        ["p", "q"])
        with pytest.raises(ValueError):
            train(TrainConfig(dim=8), self.train_ds, other)

    def test_domain_variant_needs_domain_ids(self):
        cfg = TrainConfig(dim=8, rounds=1, regen_rate=0.1,
                          strategy="domain_variant")
        no_domains = Dataset(self.train_ds.features, self.train_ds.labels,
                             list(self.train_ds.label_names))
        with pytest.raises(ValueError):
            train(cfg, no_domains, self.valid_ds)

    def test_domain_variant_needs_two_domains(self):
        cfg = TrainConfig(dim=8, rounds=1, regen_rate=0.1,
                          strategy="domain_variant")
        # blob data with a single domain carries all-zero domain ids
        with pytest.raises(ValueError):
            train(cfg, self.train_ds, self.valid_ds)

    def test_valid_labels_remapped_by_name(self):
        data = blob_data(seed=14, classes=2, n=4, per=20, separation=10.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=9)
        # same names listed in the opposite order, ids flipped to match
        flipped = Dataset(valid_ds.features, 1 - valid_ds.labels,
                          [valid_ds.label_names[1], valid_ds.label_names[0]])
        cfg = TrainConfig(dim=128, epochs_per_round=2, seed=4)
        _, _, straight = train(cfg, train_ds, valid_ds)
        _, _, remapped = train(cfg, train_ds, flipped)
        assert (straight.rounds[0].val_accuracy
                == remapped.rounds[0].val_accuracy)
        assert straight.rounds[0].val_accuracy > 0.9


class TestShuffle:
    def test_shuffle_changes_visit_order_effect(self):
        data = blob_data(seed=15, classes=3, n=4, per=12, separation=1.5)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=10)
        base = TrainConfig(dim=32, epochs_per_round=4, seed=6)
        mixed = TrainConfig(dim=32, epochs_per_round=4, seed=6, shuffle=True)
        _, m1, _ = train(base, train_ds, valid_ds)
        _, m2, _ = train(mixed, train_ds, valid_ds)
        assert not np.array_equal(m1.classes, m2.classes)

    def test_shuffled_runs_are_reproducible(self):
        data = blob_data(seed=15, classes=3, n=4, per=12, separation=1.5)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=10)
        cfg = TrainConfig(dim=32, epochs_per_round=4, seed=6, shuffle=True)
        _, m1, _ = train(cfg, train_ds, valid_ds)
        _, m2, _ = train(cfg, train_ds, valid_ds)
        np.testing.assert_array_equal(m1.classes, m2.classes)


class TestDomainModels:
    def test_per_domain_accumulation(self):
        data = blob_data(seed=16, classes=2, n=3, per=6, domains=2,
                         offset=1.0)
        e = init_encoder(8, 3, 16)
        models = domain_models(e, data)
        assert len(models) == 2
        enc = encode_batch(e, data.features)
        for d, m in enumerate(models):
            mask = data.domains == d
            for l in range(2):
                rows = enc[mask][data.labels[mask] == l]
                np.testing.assert_array_equal(m.classes[l],
                                              rows.sum(axis=0))

    def test_missing_domains_rejected(self):
        data = blob_data(seed=16, classes=2, n=3, per=4)
        stripped = Dataset(data.features, data.labels,
                           list(data.label_names))
        with pytest.raises(ValueError):
            domain_models(init_encoder(8, 3, 16), stripped)


class TestTrainReport:
    def test_record_stream_shape(self):
        data = blob_data(seed=17, classes=2, n=3, per=8)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=11)
        cfg = TrainConfig(dim=16, epochs_per_round=2, rounds=1,
                          regen_rate=0.25, strategy="insignificant", seed=1)
        _, _, report = train(cfg, train_ds, valid_ds)
        records = report.records()
        kinds = [rec["type"] for rec in records]
        assert kinds == ["epoch"] * 4 + ["round"] * 2 + ["summary"]
        assert records[-1] == {"type": "summary", "total_epochs": 4,
                               "stopped_early": False}
        for line in report.to_json_lines():
            assert json.loads(line)["type"] in {"epoch", "round", "summary"}

    def test_accuracies_in_unit_interval(self):
        data = blob_data(seed=18, classes=3, n=4, per=8)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=12)
        cfg = TrainConfig(dim=16, epochs_per_round=3, seed=2)
        _, _, report = train(cfg, train_ds, valid_ds)
        for rec in report.epochs:
            assert 0.0 <= rec.train_accuracy <= 1.0
        for rec in report.rounds:
            assert 0.0 <= rec.val_accuracy <= 1.0

    def test_empty_report_summary(self):
        assert TrainReport().records() == [
            {"type": "summary", "total_epochs": 0, "stopped_early": False}]
