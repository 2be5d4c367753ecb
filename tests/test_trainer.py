"""Training loop: bundling, similarity-weighted updates, the
regenerate-retrain schedule, early stopping, and report plumbing."""

import json

import numpy as np
import pytest

import dynhd.trainer
from dynhd.analysis import (misleading_scores, select_insignificant,
                            select_misleading)
from dynhd.data import (SyntheticSpec, apply_normalizer, fit_normalizer,
                        make_blobs, split)
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch, init_encoder,
                           regenerate_dims)
from dynhd.inference import model_scores, row_norms, vec_norm
from dynhd.model import ClassModel, Dataset
from dynhd.trainer import (TrainConfig, TrainReport, domain_models, train,
                           _accumulate, _adaptive_pass)


def blob_data(seed=3, classes=3, n=4, per=10, separation=6.0, domains=1,
              offset=0.0):
    spec = SyntheticSpec(n=n, classes=classes, domains=domains,
                        samples_per_class_per_domain=per,
                        separation=separation, domain_offset_std=offset,
                        seed=seed)
    d = make_blobs(spec)
    return apply_normalizer(fit_normalizer(d), d)


def _reference_pass(classes, class_norms, encodings, sample_norms, labels,
                    order, eta):
    """The per-sample loop: score each visited row, update on a mispredict.
    The cached pass must equal it bit for bit."""
    updates = 0
    for i in order:
        h = encodings[i]
        scores = model_scores(classes, class_norms, h, sample_norms[i])
        pred = int(np.argmax(scores))  # first max: lower index wins ties
        y = int(labels[i])
        if pred == y:
            continue
        classes[y] += eta * (1.0 - scores[y]) * h
        classes[pred] -= eta * (1.0 - scores[pred]) * h
        class_norms[y] = vec_norm(classes[y])
        class_norms[pred] = vec_norm(classes[pred])
        updates += 1
    return (order.shape[0] - updates) / order.shape[0], updates


def cached_pass(classes, encodings, labels, order, eta):
    """One pass from an empty score cache; returns (accuracy, updates)."""
    scores = np.empty((encodings.shape[0], classes.shape[0]))
    fresh = np.zeros(encodings.shape[0], dtype=bool)
    return _adaptive_pass(classes, row_norms(classes), encodings,
                          row_norms(encodings), labels, order, eta, scores,
                          fresh)


def bundle(e, data):
    """The initial bundling pass of train, on a dataset."""
    return ClassModel(_accumulate(encode_batch(e, data.features), data.labels,
                                  data.n_classes), list(data.label_names))


def reference_epoch(m, e, data, eta):
    """One per-sample epoch in dataset order, encoding from scratch."""
    enc = encode_batch(e, data.features)
    return _reference_pass(m.classes, row_norms(m.classes), enc,
                           row_norms(enc), data.labels,
                           np.arange(len(data)), eta)


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
        m = bundle(e, data)
        np.testing.assert_array_equal(m.classes[1], encode(e, f))
        np.testing.assert_array_equal(m.classes[0], np.zeros(16))

    def test_two_samples_sum(self):
        e = init_encoder(9, 2, 8)
        feats = np.array([[0.1, 0.5], [-0.3, 0.2]])
        data = Dataset(feats, np.array([0, 0]), ["a"])
        m = bundle(e, data)
        np.testing.assert_array_equal(
            m.classes[0], encode(e, feats[0]) + encode(e, feats[1]))

    def test_labels_copied_in_order(self):
        data = Dataset(np.zeros((1, 2)), np.array([0]), ["x", "y"])
        _, m, _ = train(TrainConfig(dim=4), data, data)
        assert m.labels == ["x", "y"]


class TestAdaptivePass:
    def test_hand_traced_update(self):
        # h=(1,0) scores (0, 1) against the two classes; wrong winner 1 gets
        # a zero-weight pull, true class 0 gains eta*(1-0)*h exactly
        classes = np.array([[0.0, 1.0], [1.0, 0.0]])
        acc, updates = cached_pass(classes, np.array([[1.0, 0.0]]),
                                   np.array([0]), np.array([0]), eta=0.1)
        assert (acc, updates) == (0.0, 1)
        np.testing.assert_array_equal(classes, [[0.1, 1.0], [1.0, 0.0]])

    def test_correct_prediction_leaves_model_unchanged(self):
        classes = np.array([[1.0, 0.0], [0.0, 1.0]])
        before = classes.copy()
        acc, updates = cached_pass(classes, np.array([[1.0, 0.0]]),
                                   np.array([0]), np.array([0]), eta=0.5)
        assert (acc, updates) == (1.0, 0)
        np.testing.assert_array_equal(classes, before)

    def test_tie_predicts_lower_index(self):
        # equidistant sample labeled 1: class 0 wins the tie, so an update
        # must fire
        classes = np.array([[1.0, 0.0], [1.0, 0.0]])
        acc, updates = cached_pass(classes, np.array([[1.0, 0.0]]),
                                   np.array([1]), np.array([0]), eta=0.1)
        assert (acc, updates) == (0.0, 1)


class TestAdaptiveEpoch:
    def test_matches_scripted_sequential_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        e = init_encoder(5, 3, 12)
        feats = rng.standard_normal((6, 3)) * 0.5
        labels = np.array([0, 1, 2, 0, 1, 2])
        classes = rng.standard_normal((3, 12))
        want = classes.copy()

        enc = encode_batch(e, feats)
        acc, updates = cached_pass(classes, enc, labels, np.arange(6),
                                   eta=0.2)

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
        assert updates == 6 - hits
        np.testing.assert_allclose(classes, want, atol=1e-12)

    def test_mutates_model_in_place(self):
        e = init_encoder(5, 2, 8)
        data = blob_data(seed=4, classes=2, n=2, per=5)
        enc = encode_batch(e, data.features)
        classes = np.zeros((2, 8))
        class_norms = row_norms(classes)
        scores = np.empty((len(data), 2))
        fresh = np.zeros(len(data), dtype=bool)
        # a zero model mispredicts every class-1 sample
        _, updates = _adaptive_pass(classes, class_norms, enc, row_norms(enc),
                                    data.labels, np.arange(len(data)), 0.1,
                                    scores, fresh)
        assert updates > 0
        assert np.any(classes != 0.0)
        np.testing.assert_array_equal(class_norms, row_norms(classes))


def score_calls(monkeypatch):
    """Record the rows of every model_scores call the pass makes: 1 for a
    single encoding, the block's row count for a batch."""
    calls = []

    def counting(classes, class_norms, h, h_norm):
        calls.append(1 if h.ndim == 1 else h.shape[0])
        return model_scores(classes, class_norms, h, h_norm)

    monkeypatch.setattr(dynhd.trainer, "model_scores", counting)
    return calls


def separated(seed=21, n_rows=200, dim=64, n_classes=4, noise=0.3):
    """Classes and encodings near their class rows: every row predicts
    right until a label is changed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    classes = rng.standard_normal((n_classes, dim))
    labels = rng.integers(0, n_classes, size=n_rows)
    encodings = classes[labels] + noise * rng.standard_normal((n_rows, dim))
    return classes, encodings, labels


def assert_pass_exact(classes, encodings, epochs, eta=0.05):
    """Run the cached pass over ``epochs``, a list of (order, labels), with
    one score cache, and the per-sample loop on copies.  Every epoch's
    accuracy and update count, and the final classes and class norms, must
    be equal.  Returns the per-epoch (accuracy, updates)."""
    got_c, want_c = classes.copy(), classes.copy()
    got_n, want_n = row_norms(classes), row_norms(classes)
    norms = row_norms(encodings)
    scores = np.empty((encodings.shape[0], classes.shape[0]))
    fresh = np.zeros(encodings.shape[0], dtype=bool)
    results = []
    for order, labels in epochs:
        got = _adaptive_pass(got_c, got_n, encodings, norms, labels, order,
                             eta, scores, fresh)
        want = _reference_pass(want_c, want_n, encodings, norms, labels,
                               order, eta)
        assert got == want
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_n, want_n)
        results.append(got)
    return results


def assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                   enc, model, report):
    """Train again with the per-sample loop in place of the cached pass:
    the encoder bases, the classes and the records must be equal."""
    def reference(classes, class_norms, encodings, sample_norms, labels,
                  order, eta, scores, fresh):
        return _reference_pass(classes, class_norms, encodings, sample_norms,
                               labels, order, eta)

    monkeypatch.setattr(dynhd.trainer, "_adaptive_pass", reference)
    ref_enc, ref_model, ref_report = train(cfg, train_ds, valid_ds)
    assert np.array_equal(model.classes, ref_model.classes)
    assert np.array_equal(enc.bases, ref_enc.bases)
    strip = lambda recs: [{k: v for k, v in rec.items()
                           if k != "wall_ms"} for rec in recs]
    assert strip(report.records()) == strip(ref_report.records())


class TestCachedPassIsExact:
    """The score-cached, block-scored pass against the per-sample loop,
    compared with np.array_equal."""

    def test_block_schedule_and_cache_reuse(self, monkeypatch):
        classes, encodings, labels = separated()
        calls = score_calls(monkeypatch)
        order = np.arange(200)
        assert_pass_exact(classes, encodings, [(order, labels)] * 2)
        # blocks that double from one row to 64 (the cap), then the 9 rows
        # left; the second clean epoch scores nothing, since every cached
        # row is fresh
        assert BLOCK_ROWS == 64
        assert calls == [1, 2, 4, 8, 16, 32, 64, 64, 9]

    # 0, 1, 3, 7, 15, 31, 63, 127 and 191 start blocks in a clean pass
    @pytest.mark.parametrize("position", [0, 1, 2, 3, 7, 8, 15, 31, 63, 64,
                                          65, 127, 128, 191, 199])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_mispredict_at_position(self, position, shuffled):
        classes, encodings, labels = separated(seed=22)
        rng = np.random.Generator(np.random.Philox(key=position))
        order = rng.permutation(200) if shuffled else np.arange(200)
        assert assert_pass_exact(classes, encodings,
                                 [(order, labels)]) == [(1.0, 0)]
        flipped = labels.copy()
        row = order[position]
        flipped[row] = (flipped[row] + 1) % classes.shape[0]
        results = assert_pass_exact(classes, encodings,
                                    [(order, flipped)] * 3)
        assert results[0][1] >= 1

    def test_exact_score_ties(self):
        # class 1 duplicates class 0, so rows labelled 1 tie and predict 0;
        # integer-valued encodings repeat exact scores across rows
        rng = np.random.Generator(np.random.Philox(key=23))
        classes = rng.integers(-2, 3, size=(3, 16)).astype(np.float64)
        classes[1] = classes[0]
        labels = rng.integers(0, 3, size=150)
        encodings = classes[labels] + rng.integers(
            -1, 2, size=(150, 16)).astype(np.float64)
        results = assert_pass_exact(
            classes, encodings, [(np.arange(150), labels)] * 4, eta=0.25)
        assert results[0][1] >= 1

    def test_zero_class_row_and_zero_encoding(self):
        classes, encodings, labels = separated(seed=24, n_rows=150)
        classes[2] = 0.0
        encodings[[5, 40, 90]] = 0.0  # scores all 0, so class 0 wins
        labels[[5, 40, 90]] = 3
        results = assert_pass_exact(classes, encodings,
                                    [(np.arange(150), labels)] * 4)
        assert results[0][1] >= 3

    def test_shuffled_orders(self):
        classes, encodings, labels = separated(seed=25, n_rows=300,
                                               noise=4.0)
        rng = np.random.Generator(np.random.Philox(key=25))
        results = assert_pass_exact(
            classes, encodings,
            [(rng.permutation(300), labels) for _ in range(6)])
        assert results[0][1] >= 1

    def test_high_update_regime(self):
        classes, encodings, labels = separated(seed=26, n_rows=300,
                                               noise=6.0)
        results = assert_pass_exact(classes, encodings,
                                    [(np.arange(300), labels)] * 4, eta=0.5)
        assert sum(u for _, u in results) > 0.3 * 4 * 300

    def test_clean_epoch_reuses_cache_then_update(self, monkeypatch):
        classes, encodings, labels = separated(seed=27)
        calls = score_calls(monkeypatch)
        order = np.arange(200)
        flipped = labels.copy()
        flipped[150] = (flipped[150] + 1) % classes.shape[0]
        results = assert_pass_exact(
            classes, encodings,
            [(order, labels), (order, labels), (order, flipped),
             (order, labels)])
        assert [u for _, u in results] == [0, 0, 1, 0]
        assert calls == (
            [1, 2, 4, 8, 16, 32, 64, 64, 9]  # epoch 0 fills the cache
            # epoch 1 reuses it; epoch 2 finds row 150 in the cache, then
            # rescores the rows after it from a block of one row
            + [1, 2, 4, 8, 16, 18]
            # epoch 3: rows 0-150 are stale, rows 151-199 still fresh
            + [1, 2, 4, 8, 16, 32, 64, 24])

    # At rate 1 regeneration zeroes every class entry, so every cached
    # score from before it is wrong: every non-empty regeneration must
    # clear the cache.
    @pytest.mark.parametrize("rate, shuffle, separation", [
        (0.2, True, 1.0), (1.0, False, 6.0)])
    def test_train_matches_reference_pass_with_regeneration(
            self, monkeypatch, rate, shuffle, separation):
        data = blob_data(seed=28, classes=4, n=5, per=40,
                         separation=separation)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=3)
        cfg = TrainConfig(dim=96, eta=0.05, epochs_per_round=3, rounds=3,
                          regen_rate=rate, strategy="insignificant",
                          shuffle=shuffle, seed=8)
        enc, model, report = train(cfg, train_ds, valid_ds)
        assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                       enc, model, report)
        assert sum(rec.updates for rec in report.epochs) > 0
        assert any(rec.regen_indices for rec in report.rounds)

    def test_empty_regeneration_keeps_cache(self, monkeypatch):
        # rate 0 plans no dimension, so the scores cached at the end of a
        # segment stay exact into the next one
        data = blob_data(seed=28, classes=4, n=5, per=40, separation=4.0)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=3)
        cfg = TrainConfig(dim=96, eta=2.0, epochs_per_round=3, rounds=2,
                          regen_rate=0.0, strategy="insignificant", seed=8)
        calls = score_calls(monkeypatch)
        passes = []  # the score calls of each pass

        def recording(*args):
            start = len(calls)
            result = _adaptive_pass(*args)
            passes.append(calls[start:])
            return result

        monkeypatch.setattr(dynhd.trainer, "_adaptive_pass", recording)
        enc, model, report = train(cfg, train_ds, valid_ds)
        assert [rec.regen_indices for rec in report.rounds] == [[], [], None]
        assert report.epochs[0].updates > 0
        # segment 0 ends clean, so segments 1 and 2 never rescore a row
        assert [rec.updates for rec in report.epochs[2:]] == [0] * 7
        assert passes[3:] == [[]] * 6
        monkeypatch.undo()
        assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                       enc, model, report)


class TestEpochUpdates:
    def test_updates_match_accuracy(self):
        data = blob_data(seed=29, classes=3, n=4, per=20, separation=1.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=4)
        cfg = TrainConfig(dim=32, epochs_per_round=4, seed=3, shuffle=True)
        _, _, report = train(cfg, train_ds, valid_ds)
        n = len(train_ds)
        for rec in report.epochs:
            assert type(rec.updates) is int
            assert rec.train_accuracy == (n - rec.updates) / n
        assert report.epochs[0].updates > 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_class_norm_names_segment_and_epoch(self):
        # eta=1e300 keeps every class entry finite but overflows the norms
        data = blob_data(seed=30, classes=3, n=4, per=20, separation=1.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=5)
        cfg = TrainConfig(dim=32, eta=1e300, seed=3)
        with pytest.raises(ArithmeticError,
                           match=r"^segment 0, epoch 0: non-finite class norm"):
            train(cfg, train_ds, valid_ds)


class TestTrainBaseline:
    def test_equals_manual_initial_plus_epochs(self):
        data = blob_data(seed=6, classes=3, n=4, per=12)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=1)
        cfg = TrainConfig(dim=64, eta=0.05, epochs_per_round=3, rounds=0,
                          seed=17)
        enc, model, report = train(cfg, train_ds, valid_ds)

        e = init_encoder(17, 4, 64)
        m = bundle(e, train_ds)
        for _ in range(3):
            reference_epoch(m, e, train_ds, eta=0.05)
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
        m = bundle(e, train_ds)
        plans = []
        for segment in range(cfg.rounds + 1):
            for _ in range(cfg.epochs_per_round):
                reference_epoch(m, e, train_ds, eta=cfg.eta)
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
        # round 0 validates, plans, regenerates and re-encodes; round 1
        # only validates
        assert kinds == (["epoch"] * 4 + ["round"] * 2 + ["timing"] * 5
                         + ["summary"])
        assert records[-1] == {"type": "summary", "total_epochs": 4,
                               "stopped_early": False}
        for rec in records:
            assert json.loads(json.dumps(rec)) == rec

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
