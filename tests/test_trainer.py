"""Training loop: bundling, similarity-weighted updates, the
regenerate-retrain schedule, early stopping, and the run's records."""

import dataclasses
import json

import numpy as np
import pytest

import dynhd.inference
import dynhd.trainer
from dynhd.analysis import (_accumulate, domain_models, domain_variance,
                            misleading_scores, select_domain_variant,
                            select_insignificant, select_misleading)
from dynhd.data import (SyntheticSpec, apply_normalizer, fit_normalizer,
                        make_blobs, split)
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch, encode_blocks,
                           init_encoder, regenerate_dims)
from dynhd.inference import (model_scores, row_norms, score_queries,
                             topk_accuracy)
from dynhd.model import ClassModel, Dataset
from dynhd.trainer import TrainConfig, train, _adaptive_pass


def blob_data(seed=3, classes=3, n=4, per=10, separation=6.0, domains=1,
              offset=0.0):
    spec = SyntheticSpec(n=n, classes=classes, domains=domains,
                        samples_per_class_per_domain=per,
                        separation=separation, domain_offset_std=offset,
                        seed=seed)
    d = make_blobs(spec)
    return apply_normalizer(fit_normalizer(d), d)


def of_type(records, kind):
    """The records of one type, in run order."""
    return [rec for rec in records if rec["type"] == kind]


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
        class_norms[y] = float(np.sqrt(np.dot(classes[y], classes[y])))
        class_norms[pred] = float(np.sqrt(np.dot(classes[pred],
                                                 classes[pred])))
        updates += 1
    return (order.shape[0] - updates) / order.shape[0], updates


def cached_pass(classes, encodings, labels, order, eta):
    """One pass from an empty score cache; returns (accuracy, updates,
    rows scored)."""
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
        TrainConfig(dim=64)

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
        {"dim": 8, "seed": True},
        {"dim": 8, "seed": 1.5},
        {"dim": 8, "eta": float("nan")},
        {"dim": 8, "eta": float("inf")},
        {"dim": 8.0},
        {"dim": True},
        {"dim": 8, "epochs_per_round": 2.5},
        {"dim": 8, "rounds": True},
        {"dim": 8, "patience": 1.5},
        {"dim": 8, "shuffle": "no"},
        {"dim": 8, "shuffle": 1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field, value, message", [
        ("dim", 8.0, "dim must be an integer, got 8.0"),
        ("epochs_per_round", 2.5,
         "epochs_per_round must be an integer, got 2.5"),
        ("rounds", True, "rounds must be an integer, got True"),
        ("patience", 1.5, "patience must be an integer, got 1.5"),
        ("shuffle", "no", "shuffle must be a bool, got 'no'"),
        ("dim", 0, "dim must be at least 1")])
    def test_replace_checks_each_rule(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(TrainConfig(dim=8), **{field: value})
        assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(dim=np.int64(8), rounds=np.int32(2))
        assert cfg.dim == 8 and cfg.rounds == 2

    def test_fields_cannot_be_assigned(self):
        cfg = TrainConfig(dim=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dim = 0
        assert cfg.dim == 8


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
        result = cached_pass(classes, np.array([[1.0, 0.0]]),
                             np.array([0]), np.array([0]), eta=0.1)
        assert result == (0.0, 1, 1)
        np.testing.assert_array_equal(classes, [[0.1, 1.0], [1.0, 0.0]])

    def test_correct_prediction_leaves_model_unchanged(self):
        classes = np.array([[1.0, 0.0], [0.0, 1.0]])
        before = classes.copy()
        result = cached_pass(classes, np.array([[1.0, 0.0]]),
                             np.array([0]), np.array([0]), eta=0.5)
        assert result == (1.0, 0, 1)
        np.testing.assert_array_equal(classes, before)

    def test_tie_predicts_lower_index(self):
        # equidistant sample labeled 1: class 0 wins the tie, so an update
        # must fire
        classes = np.array([[1.0, 0.0], [1.0, 0.0]])
        result = cached_pass(classes, np.array([[1.0, 0.0]]),
                             np.array([1]), np.array([0]), eta=0.1)
        assert result == (0.0, 1, 1)


class TestAdaptiveEpoch:
    def test_matches_scripted_sequential_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        e = init_encoder(5, 3, 12)
        feats = rng.standard_normal((6, 3)) * 0.5
        labels = np.array([0, 1, 2, 0, 1, 2])
        classes = rng.standard_normal((3, 12))
        want = classes.copy()

        enc = encode_batch(e, feats)
        acc, updates, scored = cached_pass(classes, enc, labels,
                                           np.arange(6), eta=0.2)
        assert scored == 6  # each row once, from an empty cache

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
        _, updates, _ = _adaptive_pass(classes, class_norms, enc,
                                       row_norms(enc), data.labels,
                                       np.arange(len(data)), 0.1, scores,
                                       fresh)
        assert updates > 0
        assert np.any(classes != 0.0)
        np.testing.assert_array_equal(class_norms, row_norms(classes))


def score_calls(monkeypatch):
    """Record the rows of every model_scores call the pass and validation
    (through score_queries) make: 1 for a single encoding, the block's row
    count for a batch."""
    calls = []

    def counting(classes, class_norms, h, h_norm):
        calls.append(1 if h.ndim == 1 else h.shape[0])
        return model_scores(classes, class_norms, h, h_norm)

    monkeypatch.setattr(dynhd.trainer, "model_scores", counting)
    monkeypatch.setattr(dynhd.inference, "model_scores", counting)
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
    be equal.  Returns the per-epoch (accuracy, updates, rows scored)."""
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
        assert got[:2] == want
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_n, want_n)
        results.append(got)
    return results


def assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                   enc, model, records):
    """Train again with the per-sample loop in place of the cached pass:
    the encoder bases, the classes and the records must be equal."""
    def reference(classes, class_norms, encodings, sample_norms, labels,
                  order, eta, scores, fresh):
        fresh[:] = False  # the loop scores every row and caches none
        return (*_reference_pass(classes, class_norms, encodings,
                                 sample_norms, labels, order, eta),
                order.shape[0])

    monkeypatch.setattr(dynhd.trainer, "_adaptive_pass", reference)
    ref_enc, ref_model, ref_records = train(cfg, train_ds, valid_ds)
    assert np.array_equal(model.classes, ref_model.classes)
    assert np.array_equal(enc.bases, ref_enc.bases)
    # only the timings and the counts of rows scored may differ
    strip = lambda recs: [{k: v for k, v in rec.items()
                           if k not in ("wall_ms", "scored")} for rec in recs]
    assert strip(records) == strip(ref_records)


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
                                 [(order, labels)]) == [(1.0, 0, 200)]
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
        assert sum(r[1] for r in results) > 0.3 * 4 * 300

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
        assert [r[1] for r in results] == [0, 0, 1, 0]
        assert [r[2] for r in results] == [200, 0, 49, 151]
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
        enc, model, records = train(cfg, train_ds, valid_ds)
        assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                       enc, model, records)
        assert sum(rec["updates"] for rec in of_type(records, "epoch")) > 0
        assert any(rec["regen_indices"] for rec in of_type(records, "round"))

    def test_misleading_refresh_is_bounded(self, monkeypatch):
        # each round's detector reads more stale training rows, and the
        # validation fills more rows, than one batch holds
        data = blob_data(seed=28, classes=4, n=5, per=50, separation=1.0)
        train_ds, valid_ds = split(data, [0.5, 0.5], seed=3)
        cfg = TrainConfig(dim=96, eta=0.05, epochs_per_round=2, rounds=3,
                          regen_rate=0.1, strategy="misleading",
                          shuffle=True, seed=8)
        calls = score_calls(monkeypatch)
        enc, model, records = train(cfg, train_ds, valid_ds)
        rounds = of_type(records, "round")
        assert len(valid_ds) > BLOCK_ROWS
        assert all(r["scored"] - len(valid_ds) > BLOCK_ROWS
                   for r in rounds[:-1])
        assert all(r["planned"] > 0 for r in rounds[:-1])
        assert max(calls) <= BLOCK_ROWS
        assert sum(calls) == sum(rec["scored"] for rec in records
                                 if rec["type"] in ("epoch", "round"))
        monkeypatch.undo()
        assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                       enc, model, records)

    def test_unchanged_model_scores_validation_once(self, monkeypatch):
        # two updates in the first epoch and none after, and every plan is
        # empty: segment 0's end scores the validation rows, and nothing
        # is scored again
        data = blob_data(seed=14, classes=3, n=4, per=30, separation=2.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=7)
        cfg = TrainConfig(dim=128, eta=1.0, epochs_per_round=2, rounds=3,
                          regen_rate=0.1, strategy="misleading", seed=3)
        calls = score_calls(monkeypatch)
        _, _, records = train(cfg, train_ds, valid_ds)
        epochs, rounds = of_type(records, "epoch"), of_type(records, "round")
        assert [rec["updates"] for rec in epochs] == [2] + [0] * 7
        assert [r["regen_indices"] for r in rounds] == [[], [], [], None]
        # epoch 1 rescores the rows visited before the last update, so the
        # detector finds every training row fresh
        assert epochs[1]["scored"] > 0
        assert [rec["scored"] for rec in epochs[2:]] == [0] * 6
        assert [r["scored"] for r in rounds] == [len(valid_ds), 0, 0, 0]
        assert sum(calls) == (epochs[0]["scored"] + epochs[1]["scored"]
                              + len(valid_ds))

    # rate 0: segment 1 updates and segments 2-4 do not; rate 0.1: the
    # plans regenerate after segments 3 and 4 stopped updating
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_validation_rescored_after_update_or_regeneration(self, rate):
        data = blob_data(seed=19, classes=3, n=4, per=20,
                         separation=2.0 if rate == 0.0 else 3.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=13)
        cfg = TrainConfig(dim=64, eta=0.5, epochs_per_round=2, rounds=4,
                          regen_rate=rate, strategy="insignificant", seed=5)
        _, _, records = train(cfg, train_ds, valid_ds)
        epochs, rounds = of_type(records, "epoch"), of_type(records, "round")
        updated = [any(rec["updates"] for rec in epochs
                       if rec["segment"] == r["round"]) for r in rounds]
        regenerated = [False] + [bool(r["planned"]) for r in rounds[:-1]]
        stale = [u or g for u, g in zip(updated, regenerated)]
        assert [r["scored"] for r in rounds[1:]] == [
            len(valid_ds) * s for s in stale[1:]]
        if rate == 0.0:  # updates alone stale the validation rows
            assert stale == updated == [True, True, False, False, False]
        else:  # regeneration alone does, in segments 3 and 4
            assert updated[3:] == [False, False] and all(stale)

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
        enc, model, records = train(cfg, train_ds, valid_ds)
        epochs = of_type(records, "epoch")
        assert ([rec["regen_indices"] for rec in of_type(records, "round")]
                == [[], [], None])
        assert epochs[0]["updates"] > 0
        # segment 0 ends clean, so segments 1 and 2 never rescore a row
        assert [rec["updates"] for rec in epochs[2:]] == [0] * 7
        assert passes[3:] == [[]] * 6
        monkeypatch.undo()
        assert_train_matches_reference(monkeypatch, cfg, train_ds, valid_ds,
                                       enc, model, records)


class TestEpochUpdates:
    def test_updates_match_accuracy(self):
        data = blob_data(seed=29, classes=3, n=4, per=20, separation=1.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=4)
        cfg = TrainConfig(dim=32, epochs_per_round=4, seed=3, shuffle=True)
        _, _, records = train(cfg, train_ds, valid_ds)
        epochs = of_type(records, "epoch")
        n = len(train_ds)
        for rec in epochs:
            assert type(rec["updates"]) is int
            assert rec["train_accuracy"] == (n - rec["updates"]) / n
        assert epochs[0]["updates"] > 0

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
        enc, model, records = train(cfg, train_ds, valid_ds)

        e = init_encoder(17, 4, 64)
        m = bundle(e, train_ds)
        for _ in range(3):
            reference_epoch(m, e, train_ds, eta=0.05)
        np.testing.assert_array_equal(model.classes, m.classes)
        np.testing.assert_array_equal(enc.bases, e.bases)
        assert len(of_type(records, "epoch")) == 3
        rounds = of_type(records, "round")
        assert len(rounds) == 1
        assert rounds[0]["regen_indices"] is None

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
        assert ([rec["regen_indices"] for rec in of_type(r1, "round")]
                == [[], [], None])

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
        rounds1, rounds2 = of_type(r1, "round"), of_type(r2, "round")
        assert ([rec["val_accuracy"] for rec in rounds1]
                == [rec["val_accuracy"] for rec in rounds2])
        assert ([rec["regen_indices"] for rec in rounds1]
                == [rec["regen_indices"] for rec in rounds2])


class TestTrainRegeneration:
    def replicate(self, cfg, train_ds, valid_ds, plan_fn):
        """Re-run the schedule through the public pieces, re-encoding from
        scratch every epoch and every validation instead of patching
        caches."""
        e = init_encoder(cfg.seed, train_ds.n, cfg.dim)
        m = bundle(e, train_ds)
        plans, val_accs = [], []
        for segment in range(cfg.rounds + 1):
            for _ in range(cfg.epochs_per_round):
                reference_epoch(m, e, train_ds, eta=cfg.eta)
            val_accs.append(topk_accuracy(m, e, valid_ds, 1))
            if segment < cfg.rounds:
                plan = plan_fn(m, e)
                plans.append(plan.indices.tolist())
                e = regenerate_dims(e, plan)
                if plan.indices.size:
                    m.classes[:, plan.indices] = 0.0
        return e, m, plans, val_accs

    def assert_matches_replication(self, cfg, train_ds, valid_ds, plan_fn):
        enc, model, records = train(cfg, train_ds, valid_ds)
        e, m, plans, val_accs = self.replicate(cfg, train_ds, valid_ds,
                                               plan_fn)
        np.testing.assert_array_equal(model.classes, m.classes)
        np.testing.assert_array_equal(enc.bases, e.bases)
        np.testing.assert_array_equal(enc.phases, e.phases)
        assert enc.draw_counter == e.draw_counter
        rounds = of_type(records, "round")
        assert [rec["regen_indices"] for rec in rounds[:-1]] == plans
        # the validation cache is checked after every re-encode
        assert [rec["val_accuracy"] for rec in rounds] == val_accs
        return plans, val_accs

    def test_insignificant_schedule_matches_replication(self):
        data = blob_data(seed=9, classes=3, n=4, per=10)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=4)
        cfg = TrainConfig(dim=40, eta=0.05, epochs_per_round=2, rounds=3,
                          regen_rate=0.2, strategy="insignificant", seed=23)
        self.assert_matches_replication(
            cfg, train_ds, valid_ds,
            lambda model_, enc_: select_insignificant(model_,
                                                      cfg.regen_rate))

    def test_misleading_schedule_matches_replication(self):
        # the detector reads train's cached scores; the replication scores
        # every row from scratch
        data = blob_data(seed=10, classes=3, n=4, per=10, separation=1.0)
        train_ds, valid_ds = split(data, [0.8, 0.2], seed=5)
        cfg = TrainConfig(dim=40, eta=0.05, epochs_per_round=2, rounds=2,
                          regen_rate=0.15, strategy="misleading", seed=29)
        plans, _ = self.assert_matches_replication(
            cfg, train_ds, valid_ds,
            lambda model_, enc_: select_misleading(
                misleading_scores(model_, enc_, train_ds), cfg.regen_rate))
        assert all(len(plan) > 0 for plan in plans)  # every round regenerates

    def test_domain_variant_schedule_matches_replication(self):
        data = blob_data(seed=12, classes=3, n=4, per=10, separation=1.0,
                         domains=3, offset=1.0)
        train_ds, valid_ds = split(data, [0.6, 0.4], seed=6)
        cfg = TrainConfig(dim=24, eta=0.05, epochs_per_round=1, rounds=4,
                          regen_rate=0.5, strategy="domain_variant", seed=31)
        _, val_accs = self.assert_matches_replication(
            cfg, train_ds, valid_ds,
            lambda model_, enc_: select_domain_variant(
                domain_variance(domain_models(enc_, train_ds)),
                cfg.regen_rate))
        assert len(set(val_accs)) > 1  # the rounds move the validation

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
        _, _, records = train(cfg, train_ds, valid_ds)
        rounds = of_type(records, "round")
        assert records[-1]["stopped_early"]
        assert len(rounds) < 6
        # no regeneration runs on the stopping segment
        assert rounds[-1]["regen_indices"] is None

    def test_patience_zero_never_stops(self):
        data = blob_data(seed=12, classes=2, n=4, per=20, separation=10.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=7)
        cfg = TrainConfig(dim=128, epochs_per_round=1, rounds=3,
                          patience=0, seed=3)
        _, _, records = train(cfg, train_ds, valid_ds)
        assert not records[-1]["stopped_early"]
        assert len(of_type(records, "round")) == 4


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

    def test_numpy_integer_seed_trains_like_its_int(self):
        runs = []
        for seed in (np.int64(5), 5):
            cfg = TrainConfig(dim=16, rounds=1, regen_rate=0.25,
                              strategy="insignificant", shuffle=True,
                              seed=seed)
            enc, model, _ = train(cfg, self.train_ds, self.valid_ds)
            assert type(enc.seed) is int
            runs.append((enc.bases.tobytes(), model.classes.tobytes()))
        assert runs[0] == runs[1]

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
        val_acc = of_type(straight, "round")[0]["val_accuracy"]
        assert val_acc == of_type(remapped, "round")[0]["val_accuracy"]
        assert val_acc > 0.9


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


class TestValidationIsStreamed:
    """train encodes and caches only the training rows; the validation rows
    are encoded and scored by score_queries (through topk_accuracy), one
    block buffer at a time, whenever an update or a regeneration has made
    them stale."""

    # seed 21: segments 0-2 update and 3-4 do not; at rate 0.1 each of the
    # last two follows a non-empty regeneration
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_validation_holds_no_encoding_array(self, monkeypatch, rate):
        data = blob_data(seed=21, classes=3, n=4, per=50, separation=2.0)
        train_ds, valid_ds = split(data, [0.5, 0.5], seed=13)
        assert len(valid_ds) > BLOCK_ROWS
        cfg = TrainConfig(dim=64, eta=0.5, epochs_per_round=2, rounds=4,
                          regen_rate=rate, strategy="insignificant", seed=5)
        encoded, queried, outs, buffers = [], [], [], []

        def encoding(e, samples):
            encoded.append(len(samples))
            return encode_batch(e, samples)

        def querying(m, e, test, ks=()):
            queried.append(test)
            return score_queries(m, e, test, ks)

        def blocks(e, samples, out=None):
            outs.append(out)
            buffers.append([])
            for rows, h in encode_blocks(e, samples, out):
                buffers[-1].append(h.base)
                yield rows, h

        monkeypatch.setattr(dynhd.trainer, "encode_batch", encoding)
        monkeypatch.setattr(dynhd.inference, "score_queries", querying)
        monkeypatch.setattr(dynhd.inference, "encode_blocks", blocks)
        _, _, records = train(cfg, train_ds, valid_ds)
        assert encoded == [len(train_ds)]

        epochs, rounds = of_type(records, "epoch"), of_type(records, "round")
        updated = [any(rec["updates"] for rec in epochs
                       if rec["segment"] == r["round"]) for r in rounds]
        regenerated = [False] + [bool(r["planned"]) for r in rounds[:-1]]
        stale = [u or g for u, g in zip(updated, regenerated)]
        assert updated == [True] * 3 + [False] * 2
        assert stale == [True] * 3 + [rate > 0.0] * 2
        # the insignificant detector reads no rows: scored is validation's
        assert [r["scored"] for r in rounds] == [len(valid_ds) * s
                                                 for s in stale]
        assert len(queried) == sum(stale)
        assert all(q.features is valid_ds.features for q in queried)
        # no output array: each call's blocks share one buffer of its own
        assert outs == [None] * sum(stale)
        assert all(len(call) > 1 and all(b is call[0] for b in call)
                   for call in buffers)
        assert ([call[0].shape for call in buffers]
                == [(BLOCK_ROWS, cfg.dim)] * sum(stale))

    def test_overflowing_validation_row_is_named_as_one(self):
        data = blob_data(seed=21, classes=3, n=4, per=50, separation=2.0)
        train_ds, valid_ds = split(data, [0.5, 0.5], seed=13)
        features = valid_ds.features.copy()
        features[5, 0] = 1.5e308  # finite, but its projection overflows
        valid_ds = dataclasses.replace(valid_ds, features=features)
        cfg = TrainConfig(dim=64, eta=0.5, epochs_per_round=2, seed=5)
        with pytest.raises(ValueError) as exc:
            train(cfg, train_ds, valid_ds)
        assert str(exc.value) == ("validation sample 5: encoding is not "
                                  "finite (the projection of its features "
                                  "overflows)")


class TestTrainReport:
    def test_record_stream_shape(self):
        data = blob_data(seed=17, classes=2, n=3, per=8)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=11)
        cfg = TrainConfig(dim=16, epochs_per_round=2, rounds=1,
                          regen_rate=0.25, strategy="insignificant", seed=1)
        _, _, records = train(cfg, train_ds, valid_ds)
        kinds = [rec["type"] for rec in records]
        # round 0 validates, plans, regenerates and re-encodes; round 1
        # only validates
        assert kinds == (["epoch"] * 4 + ["round"] * 2 + ["timing"] * 5
                         + ["summary"])
        assert records[-1] == {"type": "summary", "total_epochs": 4,
                               "stopped_early": False}
        for rec in records:
            assert json.loads(json.dumps(rec)) == rec

    @pytest.mark.parametrize("strategy", ["insignificant", "misleading",
                                          "domain_variant"])
    def test_scored_counts_every_scored_row(self, monkeypatch, strategy):
        data = blob_data(seed=17, classes=3, n=3, per=10, separation=1.0,
                         domains=2, offset=1.0)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=11)
        cfg = TrainConfig(dim=16, epochs_per_round=2, rounds=2,
                          regen_rate=0.25, strategy=strategy, seed=1)
        calls = score_calls(monkeypatch)
        _, _, records = train(cfg, train_ds, valid_ds)
        epochs, rounds = of_type(records, "epoch"), of_type(records, "round")
        for rec in epochs + rounds:
            assert type(rec["scored"]) is int
        # from an empty cache every row is scored, and again if a block
        # scored it past a mispredict
        assert epochs[0]["updates"] > 0
        assert epochs[0]["scored"] > len(train_ds)
        # the end of a segment scores each stale row once; only the
        # misleading detector reads training rows
        most = len(valid_ds) + len(train_ds) * (strategy == "misleading")
        assert all(0 <= r["scored"] <= most for r in rounds)
        assert sum(calls) == sum(rec["scored"] for rec in epochs + rounds)

    def test_accuracies_in_unit_interval(self):
        data = blob_data(seed=18, classes=3, n=4, per=8)
        train_ds, valid_ds = split(data, [0.75, 0.25], seed=12)
        cfg = TrainConfig(dim=16, epochs_per_round=3, seed=2)
        _, _, records = train(cfg, train_ds, valid_ds)
        for rec in of_type(records, "epoch"):
            assert 0.0 <= rec["train_accuracy"] <= 1.0
        for rec in of_type(records, "round"):
            assert 0.0 <= rec["val_accuracy"] <= 1.0
