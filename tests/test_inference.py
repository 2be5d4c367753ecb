"""Cosine scoring, top-k ranking, accuracy, and noise perturbation."""

import numpy as np
import pytest

from dynhd.encoder import BLOCK_ROWS, encode, encode_batch, init_encoder
from dynhd.inference import (model_scores, perturb_model, ranked_classes,
                             row_norms, score_queries, topk_accuracy,
                             topk_hits)
from dynhd.model import ClassModel, Dataset


def model_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return ClassModel(rows, [f"c{i}" for i in range(rows.shape[0])])


def cosine(a, b):
    """model_scores of b against a single class row a."""
    a = np.asarray(a, dtype=np.float64)[None, :]
    b = np.asarray(b, dtype=np.float64)
    return model_scores(a, row_norms(a), b, float(np.sqrt(np.dot(b, b))))[0]


class TestCosineSimilarity:
    """Cosine scores of one encoding against one class row."""

    def test_self_similarity(self):
        h = np.array([0.3, -1.2, 4.0])
        assert cosine(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed(self):
        # dot = 8, norms = 3 and 3
        got = cosine(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
        assert got == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0
        assert cosine(np.array([1.0, 0.0, 0.0]), np.zeros(3)) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.zeros(4))


def class_scores(m, h):
    """Scores of one encoding against every class of m."""
    h = np.asarray(h, dtype=np.float64)
    return model_scores(m.classes, row_norms(m.classes), h,
                        float(np.sqrt(np.dot(h, h))))


def ranked_top_k(m, h, k):
    """The k best-ranked classes of one encoding and their scores."""
    scores = class_scores(m, h)
    order = ranked_classes(scores)[:k]
    return order, scores[order]


class TestScoreAll:
    """model_scores of one encoding against every class."""

    def test_matching_class_scores_one(self):
        h = np.array([0.5, -0.25, 1.0])
        m = model_from_rows([h, [1.0, 0.0, 0.0]])
        assert class_scores(m, h)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_class_scores_zero(self):
        m = model_from_rows([[0.0, 0.0], [1.0, 1.0]])
        scores = class_scores(m, np.array([1.0, 0.0]))
        assert scores[0] == 0.0

    def test_matches_per_class_cosine_loop(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        m = model_from_rows(rng.standard_normal((5, 16)))
        h = rng.standard_normal(16)
        scores = class_scores(m, h)
        for l in range(5):
            c = m.classes[l]
            reference = np.dot(c, h) / (np.sqrt(np.dot(c, c))
                                        * np.sqrt(np.dot(h, h)))
            assert scores[l] == pytest.approx(reference, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        m = model_from_rows(rng.standard_normal((6, 32)))
        for _ in range(50):
            scores = class_scores(m, rng.standard_normal(32))
            assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_rejects_dim_mismatch(self):
        m = model_from_rows([[1.0, 0.0]])
        with pytest.raises(ValueError):
            class_scores(m, np.zeros(3))


class TestPredictTopk:
    """ranked_classes order, and the k-range check of topk_accuracy."""

    def test_direct_sort(self):
        m = model_from_rows([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        h = np.array([1.0, 0.2])  # scores descend 0, 1, 2
        labels, scores = ranked_top_k(m, h, 2)
        assert labels.tolist() == [0, 1]
        assert scores[0] >= scores[1]

    def test_k_equals_l_contains_every_class(self):
        m = model_from_rows([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels, _ = ranked_top_k(m, np.array([2.0, 0.5]), 3)
        assert sorted(labels.tolist()) == [0, 1, 2]

    def test_tie_breaks_to_lower_index(self):
        m = model_from_rows([[1.0, 0.0], [1.0, 0.0]])
        labels, _ = ranked_top_k(m, np.array([1.0, 0.5]), 1)
        assert labels.tolist() == [0]

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_k_out_of_range_rejected(self, k):
        e = init_encoder(1, 2, 8)
        m = model_from_rows(np.ones((2, 8)))
        data = Dataset(np.zeros((1, 2)), np.array([0]), ["c0", "c1"])
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\]"):
            topk_accuracy(m, e, data, k)
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\]"):
            score_queries(m, e, data, (1, k))


class TestBatchedScoringIsExact:
    """Batched scoring against per-row references, with no tolerance."""

    def setup_method(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        self.classes = rng.standard_normal((5, 24))
        self.classes[2] = 0.0  # an empty class
        self.classes[4] = self.classes[1]  # a duplicate: exact ties
        self.queries = rng.standard_normal((9, 24))
        self.queries[3] = 0.0  # a zero query
        self.queries[6] = self.classes[1]  # ties classes 1 and 4 at 1.0

    def reference_scores(self):
        rows = []
        for h in self.queries:
            dots = self.classes @ h
            denom = (np.array([float(np.sqrt(np.dot(c, c)))
                               for c in self.classes])
                     * float(np.sqrt(np.dot(h, h))))
            rows.append(np.divide(dots, denom, out=np.zeros_like(dots),
                                  where=denom > 0.0))
        return np.array(rows)

    def test_batch_equals_per_row_scores(self):
        got = model_scores(self.classes, row_norms(self.classes),
                           self.queries, row_norms(self.queries)[:, None])
        assert np.array_equal(got, self.reference_scores())
        assert np.all(got[3] == 0.0) and np.all(got[:, 2] == 0.0)

    def test_one_row_equals_its_batch_row(self):
        norms = row_norms(self.classes)
        batch = model_scores(self.classes, norms, self.queries,
                             row_norms(self.queries)[:, None])
        for i, h in enumerate(self.queries):
            assert np.array_equal(
                model_scores(self.classes, norms, h,
                             float(np.sqrt(np.dot(h, h)))), batch[i])

    def test_row_norms_equal_per_row_norms(self):
        assert np.array_equal(row_norms(self.queries),
                              [np.sqrt(np.dot(v, v)) for v in self.queries])

    def test_ranks_equal_per_row_lexsort(self):
        scores = self.reference_scores()
        want = [np.lexsort((np.arange(s.shape[0]), -s)) for s in scores]
        assert np.array_equal(ranked_classes(scores), want)
        assert ranked_classes(scores)[6, :2].tolist() == [1, 4]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_topk_hits_counts_label_in_top_k(self, k):
        scores = self.reference_scores()
        labels = np.array([0, 1, 2, 3, 4, 0, 4, 1, 2])
        want = sum(int(labels[i]) in np.lexsort(
            (np.arange(5), -scores[i]))[:k] for i in range(len(labels)))
        assert topk_hits(scores, labels, k) == want


class TestStreamedScoringIsExact:
    """score_queries encodes and scores block by block through one buffer;
    its scores equal scoring the whole encode_batch output, bit for bit."""

    def setup_method(self):
        self.enc = init_encoder(5, 3, 40)
        self.rng = np.random.Generator(np.random.Philox(key=43))
        self.model = ClassModel(self.rng.standard_normal((4, 40)),
                                ["a", "b", "c", "d"])

    def queries(self, count):
        return Dataset(self.rng.standard_normal((count, 3)),
                       np.arange(count) % 4, ["a", "b", "c", "d"])

    @pytest.mark.parametrize("count", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                       BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2])
    def test_equals_scoring_the_whole_batch(self, count):
        data = self.queries(count)
        scores, encode_s, score_s = score_queries(self.model, self.enc, data)
        h = encode_batch(self.enc, data.features)
        want = model_scores(self.model.classes, row_norms(self.model.classes),
                            h, row_norms(h)[:, None])
        assert scores.shape == (count, 4)
        assert scores.tobytes() == want.tobytes()
        assert encode_s > 0.0 and score_s > 0.0

    def test_overflow_names_its_sample_in_a_later_block(self):
        data = self.queries(3 * BLOCK_ROWS)
        bad = 2 * BLOCK_ROWS + 5
        data.features[bad, 0] = 1.5e308
        with pytest.raises(ValueError, match=(
                f"^sample {bad}: encoding is not finite")):
            score_queries(self.model, self.enc, data)


class TestTopkAccuracy:
    def setup_method(self):
        self.enc = init_encoder(31, 2, 64)
        feats = np.array([[0.0, 0.4], [0.1, 0.5], [2.0, -0.3], [2.1, -0.4]])
        self.data = Dataset(feats, np.array([0, 0, 1, 1]), ["a", "b"])
        rows = [encode(self.enc, feats[0]) + encode(self.enc, feats[1]),
                encode(self.enc, feats[2]) + encode(self.enc, feats[3])]
        self.model = ClassModel(np.array(rows), ["a", "b"])

    def test_perfect_model_for_every_k(self):
        for k in (1, 2):
            assert topk_accuracy(self.model, self.enc, self.data, k) == 1.0

    def test_counting(self):
        # flip one label so exactly 3 of 4 are right at k=1
        wrong = Dataset(self.data.features, np.array([0, 1, 1, 1]),
                        ["a", "b"])
        assert topk_accuracy(self.model, self.enc, wrong, 1) == 0.75

    def test_k_equals_l_is_always_one(self):
        shuffled = Dataset(self.data.features, np.array([1, 0, 0, 1]),
                           ["a", "b"])
        assert topk_accuracy(self.model, self.enc, shuffled, 2) == 1.0

    def test_shared_scores_equal_one_encode_per_k(self):
        # dynhd eval counts every k from one score_queries call
        wrong = Dataset(self.data.features, np.array([0, 1, 1, 1]),
                        ["a", "b"])
        scores, encode_s, score_s = score_queries(self.model, self.enc,
                                                  wrong, (1, 2))
        assert scores.shape == (4, 2) and encode_s >= 0.0 and score_s >= 0.0
        for k in (1, 2):
            assert (topk_hits(scores, wrong.labels, k) / len(wrong)
                    == topk_accuracy(self.model, self.enc, wrong, k))

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 2)), np.array([], dtype=np.int64),
                        ["a", "b"])
        with pytest.raises(ValueError):
            topk_accuracy(self.model, self.enc, empty, 1)

    def test_label_name_mismatch_rejected(self):
        renamed = Dataset(self.data.features, self.data.labels, ["x", "y"])
        with pytest.raises(ValueError):
            topk_accuracy(self.model, self.enc, renamed, 1)


class TestPerturbModel:
    def setup_method(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        self.model = model_from_rows(rng.standard_normal((4, 50)))

    def test_q_zero_is_bit_exact_copy(self):
        out = perturb_model(self.model, 0.0, 5.0, seed=1)
        np.testing.assert_array_equal(out.classes, self.model.classes)

    def test_zero_magnitude_is_identity(self):
        out = perturb_model(self.model, 1.0, 0.0, seed=1)
        np.testing.assert_array_equal(out.classes, self.model.classes)

    def test_entry_diff_count_and_determinism(self):
        out1 = perturb_model(self.model, 0.1, 1.0, seed=9)
        out2 = perturb_model(self.model, 0.1, 1.0, seed=9)
        diff = out1.classes != self.model.classes
        assert diff.sum() == int(np.floor(0.1 * 4 * 50))
        np.testing.assert_array_equal(out1.classes, out2.classes)

    def test_different_seed_perturbs_differently(self):
        out1 = perturb_model(self.model, 0.2, 1.0, seed=1)
        out2 = perturb_model(self.model, 0.2, 1.0, seed=2)
        assert not np.array_equal(out1.classes, out2.classes)

    def test_input_model_unmodified(self):
        before = self.model.classes.copy()
        perturb_model(self.model, 0.5, 2.0, seed=3)
        np.testing.assert_array_equal(self.model.classes, before)

    def test_rms_of_entries_whose_squares_overflow(self):
        # Each row's squared norm, 1.44e308, is finite; the squares of all
        # 16 entries sum past the float64 range.
        m = model_from_rows(np.full((4, 4), 6e153))
        out = perturb_model(m, 0.5, 1e-9, seed=0)
        rng = np.random.Generator(np.random.Philox(key=0))
        picked = rng.permutation(16)[:8]
        expected = m.classes.copy()
        expected.ravel()[picked] += rng.standard_normal(8) * (1e-9 * 6e153)
        np.testing.assert_array_equal(out.classes, expected)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            perturb_model(self.model, 1.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            perturb_model(self.model, 0.5, -1.0, seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must be in"):
                perturb_model(self.model, 0.5, 1.0, seed=seed)

    @pytest.mark.parametrize("magnitude", [1e305, 1e308])
    def test_overflowing_norm_raises_naming_the_point(self, magnitude):
        with pytest.raises(ArithmeticError) as exc:
            perturb_model(self.model, 0.1, magnitude, seed=0)
        assert str(exc.value) == (f"noise at q=0.1, magnitude={magnitude!r} "
                                  "makes a class norm non-finite")
        assert np.isfinite(self.model.classes).all()

    @pytest.mark.parametrize("magnitude", [np.nan, np.inf])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="magnitude"):
            perturb_model(self.model, 0.5, magnitude, seed=0)
