"""Undesired-dimension detectors: hand-computed cases, brute-force oracles,
and the selection rules (tie-break, positive-evidence filtering)."""

import math
import re

import numpy as np
import pytest

import dynhd.analysis
from dynhd.analysis import (domain_models, domain_variance,
                            misleading_scores, plan_regeneration,
                            select_domain_variant, select_insignificant,
                            select_misleading, variance_over_classes)
from dynhd.data import SyntheticSpec, make_blobs
from dynhd.encoder import encode_batch, init_encoder
from dynhd.inference import model_scores, row_norms
from dynhd.model import REGEN_STRATEGIES, ClassModel, Dataset


def model_from_rows(rows, labels=None):
    rows = np.asarray(rows, dtype=np.float64)
    if labels is None:
        labels = [f"c{i}" for i in range(rows.shape[0])]
    return ClassModel(rows, labels)


class TestVarianceOverClasses:
    def test_identical_classes_zero_variance(self):
        m = model_from_rows([[1.0, 2.0, 3.0]] * 3)
        np.testing.assert_array_equal(variance_over_classes(m), np.zeros(3))

    def test_hand_computed(self):
        m = model_from_rows([[1.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(variance_over_classes(m),
                                   [0.0, 1.0], atol=0)

    def test_matches_two_pass_loop(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        m = model_from_rows(rng.standard_normal((5, 16)))
        got = variance_over_classes(m)
        for d in range(16):
            col = [m.classes[l, d] for l in range(5)]
            mu = sum(col) / 5
            want = sum((x - mu) ** 2 for x in col) / 5
            assert got[d] == pytest.approx(want, abs=1e-12)

    def test_single_class_rejected(self):
        m = model_from_rows([[1.0, 2.0]])
        with pytest.raises(ValueError):
            variance_over_classes(m)


class TestSelectInsignificant:
    def variance_model(self, variances):
        # two rows (0, x) per dim give per-dim variance x^2 / 4
        gaps = 2.0 * np.sqrt(np.asarray(variances, dtype=np.float64))
        return model_from_rows([np.zeros(len(variances)), gaps])

    def test_lowest_variance_indices(self):
        m = self.variance_model([0.0, 1.0, 0.5, 2.0])
        plan = select_insignificant(m, 0.5)
        assert plan.indices.tolist() == [0, 2]
        assert plan.strategy == "insignificant"
        assert plan.rate == 0.5

    def test_rate_zero_empty_plan(self):
        m = self.variance_model([0.0, 1.0, 0.5, 2.0])
        assert select_insignificant(m, 0.0).indices.size == 0

    def test_all_equal_tie_breaks_to_lowest_index(self):
        m = self.variance_model([1.0, 1.0, 1.0, 1.0])
        assert select_insignificant(m, 0.25).indices.tolist() == [0]

    def test_scores_are_negated_variances(self):
        m = self.variance_model([0.0, 1.0, 0.5, 2.0])
        plan = select_insignificant(m, 0.5)
        np.testing.assert_allclose(plan.scores, [0.0, -1.0, -0.5, -2.0],
                                   atol=1e-15)

    def test_selected_never_exceeds_unselected(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        m = model_from_rows(rng.standard_normal((4, 40)))
        variances = variance_over_classes(m)
        plan = select_insignificant(m, 0.3)
        chosen = set(plan.indices.tolist())
        rest = [d for d in range(40) if d not in chosen]
        assert variances[plan.indices].max() <= variances[rest].min()

    def test_rate_out_of_range_rejected(self):
        m = self.variance_model([1.0, 2.0])
        with pytest.raises(ValueError):
            select_insignificant(m, 1.5)


class TestMisleadingScores:
    def test_no_mispredictions_all_zero(self):
        e = init_encoder(4, 2, 8)
        feats = np.array([[0.0, 0.1], [3.0, -2.0]])
        enc = encode_batch(e, feats)
        m = model_from_rows(enc, ["a", "b"])
        data = Dataset(feats, np.array([0, 1]), ["a", "b"])
        np.testing.assert_array_equal(misleading_scores(m, e, data),
                                      np.zeros(8))

    def test_one_class_model_all_zero(self):
        e = init_encoder(4, 2, 8)
        feats = np.array([[0.0, 0.1], [3.0, -2.0]])
        m = model_from_rows(encode_batch(e, feats)[:1], ["a"])
        data = Dataset(feats, np.array([0, 0]), ["a"])
        np.testing.assert_array_equal(misleading_scores(m, e, data),
                                      np.zeros(8))

    def test_hand_computed_single_misprediction(self):
        # sample encodes to (1,0); true class is (0,1), wrong winner (1,0):
        # per-dim |h-c_true| - |h-c_wrong| = (1,1) - (0,0)
        e = init_encoder(0, 1, 2)
        m = model_from_rows([[1.0, 0.0], [0.0, 1.0]], ["w", "y"])
        data = Dataset(np.array([[0.0]]), np.array([1]), ["w", "y"])
        h = np.array([[1.0, 0.0]])
        scores = misleading_scores(m, e, data, encodings=h)
        np.testing.assert_allclose(scores, [1.0, 1.0], atol=0)

    def test_true_label_outside_top2_skipped(self):
        e = init_encoder(0, 1, 2)
        m = model_from_rows([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]],
                            ["a", "b", "c"])
        # h=(1,0) ranks a, b, c; true label c sits at rank 3
        data = Dataset(np.array([[0.0]]), np.array([2]), ["a", "b", "c"])
        scores = misleading_scores(m, e, data,
                                   encodings=np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(scores, np.zeros(2))

    def test_matches_per_sample_loop(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        e = init_encoder(6, 4, 8)
        feats = rng.standard_normal((20, 4)) * 0.4
        labels = rng.integers(0, 3, size=20)
        data = Dataset(feats, labels, ["a", "b", "c"])
        m = model_from_rows(rng.standard_normal((3, 8)), ["a", "b", "c"])

        got = misleading_scores(m, e, data)

        enc = encode_batch(e, feats)
        unit = np.array([row / math.sqrt(np.dot(row, row))
                         for row in m.classes])
        want = np.zeros(8)
        for i in range(20):
            h = enc[i]
            sims = [np.dot(m.classes[l], h)
                    / (math.sqrt(np.dot(m.classes[l], m.classes[l]))
                       * math.sqrt(np.dot(h, h))) for l in range(3)]
            ranked = sorted(range(3), key=lambda l: (-sims[l], l))
            y = int(labels[i])
            if ranked[0] == y or ranked[1] != y:
                continue
            want += np.abs(h - unit[y]) - np.abs(h - unit[ranked[0]])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_equals_per_sample_reference_exactly(self):
        # one sample at a time, as a per-row scorer visits them; a zero
        # class row and a duplicated row (exact score ties) included
        rng = np.random.Generator(np.random.Philox(key=57))
        e = init_encoder(8, 4, 32)
        feats = rng.standard_normal((60, 4))
        labels = rng.integers(0, 5, size=60)
        names = ["a", "b", "c", "d", "f"]
        classes = rng.standard_normal((5, 32))
        classes[3] = 0.0
        classes[4] = classes[0]
        got = misleading_scores(model_from_rows(classes, names), e,
                                Dataset(feats, labels, names))

        norms = np.array([math.sqrt(np.dot(c, c)) for c in classes])
        unit = np.array([c / n if n > 0.0 else c
                         for c, n in zip(classes, norms)])
        want = np.zeros(32)
        for h, y in zip(encode_batch(e, feats), labels):
            dots = classes @ h
            denom = norms * math.sqrt(np.dot(h, h))
            sims = np.divide(dots, denom, out=np.zeros_like(dots),
                             where=denom > 0.0)
            top2 = np.lexsort((np.arange(5), -sims))[:2]
            if top2[0] != y and top2[1] == y:
                want += np.abs(h - unit[y]) - np.abs(h - unit[top2[0]])
        assert np.any(want != 0.0)
        assert np.array_equal(got, want)

    def cached_sims(self, m, encodings, sizes):
        """The class scores of each row, scored in batches of ``sizes`` rows
        as a cache fills."""
        ends = np.cumsum(sizes)
        assert ends[-1] == encodings.shape[0]
        return np.concatenate([
            model_scores(m.classes, row_norms(m.classes), encodings[a:b],
                         row_norms(encodings[a:b])[:, None])
            for a, b in zip(np.r_[0, ends[:-1]], ends)])

    def test_cached_sims_equal_uncached(self):
        rng = np.random.Generator(np.random.Philox(key=58))
        e = init_encoder(8, 4, 32)
        feats = rng.standard_normal((60, 4))
        names = ["a", "b", "c", "d", "f"]
        data = Dataset(feats, rng.integers(0, 5, size=60), names)
        classes = rng.standard_normal((5, 32))
        classes[4] = classes[0]  # exact score ties
        m = model_from_rows(classes, names)
        encs = encode_batch(e, feats)
        want = misleading_scores(m, e, data, encs)
        assert np.any(want != 0.0)
        sims = self.cached_sims(m, encs, [1, 2, 4, 8, 16, 29])
        assert np.array_equal(misleading_scores(m, e, data, encs, sims=sims),
                              want)
        # the passed scores are what ranks the rows
        assert not np.array_equal(
            misleading_scores(m, e, data, encs, sims=np.zeros_like(sims)),
            want)

    @pytest.mark.parametrize("shape", [(59, 5), (60, 4), (60,)])
    def test_sims_of_another_shape_rejected(self, shape):
        e = init_encoder(8, 4, 32)
        names = ["a", "b", "c", "d", "f"]
        data = Dataset(np.zeros((60, 4)), np.arange(60) % 5, names)
        m = model_from_rows(np.ones((5, 32)), names)
        with pytest.raises(ValueError, match=(
                rf"sims has shape {re.escape(str(shape))}, "
                r"expected \(60, 5\)")):
            misleading_scores(m, e, data, sims=np.zeros(shape))

    def test_class_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        e = init_encoder(7, 3, 16)
        feats = rng.standard_normal((15, 3)) * 0.4
        labels = rng.integers(0, 3, size=15)
        data = Dataset(feats, labels, ["a", "b", "c"])
        rows = rng.standard_normal((3, 16))
        base = misleading_scores(model_from_rows(rows, ["a", "b", "c"]),
                                 e, data)
        scaled_rows = rows.copy()
        scaled_rows[1] *= 8.0  # power of two: norms and quotients stay exact
        scaled = misleading_scores(
            model_from_rows(scaled_rows, ["a", "b", "c"]), e, data)
        np.testing.assert_array_equal(scaled, base)

    def test_label_mismatch_rejected(self):
        e = init_encoder(0, 1, 2)
        m = model_from_rows([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        data = Dataset(np.array([[0.0]]), np.array([0]), ["a", "x"])
        with pytest.raises(ValueError):
            misleading_scores(m, e, data)


class TestSelectionTies:
    """Every selector ranks dimensions by ``ranked_classes``: descending
    score, ties (0.0 and -0.0 included) toward the lower index."""

    SCORES = np.array([0.0, 2.0, -0.0, 2.0, 1.0, 2.0, -1.0, 0.0])

    def test_rank_equals_index_tiebroken_lexsort(self):
        want = np.lexsort((np.arange(8), -self.SCORES))
        assert np.array_equal(dynhd.analysis.ranked_classes(self.SCORES),
                              want)
        assert want.tolist() == [1, 3, 5, 4, 0, 2, 7, 6]

    @pytest.mark.parametrize("select", [select_misleading,
                                        select_domain_variant])
    @pytest.mark.parametrize("rate, picked", [
        (0.25, [1, 3]), (0.375, [1, 3, 5]), (1.0, [1, 3, 4, 5])])
    def test_positive_selectors_keep_ties_in_index_order(self, select,
                                                         rate, picked):
        assert select(self.SCORES, rate).indices.tolist() == picked

    @pytest.mark.parametrize("rate, picked", [
        (0.25, [0, 2]), (0.5, [0, 2, 4, 7]), (0.625, [0, 1, 2, 4, 7]),
        (0.875, [0, 1, 2, 3, 4, 6, 7])])
    def test_insignificant_keeps_zero_variance_ties_in_index_order(
            self, rate, picked):
        # Columns 0, 2, 4, 7 have variance 0 (score -0.0), columns 1, 3, 6
        # tie at 2/3 and column 5 has variance 6.
        m = model_from_rows(TIED_VARIANCE_CLASSES)
        plan = select_insignificant(m, rate)
        assert plan.indices.tolist() == picked
        assert np.signbit(plan.scores[[0, 2, 4, 7]]).all()


# Class rows whose column variances tie: 0 at columns 0, 2, 4 and 7, 2/3 at
# columns 1, 3 and 6, and 6 at column 5.
TIED_VARIANCE_CLASSES = [[1.0, 0.0, 2.0, 1.0, 5.0, 0.0, 1.0, -1.0],
                         [1.0, 1.0, 2.0, 2.0, 5.0, 3.0, 2.0, -1.0],
                         [1.0, 2.0, 2.0, 3.0, 5.0, 6.0, 3.0, -1.0]]


class TestSelectMisleading:
    def test_hand_example_with_tie(self):
        plan = select_misleading(np.array([1.0, 1.0]), 0.5)
        assert plan.indices.tolist() == [0]
        assert plan.strategy == "misleading"

    def test_all_zero_scores_empty_plan(self):
        assert select_misleading(np.zeros(6), 1.0).indices.size == 0

    def test_negative_scores_excluded(self):
        plan = select_misleading(np.array([-2.0, 3.0, 1.0]), 1.0)
        assert plan.indices.tolist() == [1, 2]

    def test_takes_highest_first(self):
        plan = select_misleading(np.array([0.5, 3.0, 2.0, 0.1]), 0.5)
        assert plan.indices.tolist() == [1, 2]


def per_class_domain_variance(models):
    """The per-class loop that the batched domain_variance replaced; its
    exactness reference."""
    units = [dynhd.analysis._unit_rows(m.classes) for m in models]
    total = np.zeros(models[0].dim)
    for label_idx in range(models[0].n_classes):
        rows = np.stack([u[label_idx] for u in units])
        mu = rows.mean(axis=0)
        total += np.mean((rows - mu) ** 2, axis=0)
    return total


class TestDomainVariance:
    @pytest.mark.parametrize("dim", [1, 7, 10000])
    @pytest.mark.parametrize("classes", [1, 2, 26])
    @pytest.mark.parametrize("domains", [2, 3, 4])
    def test_equals_per_class_loop_bit_for_bit(self, domains, classes, dim):
        rng = np.random.Generator(np.random.Philox(key=domains * 100
                                                   + classes))
        # Entries spread over twelve decades, so that any change in the
        # order of the additions shows in the last bits.
        models = [model_from_rows(
            rng.standard_normal((classes, dim))
            * 10.0 ** rng.uniform(-6.0, 6.0, (classes, dim)))
            for _ in range(domains)]
        assert (domain_variance(models).tobytes()
                == per_class_domain_variance(models).tobytes())

    def test_identical_models_zero(self):
        rows = np.array([[1.0, 2.0], [0.5, -1.0]])
        models = [model_from_rows(rows, ["a", "b"]) for _ in range(3)]
        np.testing.assert_array_equal(domain_variance(models), np.zeros(2))

    def test_hand_computed_two_domains(self):
        models = [model_from_rows([[0.0, 1.0]], ["a"]),
                  model_from_rows([[1.0, 0.0]], ["a"])]
        np.testing.assert_allclose(domain_variance(models),
                                   [0.25, 0.25], atol=0)

    def test_sums_over_classes(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        all_rows = [rng.standard_normal((2, 6)) for _ in range(3)]
        full = domain_variance(
            [model_from_rows(r, ["a", "b"]) for r in all_rows])
        per_class = sum(
            domain_variance([model_from_rows(r[l:l + 1], ["a"])
                             for r in all_rows])
            for l in range(2))
        np.testing.assert_allclose(full, per_class, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=61))
        all_rows = [rng.standard_normal((3, 10)) for _ in range(4)]
        got = domain_variance(
            [model_from_rows(r, ["a", "b", "c"]) for r in all_rows])
        want = np.zeros(10)
        for l in range(3):
            unit = [r[l] / math.sqrt(np.dot(r[l], r[l])) for r in all_rows]
            for d in range(10):
                col = [u[d] for u in unit]
                mu = sum(col) / 4
                want[d] += sum((x - mu) ** 2 for x in col) / 4
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_class_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        all_rows = [rng.standard_normal((2, 8)) for _ in range(3)]
        base = domain_variance(
            [model_from_rows(r, ["a", "b"]) for r in all_rows])
        scaled = [r.copy() for r in all_rows]
        scaled[1][0] *= 4.0
        got = domain_variance(
            [model_from_rows(r, ["a", "b"]) for r in scaled])
        np.testing.assert_array_equal(got, base)

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError):
            domain_variance([model_from_rows([[1.0, 0.0]], ["a"])])

    def test_mismatched_models_rejected(self):
        with pytest.raises(ValueError):
            domain_variance([model_from_rows([[1.0, 0.0]], ["a"]),
                             model_from_rows([[1.0, 0.0]], ["b"])])
        with pytest.raises(ValueError):
            domain_variance([model_from_rows([[1.0, 0.0]], ["a"]),
                             model_from_rows([[1.0, 0.0, 0.0]], ["a"])])


class TestSelectDomainVariant:
    def test_hand_example(self):
        plan = select_domain_variant(np.array([1.0, 3.0]), 0.5)
        assert plan.indices.tolist() == [1]
        assert plan.strategy == "domain_variant"

    def test_all_zero_empty_plan(self):
        assert select_domain_variant(np.zeros(4), 1.0).indices.size == 0

    def test_full_rate_all_positive(self):
        plan = select_domain_variant(np.array([0.5, 2.0, 1.0]), 1.0)
        assert plan.indices.tolist() == [0, 1, 2]


class TestPermutationEquivariance:
    def test_insignificant_plan_permutes_with_dimensions(self):
        rng = np.random.Generator(np.random.Philox(key=81))
        m = model_from_rows(rng.standard_normal((4, 12)))
        perm = rng.permutation(12)
        permuted = model_from_rows(m.classes[:, perm], list(m.labels))

        base_scores = variance_over_classes(m)
        np.testing.assert_array_equal(variance_over_classes(permuted),
                                      base_scores[perm])

        base_plan = set(select_insignificant(m, 0.25).indices.tolist())
        got_plan = set(select_insignificant(permuted, 0.25).indices.tolist())
        assert got_plan == {int(np.where(perm == d)[0][0])
                            for d in base_plan}


class TestPlanRegeneration:
    """The planner is each strategy's detector followed by its selector."""

    def inputs(self):
        ds = make_blobs(SyntheticSpec(n=5, classes=3, domains=3,
                                      samples_per_class_per_domain=6,
                                      domain_offset_std=1.0, seed=9))
        enc = init_encoder(4, ds.n, 64)
        # random class rows mispredict often, so every detector has evidence
        rng = np.random.Generator(np.random.Philox(key=12))
        model = ClassModel(rng.standard_normal((3, 64)), list(ds.label_names))
        return enc, model, ds

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("strategy", REGEN_STRATEGIES)
    def test_equals_detector_then_selector(self, strategy, cached):
        enc, model, ds = self.inputs()
        encodings = encode_batch(enc, ds.features) if cached else None
        if strategy == "insignificant":
            want = select_insignificant(model, 0.25)
        elif strategy == "misleading":
            want = select_misleading(misleading_scores(model, enc, ds), 0.25)
        else:
            want = select_domain_variant(
                domain_variance(domain_models(enc, ds)), 0.25)
        got = plan_regeneration(strategy, 0.25, model, enc, ds, encodings)
        assert want.indices.size > 0
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert (got.strategy, got.rate) == (strategy, 0.25)

    def test_misleading_reads_cached_scores(self):
        enc, model, ds = self.inputs()
        encodings = encode_batch(enc, ds.features)
        sims = model_scores(model.classes, row_norms(model.classes),
                            encodings, row_norms(encodings)[:, None])
        want = plan_regeneration("misleading", 0.25, model, enc, ds)
        got = plan_regeneration("misleading", 0.25, model, enc, ds,
                                encodings, sims)
        assert want.indices.size > 0
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_insignificant_needs_no_dataset(self):
        enc, model, _ = self.inputs()
        np.testing.assert_array_equal(
            plan_regeneration("insignificant", 0.25, model, enc).indices,
            select_insignificant(model, 0.25).indices)

    @pytest.mark.parametrize("strategy", ["misleading", "domain_variant"])
    def test_data_strategy_without_dataset_rejected(self, strategy):
        enc, model, _ = self.inputs()
        with pytest.raises(ValueError,
                           match=f"strategy={strategy} needs a dataset"):
            plan_regeneration(strategy, 0.25, model, enc)

    @pytest.mark.parametrize("shape", [(4, 5), (3, 8)])
    @pytest.mark.parametrize("strategy", ["misleading", "domain_variant"])
    def test_encodings_of_another_shape_rejected(self, strategy, shape):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), ["a", "b"],
                     np.array([0, 0, 1, 1]), ["p", "q"])
        enc = init_encoder(1, 2, 8)
        model = ClassModel(np.eye(2, 8), ["a", "b"])
        with pytest.raises(ValueError) as exc:
            plan_regeneration(strategy, 0.5, model, enc, ds, np.zeros(shape))
        assert str(exc.value) == (f"encodings has shape {shape}, "
                                  "expected (4, 8)")

    def test_unknown_strategy_rejected(self):
        enc, model, ds = self.inputs()
        with pytest.raises(ValueError, match="unknown strategy 'none'"):
            plan_regeneration("none", 0.25, model, enc, ds)


def test_every_exported_name_resolves():
    missing = [name for name in dynhd.__all__ if not hasattr(dynhd, name)]
    assert missing == []
    assert dynhd.domain_models is dynhd.analysis.domain_models
