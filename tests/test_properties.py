"""Randomized invariant suite.

Eight families, each run over at least 200 generated cases: monotone top-k
accuracy, scale-invariant rankings, bounded encodings, class-scale-invariant
detector scores, the regeneration zero/coherence rules, batched in-place
re-encoding equal to a fresh encode, strict rejection of non-finite
training hyperparameters, and the score-cached training pass equal to the
per-sample loop.

Scale factors are powers of two throughout: scaling by 2^p is exact in
binary floating point, so dot products, norms, and their quotients are
bit-identical and the assertions can demand exact equality instead of
tolerances that would mask rank flips.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynhd.analysis import domain_variance, misleading_scores
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch, init_encoder,
                           reencode_dims, regenerate_dims)
from dynhd.inference import (model_scores, ranked_classes, row_norms,
                             topk_accuracy, vec_norm)
from dynhd.model import ClassModel, Dataset, RegenPlan
from dynhd.trainer import TrainConfig
from test_trainer import assert_pass_exact

COMMON = settings(max_examples=200, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 24)
feature_counts = st.integers(1, 5)
class_counts = st.integers(2, 5)
sample_counts = st.integers(2, 12)
powers = st.integers(-8, 8)


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_names(count):
    return [f"c{i}" for i in range(count)]


def ranking(classes, h):
    """Every class ranked for one encoding, with the ranked scores."""
    scores = model_scores(classes, row_norms(classes), h, vec_norm(h))
    order = ranked_classes(scores)
    return order, scores[order]


@COMMON
@given(seed=seeds, dim=dims, n=feature_counts, n_classes=class_counts,
       n_samples=sample_counts)
def test_topk_accuracy_monotone_in_k(seed, dim, n, n_classes, n_samples):
    rng = make_rng(seed)
    e = init_encoder(seed, n, dim)
    names = random_names(n_classes)
    data = Dataset(rng.standard_normal((n_samples, n)),
                   rng.integers(0, n_classes, size=n_samples), names)
    m = ClassModel(rng.standard_normal((n_classes, dim)), names)
    accs = [topk_accuracy(m, e, data, k) for k in range(1, n_classes + 1)]
    assert all(a <= b for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0  # the full ranking always contains the label


@COMMON
@given(seed=seeds, dim=dims, n_classes=class_counts, power=powers,
       row=st.integers(0, 4))
def test_ranking_invariant_under_class_scaling(seed, dim, n_classes, power,
                                               row):
    rng = make_rng(seed)
    classes = rng.standard_normal((n_classes, dim))
    h = rng.standard_normal(dim)
    base_order, base_scores = ranking(classes, h)
    scaled = classes.copy()
    scaled[row % n_classes] *= 2.0 ** power
    order, scores = ranking(scaled, h)
    assert order.tolist() == base_order.tolist()
    np.testing.assert_array_equal(scores, base_scores)


@COMMON
@given(seed=seeds, dim=dims, n_classes=class_counts, power=powers)
def test_ranking_invariant_under_query_scaling(seed, dim, n_classes, power):
    rng = make_rng(seed)
    classes = rng.standard_normal((n_classes, dim))
    h = rng.standard_normal(dim)
    base_order, base_scores = ranking(classes, h)
    order, scores = ranking(classes, h * 2.0 ** power)
    assert order.tolist() == base_order.tolist()
    np.testing.assert_array_equal(scores, base_scores)


@COMMON
@given(seed=seeds, dim=dims, n=feature_counts,
       scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_encoding_values_stay_bounded(seed, dim, n, scale):
    rng = make_rng(seed)
    e = init_encoder(seed, n, dim)
    h = encode(e, rng.standard_normal(n) * scale)
    assert np.all(h >= -1.0)
    assert np.all(h <= 1.0)


@COMMON
@given(seed=seeds, dim=dims, n=feature_counts, n_classes=class_counts,
       n_samples=sample_counts, power=powers, row=st.integers(0, 4))
def test_misleading_scores_invariant_under_class_scaling(
        seed, dim, n, n_classes, n_samples, power, row):
    rng = make_rng(seed)
    e = init_encoder(seed, n, dim)
    names = random_names(n_classes)
    data = Dataset(rng.standard_normal((n_samples, n)),
                   rng.integers(0, n_classes, size=n_samples), names)
    classes = rng.standard_normal((n_classes, dim))
    base = misleading_scores(ClassModel(classes, names), e, data)
    scaled = classes.copy()
    scaled[row % n_classes] *= 2.0 ** power
    got = misleading_scores(ClassModel(scaled, names), e, data)
    np.testing.assert_array_equal(got, base)


@COMMON
@given(seed=seeds, dim=dims, n_classes=class_counts,
       n_domains=st.integers(2, 4), power=powers, row=st.integers(0, 4),
       which=st.integers(0, 3))
def test_domain_variance_invariant_under_class_scaling(
        seed, dim, n_classes, n_domains, power, row, which):
    rng = make_rng(seed)
    names = random_names(n_classes)
    all_rows = [rng.standard_normal((n_classes, dim))
                for _ in range(n_domains)]
    base = domain_variance([ClassModel(r, names) for r in all_rows])
    scaled = [r.copy() for r in all_rows]
    scaled[which % n_domains][row % n_classes] *= 2.0 ** power
    got = domain_variance([ClassModel(r, names) for r in scaled])
    np.testing.assert_array_equal(got, base)


@COMMON
@given(seed=seeds, dim=dims, n=feature_counts, n_classes=class_counts,
       count_seed=seeds)
def test_regeneration_zeroing_and_cache_coherence(seed, dim, n, n_classes,
                                                  count_seed):
    rng = make_rng(seed)
    pick = make_rng(count_seed)
    count = int(pick.integers(0, dim + 1))
    indices = np.sort(pick.choice(dim, size=count, replace=False))
    plan = RegenPlan(indices, np.zeros(dim), "insignificant", count / dim)

    e = init_encoder(seed, n, dim)
    f = rng.standard_normal(n)
    h_old = encode(e, f)
    e2 = regenerate_dims(e, plan)

    fresh = encode(e2, f)
    patched = reencode_dims(e2, f, h_old.copy(), plan)
    np.testing.assert_array_equal(patched, fresh)
    untouched = np.setdiff1d(np.arange(dim), indices)
    np.testing.assert_array_equal(fresh[untouched], h_old[untouched])

    classes = rng.standard_normal((n_classes, dim))
    zeroed = classes.copy()
    zeroed[:, indices] = 0.0
    assert np.all(zeroed[:, indices] == 0.0)
    np.testing.assert_array_equal(zeroed[:, untouched],
                                  classes[:, untouched])


@COMMON
@given(seed=seeds, dim=dims, n=feature_counts, count_seed=seeds,
       n_samples=st.integers(1, 3 * BLOCK_ROWS + 5))
def test_batched_reencode_equals_fresh_encode_batch(seed, dim, n, count_seed,
                                                    n_samples):
    rng = make_rng(seed)
    pick = make_rng(count_seed)
    count = int(pick.integers(0, dim + 1))
    indices = np.sort(pick.choice(dim, size=count, replace=False))
    plan = RegenPlan(indices, np.zeros(dim), "insignificant", count / dim)

    e = init_encoder(seed, n, dim)
    feats = rng.standard_normal((n_samples, n))
    cache = encode_batch(e, feats)
    e2 = regenerate_dims(e, plan)
    assert reencode_dims(e2, feats, cache, plan, inplace=True) is cache
    np.testing.assert_array_equal(cache, encode_batch(e2, feats))


@COMMON
@given(field=st.sampled_from(["eta", "regen_rate"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       dim=st.integers(1, 4096), eta=st.floats(1e-6, 1e3),
       regen_rate=st.floats(0.0, 1.0))
def test_train_config_rejects_non_finite_hyperparameters(
        field, value, dim, eta, regen_rate):
    cfg = TrainConfig(dim=dim, eta=eta, regen_rate=regen_rate)
    cfg.validate()  # the finite draw is valid
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=field):
        cfg.validate()


@COMMON
@given(seed=seeds, dim=dims, n_classes=class_counts,
       n_samples=st.integers(1, 2 * BLOCK_ROWS + 40),
       noise=st.sampled_from([0.0, 0.5, 2.0, 8.0]),
       integer=st.booleans(), epochs=st.integers(1, 4),
       shuffle=st.booleans(), eta=st.sampled_from([0.05, 0.5, 2.0]))
def test_cached_pass_equals_per_sample_loop(seed, dim, n_classes, n_samples,
                                            noise, integer, epochs, shuffle,
                                            eta):
    rng = make_rng(seed)
    classes = rng.standard_normal((n_classes, dim))
    labels = rng.integers(0, n_classes, size=n_samples)
    encodings = classes[labels] + noise * rng.standard_normal((n_samples, dim))
    if integer:  # small integers make exact score ties likely
        classes, encodings = np.round(classes), np.round(encodings)
    orders = [rng.permutation(n_samples) if shuffle else np.arange(n_samples)
              for _ in range(epochs)]
    assert_pass_exact(classes, encodings,
                      [(order, labels) for order in orders], eta)
