"""Randomized invariant suite.

Eleven families, each run over at least 200 generated cases: monotone
top-k accuracy, scale-invariant rankings, bounded encodings, encodings
within a rounding bound of the paper's product formula, every encode path
equal to a plain left-to-right fold of the projection, class-scale-invariant
detector scores, the regeneration zero/coherence rules, batched in-place
re-encoding equal to a fresh encode, strict rejection of non-finite
training hyperparameters, the score-cached training pass equal to the
per-sample loop, and an encoder replayed from its regeneration history
equal to the chained result, with the draw count the history implies.

Scale factors are powers of two throughout: scaling by 2^p is exact in
binary floating point, so dot products, norms, and their quotients are
bit-identical and the assertions can demand exact equality instead of
tolerances that would mask rank flips.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dynhd.encoder
from dynhd.analysis import domain_variance, misleading_scores
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch, init_encoder,
                           reencode_dims, regenerate_dims, replay_encoder)
from dynhd.inference import (model_scores, ranked_classes, row_norms,
                             topk_accuracy)
from dynhd.model import ClassModel, Dataset, RegenPlan
from dynhd.trainer import TrainConfig
from test_encoder import fold_encode, fold_projection, plan_for
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
    scores = model_scores(classes, row_norms(classes), h,
                          float(np.sqrt(np.dot(h, h))))
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
@given(seed=seeds, dim=dims, n=feature_counts,
       log_scale=st.floats(-3.0, 4.0, allow_nan=False, allow_infinity=False))
def test_encoding_within_rounding_of_product_formula(seed, dim, n, log_scale):
    # encode computes 0.5 * (sin(2x + c) - sin(c)).  2x is exact; rounding
    # 2x + c errs by up to |x| * eps + pi * eps, halved by the 0.5, and the
    # product form's x + c by |x| * eps / 2 + pi * eps; the sines, the
    # cosine, the product and the difference add a few eps / 2.  Measured,
    # the two forms differ by at most 2.2 * eps * (|x| + 1); 4 leaves room.
    rng = make_rng(seed)
    e = init_encoder(seed, n, dim)
    f = rng.standard_normal(n) * 10.0 ** log_scale / math.sqrt(n)
    x = fold_projection(f, e.bases)
    product = np.cos(x + e.phases) * np.sin(x)
    bound = 4.0 * np.finfo(np.float64).eps * (np.abs(x) + 1.0)
    assert np.all(np.abs(encode(e, f) - product) <= bound)


@COMMON
@given(seed=seeds, n=st.integers(1, 40), dim=st.integers(1, 100),
       count=st.integers(1, BLOCK_ROWS + 6),
       picked=st.lists(st.integers(0, 99), min_size=1, max_size=100))
@example(seed=1, n=17, dim=1, count=1, picked=[0])
@example(seed=2, n=17, dim=33, count=2, picked=[7])
@example(seed=3, n=17, dim=97, count=BLOCK_ROWS + 1,
         picked=list(range(0, 97, 3)))
def test_every_encode_path_equals_the_fold(seed, n, dim, count, picked):
    # 32-column tiles, so a D of 32k + 1, or as many planned dimensions,
    # leaves one column for the last tile
    rng = make_rng(seed)
    e = init_encoder(seed, n, dim)
    feats = rng.standard_normal((count, n)) * 3.0
    plan = plan_for(e, {i % dim for i in picked})
    e2 = regenerate_dims(e, plan)
    expected = fold_encode(feats, e.bases, e.phases)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynhd.encoder, "TILE_COLUMNS", 32)
        batch = encode_batch(e, feats)
        single = encode(e, feats[-1])
        assert batch.tobytes() == expected.tobytes()
        reencode_dims(e2, feats, batch, plan, inplace=True)
    assert single.tobytes() == expected[-1].tobytes()
    assert batch.tobytes() == fold_encode(feats, e2.bases,
                                          e2.phases).tobytes()


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


@COMMON
@given(seed=seeds, dim=dims, n=st.integers(1, 9), plan_seed=seeds,
       rounds=st.integers(0, 4))
def test_replay_equals_chained_regeneration(seed, dim, n, plan_seed, rounds):
    pick = make_rng(plan_seed)
    e = init_encoder(seed, n, dim)
    regenerated = 0
    for _ in range(rounds):
        count = int(pick.integers(0, dim + 1))
        indices = np.sort(pick.choice(dim, size=count, replace=False))
        e = regenerate_dims(e, RegenPlan(indices, np.zeros(dim),
                                         "insignificant", count / dim))
        regenerated += count
    replayed = replay_encoder(seed, n, dim, e.regen_history)
    np.testing.assert_array_equal(replayed.bases, e.bases)
    np.testing.assert_array_equal(replayed.phases, e.phases)
    pairs = lambda k: 2 * ((k + 1) // 2)  # uniforms behind k normals
    assert e.draw_counter == replayed.draw_counter == (
        pairs(dim * n) + dim + regenerated * (pairs(n) + 1))
