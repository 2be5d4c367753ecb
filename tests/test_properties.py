"""Randomized invariant suite.

Fourteen families, each run over at least 200 generated cases: monotone
top-k accuracy, scale-invariant rankings, bounded encodings, encodings
within a rounding bound of the paper's product formula, every encode path
equal to a plain left-to-right fold of the projection, class-scale-invariant
detector scores, the regeneration zero/coherence rules, batched in-place
re-encoding equal to a fresh encode, strict rejection of non-finite
training hyperparameters, the score-cached training pass equal to the
per-sample loop, an encoder replayed from its regeneration history
equal to the chained result, with the draw count the history implies, the
derived draw counter equal to the position of a stream that made the same
draws one dimension at a time, a saved and loaded model equal to the one
saved, whatever its rounds repeat, nest or overlap, and a written and
loaded CSV equal to its dataset, whatever its names and column order.

Scale factors are powers of two throughout: scaling by 2^p is exact in
binary floating point, so dot products, norms, and their quotients are
bit-identical and the assertions can demand exact equality instead of
tolerances that would mask rank flips.
"""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dynhd.encoder
from dynhd.analysis import domain_variance, misleading_scores
from dynhd.data import NormalizationStats, load_csv, write_csv
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch, init_encoder,
                           reencode_dims, regenerate_dims, replay_encoder)
from dynhd.inference import (model_scores, ranked_classes, row_norms,
                             topk_accuracy)
from dynhd.model import ClassModel, Dataset, RegenPlan, load_model, save_model
from dynhd.rng import TWO_PI, normal_uniforms, paired_normals
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
    # encode computes S(x + c/2) - S(c/2), S(a) = tan(a) / (1 + tan(a)^2)
    # = sin(2a) / 2.  c/2 is exact; rounding x + c/2 errs by up to
    # |x| * eps / 2 + pi * eps / 2, which S, of slope at most 1, carries
    # over, and the product form's x + c by |x| * eps / 2 + pi * eps; the
    # tangents, the quotients, the sine, the cosine, the product and the
    # difference add a few eps / 2.  Measured, the two forms differ by at
    # most 2.0 * eps * (|x| + 1); 4 leaves room.
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
    cfg = TrainConfig(dim=dim, eta=eta, regen_rate=regen_rate)  # valid
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(cfg, **{field: value})


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


@COMMON
@given(seed=seeds, dim=dims, n=st.integers(1, 9), plan_seed=seeds,
       rounds=st.integers(0, 4))
def test_draw_counter_is_the_stream_position(seed, dim, n, plan_seed, rounds):
    """The counter derived from the shape and the history is where one
    stream stands after drawing the encoder's bases and phases, then each
    regenerated dimension's row and phase in turn; empty plans included."""
    pick = make_rng(plan_seed)
    e = init_encoder(seed, n, dim)
    stream, position = make_rng(seed), 0

    def normals(count):
        nonlocal position
        position += normal_uniforms(count)
        return paired_normals(stream.random(normal_uniforms(count)))[:count]

    def phases(count):
        nonlocal position
        position += count
        return TWO_PI * stream.random(count)

    np.testing.assert_array_equal(e.bases, normals(dim * n).reshape(dim, n))
    np.testing.assert_array_equal(e.phases, phases(dim))
    assert e.draw_counter == position
    for _ in range(rounds):
        count = int(pick.integers(0, dim + 1))
        indices = np.sort(pick.choice(dim, size=count, replace=False))
        e = regenerate_dims(e, RegenPlan(indices, np.zeros(dim),
                                         "insignificant", count / dim))
        for i in indices:
            np.testing.assert_array_equal(e.bases[i], normals(n))
            assert e.phases[i] == phases(1)[0]
        assert e.draw_counter == position
    replayed = replay_encoder(seed, n, dim, e.regen_history)
    assert replayed.draw_counter == e.draw_counter


def next_round(pick, dim, kind, last):
    """A non-empty index set that repeats, nests in, contains, overlaps or
    ignores the set of the round before it."""
    def fresh():
        return pick.choice(dim, size=int(pick.integers(1, dim + 1)),
                           replace=False)

    def part():
        return pick.choice(last, size=int(pick.integers(1, last.size + 1)),
                           replace=False)

    rounds = {"repeat": lambda: last, "subset": part,
              "superset": lambda: np.union1d(last, fresh()),
              "overlap": lambda: np.union1d(part(), fresh()),
              "fresh": fresh}
    return np.sort(rounds[kind]())


@COMMON
@given(seed=seeds, dim=dims, n=st.integers(1, 9), plan_seed=seeds,
       kinds=st.lists(st.sampled_from(["repeat", "subset", "superset",
                                       "overlap", "fresh"]), max_size=10),
       n_classes=class_counts)
@example(seed=1, dim=9, n=3, plan_seed=2, n_classes=3,
         kinds=["repeat"] * 4 + ["subset", "repeat", "repeat", "superset",
                                 "overlap", "repeat"])
def test_save_load_round_trip_is_bit_identical(seed, dim, n, plan_seed,
                                               kinds, n_classes):
    pick = make_rng(plan_seed)
    e = init_encoder(seed, n, dim)
    last = np.sort(pick.choice(dim, size=int(pick.integers(1, dim + 1)),
                               replace=False))
    for kind in kinds:
        last = next_round(pick, dim, kind, last)
        e = regenerate_dims(e, RegenPlan(last, np.zeros(dim),
                                         "insignificant", last.size / dim))
    model = ClassModel(pick.standard_normal((n_classes, dim)),
                       random_names(n_classes))
    stats = NormalizationStats(pick.standard_normal(n),
                               1.0 + pick.exponential(size=n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, e, model, normalizer=stats)
        e2, model2, stats2 = load_model(path)
    assert e2.bases.tobytes() == e.bases.tobytes()
    assert e2.phases.tobytes() == e.phases.tobytes()
    assert (e2.seed, e2.draw_counter) == (e.seed, e.draw_counter)
    assert ([idx.tolist() for idx in e2.regen_history]
            == [idx.tolist() for idx in e.regen_history])
    assert model2.classes.tobytes() == model.classes.tobytes()
    assert model2.labels == model.labels
    assert stats2.mean.tobytes() == stats.mean.tobytes()
    assert stats2.std.tobytes() == stats.std.tobytes()


@st.composite
def csv_datasets(draw):
    """A Dataset of 1 to 40 features of any finite value and names of any
    text, with column positions for its label and domain."""
    n, rows = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    features = draw(arrays(np.float64, (rows, n), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    names = st.lists(st.text(max_size=6), min_size=1, max_size=4,
                     unique=True)
    label_names = draw(names)
    labels = [draw(st.integers(0, len(label_names) - 1)) for _ in range(rows)]
    domain_names = draw(st.none() | names)
    domains = None if domain_names is None else np.array(
        [draw(st.integers(0, len(domain_names) - 1)) for _ in range(rows)])
    d = Dataset(features, np.array(labels), label_names, domains,
                domain_names)
    return d, draw(st.integers(0, n)), draw(st.integers(0, n + 1))


def assert_same_rows(back, d):
    assert back.features.tobytes() == d.features.tobytes()
    assert ([back.label_names[i] for i in back.labels]
            == [d.label_names[i] for i in d.labels])
    if d.domains is not None:
        assert ([back.domain_names[i] for i in back.domains]
                == [d.domain_names[i] for i in d.domains])


def quoted(name):
    return '"' + name.replace('"', '""') + '"'


@COMMON
@given(case=csv_datasets())
@example(case=(Dataset(np.array([[-0.0, 5e-324, 1.7e308, -1.7e308]]),
                       np.array([0]), [' a, "b" # c\r\n\r']),
               2, 0))
@example(case=(Dataset(np.array([[0.0], [2.5]]), np.array([1, 0]),
                       ["\r", "é "], np.array([0, 0]), ["\n"]), 0, 2))
def test_csv_round_trip_is_bit_identical(case):
    """write_csv then load_csv gives the features bit for bit and every
    row's names; so does the same file with the label and domain columns
    moved to any position and every name quoted."""
    d, label_at, domain_at = case
    domain_column = None if d.domains is None else "domain"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_csv(path, d)
        assert_same_rows(load_csv(path, domain_column=domain_column), d)

        header = [f"f{i}" for i in range(d.n)]
        rows = [[repr(v) for v in row] for row in d.features.tolist()]
        for name, at, ids, names in [
                ("label", label_at, d.labels, d.label_names),
                ("domain", domain_at, d.domains, d.domain_names)]:
            if ids is not None:
                header.insert(at, name)
                for cells, i in zip(rows, ids):
                    cells.insert(at, quoted(names[i]))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(cells) + "\n"
                             for cells in [header] + rows))
        assert_same_rows(load_csv(path, domain_column=domain_column), d)
