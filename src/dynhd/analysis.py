"""Detectors for undesired encoder dimensions.

Three strategies, each yielding a per-dimension score vector oriented so that
higher means stronger evidence for regeneration:

- insignificant: low variance of a dimension across class hypervectors
  (scores are negated variances);
- misleading: accumulated per-dimension distance evidence from mispredicted
  samples whose true class ranked second;
- domain_variant: summed per-class variance of a dimension across
  domain-specific models.

Selectors turn scores into RegenPlans of floor(rate * D) indices, ties
toward the lower index.  The evidence-driven detectors (misleading,
domain_variant) only select dimensions with strictly positive scores and may
return smaller or empty plans; low variance is itself evidence, so the
insignificance selector always fills the plan.

Variances are population variances (divide by the row count): class and
domain counts are small and fixed, and the choice only rescales scores.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .encoder import encode_batch
from .inference import model_scores, ranked_classes, row_norms
from .model import (REGEN_STRATEGIES, ClassModel, Dataset, EncoderState,
                    RegenPlan)


def _unit_rows(classes: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = row_norms(classes)[:, None]
    return classes / np.where(norms > 0.0, norms, 1.0)


def plan_size(rate: float, dim: int) -> int:
    """floor(rate * D), the most dimensions a plan at ``rate`` selects."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    return int(np.floor(rate * dim))


def variance_over_classes(m: ClassModel) -> np.ndarray:
    """Per-dimension population variance of the raw class values."""
    if m.n_classes < 2:
        raise ValueError("variance needs at least 2 classes")
    mu = m.classes.mean(axis=0)
    return np.mean((m.classes - mu) ** 2, axis=0)


def select_insignificant(m: ClassModel, rate: float) -> RegenPlan:
    """Plan the floor(rate*D) dimensions with the lowest class variance."""
    scores = -variance_over_classes(m)
    picked = np.sort(ranked_classes(scores)[:plan_size(rate, m.dim)])
    return RegenPlan(picked, scores, "insignificant", rate)


def misleading_scores(m: ClassModel, e: EncoderState, train: Dataset,
                      encodings: Optional[np.ndarray] = None,
                      sims: Optional[np.ndarray] = None) -> np.ndarray:
    """Accumulate per-dimension misprediction evidence over the dataset.

    For each sample mispredicted at top-1 whose true class ranks second:
    with unit-normalized class rows, add |h - c_true| - |h - c_pred| per
    dimension.  Samples ranked correctly, or whose true class is outside
    the top-2, contribute nothing.

    ``sims`` skips the scoring: the (N, L) ``model_scores`` of each
    encoding against ``m``, as a caller that keeps them already holds.
    """
    if list(train.label_names) != list(m.labels):
        raise ValueError("dataset label set does not match the model")
    if sims is not None and np.shape(sims) != (len(train), m.n_classes):
        raise ValueError(f"sims has shape {np.shape(sims)}, expected "
                         f"{(len(train), m.n_classes)}")
    if encodings is None:
        encodings = encode_batch(e, train.features)
    scores = np.zeros(m.dim)
    if m.n_classes < 2:
        return scores
    unit = _unit_rows(m.classes)
    if sims is None:
        sims = model_scores(m.classes, row_norms(m.classes), encodings,
                            row_norms(encodings)[:, None])
    top2 = ranked_classes(sims)[:, :2]
    # A true class ranked second is a top-1 miss; add rows in sample order.
    for i in np.flatnonzero(top2[:, 1] == train.labels):
        h = encodings[i]
        scores += (np.abs(h - unit[train.labels[i]])
                   - np.abs(h - unit[top2[i, 0]]))
    return scores


def select_misleading(scores: np.ndarray, rate: float) -> RegenPlan:
    """Plan up to floor(rate*D) positive-score dimensions, highest first."""
    return _select_top_positive(scores, rate, "misleading")


def _accumulate(encodings: np.ndarray, labels: np.ndarray,
                n_classes: int) -> np.ndarray:
    """Class-wise sums of the encodings: the bundled class rows."""
    classes = np.zeros((n_classes, encodings.shape[1]))
    for label in range(n_classes):
        rows = encodings[labels == label]
        if rows.shape[0]:
            classes[label] = rows.sum(axis=0)
    return classes


def domain_models(e: EncoderState, train: Dataset,
                  encodings: Optional[np.ndarray] = None) -> list[ClassModel]:
    """One accumulated class model per domain present in the data, in
    ascending domain-id order.  Pass cached encodings to skip re-encoding."""
    if train.domains is None:
        raise ValueError("dataset has no domain ids")
    if encodings is None:
        encodings = encode_batch(e, train.features)
    models = []
    for domain in np.unique(train.domains):
        mask = train.domains == domain
        models.append(ClassModel(
            _accumulate(encodings[mask], train.labels[mask], train.n_classes),
            list(train.label_names)))
    return models


def domain_variance(models: Sequence[ClassModel]) -> np.ndarray:
    """Summed per-class, per-dimension variance across domain models.

    For each class, stack the unit-normalized class rows of every domain
    model and take the per-dimension population variance; the result is the
    sum over classes.
    """
    if len(models) < 2:
        raise ValueError("domain variance needs at least 2 domain models")
    first = models[0]
    for other in models[1:]:
        if other.dim != first.dim or list(other.labels) != list(first.labels):
            raise ValueError("domain models must share labels and dimension")
    units = np.stack([_unit_rows(mod.classes) for mod in models])
    per_class = np.mean((units - units.mean(axis=0)) ** 2, axis=0)
    # Adds the classes in order for every D, where sum(axis=0) would switch
    # to pairwise summation over a single column.
    return np.add.accumulate(per_class, axis=0)[-1]


def select_domain_variant(scores: np.ndarray, rate: float) -> RegenPlan:
    """Plan up to floor(rate*D) positive-score dimensions, highest first."""
    return _select_top_positive(scores, rate, "domain_variant")


def _select_top_positive(scores: np.ndarray, rate: float,
                         strategy: str) -> RegenPlan:
    scores = np.asarray(scores, dtype=np.float64)
    count = plan_size(rate, scores.shape[0])
    order = ranked_classes(scores)
    eligible = order[scores[order] > 0.0]
    picked = np.sort(eligible[:count])
    return RegenPlan(picked, scores, strategy, rate)


def plan_regeneration(strategy: str, rate: float, model: ClassModel,
                      enc: EncoderState, ds: Optional[Dataset] = None,
                      encodings: Optional[np.ndarray] = None,
                      scores: Optional[np.ndarray] = None) -> RegenPlan:
    """Score the dimensions with ``strategy``'s detector and select its plan.

    ``insignificant`` reads only the model.  ``misleading`` and
    ``domain_variant`` score the dataset ``ds``, which they require, encoded
    by ``enc`` unless its cached encodings, of shape (len(ds), D), are
    passed.  ``misleading`` also takes the rows' cached (N, L) class
    ``scores`` against ``model`` (``misleading_scores``' ``sims``); the
    other detectors ignore them.
    """
    if strategy not in REGEN_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         f"{REGEN_STRATEGIES}")
    if strategy == "insignificant":
        return select_insignificant(model, rate)
    if ds is None:
        raise ValueError(f"strategy={strategy} needs a dataset")
    if encodings is not None and np.shape(encodings) != (len(ds), enc.dim):
        raise ValueError(f"encodings has shape {np.shape(encodings)}, "
                         f"expected {(len(ds), enc.dim)}")
    if strategy == "misleading":
        return select_misleading(
            misleading_scores(model, enc, ds, encodings, scores), rate)
    return select_domain_variant(
        domain_variance(domain_models(enc, ds, encodings)), rate)
