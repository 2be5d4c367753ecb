"""Training: single-pass bundling, similarity-weighted adaptive epochs, and
the regenerate-retrain loop.

A training run is (rounds + 1) segments of ``epochs_per_round`` adaptive
epochs; after each segment except the last, the configured detector selects
dimensions to regenerate, the encoder redraws them, the class entries at
those dimensions are reset to zero (their old values describe the discarded
bases), and the cached training encodings are refreshed in place via
reencode_dims.  Only the training rows are cached: validation runs through
``inference.topk_accuracy``, so through ``score_queries`` block by block as
eval does.  An encoding that overflows raises ValueError naming its row: a
training row when the rows are first encoded, a validation row ("validation
sample i") at the end of the first segment.

Updates are mispredict-only and similarity-weighted: for a sample of class y
encoded as H with scores delta and top-1 prediction p != y,

    C_y += eta * (1 - delta_y) * H
    C_p -= eta * (1 - delta_p) * H

so near-duplicates of already-learned patterns (delta close to 1) contribute
almost nothing.  Samples are visited in dataset order unless the seeded
shuffle flag is set.  Validation top-1 accuracy is measured after each
segment, before any regeneration; early stopping fires when it fails to
improve by more than 1e-4 for ``patience`` consecutive segments
(patience=0 disables).  An update that leaves a class norm non-finite
raises ArithmeticError naming the segment and the epoch.  ``train``
returns a JSON-ready record per epoch, per round (with its plan's size
against floor(rate * D)) and per timed step of a round's end, then a summary.

``train`` caches the class scores of every training row, and which rows
are fresh.  An update or a non-empty regeneration makes every row stale;
nothing else changes a score, so a fresh row is exact.  A stale row is
scored when read, at most ``encoder.BLOCK_ROWS`` rows per batched call
(bit-identical to one row at a time).  The pass reads blocks that start at
one row, double up to ``BLOCK_ROWS`` while their rows predict right, and go
back to one row after each update (made from the first mispredict's cached
scores); once every training row is fresh, one ``argmax`` ranks the rest
of the epoch.  The ``misleading`` detector reads the cache too.
Validation keeps only its accuracy: its rows go stale together, so it
scores them all again only after an update or a non-empty regeneration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analysis import _accumulate, plan_regeneration, plan_size
from .data import remap_labels
from .encoder import (BLOCK_ROWS, encode_batch, init_encoder, reencode_dims,
                      regenerate_dims)
from .inference import model_scores, row_norms, topk_accuracy
from .model import ClassModel, Dataset, EncoderState, TRAIN_STRATEGIES
from .rng import check_integer, check_real, check_seed

EARLY_STOP_MIN_DELTA = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    dim: int
    eta: float = 0.05
    epochs_per_round: int = 1
    rounds: int = 0
    regen_rate: float = 0.0
    strategy: str = "none"
    patience: int = 0  # 0 disables early stopping
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if check_integer(self.dim, "dim") < 1:
            raise ValueError("dim must be at least 1")
        if not 0.0 < check_real(self.eta, "eta") < np.inf:
            raise ValueError("eta must be positive and finite")
        if check_integer(self.epochs_per_round, "epochs_per_round") < 1:
            raise ValueError("epochs_per_round must be at least 1")
        if check_integer(self.rounds, "rounds") < 0:
            raise ValueError("rounds must be non-negative")
        if not 0.0 <= check_real(self.regen_rate, "regen_rate") <= 1.0:
            raise ValueError("regen_rate must lie in [0, 1]")
        if self.strategy not in TRAIN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {TRAIN_STRATEGIES}")
        if check_integer(self.patience, "patience") < 0:
            raise ValueError("patience must be non-negative")
        check_seed(self.seed)
        if not isinstance(self.shuffle, bool):
            raise ValueError(f"shuffle must be a bool, got {self.shuffle!r}")


def train(cfg: TrainConfig, train_ds: Dataset,
          valid_ds: Dataset) -> tuple[EncoderState, ClassModel, list[dict]]:
    """Run the full regenerate-retrain schedule.

    Returns the final encoder, the model and the run's records: JSON-ready
    dicts keyed by ``type``, grouped in this order, each group in run order.
    Only ``wall_ms`` varies between runs of one config and datasets.

    - ``epoch``: segment, epoch, train_accuracy, updates, scored (the rows
      the pass scored), wall_ms.
    - ``round``: round, val_accuracy, regen_indices (None when no
      regeneration step ran, [] when the selector found nothing), planned
      and target (the plan's size against the floor(rate * D) the selector
      may fill; None when no step ran), scored (the stale validation rows,
      plus the stale training rows the ``misleading`` detector reads),
      wall_ms.
    - ``timing``: round, step, wall_ms; one per step of a round's end:
      ``validate`` (encoding and scoring the validation rows when they are
      stale), ``plan``, ``regenerate`` (the redraw) or ``reencode`` (the
      class reset, and the cached training encodings with their norms).
    - ``summary``, one: total_epochs, stopped_early.
    """
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise ValueError("train and validation datasets must be non-empty")
    if valid_ds.n != train_ds.n:
        raise ValueError("train and validation feature counts differ")
    valid_ds = remap_labels(valid_ds, train_ds.label_names, "the training set")
    if cfg.strategy == "domain_variant":
        if train_ds.domains is None:
            raise ValueError("strategy=domain_variant needs domain ids "
                             "on the training dataset")
        if np.unique(train_ds.domains).size < 2:
            raise ValueError("strategy=domain_variant needs at least "
                             "2 domains in the training data")

    enc = init_encoder(cfg.seed, train_ds.n, cfg.dim)
    n_train = len(train_ds)
    encs = encode_batch(enc, train_ds.features)
    norms = row_norms(encs)
    labels = train_ds.labels
    model = ClassModel(_accumulate(encs, labels, train_ds.n_classes),
                       list(train_ds.label_names))
    class_norms = row_norms(model.classes)

    # Shuffle draws come from a separate stream so they never perturb the
    # encoder's draw counter.
    shuffle_rng = (np.random.Generator(np.random.Philox(key=enc.seed + (1 << 64)))
                   if cfg.shuffle else None)

    epochs, rounds, timings = [], [], []
    best_val = -np.inf
    stale = 0
    scores = np.empty((n_train, train_ds.n_classes))
    fresh = np.zeros(n_train, dtype=bool)
    valid_fresh = False
    for segment in range(cfg.rounds + 1):
        for epoch in range(cfg.epochs_per_round):
            t0 = time.perf_counter()
            order = (shuffle_rng.permutation(n_train) if shuffle_rng is not None
                     else np.arange(n_train))
            try:  # an overflow surfaces as the pass's non-finite norm
                with np.errstate(over="ignore", invalid="ignore"):
                    acc, updates, scored = _adaptive_pass(
                        model.classes, class_norms, encs, norms, labels,
                        order, cfg.eta, scores, fresh)
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"segment {segment}, epoch {epoch}: {exc}") from None
            if updates:  # the pass marks only its own rows stale
                valid_fresh = False
            epochs.append({"type": "epoch", "segment": segment,
                           "epoch": epoch, "train_accuracy": acc,
                           "updates": updates, "scored": scored,
                           "wall_ms": (time.perf_counter() - t0) * 1e3})

        clock = [("", time.perf_counter())]  # (step, its end) in order
        scored = 0
        if not valid_fresh:  # else val_acc stands from the last validation
            try:
                val_acc = topk_accuracy(model, enc, valid_ds, 1)
            except ValueError as exc:  # an overflow, naming a validation row
                raise ValueError(f"validation {exc}") from None
            scored, valid_fresh = len(valid_ds), True
        if val_acc > best_val + EARLY_STOP_MIN_DELTA:
            best_val = val_acc
            stale = 0
        else:
            stale += 1
        stopping = cfg.patience > 0 and stale >= cfg.patience
        clock.append(("validate", time.perf_counter()))

        regen_indices = planned = target = None
        if not stopping and segment < cfg.rounds and cfg.strategy != "none":
            sims = None
            if cfg.strategy == "misleading":
                scored += _score_stale(model.classes, class_norms, encs,
                                       norms, scores, fresh,
                                       np.arange(n_train))
                sims = scores
            plan = plan_regeneration(cfg.strategy, cfg.regen_rate, model,
                                     enc, train_ds, encs, sims)
            regen_indices = plan.indices.tolist()
            planned = len(regen_indices)
            target = plan_size(cfg.regen_rate, cfg.dim)
            clock.append(("plan", time.perf_counter()))
            enc = regenerate_dims(enc, plan)
            clock.append(("regenerate", time.perf_counter()))
            if plan.indices.size:
                model.classes[:, plan.indices] = 0.0
                class_norms = row_norms(model.classes)
                fresh[:] = False
                valid_fresh = False
                reencode_dims(enc, train_ds.features, encs, plan, inplace=True)
                norms = row_norms(encs)
                clock.append(("reencode", time.perf_counter()))
        timings += [{"type": "timing", "round": segment, "step": step,
                     "wall_ms": (end - start) * 1e3}
                    for (_, start), (step, end) in zip(clock, clock[1:])]
        rounds.append({"type": "round", "round": segment,
                       "val_accuracy": val_acc,
                       "regen_indices": regen_indices, "planned": planned,
                       "target": target, "scored": scored,
                       "wall_ms": (time.perf_counter() - clock[0][1]) * 1e3})
        if stopping:
            break
    summary = {"type": "summary", "total_epochs": len(epochs),
               "stopped_early": stopping}
    return enc, model, epochs + rounds + timings + [summary]


def _score_stale(classes: np.ndarray, class_norms: np.ndarray,
                 encodings: np.ndarray, sample_norms: np.ndarray,
                 scores: np.ndarray, fresh: np.ndarray,
                 rows: np.ndarray) -> int:
    """Score the stale ``rows`` into the cache, at most BLOCK_ROWS per
    call, and mark them fresh.  Returns how many rows were scored."""
    stale = rows[~fresh[rows]]
    for start in range(0, stale.size, BLOCK_ROWS):
        batch = stale[start:start + BLOCK_ROWS]
        scores[batch] = model_scores(classes, class_norms, encodings[batch],
                                     sample_norms[batch, None])
    fresh[stale] = True
    return stale.size


def _adaptive_pass(classes: np.ndarray, class_norms: np.ndarray,
                   encodings: np.ndarray, sample_norms: np.ndarray,
                   labels: np.ndarray, order: np.ndarray, eta: float,
                   scores: np.ndarray,
                   fresh: np.ndarray) -> tuple[float, int, int]:
    """Sequential similarity-weighted updates; mutates classes, class_norms
    and the score cache (scores, fresh).  Returns the pre-update prediction
    accuracy, the number of updates and the number of rows scored."""
    updates, scored, pos, block = 0, 0, 0, 1
    while pos < order.shape[0]:
        if fresh.all():  # nothing left to score: rank the rest at once
            block = order.shape[0]
        rows = order[pos:pos + block]
        scored += _score_stale(classes, class_norms, encodings, sample_norms,
                               scores, fresh, rows)
        # argmax keeps the first max on ties
        wrong = np.flatnonzero(scores[rows].argmax(axis=1) != labels[rows])
        if not wrong.size:
            pos += rows.size
            block = min(2 * block, BLOCK_ROWS)
            continue
        i = rows[wrong[0]]
        pos += int(wrong[0]) + 1
        h, s = encodings[i], scores[i]
        y, pred = int(labels[i]), int(s.argmax())
        classes[y] += eta * (1.0 - s[y]) * h
        classes[pred] -= eta * (1.0 - s[pred]) * h
        class_norms[[y, pred]] = row_norms(classes[[y, pred]])
        fresh[:] = False
        updates, block = updates + 1, 1
        # A finite norm is below 1.4e154, so the sum is finite iff both are.
        if not class_norms[y] + class_norms[pred] < np.inf:
            raise ArithmeticError(f"non-finite class norm at update {updates}")
    return (order.shape[0] - updates) / order.shape[0], updates, scored
