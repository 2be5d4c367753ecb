"""Training: single-pass bundling, similarity-weighted adaptive epochs, and
the regenerate-retrain loop.

A training run is (rounds + 1) segments of ``epochs_per_round`` adaptive
epochs; after each segment except the last, the configured detector selects
dimensions to regenerate, the encoder redraws them, the class entries at
those dimensions are reset to zero (their old values describe the discarded
bases), and cached encodings are refreshed in place via reencode_dims.

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
raises ArithmeticError naming the segment and the epoch.  Each round's
record carries its plan's size against floor(rate * D), and a timing record
per step that ran at the segment's end (validate, plan, regenerate,
reencode) gives its wall time.

The pass scores rows in blocks, one batched call per block (bit-identical
to one row at a time), and caches each row's class scores.  A block starts
at one row, doubles up to ``encoder.BLOCK_ROWS`` while its rows predict
right, and goes back to one row after each update, which is made from the
first mispredict's cached scores.  An update or a non-empty regeneration
clears the cache; nothing else changes a score, so a cached row is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import plan_regeneration, plan_size
from .data import remap_labels
from .encoder import (BLOCK_ROWS, encode_batch, init_encoder, reencode_dims,
                      regenerate_dims)
from .inference import model_scores, row_norms, topk_hits, vec_norm
from .model import ClassModel, Dataset, EncoderState, TRAIN_STRATEGIES
from .rng import check_seed

EARLY_STOP_MIN_DELTA = 1e-4


@dataclass
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

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if self.epochs_per_round < 1:
            raise ValueError("epochs_per_round must be at least 1")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not 0.0 <= self.regen_rate <= 1.0:
            raise ValueError("regen_rate must lie in [0, 1]")
        if self.strategy not in TRAIN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {TRAIN_STRATEGIES}")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        check_seed(self.seed)


@dataclass
class EpochRecord:
    segment: int
    epoch: int
    train_accuracy: float
    updates: int
    wall_ms: float


@dataclass
class RoundRecord:
    round: int
    val_accuracy: float
    # None: no regeneration step ran; []: the selector found nothing.
    regen_indices: Optional[list[int]]
    # The plan's size against the floor(rate * D) the selector may fill;
    # None when no regeneration step ran.
    planned: Optional[int]
    target: Optional[int]
    wall_ms: float


@dataclass
class TimingRecord:
    """Wall time of one step of a round's end: ``validate``, ``plan``,
    ``regenerate`` (the redraw) or ``reencode`` (the class reset, and the
    cached train and validation encodings with their norms)."""
    round: int
    step: str
    wall_ms: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    timings: list[TimingRecord] = field(default_factory=list)
    stopped_early: bool = False

    def records(self) -> list[dict]:
        """Report as JSON-ready dicts, epoch rows, round rows, timing rows,
        then a summary, in run order within each kind.  Only ``wall_ms``
        fields vary between runs of one config."""
        return ([{"type": "epoch", **vars(rec)} for rec in self.epochs]
                + [{"type": "round", **vars(rec)} for rec in self.rounds]
                + [{"type": "timing", **vars(rec)} for rec in self.timings]
                + [{"type": "summary", "total_epochs": len(self.epochs),
                    "stopped_early": self.stopped_early}])


def train(cfg: TrainConfig, train_ds: Dataset,
          valid_ds: Dataset) -> tuple[EncoderState, ClassModel, TrainReport]:
    """Run the full regenerate-retrain schedule.

    Returns the final encoder, model, and a report carrying per-epoch train
    accuracy, per-segment validation accuracy, and every regenerated index
    set.  Identical config and datasets reproduce the run bit-for-bit.
    """
    cfg.validate()
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise ValueError("train and validation datasets must be non-empty")
    if valid_ds.n != train_ds.n:
        raise ValueError("train and validation feature counts differ")
    if set(valid_ds.label_names) != set(train_ds.label_names):
        raise ValueError("train and validation label sets differ")
    valid_ds = remap_labels(valid_ds, train_ds.label_names)
    if cfg.strategy == "domain_variant":
        if train_ds.domains is None:
            raise ValueError("strategy=domain_variant needs domain ids "
                             "on the training dataset")
        if np.unique(train_ds.domains).size < 2:
            raise ValueError("strategy=domain_variant needs at least "
                             "2 domains in the training data")

    enc = init_encoder(cfg.seed, train_ds.n, cfg.dim)
    train_encs = encode_batch(enc, train_ds.features)
    valid_encs = encode_batch(enc, valid_ds.features)
    train_norms = row_norms(train_encs)
    valid_norms = row_norms(valid_encs)[:, None]
    labels = train_ds.labels
    model = ClassModel(_accumulate(train_encs, labels, train_ds.n_classes),
                       list(train_ds.label_names))
    class_norms = row_norms(model.classes)

    # Shuffle draws come from a separate stream so they never perturb the
    # encoder's draw counter.
    shuffle_rng = (np.random.Generator(np.random.Philox(key=cfg.seed + (1 << 64)))
                   if cfg.shuffle else None)

    report = TrainReport()
    best_val = -np.inf
    stale = 0
    n_train = len(train_ds)
    scores = np.empty((n_train, train_ds.n_classes))
    fresh = np.zeros(n_train, dtype=bool)
    for segment in range(cfg.rounds + 1):
        for epoch in range(cfg.epochs_per_round):
            t0 = time.perf_counter()
            order = (shuffle_rng.permutation(n_train) if shuffle_rng is not None
                     else np.arange(n_train))
            try:
                acc, updates = _adaptive_pass(
                    model.classes, class_norms, train_encs, train_norms,
                    labels, order, cfg.eta, scores, fresh)
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"segment {segment}, epoch {epoch}: {exc}") from None
            report.epochs.append(EpochRecord(segment, epoch, acc, updates,
                                             (time.perf_counter() - t0) * 1e3))

        clock = [("", time.perf_counter())]  # (step, its end) in order
        val_scores = model_scores(model.classes, class_norms, valid_encs,
                                  valid_norms)
        val_acc = topk_hits(val_scores, valid_ds.labels, 1) / len(valid_ds)
        if val_acc > best_val + EARLY_STOP_MIN_DELTA:
            best_val = val_acc
            stale = 0
        else:
            stale += 1
        stopping = cfg.patience > 0 and stale >= cfg.patience
        clock.append(("validate", time.perf_counter()))

        regen_indices = planned = target = None
        if not stopping and segment < cfg.rounds and cfg.strategy != "none":
            plan = plan_regeneration(cfg.strategy, cfg.regen_rate, model,
                                     enc, train_ds, train_encs)
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
                reencode_dims(enc, train_ds.features, train_encs, plan,
                              inplace=True)
                reencode_dims(enc, valid_ds.features, valid_encs, plan,
                              inplace=True)
                train_norms = row_norms(train_encs)
                valid_norms = row_norms(valid_encs)[:, None]
                clock.append(("reencode", time.perf_counter()))
        report.timings += [TimingRecord(segment, step, (end - start) * 1e3)
                           for (_, start), (step, end)
                           in zip(clock, clock[1:])]
        report.rounds.append(RoundRecord(
            segment, val_acc, regen_indices, planned, target,
            (time.perf_counter() - clock[0][1]) * 1e3))
        if stopping:
            report.stopped_early = True
            break
    return enc, model, report


def _accumulate(encodings: np.ndarray, labels: np.ndarray,
                n_classes: int) -> np.ndarray:
    classes = np.zeros((n_classes, encodings.shape[1]))
    for label in range(n_classes):
        rows = encodings[labels == label]
        if rows.shape[0]:
            classes[label] = rows.sum(axis=0)
    return classes


def _adaptive_pass(classes: np.ndarray, class_norms: np.ndarray,
                   encodings: np.ndarray, sample_norms: np.ndarray,
                   labels: np.ndarray, order: np.ndarray, eta: float,
                   scores: np.ndarray, fresh: np.ndarray) -> tuple[float, int]:
    """Sequential similarity-weighted updates; mutates classes, class_norms
    and the score cache (scores, fresh).  Returns the pre-update prediction
    accuracy and the number of updates."""
    updates, pos, block = 0, 0, 1
    while pos < order.shape[0]:
        rows = order[pos:pos + block]
        stale = rows[~fresh[rows]]
        if stale.size:
            scores[stale] = model_scores(classes, class_norms, encodings[stale],
                                         sample_norms[stale, None])
            fresh[stale] = True
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
        class_norms[y] = vec_norm(classes[y])
        class_norms[pred] = vec_norm(classes[pred])
        fresh[:] = False
        updates, block = updates + 1, 1
        # A finite norm is below 1.4e154, so the sum is finite iff both are.
        if not class_norms[y] + class_norms[pred] < np.inf:
            raise ArithmeticError(f"non-finite class norm at update {updates}")
    return (order.shape[0] - updates) / order.shape[0], updates


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
