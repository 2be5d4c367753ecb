"""Shared domain types: encoder state, class model, regeneration plans,
datasets, and the model file format.

Feature vectors and hypervectors are plain float64 numpy arrays; the types
here carry structured state and its invariants.  All reals are 64-bit
throughout.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .rng import TWO_PI

# Type aliases for readability; both are 1-D float64 arrays.
FeatureVector = np.ndarray
Hypervector = np.ndarray

REGEN_STRATEGIES = ("insignificant", "misleading", "domain_variant")
TRAIN_STRATEGIES = ("none",) + REGEN_STRATEGIES

MODEL_FILE_VERSION = 2


def as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


# JSON value kinds, checked by exact Python type, so a JSON boolean is
# neither an integer nor a number.
JSON_KINDS = {"boolean": (bool,), "integer": (int,), "number": (int, float),
              "string": (str,), "object": (dict,), "array": (list,)}


def check_json_kind(name: str, value, kind: str) -> None:
    """Raise ValueError unless value is of the JSON kind: a JSON_KINDS key,
    or "<key> array" for a list of that kind."""
    if kind.endswith(" array") and type(value) is list:
        item_types = JSON_KINDS[kind.removesuffix(" array")]
        if not set(map(type, value)) <= set(item_types):
            i = next(i for i, v in enumerate(value)
                     if type(v) not in item_types)  # name the entry
            raise ValueError(f"{name} must be a JSON {kind}, "
                             f"got {value[i]!r} at index {i}")
    elif kind.endswith(" array") or type(value) not in JSON_KINDS[kind]:
        raise ValueError(f"{name} must be a JSON {kind}, got {value!r}")


@dataclass
class EncoderState:
    """Random projection: D Gaussian base rows plus D phase offsets.

    ``seed`` and ``draw_counter`` pin the position in the underlying uniform
    stream (see :mod:`dynhd.rng`); regeneration continues from
    ``draw_counter``.  ``regen_history`` is the log of regenerated index
    sets, one int64 array per non-empty plan, in order: with the seed and
    the shape it determines the bases, phases and ``draw_counter`` (see
    ``encoder.replay_encoder``), and it is what a model file stores.  It is
    None when unknown (an encoder read from a version-1 file or built by
    hand), and such an encoder cannot be saved.
    """

    bases: np.ndarray  # (D, n), standard-normal rows
    phases: np.ndarray  # (D,), each in [0, 2*pi)
    seed: int
    draw_counter: int
    regen_history: Optional[list[np.ndarray]] = None

    @property
    def dim(self) -> int:
        return self.bases.shape[0]

    @property
    def n_features(self) -> int:
        return self.bases.shape[1]

    def copy(self) -> "EncoderState":
        history = (None if self.regen_history is None
                   else [idx.copy() for idx in self.regen_history])
        return EncoderState(self.bases.copy(), self.phases.copy(),
                            self.seed, self.draw_counter, history)

    def check(self) -> None:
        """Raise ValueError on any violated invariant."""
        if self.bases.ndim != 2 or self.phases.ndim != 1:
            raise ValueError("bases must be 2-D and phases 1-D")
        if self.phases.shape[0] != self.bases.shape[0]:
            raise ValueError("phases length must equal the number of base rows")
        if not np.isfinite(self.bases).all():
            raise ValueError("bases contain non-finite entries")
        if not ((self.phases >= 0.0) & (self.phases < TWO_PI)).all():
            raise ValueError("phases must lie in [0, 2*pi)")  # NaN fails too
        if self.draw_counter < 0:
            raise ValueError("draw_counter must be non-negative")


@dataclass
class ClassModel:
    """L class hypervectors; ``labels[l]`` names row l of ``classes``.

    Rows are stored unnormalized; norms are computed on demand.
    """

    classes: np.ndarray  # (L, D)
    labels: list[str]

    @property
    def dim(self) -> int:
        return self.classes.shape[1]

    @property
    def n_classes(self) -> int:
        return self.classes.shape[0]

    def copy(self) -> "ClassModel":
        return ClassModel(self.classes.copy(), list(self.labels))

    def check(self) -> None:
        if self.classes.ndim != 2:
            raise ValueError("classes must be a 2-D array")
        if len(self.labels) != self.classes.shape[0]:
            raise ValueError("labels length must equal the number of classes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if not np.isfinite(self.classes).all():
            raise ValueError("class hypervectors contain non-finite entries")


@dataclass(frozen=True)
class RegenPlan:
    """Dimensions selected for regeneration.

    ``indices`` is strictly increasing; ``scores`` is the full per-dimension
    selection score vector, oriented so that higher means stronger evidence
    for regeneration (variance-based scores are negated to fit).
    """

    indices: np.ndarray  # (k,) int64, strictly increasing, each in [0, D)
    scores: np.ndarray  # (D,) float64
    strategy: str
    rate: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scores",
                           np.asarray(self.scores, dtype=np.float64))
        if self.strategy not in REGEN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.scores.shape[0]:
                raise ValueError("plan indices out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("plan indices must be strictly increasing")


@dataclass
class Dataset:
    """Columnar sample store: (N, n) features, dense label ids, optional
    dense domain ids, plus the id -> name tables."""

    features: np.ndarray  # (N, n) float64
    labels: np.ndarray  # (N,) int64
    label_names: list[str]
    domains: Optional[np.ndarray] = None  # (N,) int64
    domain_names: Optional[list[str]] = None

    def __post_init__(self):
        self.features = as_float_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.domains is not None:
            self.domains = np.asarray(self.domains, dtype=np.int64)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        doms = None if self.domains is None else self.domains[idx]
        return Dataset(self.features[idx], self.labels[idx],
                       list(self.label_names), doms,
                       None if self.domain_names is None
                       else list(self.domain_names))


@dataclass
class ValidationReport:
    """Per-invariant findings from validate_dataset; empty means valid."""

    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_dataset(d: Dataset) -> ValidationReport:
    """Check dataset invariants without mutating; failures are collected,
    never raised."""
    report = ValidationReport()
    fail = report.failures.append

    if d.features.ndim != 2:
        fail("features must be a 2-D array")
        return report
    bad = ~np.isfinite(d.features)
    if bad.any():
        rows = np.unique(np.nonzero(bad)[0])
        fail(f"non-finite feature in sample(s) {rows.tolist()}")
    if d.labels.shape != (len(d),):
        fail("labels length must equal the sample count")
    else:
        out = (d.labels < 0) | (d.labels >= len(d.label_names))
        if out.any():
            fail(f"label out of set in sample(s) "
                 f"{np.nonzero(out)[0].tolist()}")
    if len(set(d.label_names)) != len(d.label_names):
        fail("label names must be unique")
    if (d.domains is None) != (d.domain_names is None):
        fail("domains and domain_names must both be present or both absent")
    if d.domains is not None and d.domain_names is not None:
        if d.domains.shape != (len(d),):
            fail("domains length must equal the sample count")
        else:
            out = (d.domains < 0) | (d.domains >= len(d.domain_names))
            if out.any():
                fail(f"domain out of set in sample(s) "
                     f"{np.nonzero(out)[0].tolist()}")
        if len(set(d.domain_names)) != len(d.domain_names):
            fail("domain names must be unique")
    return report


# ---------------------------------------------------------------------------
# Model file format: one JSON document holding the encoder and the class
# model.  Version 2 stores the encoder as its replay log: ``n``, ``D``,
# ``seed`` and ``regen_history``, the regenerated index sets in order, from
# which loading rebuilds the bases, phases and draw counter bit-identically.
# Version 1 stored ``bases``, ``phases`` and ``draw_counter`` themselves; it
# is still read, but no longer written.  Numeric arrays are row-major lists
# of Python floats, which repr round-trips exactly.  ``normalizer`` is
# optional per-feature z-score stats applied to inputs before encoding.

def save_model(path: str, encoder: EncoderState, model: ClassModel,
               normalizer=None) -> None:
    """Write a version-2 model file atomically (temp file + rename).

    The encoder is stored as its ``regen_history``; an encoder whose history
    is unknown (None) raises ValueError.
    """
    if encoder.dim != model.dim:
        raise ValueError("encoder and model dimensionality differ")
    if encoder.regen_history is None:
        raise ValueError("cannot save an encoder whose regeneration history "
                         "is unknown (read from a version-1 model file or "
                         "built by hand)")
    doc = {
        "version": MODEL_FILE_VERSION,
        "n": encoder.n_features,
        "D": encoder.dim,
        "seed": encoder.seed,
        "regen_history": [idx.tolist() for idx in encoder.regen_history],
        "labels": list(model.labels),
        "classes": model.classes.ravel().tolist(),
    }
    if normalizer is not None:
        doc["normalizer"] = {"mean": np.asarray(normalizer.mean).tolist(),
                             "std": np.asarray(normalizer.std).tolist()}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_model(path: str, n_features: Optional[int] = None):
    """Read a version-2 or version-1 model file; returns (EncoderState,
    ClassModel, normalizer).

    A version-2 file's ``regen_history`` is checked (a JSON array of
    non-empty, strictly increasing integer arrays within [0, D)) and
    replayed; the encoder read from a version-1 file has no history.
    ``normalizer`` is a NormalizationStats or None.  Any malformed content
    raises ValueError prefixed ``malformed model file <path>:``.  With
    ``n_features``, the feature count of the data the model is for, a file
    whose ``n`` differs raises ValueError naming ``n`` before the encoder is
    rebuilt.
    """
    with open(path, "r", encoding="utf-8") as fh, _malformed(path):
        doc = json.load(fh)
    with _malformed(path):
        version = doc["version"]
        check_json_kind("version", version, "integer")
        if version not in (1, MODEL_FILE_VERSION):
            raise ValueError(f"unsupported model file version {version}")
        for key in ("n", "D", "seed"):
            check_json_kind(key, doc[key], "integer")
    n, dim = doc["n"], doc["D"]
    if n_features is not None and n != n_features:
        raise ValueError(f"model file {path} has n={n}, but the data has "
                         f"{n_features} features")
    with _malformed(path):
        check_json_kind("labels", doc["labels"], "string array")
        check_json_kind("classes", doc["classes"], "number array")
        labels = doc["labels"]
        classes = np.asarray(doc["classes"],
                             dtype=np.float64).reshape(len(labels), dim)
        model = ClassModel(classes, labels)
        model.check()
        normalizer = None
        if "normalizer" in doc:
            from .data import NormalizationStats  # deferred: data imports model

            norm = doc["normalizer"]
            for key in ("mean", "std"):
                check_json_kind(f"normalizer.{key}", norm[key], "number array")
            normalizer = NormalizationStats(norm["mean"], norm["std"])
            normalizer.check(n)
        encoder = (_read_v1_encoder(doc, n, dim) if version == 1
                   else _replay_v2_encoder(doc, n, dim))
    return encoder, model, normalizer


@contextlib.contextmanager
def _malformed(path: str):
    """Re-raise what a malformed document raises as one ValueError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc


def _read_v1_encoder(doc: dict, n: int, dim: int) -> EncoderState:
    check_json_kind("draw_counter", doc["draw_counter"], "integer")
    for key in ("bases", "phases"):
        check_json_kind(key, doc[key], "number array")
    bases = np.asarray(doc["bases"], dtype=np.float64).reshape(dim, n)
    phases = np.asarray(doc["phases"], dtype=np.float64)
    encoder = EncoderState(bases, phases, doc["seed"], doc["draw_counter"])
    encoder.check()
    return encoder


def _replay_v2_encoder(doc: dict, n: int, dim: int) -> EncoderState:
    from .encoder import replay_encoder  # deferred: encoder imports model

    history = doc["regen_history"]
    check_json_kind("regen_history", history, "array")
    for i, entry in enumerate(history):
        check_json_kind(f"regen_history[{i}]", entry, "integer array")
    try:
        return replay_encoder(doc["seed"], n, dim, history)
    except MemoryError:  # nothing else in a v2 file bounds n * D
        raise ValueError(f"n={n} and D={dim} need more memory than is "
                         "available") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename,
    so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
