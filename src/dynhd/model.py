"""Shared domain types: encoder state, class model, regeneration plans,
datasets, and the model file format.

Feature vectors and hypervectors are plain float64 numpy arrays; the types
here carry structured state and its invariants.  All reals are 64-bit
throughout.
"""

from __future__ import annotations

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

MODEL_FILE_VERSION = 1


def as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


# JSON value kinds, checked by exact Python type, so a JSON boolean is
# neither an integer nor a number.
JSON_KINDS = {"boolean": (bool,), "integer": (int,), "number": (int, float),
              "string": (str,), "object": (dict,)}


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
    ``draw_counter``, so a serialized encoder replays bit-identically.
    """

    bases: np.ndarray  # (D, n), standard-normal rows
    phases: np.ndarray  # (D,), each in [0, 2*pi)
    seed: int
    draw_counter: int

    @property
    def dim(self) -> int:
        return self.bases.shape[0]

    @property
    def n_features(self) -> int:
        return self.bases.shape[1]

    def copy(self) -> "EncoderState":
        return EncoderState(self.bases.copy(), self.phases.copy(),
                            self.seed, self.draw_counter)

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
# model.  Numeric arrays are row-major lists of Python floats, which repr
# round-trips exactly.  ``normalizer`` is optional per-feature z-score stats
# applied to inputs before encoding.

def save_model(path: str, encoder: EncoderState, model: ClassModel,
               normalizer=None) -> None:
    """Write the model file atomically (temp file + rename)."""
    if encoder.dim != model.dim:
        raise ValueError("encoder and model dimensionality differ")
    doc = {
        "version": MODEL_FILE_VERSION,
        "n": encoder.n_features,
        "D": encoder.dim,
        "seed": encoder.seed,
        "draw_counter": encoder.draw_counter,
        "bases": encoder.bases.ravel().tolist(),
        "phases": encoder.phases.tolist(),
        "labels": list(model.labels),
        "classes": model.classes.ravel().tolist(),
    }
    if normalizer is not None:
        doc["normalizer"] = {"mean": np.asarray(normalizer.mean).tolist(),
                             "std": np.asarray(normalizer.std).tolist()}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_model(path: str):
    """Read a model file; returns (EncoderState, ClassModel, normalizer).

    ``normalizer`` is a NormalizationStats or None.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        version = doc["version"]
        check_json_kind("version", version, "integer")
        if version != MODEL_FILE_VERSION:
            raise ValueError(f"unsupported model file version {version}")
        for key in ("n", "D", "seed", "draw_counter"):
            check_json_kind(key, doc[key], "integer")
        check_json_kind("labels", doc["labels"], "string array")
        for key in ("bases", "phases", "classes"):
            check_json_kind(key, doc[key], "number array")
        n, dim, labels = doc["n"], doc["D"], doc["labels"]
        bases = np.asarray(doc["bases"], dtype=np.float64).reshape(dim, n)
        phases = np.asarray(doc["phases"], dtype=np.float64)
        encoder = EncoderState(bases, phases, doc["seed"],
                               doc["draw_counter"])
        classes = np.asarray(doc["classes"],
                             dtype=np.float64).reshape(len(labels), dim)
        model = ClassModel(classes, labels)
        normalizer = None
        if "normalizer" in doc:
            from .data import NormalizationStats  # deferred: data imports model

            norm = doc["normalizer"]
            for key in ("mean", "std"):
                check_json_kind(f"normalizer.{key}", norm[key], "number array")
            normalizer = NormalizationStats(norm["mean"], norm["std"])
            normalizer.check(n)
        encoder.check()
        model.check()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    return encoder, model, normalizer


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
