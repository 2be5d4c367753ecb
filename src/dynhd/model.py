"""Shared domain types: encoder state, class model, regeneration plans,
datasets, and the model file format.

Feature vectors and hypervectors are plain float64 numpy arrays; the types
here carry structured state and its invariants.  All reals are 64-bit
throughout.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .rng import check_seed

REGEN_STRATEGIES = ("insignificant", "misleading", "domain_variant")
TRAIN_STRATEGIES = ("none",) + REGEN_STRATEGIES

MODEL_FILE_VERSION = 4

# The top-level keys of a model file; "normalizer" is optional.
MODEL_FILE_KEYS = ("version", "n", "D", "seed", "regen_history", "labels",
                   "classes", "normalizer")


# JSON value kinds, checked by exact Python type, so a JSON boolean is
# neither an integer nor a number.
JSON_KINDS = {"boolean": (bool,), "integer": (int,), "number": (int, float),
              "string": (str,), "object": (dict,), "array": (list,)}

# Longest repr of an offending value that an error message echoes in full.
REPR_CHARS = 80


def _short_repr(value) -> str:
    """repr(value), cut to REPR_CHARS characters plus "..." when longer."""
    text = repr(value)
    return text if len(text) <= REPR_CHARS else text[:REPR_CHARS] + "..."


def check_index_set(name: str, entry, dim: int, empty=False) -> np.ndarray:
    """``entry`` as int64 indices, the rule of every index set (a plan's, a
    replay log entry's); a ValueError names it ``name`` unless it is a
    strictly increasing 1-D sequence of integers in [0, dim), non-empty
    unless ``empty``."""
    idx = np.asarray(entry)
    if (idx.ndim != 1 or idx.dtype.kind not in "iu"
            or (idx.size == 0 and not empty)
            or (idx.size and (idx[0] < 0 or idx[-1] >= dim))
            or np.any(idx[1:] <= idx[:-1])):
        raise ValueError(f"{name} must be a {'' if empty else 'non-empty, '}"
                         "strictly increasing list of integers in "
                         f"[0, {dim}), got {_short_repr(entry)}")
    return idx.astype(np.int64)


def check_json_kind(name: str, value, kind: str) -> None:
    """Raise ValueError unless value is of the JSON kind: a JSON_KINDS key,
    or "<key> array" for a list of that kind."""
    if kind.endswith(" array") and type(value) is list:
        item_types = JSON_KINDS[kind.removesuffix(" array")]
        if not set(map(type, value)) <= set(item_types):
            i = next(i for i, v in enumerate(value)
                     if type(v) not in item_types)  # name the entry
            raise ValueError(f"{name} must be a JSON {kind}, "
                             f"got {_short_repr(value[i])} at index {i}")
    elif kind.endswith(" array") or type(value) not in JSON_KINDS[kind]:
        raise ValueError(f"{name} must be a JSON {kind}, "
                         f"got {_short_repr(value)}")


@dataclass
class EncoderState:
    """Random projection: D Gaussian base rows plus D phase offsets.

    ``seed`` and ``draw_counter`` pin the position in the underlying uniform
    stream (see :mod:`dynhd.rng`); regeneration continues from
    ``draw_counter``.  ``regen_history`` is the log of regenerated index
    sets, one int64 array per non-empty plan, in order: with the seed and
    the shape it determines the bases, phases and ``draw_counter`` (see
    ``encoder.replay_encoder``), and it is what a model file stores.
    Building one raises ValueError unless ``seed`` passes
    ``rng.check_seed``; it is stored as an int.
    """

    bases: np.ndarray  # (D, n), standard-normal rows
    phases: np.ndarray  # (D,), each in [0, 2*pi)
    seed: int
    draw_counter: int
    regen_history: list[np.ndarray]

    def __post_init__(self):
        self.seed = check_seed(self.seed)

    @property
    def dim(self) -> int:
        return self.bases.shape[0]

    @property
    def n_features(self) -> int:
        return self.bases.shape[1]

    def copy(self) -> "EncoderState":
        return EncoderState(self.bases.copy(), self.phases.copy(),
                            self.seed, self.draw_counter,
                            [idx.copy() for idx in self.regen_history])


@dataclass
class ClassModel:
    """L class hypervectors; ``labels[l]`` names row l of ``classes``.

    Rows are stored unnormalized; norms are computed on demand.  Building
    one raises ValueError unless ``classes`` is 2-D with one unique label
    per row, and its entries and each row's squared norm are finite.
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

    def __post_init__(self):
        if self.classes.ndim != 2:
            raise ValueError("classes must be a 2-D array")
        if len(self.labels) != self.classes.shape[0]:
            raise ValueError("labels length must equal the number of classes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if not np.isfinite(self.classes).all():
            raise ValueError("class hypervectors contain non-finite entries")
        with np.errstate(over="ignore"):  # finite entries can overflow
            bad = ~np.isfinite(np.vecdot(self.classes, self.classes))
        if bad.any():
            raise ValueError(f"class row(s) {np.flatnonzero(bad).tolist()} "
                             "have non-finite norms")


@dataclass(frozen=True)
class RegenPlan:
    """Dimensions selected for regeneration.

    ``scores`` is the full 1-D per-dimension selection score vector, oriented
    so that higher means stronger evidence for regeneration (variance-based
    scores are negated to fit); its length is the encoder's D.  ``indices``,
    stored as int64, may be empty but must pass ``check_index_set`` for
    that D.  Building a plan raises ValueError on a broken rule.
    """

    indices: np.ndarray  # (k,) int64, strictly increasing, each in [0, D)
    scores: np.ndarray  # (D,) float64
    strategy: str
    rate: float

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"plan scores must be 1-D, got shape "
                             f"{scores.shape}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "indices", check_index_set(
            "plan indices", self.indices, scores.shape[0], empty=True))
        if self.strategy not in REGEN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")


@dataclass
class Dataset:
    """Columnar sample store: (N, n) features, dense label ids, optional
    dense domain ids, plus the id -> name tables.

    Construction raises ValueError on the first broken invariant: finite 2-D
    features; one label (and domain, if any) per sample, each within unique
    names; ``domains`` and ``domain_names`` both present or both absent.
    """

    features: np.ndarray  # (N, n) float64
    labels: np.ndarray  # (N,) int64
    label_names: list[str]
    domains: Optional[np.ndarray] = None  # (N,) int64
    domain_names: Optional[list[str]] = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array, "
                             f"got shape {self.features.shape}")
        bad = ~np.isfinite(self.features).all(axis=1)
        if bad.any():
            raise ValueError("non-finite feature in sample(s) "
                             f"{np.flatnonzero(bad).tolist()}")
        self.labels = _check_ids("label", self.labels, self.label_names,
                                 len(self))
        if (self.domains is None) != (self.domain_names is None):
            raise ValueError("domains and domain_names must both be present "
                             "or both absent")
        if self.domains is not None:
            self.domains = _check_ids("domain", self.domains,
                                      self.domain_names, len(self))

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
        return replace(self, features=self.features[idx],
                       labels=self.labels[idx],
                       domains=None if self.domains is None
                       else self.domains[idx])


def _check_ids(kind: str, ids, names: list[str], count: int) -> np.ndarray:
    """``ids`` as int64: one per sample, each within unique ``names``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (count,):
        raise ValueError(f"{kind}s length must equal the sample count")
    out = (ids < 0) | (ids >= len(names))
    if out.any():
        raise ValueError(f"{kind} out of set in sample(s) "
                         f"{np.flatnonzero(out).tolist()}")
    if len(set(names)) != len(names):
        raise ValueError(f"{kind} names must be unique")
    return ids


# ---------------------------------------------------------------------------
# Model file format (version 4): one JSON document holding the encoder and
# the class model.  The encoder is stored as its replay log: ``n``, ``D``,
# ``seed`` and ``regen_history``, the regenerated index sets in order, from
# which loading rebuilds the bases, phases and draw counter bit-identically.
# Binary values are base64 strings, standard alphabet, no line breaks.  Each
# ``regen_history`` entry is its round's D-bit membership mask, packed
# little-endian by bit (index i is bit i % 8 of byte i // 8) into ceil(D/8)
# bytes, the padding bits clear.  Float arrays (``classes``, row-major, and
# the optional ``normalizer``'s per-feature z-score ``mean`` and ``std``,
# applied to inputs before encoding) are their little-endian float64 bytes,
# so every bit round-trips.

def save_model(path: str, encoder: EncoderState, model: ClassModel,
               normalizer=None) -> None:
    """Write a model file atomically (temp file + rename); the encoder is
    stored as its ``regen_history``."""
    if encoder.dim != model.dim:
        raise ValueError("encoder and model dimensionality differ")
    if normalizer is not None:
        normalizer.check(encoder.n_features)
    doc = {
        "version": MODEL_FILE_VERSION,
        "n": encoder.n_features,
        "D": encoder.dim,
        "seed": encoder.seed,
        "regen_history": [_pack_mask(i, idx, encoder.dim)
                          for i, idx in enumerate(encoder.regen_history)],
        "labels": list(model.labels),
        "classes": _pack(model.classes),
    }
    if normalizer is not None:
        doc["normalizer"] = {"mean": _pack(normalizer.mean),
                             "std": _pack(normalizer.std)}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_model(path: str, n_features: Optional[int] = None):
    """Read a model file; returns (EncoderState, ClassModel, normalizer).

    Only version 4 is read, and a key outside ``MODEL_FILE_KEYS`` is
    rejected.  Each ``regen_history`` entry must be a base64 string of
    exactly ceil(D/8) bytes whose mask sets at least one bit and none at D
    or above; its set bits, ascending, are the round's indices, which are
    replayed.  ``normalizer`` is a NormalizationStats or None.  Any
    malformed content raises ValueError prefixed ``malformed model file
    <path>:``.  With ``n_features``, the feature count of the data the model
    is for, a file whose ``n`` differs raises ValueError naming ``n`` before
    the encoder is rebuilt.
    """
    with open(path, "r", encoding="utf-8") as fh, _malformed(path):
        doc = json.load(fh)
    with _malformed(path):
        version = doc["version"]
        check_json_kind("version", version, "integer")
        if version != MODEL_FILE_VERSION:
            raise ValueError(f"unsupported model file version {version}")
        unknown = sorted(set(doc) - set(MODEL_FILE_KEYS))
        if unknown:
            raise ValueError(f"unknown key(s) {unknown}; expected a subset "
                             f"of {sorted(MODEL_FILE_KEYS)}")
        for key in ("n", "D", "seed"):
            check_json_kind(key, doc[key], "integer")
    n, dim = doc["n"], doc["D"]
    if n_features is not None and n != n_features:
        raise ValueError(f"model file {path} has n={n}, but the data has "
                         f"{n_features} features")
    with _malformed(path):
        check_json_kind("labels", doc["labels"], "string array")
        labels = doc["labels"]
        classes = _unpack("classes", doc["classes"], len(labels) * dim)
        model = ClassModel(classes.reshape(len(labels), dim), labels)
        normalizer = None
        if "normalizer" in doc:
            from .data import NormalizationStats  # deferred: data imports model

            norm = doc["normalizer"]
            # any length: check(n) below names a wrong feature count
            normalizer = NormalizationStats(
                *(_unpack(f"normalizer.{key}", norm[key])
                  for key in ("mean", "std")))
            normalizer.check(n)
        from .encoder import replay_encoder  # deferred: encoder imports model

        check_json_kind("regen_history", doc["regen_history"], "array")
        history = [_unpack_mask(f"regen_history[{i}]", entry, dim)
                   for i, entry in enumerate(doc["regen_history"])]
        try:
            encoder = replay_encoder(doc["seed"], n, dim, history)
        except MemoryError:  # nothing else in the file bounds n * D
            raise ValueError(f"n={n} and D={dim} need more memory than is "
                             "available") from None
    return encoder, model, normalizer


def _b64decode(name: str, text) -> bytes:
    """The bytes a base64 string holds; ``name`` labels the errors."""
    check_json_kind(name, text, "string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name} is not base64: {exc}") from None


def _pack(array) -> str:
    """Base64 of the array's row-major little-endian float64 bytes."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode()


def _unpack(name: str, text, count: Optional[int] = None) -> np.ndarray:
    """The 1-D float64 array a ``_pack`` string holds: ``count`` values, or
    any whole number of them when ``count`` is None."""
    raw = _b64decode(name, text)
    if count is None and len(raw) % 8:
        raise ValueError(f"{name} must hold whole float64 values, got "
                         f"{len(raw)} bytes")
    if count is not None and len(raw) != 8 * count:
        raise ValueError(f"{name} must hold {count} float64 values "
                         f"({8 * count} bytes), got {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _pack_mask(i: int, indices, dim: int) -> str:
    """Base64 of the little-endian packed ``dim``-bit mask of
    ``regen_history[i]``, which ``check_index_set`` must accept: a mask
    cannot keep an order or a repeat."""
    mask = np.zeros(dim, dtype=bool)
    mask[check_index_set(f"regen_history[{i}]", indices, dim)] = True
    return base64.b64encode(np.packbits(mask, bitorder="little")).decode()


def _unpack_mask(name: str, text, dim: int) -> np.ndarray:
    """The ascending int64 indices a ``_pack_mask`` string holds."""
    raw = _b64decode(name, text)
    nbytes = -(-dim // 8)
    expected = f"{name} must be a non-empty {dim}-bit mask ({nbytes} bytes)"
    if len(raw) != nbytes:
        raise ValueError(f"{expected}, got {len(raw)} bytes")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    if bits[dim:].any():
        raise ValueError(f"{expected}, got bit "
                         f"{dim + int(np.argmax(bits[dim:]))} set")
    indices = np.flatnonzero(bits).astype(np.int64, copy=False)
    if indices.size == 0:
        raise ValueError(f"{expected}, got no bit set")
    return indices


@contextlib.contextmanager
def _malformed(path: str):
    """Re-raise what a malformed document raises as one ValueError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename,
    so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it a new file's mode.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
