"""Dataset ingestion, normalization, splits, and synthetic blob generation.

CSV files are comma-separated with a mandatory header row.  Feature columns
are every column except the label column (and the optional domain column),
taken in header order.  Label and domain strings are mapped to dense ids in
first-appearance order, and the name tables travel with the Dataset so the
same strings resolve to the same ids downstream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .model import Dataset, atomic_write_text
from .rng import check_seed

STD_FLOOR = 1e-12


@dataclass
class NormalizationStats:
    """Per-feature z-score statistics fitted on a training split.

    ``std`` is stored post-clamp (everything below STD_FLOOR is raised to
    it), so applying the stats never divides by ~0.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")

    def check(self, n: int) -> None:
        """Raise ValueError unless the stats cover n features with finite
        means and finite, positive stds."""
        if self.mean.shape != (n,):
            raise ValueError(f"normalizer has {self.mean.shape[0]} features, "
                             f"expected {n}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()
                and (self.std > 0.0).all()):
            raise ValueError("normalizer means must be finite and its stds "
                             "finite and positive")


def fit_normalizer(train: Dataset) -> NormalizationStats:
    if len(train) == 0:
        raise ValueError("cannot fit a normalizer on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population std
    return NormalizationStats(mean, np.maximum(std, STD_FLOOR))


def apply_normalizer(stats: NormalizationStats, d: Dataset) -> Dataset:
    if stats.mean.shape[0] != d.n:
        raise ValueError(f"normalizer expects {stats.mean.shape[0]} features, "
                         f"dataset has {d.n}")
    doms = None if d.domains is None else d.domains.copy()
    return Dataset((d.features - stats.mean) / stats.std, d.labels.copy(),
                   list(d.label_names), doms,
                   None if d.domain_names is None else list(d.domain_names))


def remap_labels(d: Dataset, label_names: Sequence[str]) -> Dataset:
    """Reindex the dataset's labels to match another dataset's name order."""
    target = list(label_names)
    if target == list(d.label_names):
        return d
    if set(target) != set(d.label_names):
        raise ValueError("label sets differ; cannot remap")
    lut = np.array([target.index(name) for name in d.label_names])
    doms = None if d.domains is None else d.domains.copy()
    return Dataset(d.features.copy(), lut[d.labels], target, doms,
                   None if d.domain_names is None else list(d.domain_names))


@dataclass
class SyntheticSpec:
    """Gaussian blob generator layout: L class centers, M additive domain
    offsets, and per-sample isotropic noise."""

    n: int
    classes: int
    domains: int
    samples_per_class_per_domain: int
    separation: float = 4.0
    intra_std: float = 1.0
    domain_offset_std: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("n", "classes", "domains", "samples_per_class_per_domain"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("separation", "intra_std", "domain_offset_std"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative")
        check_seed(self.seed)


def make_blobs(spec: SyntheticSpec) -> Dataset:
    """Draw a labeled multi-domain blob dataset.

    Each sample is center[class] + offset[domain] + noise.  Centers and
    offsets are drawn once from the seeded stream, then per-sample noise;
    samples are laid out domain-major, then class, then repetition, so a
    fixed seed reproduces the dataset bit-identically.
    """
    spec.validate()
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    M, L, S, n = (spec.domains, spec.classes,
                  spec.samples_per_class_per_domain, spec.n)
    centers = rng.standard_normal((L, n)) * spec.separation
    offsets = rng.standard_normal((M, n)) * spec.domain_offset_std
    noise = rng.standard_normal((M * L * S, n)) * spec.intra_std

    labels = np.tile(np.repeat(np.arange(L), S), M)
    domains = np.repeat(np.arange(M), L * S)
    features = centers[labels] + offsets[domains] + noise
    return Dataset(features, labels, [f"c{i}" for i in range(L)],
                   domains, [f"d{i}" for i in range(M)])


def load_csv(path: str, label_column: str = "label",
             domain_column: Optional[str] = None) -> Dataset:
    """Parse a headered CSV into a Dataset.

    Errors carry 1-based line numbers (the header is line 1).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file; a header row is required")
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} "
                             f"not in header {header}")
        if domain_column is not None and domain_column not in header:
            raise ValueError(f"{path}: domain column {domain_column!r} "
                             f"not in header {header}")
        label_pos = header.index(label_column)
        domain_pos = header.index(domain_column) if domain_column else None
        feature_pos = [i for i in range(len(header))
                       if i != label_pos and i != domain_pos]
        if not feature_pos:
            raise ValueError(f"{path}: no feature columns in header")

        rows = []
        label_strs = []
        domain_strs = []
        for line, cells in enumerate(reader, start=2):
            if not cells:  # blank line, commonly trailing
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path} line {line}: expected "
                                 f"{len(header)} fields, got {len(cells)}")
            values = []
            for i in feature_pos:
                try:
                    value = float(cells[i])
                except ValueError:
                    raise ValueError(
                        f"{path} line {line}: non-numeric value "
                        f"{cells[i]!r} in column {header[i]!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path} line {line}: non-finite value "
                                     f"in column {header[i]!r}")
                values.append(value)
            rows.append(values)
            label_strs.append(cells[label_pos])
            if domain_pos is not None:
                domain_strs.append(cells[domain_pos])

    label_names = list(dict.fromkeys(label_strs))  # first-appearance order
    label_ids = {name: i for i, name in enumerate(label_names)}
    labels = np.array([label_ids[s] for s in label_strs], dtype=np.int64)
    features = (np.array(rows) if rows
                else np.empty((0, len(feature_pos))))
    if domain_pos is None:
        return Dataset(features, labels, label_names)
    domain_names = list(dict.fromkeys(domain_strs))
    domain_ids = {name: i for i, name in enumerate(domain_names)}
    domains = np.array([domain_ids[s] for s in domain_strs], dtype=np.int64)
    return Dataset(features, labels, label_names, domains, domain_names)


def write_csv(path: str, d: Dataset) -> None:
    """Emit a Dataset as CSV with columns f0..f{n-1}, label[, domain].

    Floats are written with repr so a load round-trips values exactly.
    """
    header = [f"f{i}" for i in range(d.n)] + ["label"]
    if d.domains is not None:
        header.append("domain")
    lines = [",".join(header)]
    for i in range(len(d)):
        cells = [repr(float(v)) for v in d.features[i]]
        cells.append(d.label_names[int(d.labels[i])])
        if d.domains is not None:
            cells.append(d.domain_names[int(d.domains[i])])
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def split(d: Dataset, fractions: Sequence[float], seed: int) -> tuple:
    """Seeded random split, stratified by class.

    Per-class sample counts are apportioned to the splits by largest
    remainder, so each split's class proportions match the dataset's within
    one sample.  Returns one Dataset per fraction.
    """
    fracs = [float(f) for f in fractions]
    if not fracs:
        raise ValueError("at least one fraction is required")
    if any(f < 0.0 for f in fracs):
        raise ValueError("fractions must be non-negative")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    check_seed(seed)

    rng = np.random.Generator(np.random.Philox(key=seed))
    buckets = [[] for _ in fracs]
    for c in range(d.n_classes):
        members = rng.permutation(np.flatnonzero(d.labels == c))
        counts = _largest_remainder(fracs, members.size)
        start = 0
        for j, count in enumerate(counts):
            buckets[j].extend(members[start:start + count].tolist())
            start += count
    parts = []
    for bucket in buckets:
        idx = np.array(bucket, dtype=np.int64)
        parts.append(d.subset(idx[rng.permutation(idx.size)]))
    return tuple(parts)


def _largest_remainder(fracs: Sequence[float], total: int) -> list[int]:
    ideal = [f * total for f in fracs]
    counts = [int(math.floor(x)) for x in ideal]
    leftover = total - sum(counts)
    # Ties go to the lower split index.
    order = sorted(range(len(fracs)), key=lambda j: (counts[j] - ideal[j], j))
    for j in order[:leftover]:
        counts[j] += 1
    return counts


def leave_one_domain_out(d: Dataset,
                         held_domain: Union[int, str]) -> tuple[Dataset, Dataset]:
    """Split into (train, test) with every held-domain sample in test.

    ``held_domain`` is a domain name or dense id; sample order is preserved
    within each side.
    """
    if d.domains is None:
        raise ValueError("dataset has no domain ids")
    if isinstance(held_domain, str):
        if held_domain not in d.domain_names:
            raise ValueError(f"unknown domain {held_domain!r}")
        held = d.domain_names.index(held_domain)
    else:
        held = int(held_domain)
    mask = d.domains == held
    if not mask.any():
        raise ValueError(f"domain {held_domain!r} has no samples")
    return d.subset(np.flatnonzero(~mask)), d.subset(np.flatnonzero(mask))
