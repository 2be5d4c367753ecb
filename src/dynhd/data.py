"""Dataset ingestion, normalization, splits, and synthetic blob generation.

CSV files are comma-separated with a mandatory header row.  Feature columns
are every column except the label column (and the optional domain column),
taken in header order.  Label and domain strings are mapped to dense ids in
first-appearance order, and the name tables travel with the Dataset so the
same strings resolve to the same ids downstream.  Every Dataset, a derived
one included, checks its invariants when it is built (``model.Dataset``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .model import Dataset, atomic_write_text
from .rng import check_seed, is_integer

STD_FLOOR = 1e-12


@dataclass
class NormalizationStats:
    """Per-feature z-score statistics fitted on a training split.

    ``std`` is stored post-clamp (everything below STD_FLOOR is raised to
    it), so applying the stats never divides by ~0.  Building one raises
    ValueError unless the means are finite and the stds finite and at least
    STD_FLOOR.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()
                and (self.std >= STD_FLOOR).all()):
            raise ValueError("normalizer means must be finite and its stds "
                             f"finite and at least {STD_FLOOR}")

    def check(self, n: int) -> None:
        """Raise ValueError unless the stats cover n features."""
        if self.mean.shape != (n,):
            raise ValueError(f"normalizer has {self.mean.shape[0]} features, "
                             f"expected {n}")


def fit_normalizer(train: Dataset) -> NormalizationStats:
    if len(train) == 0:
        raise ValueError("cannot fit a normalizer on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population std
    return NormalizationStats(mean, np.maximum(std, STD_FLOOR))


def apply_normalizer(stats: NormalizationStats, d: Dataset) -> Dataset:
    stats.check(d.n)
    with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects inf
        features = (d.features - stats.mean) / stats.std
    return replace(d, features=features)


def remap_labels(d: Dataset, label_names: Sequence[str],
                 owner: str = "the target") -> Dataset:
    """Reindex the labels into ``label_names``, a superset of the dataset's
    held by ``owner``; an unknown label raises ValueError naming both."""
    target = list(label_names)
    if target == list(d.label_names):
        return d
    unknown = [name for name in d.label_names if name not in target]
    if unknown:
        raise ValueError(f"label(s) {unknown} not among the {len(target)} "
                         f"labels of {owner}")
    lut = np.array([target.index(name) for name in d.label_names])
    return replace(d, labels=lut[d.labels], label_names=target)


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
    fixed seed reproduces the dataset bit-identically.  Features that
    overflow raise ValueError naming the settings whose draws overflowed.
    """
    spec.validate()
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    M, L, S, n = (spec.domains, spec.classes,
                  spec.samples_per_class_per_domain, spec.n)
    labels = np.tile(np.repeat(np.arange(L), S), M)
    domains = np.repeat(np.arange(M), L * S)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        centers = rng.standard_normal((L, n)) * spec.separation
        offsets = rng.standard_normal((M, n)) * spec.domain_offset_std
        noise = rng.standard_normal((M * L * S, n)) * spec.intra_std
        features = centers[labels] + offsets[domains] + noise
    if not np.isfinite(features).all():
        draws = {"separation": centers, "domain_offset_std": offsets,
                 "intra_std": noise}
        # Finite draws can still overflow when summed: name all three.
        bad = [k for k, v in draws.items() if not np.isfinite(v).all()]
        raise ValueError("synthetic features overflow at " + ", ".join(
            f"{k}={getattr(spec, k)!r}" for k in bad or draws))
    return Dataset(features, labels, [f"c{i}" for i in range(L)],
                   domains, [f"d{i}" for i in range(M)])


def load_csv(path: str, label_column: str = "label",
             domain_column: Optional[str] = None) -> Dataset:
    """Parse a headered CSV, which must have data rows, into a Dataset.

    Errors carry 1-based line numbers (the header is line 1).
    """
    if domain_column == label_column:
        raise ValueError(f"{path}: column {label_column!r} cannot be both "
                         "the label and the domain column")
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

    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.array(rows)
    if domain_pos is None:
        return Dataset(features, *_dense_ids(label_strs))
    return Dataset(features, *_dense_ids(label_strs),
                   *_dense_ids(domain_strs))


def _dense_ids(strings: list[str]) -> tuple[np.ndarray, list[str]]:
    """(int64 ids, names): names in first-appearance order."""
    names = list(dict.fromkeys(strings))
    ids = {name: i for i, name in enumerate(names)}
    return np.array([ids[s] for s in strings], dtype=np.int64), names


def write_csv(path: str, d: Dataset) -> None:
    """Emit a Dataset as CSV with columns f0..f{n-1}, label[, domain].

    Floats are written with repr so a load round-trips values exactly; a
    name holding a comma, a quote or a line break is quoted.
    """
    header = [f"f{i}" for i in range(d.n)] + ["label"]
    if d.domains is not None:
        header.append("domain")
    rows = [header]
    for i in range(len(d)):
        cells = [repr(float(v)) for v in d.features[i]]
        cells.append(d.label_names[int(d.labels[i])])
        if d.domains is not None:
            cells.append(d.domain_names[int(d.domains[i])])
        rows.append(cells)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    atomic_write_text(path, text.getvalue())


def split(d: Dataset, fractions: Sequence[float], seed: int) -> tuple:
    """Seeded random split, stratified by class.

    Per-class sample counts are apportioned to the splits by largest
    remainder, so each split's class proportions match the dataset's within
    one sample.  Returns one Dataset per fraction.
    """
    fracs = [float(f) for f in fractions]
    if not fracs:
        raise ValueError("at least one fraction is required")
    for f in fracs:
        if not 0.0 <= f < math.inf:
            raise ValueError(f"fractions must be finite and >= 0, got {f!r}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    check_seed(seed)

    rng = np.random.Generator(np.random.Philox(key=seed))
    cuts = []  # per class, its members cut into one piece per split
    for c in range(d.n_classes):
        members = rng.permutation(np.flatnonzero(d.labels == c))
        counts = _largest_remainder(fracs, members.size)
        cuts.append(np.split(members, np.cumsum(counts[:-1])))
    parts = []
    for j in range(len(fracs)):
        idx = np.concatenate([np.empty(0, dtype=np.int64)]  # if no classes
                             + [pieces[j] for pieces in cuts])
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
    elif is_integer(held_domain):
        held = int(held_domain)
    else:
        raise ValueError("held_domain must be a domain name or an integer "
                         f"id, got {held_domain!r}")
    mask = d.domains == held
    if not mask.any():
        raise ValueError(f"domain {held_domain!r} has no samples")
    return d.subset(np.flatnonzero(~mask)), d.subset(np.flatnonzero(mask))
