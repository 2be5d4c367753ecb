"""Similarity scoring, top-k prediction, accuracy metrics, and the
hardware-noise perturbation harness.

``model_scores`` is the one scorer: training, validation, eval, the sweeps
and the misleading detector call it on one encoding or on a batch, and a
batch scores bit-identically to its rows scored one at a time.
``topk_accuracy`` is the one accuracy path: ``score_queries`` scores a query
set block by block, then ``topk_hits`` counts.  Train's validation calls it;
``dynhd eval`` calls the two parts itself, so several k share one encode.

Conventions shared across the package:

- cosine similarity with a zero vector is 0 (keeps scoring total while
  classes are still empty during training);
- rank ties break toward the lower class index;
- ``row_norms`` is the one norm kernel, sqrt(vecdot(v, v)) per row of a
  matrix, so cached, fresh and batched norms agree bit-for-bit.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .encoder import encode_blocks
from .model import ClassModel, Dataset, EncoderState
from .rng import check_integer, check_real, check_seed


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(m, m))


def model_scores(classes: np.ndarray, class_norms: np.ndarray,
                 h: np.ndarray, h_norm) -> np.ndarray:
    """Cosine scores of h (D,) or of each row of h (N, D) against every
    class row; ``h_norm`` is a scalar or an (N, 1) column.  Zero norms
    score 0."""
    dots = np.matvec(classes, h)
    denom = class_norms * h_norm
    return np.divide(dots, denom, out=np.zeros_like(dots),
                     where=denom > 0.0)


def ranked_classes(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score along the last axis, ties toward the
    lower index: classes by similarity, and dimensions by detector score."""
    return np.argsort(-scores, axis=-1, kind="stable")


def topk_hits(scores: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Number of rows of (N, L) scores whose label ranks in the top k."""
    return int(np.count_nonzero(ranked_classes(scores)[:, :k]
                                == labels[:, None]))


def score_queries(m: ClassModel, e: EncoderState, test: Dataset,
                  ks: Sequence[int] = ()) -> tuple[np.ndarray, float, float]:
    """Check the query set and every k in ``ks``, then encode and score the
    set block by block, each block while it is in cache.  Returns the (N, L)
    cosine scores, bit-identical to scoring ``encode_batch``'s output, and
    the encode and score seconds summed over the blocks.  The (N, D)
    encodings are never built: every block reuses one buffer."""
    if len(test) == 0:
        raise ValueError("test dataset must be non-empty")
    if list(test.label_names) != list(m.labels):
        raise ValueError("dataset label set does not match the model")
    for k in ks:
        if not 1 <= check_integer(k, "k") <= m.n_classes:
            raise ValueError(f"k must be in [1, {m.n_classes}], got {k}")
    class_norms = row_norms(m.classes)
    scores = np.empty((len(test), m.n_classes))
    encode_s = score_s = 0.0
    t0 = time.perf_counter()
    for rows, h in encode_blocks(e, test.features):
        t1 = time.perf_counter()
        scores[rows] = model_scores(m.classes, class_norms, h,
                                    row_norms(h)[:, None])
        t2 = time.perf_counter()
        encode_s += t1 - t0
        score_s += t2 - t1
        t0 = t2
    return scores, encode_s, score_s


def topk_accuracy(m: ClassModel, e: EncoderState, test: Dataset,
                  k: int) -> float:
    """Fraction of samples whose true label is among the top-k classes:
    ``score_queries`` then ``topk_hits``.  To rank several k from one encode
    of the query set, call the two directly, as ``dynhd eval`` does."""
    scores = score_queries(m, e, test, (k,))[0]
    return topk_hits(scores, test.labels, k) / len(test)


def perturb_model(m: ClassModel, q: float, magnitude: float,
                  seed: int) -> ClassModel:
    """Add seeded Gaussian noise to a random fraction q of model entries.

    Exactly floor(q * L * D) entries (chosen without replacement) receive
    noise with standard deviation magnitude * RMS(all model entries).  The
    input model is left untouched.  Noise that leaves a class norm
    non-finite raises ArithmeticError naming ``q`` and ``magnitude``.
    """
    if not 0.0 <= check_real(q, "q") <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if not 0.0 <= check_real(magnitude, "magnitude") < np.inf:
        raise ValueError("magnitude must be non-negative and finite")
    check_seed(seed)
    out = m.copy()
    total = m.classes.size
    count = int(np.floor(q * total))
    if count == 0:
        return out
    rng = np.random.Generator(np.random.Philox(key=seed))
    picked = rng.permutation(total)[:count]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rms = float(np.sqrt(np.mean(m.classes ** 2)))
        if not rms < np.inf:  # the squares overflow: scale them first
            s = float(np.abs(m.classes).max())
            rms = s * float(np.sqrt(np.mean((m.classes / s) ** 2)))
        noise = rng.standard_normal(count) * (magnitude * rms)
        out.classes.ravel()[picked] += noise
        norms = row_norms(out.classes)
    if not np.isfinite(norms).all():
        raise ArithmeticError(f"noise at q={q!r}, magnitude={magnitude!r} "
                              "makes a class norm non-finite")
    return out
