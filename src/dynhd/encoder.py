"""Nonlinear random-feature encoding and dimension regeneration.

A sample ``f`` is encoded per dimension by the paper's formula

    h_i = cos(x_i + c_i) * sin(x_i),    x_i = dot(B_i, f),

with ``B_i`` a standard-normal base row and ``c_i`` a phase offset uniform on
[0, 2*pi).  It is computed through the product-to-sum identity as

    h_i = 0.5 * (sin(2 * x_i + c_i) - sin(c_i)),

one sine per entry where the product takes a sine and a cosine: the
transcendentals bound the encoder, and sin(c_i) is taken once per call for
all rows.  2 * x_i is exact, so only the rounding of 2 * x_i + c_i, the two
sines and the difference separate it from the product form; measured over
2M draws per |x| scale from 1 to 1e4, it deviates by at most
2.2 * eps * (|x_i| + 1).  Both sines lie in [-1, 1], so every h_i does, and
a zero input encodes to exactly +0.0.

Regeneration redraws the base rows and phases of selected dimensions from the
encoder's continuing uniform stream (see :mod:`dynhd.rng`), leaving all other
rows bit-identical.  An encoder is therefore a pure function of its seed, its
shape and the ordered index sets regenerated so far: ``replay_encoder``
rebuilds it from them, which is how a model file stores it.

A single sample is a batch of one: ``encode`` and a 1-D ``reencode_dims``
run it as row 0 of the batch paths, whose one input check, and whose check
for a projection that overflows (NaN after the sine), name the offending row.

Every encode runs through one kernel that projects a block of at most
``BLOCK_ROWS`` samples and applies the sine in place.  Each projection
x_i = f.B_i is the left-to-right sum ((f_0 B_i0 + f_1 B_i1) + f_2 B_i2) + ...,
one multiply and one add per term, whatever else the call projects: a block
encodes each row as it encodes alone, and re-encoding a subset of dimensions
reproduces those entries of a full encode bit-for-bit.  BLAS matmul would
not; its order changes with the shape of the call.  The kernel runs
``einsum("Nn,nd->Nd")`` on Fortran-ordered rows and the C-ordered (n, D)
transpose of the bases, so einsum adds f_k * B_ik feature by feature in a
loop along D (the tests hold it to a plain fold of ``np.multiply`` and
``np.add``); at n=16 that costs half its lane-parallel reduction along n.
An operand one column wide would bring that reduction back, so none is: the
last tile reaches back a column, and a one-dimension projection is padded to
two.  Tiles of ``TILE_COLUMNS`` keep a block's outputs in cache while every
feature is added into them.

A batch's (N, D) output of ``MAPPED_BYTES`` or more gets its own anonymous
memory mapping, unmapped when the array is freed.  From ``np.empty`` it would
come from the C heap once glibc's dynamic mmap threshold has risen past its
size (the threshold follows the largest block freed so far, up to 32 MB).  A
small long-lived allocation that lands in the hole one call's encodings leave
behind then strands it, and the next call grows the heap by the full size: a
process that trains repeatedly grew its resident size by a whole train-set
encoding (26 MB at N=1600, D=2048) in some runs and not in others.
"""

from __future__ import annotations

import mmap
from typing import Optional, Sequence

import numpy as np

from .model import EncoderState, RegenPlan, check_index_set
from .rng import TWO_PI, UniformStream, paired_normals

# Rows per kernel call: bounds the kernel's temporaries to a few blocks of
# (BLOCK_ROWS, D) floats whatever the number of samples.
BLOCK_ROWS = 64

# Columns per einsum call, at least 2 (see the module docstring): a block's
# outputs take 1 MB.  At n=16, 100, 617 and 2000, tiles of 1024 and 2048
# columns projected fastest, within 2% of each other.
TILE_COLUMNS = 2048

# Batch outputs of at least this size get their own mapping (see the module
# docstring); numpy itself advises huge pages from the same size on.
MAPPED_BYTES = 1 << 22


def _empty_encodings(count: int, dim: int) -> np.ndarray:
    """An uninitialised (count, dim) float64 array; large ones are backed by
    an anonymous mapping that is unmapped when the array is freed."""
    nbytes = count * dim * np.dtype(np.float64).itemsize
    if nbytes < MAPPED_BYTES:
        return np.empty((count, dim))
    if hasattr(mmap, "MAP_PRIVATE"):
        # A shared anonymous mapping would get no transparent huge pages,
        # and faulting in 4 KB pages costs twice the time on Linux.
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    else:  # Windows: takes no flags
        buf = mmap.mmap(-1, nbytes)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(count, dim)


def _project(rows: np.ndarray, bases_t: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """x = rows @ bases_t, each entry summed left to right over the
    features (see the module docstring)."""
    d = bases_t.shape[1]
    if d == 1:  # einsum would reduce a 1-wide operand in SIMD lanes
        x[:] = _project(rows, np.repeat(bases_t, 2, axis=1),
                        np.empty((rows.shape[0], 2)))[:, :1]
        return x
    rows = np.asfortranarray(rows)
    for d0 in range(0, d, TILE_COLUMNS):
        cols = slice(min(d0, d - 2), d0 + TILE_COLUMNS)  # never 1 wide
        np.einsum("Nn,nd->Nd", rows, bases_t[:, cols], out=x[:, cols])
    return x


def _encode_block(rows: np.ndarray, bases_t: np.ndarray, phases: np.ndarray,
                  sin_phases: np.ndarray, start: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """0.5 * (sin(2x + c) - sin(c)) with x = rows @ bases_t, computed in
    ``out``; ``bases_t`` is the (n, d) C-contiguous transpose of the bases
    and ``sin_phases`` is np.sin(phases).  A projection that overflows
    raises ValueError naming its sample, numbered from ``start`` for the
    block's first row."""
    x = np.empty((rows.shape[0], bases_t.shape[1])) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        _project(rows, bases_t, x)
        x += x
        x += phases
        np.sin(x, out=x)
    # sin is finite on finite input, so an overflow shows only as NaN.
    if np.isnan(x).any():
        bad = int(np.argmax(np.isnan(x).any(axis=1)))
        raise ValueError(f"sample {start + bad}: encoding is not finite "
                         "(the projection of its features overflows)")
    x -= sin_phases
    x *= 0.5
    return x


def _blocks(count: int):
    return (slice(start, start + BLOCK_ROWS)
            for start in range(0, count, BLOCK_ROWS))


def _check_batch(samples, n: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"batch must have shape (N, {n}), got {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise ValueError(f"sample {int(np.argmax(bad))}: feature vector "
                         f"contains non-finite entries")
    return arr


def _check_plan(e: EncoderState, plan: RegenPlan) -> np.ndarray:
    if plan.scores.shape[0] != e.dim:
        raise ValueError(f"plan is for D={plan.scores.shape[0]}, but the "
                         f"encoder has D={e.dim}")
    return plan.indices


def init_encoder(seed: int, n: int, dim: int) -> EncoderState:
    """Draw a fresh encoder: ``dim`` standard-normal base rows of length
    ``n`` (row-major draw order), then ``dim`` phases uniform on [0, 2*pi).
    """
    stream = UniformStream(seed)  # checks the seed
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be at least 1")
    bases = stream.normals(dim * n).reshape(dim, n)
    phases = stream.phases(dim)
    return EncoderState(bases, phases, stream.seed, stream.position, [])


def encode(e: EncoderState, f) -> np.ndarray:
    """Encode one sample: h_i = cos(B_i.f + c_i) * sin(B_i.f), computed as
    0.5 * (sin(2 B_i.f + c_i) - sin(c_i)); row 0 of a batch of one."""
    return encode_batch(e, [f])[0]


def encode_batch(e: EncoderState, samples: Sequence) -> np.ndarray:
    """Encode a sequence of samples; row i equals encode(e, samples[i]).

    Returns an (N, D) array; empty input yields shape (0, D).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape[:1] == (0,):
        return np.empty((0, e.dim))
    arr = _check_batch(arr, e.n_features)
    out = _empty_encodings(arr.shape[0], e.dim)
    bases_t = np.ascontiguousarray(e.bases.T)
    sin_phases = np.sin(e.phases)
    for rows in _blocks(arr.shape[0]):
        _encode_block(arr[rows], bases_t, e.phases, sin_phases, rows.start,
                      out=out[rows])
    return out


def regenerate_dims(e: EncoderState, plan: RegenPlan) -> EncoderState:
    """Redraw the base rows and phases of the planned dimensions.

    Draws continue from ``e.draw_counter``; per selected index (ascending),
    the row's ``n`` normals are drawn first, then its phase.  The whole plan
    is drawn in one call and transformed row-wise, bit-identical to drawing
    one dimension at a time.  Unselected rows and phases are bit-identical
    to the input, which is not modified.  A non-empty plan's indices are
    appended to the returned encoder's ``regen_history``.
    """
    idx = _check_plan(e, plan)
    if idx.size == 0:
        return e.copy()
    return _redraw(e, idx)


def _redraw(e: EncoderState, idx: np.ndarray) -> EncoderState:
    n = e.n_features
    # Per dimension: 2*ceil(n/2) uniforms for its normals, then its phase.
    per_dim = 2 * ((n + 1) // 2) + 1
    stream = UniformStream(e.seed, e.draw_counter)
    u = stream.uniforms(idx.size * per_dim).reshape(idx.size, per_dim)
    bases = e.bases.copy()
    phases = e.phases.copy()
    bases[idx] = paired_normals(u[:, :-1])[:, :n]
    phases[idx] = TWO_PI * u[:, -1]
    return EncoderState(bases, phases, e.seed, stream.position,
                        e.regen_history + [idx.copy()])


def replay_encoder(seed: int, n: int, dim: int,
                   history: Sequence) -> EncoderState:
    """Rebuild an encoder from its replay log: ``init_encoder(seed, n,
    dim)``, then one ``regenerate_dims`` per entry of ``history``, in order.

    Each entry must pass ``check_index_set``: a non-empty, strictly
    increasing sequence of integers in [0, dim).
    """
    e = init_encoder(seed, n, dim)
    for i, entry in enumerate(history):
        e = _redraw(e, check_index_set(f"regen_history[{i}]", entry, dim))
    return e


def reencode_dims(e: EncoderState, f, h, plan: RegenPlan,
                  inplace: bool = False) -> np.ndarray:
    """Recompute only the planned entries of ``h``; equals encode(e, f)
    exactly when ``h`` came from an encoder that matches ``e`` elsewhere.

    ``f`` is one sample (n,) with its hypervector ``h`` (D,), or a batch
    (N, n) with its encodings (N, D).  With ``inplace`` the planned entries
    of ``h``, which must then be a float64 array, are overwritten and ``h``
    is returned; otherwise ``h`` is left untouched and a copy is returned.
    A projection that overflows may leave an in-place ``h`` partly patched.
    """
    rows = _check_batch(np.atleast_2d(f), e.n_features)
    if inplace and not (isinstance(h, np.ndarray)
                        and h.dtype == np.float64):
        raise ValueError("an in-place re-encode needs a float64 array")
    h = np.asarray(h, dtype=np.float64)
    expected = np.shape(f)[:-1] + (e.dim,)
    if h.shape != expected:
        raise ValueError(f"hypervectors must have shape {expected}, "
                         f"got {h.shape}")
    idx = _check_plan(e, plan)
    out = h if inplace else h.copy()
    if idx.size:
        # Each block's columns are put straight into ``out`` at the flat
        # offsets row * D + idx: no (N, |idx|) temporary is built beside it.
        bases_t = np.ascontiguousarray(e.bases[idx].T)
        phases = e.phases[idx]
        sin_phases = np.sin(phases)
        encodings = np.atleast_2d(out)
        offsets = (np.arange(min(BLOCK_ROWS, rows.shape[0]))[:, None] * e.dim
                   + idx)
        for block in _blocks(rows.shape[0]):
            x = _encode_block(rows[block], bases_t, phases, sin_phases,
                              block.start)
            np.put(encodings[block], offsets[:x.shape[0]], x)
    return out
