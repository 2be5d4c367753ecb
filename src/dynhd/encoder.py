"""Nonlinear random-feature encoding and dimension regeneration.

A sample ``f`` is encoded per dimension by the paper's formula

    h_i = cos(x_i + c_i) * sin(x_i),    x_i = dot(B_i, f),

with ``B_i`` a standard-normal base row and ``c_i`` a phase offset uniform on
[0, 2*pi).  It equals (sin(2x_i + c_i) - sin(c_i)) / 2, and is computed as

    h_i = S(x_i + c_i / 2) - S(c_i / 2),    S(a) = t / (1 + t*t) = sin(2a) / 2

with t = tan(a): one tangent per entry, where numpy's float64 tan has a
SIMD loop and its sine is libm's (2.3 against 28 ns per entry on a 2-vCPU
AVX512 host).  S(c_i / 2) is taken once per call by a block's operations,
so a zero input encodes to exactly +0.0.  c_i / 2 is exact, so
x_i + c_i / 2 rounds as (2x_i + c_i) / 2 does.  Measured over 2M draws per
scale from 1e-3 to 1e4, 2 S(a / 2) is within 1 eps of libm's sin(a), and
h_i within 2.2 * eps * (|x_i| + 1) of the product form, as the one-sine
form was.  S never exceeds 0.5, its value at t = 1, so every |h_i| <= 1.

numpy takes the SIMD tan only where its AVX512 targets run, and only on an
array with loadable strides that does not partly overlap its output;
otherwise libm's, which rounds about 0.5% of tangents differently.  Every
tan is taken in place on a contiguous block buffer, so the encode paths of
one machine agree bit for bit; across CPUs the bits move along the same
dispatch axis as the log1p that draws the bases (see :mod:`dynhd.rng`).

Regeneration redraws the base rows and phases of selected dimensions from the
seed's stream at the encoder's ``draw_counter``, the position that its shape
and history fix (see :mod:`dynhd.rng`), leaving all other rows
bit-identical.  An encoder is therefore a pure function of its seed, its
shape and the ordered index sets regenerated so far: ``replay_encoder``
rebuilds it from them, which is how a model file stores it.  The replay
transforms only the rows that survive: a dimension's redraw is computed in
the last round that regenerates it, and the earlier rounds' draws for it are
passed over by stream position.  That is exact because ``paired_normals``
works row by row and a draw is a pure function of its seed and position.

A single sample is a batch of one: ``encode`` and a 1-D ``reencode_dims``
run it as row 0 of the batch paths, whose one input check, and whose check
for a projection that overflows (tan(inf) is NaN), name the offending row.

Every encode runs through one block loop, ``encode_blocks``, whose kernel
projects at most ``BLOCK_ROWS`` samples and applies the tangent in place.  It
writes the blocks into ``encode_batch``'s (N, D) output, or into one buffer
of at most ``BLOCK_ROWS`` rows that it allocates and reuses for a caller that
needs each block only once: eval's and validation's scoring, and
``reencode_dims``, which encodes the planned rows as an encoder of their
own and puts each block into the cached encodings.
Each projection x_i = f.B_i is the left-to-right sum
((f_0 B_i0 + f_1 B_i1) + f_2 B_i2) + ..., one multiply and one add per
term, whatever else the call projects: a block encodes each row as it
encodes alone, and re-encoding a subset of dimensions reproduces those
entries of a full encode bit-for-bit.  BLAS matmul would not; its order
changes with the shape of the call.  The kernel runs
``einsum("Nn,nd->Nd")`` on Fortran-ordered rows and the C-ordered (n, D)
transpose of the bases, so einsum adds f_k * B_ik feature by feature in a
loop along D (the tests hold it to a plain fold of ``np.multiply`` and
``np.add``); at n=16 that costs half its lane-parallel reduction along n.
An operand one column wide would bring that reduction back, so none is: the
last tile reaches back a column, and a one-dimension projection is padded to
two.  Tiles of ``TILE_COLUMNS`` keep a block's outputs in cache while every
feature is added into them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .model import EncoderState, RegenPlan, check_index_set
from .rng import (TWO_PI, check_integer, check_seed, normal_uniforms,
                  paired_normals, uniforms)

# Rows per kernel call: bounds the kernel's temporaries to a few blocks of
# (BLOCK_ROWS, D) floats whatever the number of samples.
BLOCK_ROWS = 64

# Columns per einsum call, at least 2 (see the module docstring): a block's
# outputs take 1 MB.  At n=16, 100, 617 and 2000, tiles of 1024 and 2048
# columns projected fastest, within 2% of each other.
TILE_COLUMNS = 2048

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


def _half_sine(a: np.ndarray, square: np.ndarray) -> np.ndarray:
    """S(a) = t / (1 + t*t) with t = tan(a), in place in the contiguous
    ``a`` (see the module docstring); ``square`` is scratch of its shape."""
    np.tan(a, out=a)
    np.multiply(a, a, out=square)
    square += 1.0
    a /= square
    return a


def _encode_block(rows: np.ndarray, bases_t: np.ndarray,
                  half_phases: np.ndarray, s_phases: np.ndarray, start: int,
                  x: np.ndarray, square: np.ndarray) -> np.ndarray:
    """S(x + c/2) - S(c/2) with x = rows @ bases_t, computed in place in
    ``x``; ``bases_t`` is the (n, d) C-contiguous transpose of the bases,
    ``half_phases`` is c/2, ``s_phases`` is S(c/2) and ``square`` is
    scratch of ``x``'s shape.  A projection that overflows raises
    ValueError naming its sample, numbered from ``start`` for the block's
    first row."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        _project(rows, bases_t, x)
        x += half_phases
        _half_sine(x, square)
    # tan is finite on finite input, so an overflow shows only as NaN.
    if np.isnan(x).any():
        bad = int(np.argmax(np.isnan(x).any(axis=1)))
        raise ValueError(f"sample {start + bad}: encoding is not finite "
                         "(the projection of its features overflows)")
    x -= s_phases
    return x


def _check_batch(samples, n: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape == (0,):  # [] is the empty batch
        arr = arr.reshape(0, n)
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
    seed = check_seed(seed)
    n, dim = check_integer(n, "n"), check_integer(dim, "dim")
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be at least 1")
    u = uniforms(seed, 0, normal_uniforms(dim * n) + dim)
    bases = paired_normals(u[:-dim])[:dim * n].reshape(dim, n)
    return EncoderState(bases, TWO_PI * u[-dim:], seed, [])


def encode(e: EncoderState, f) -> np.ndarray:
    """Encode one sample: h_i = cos(B_i.f + c_i) * sin(B_i.f), computed as
    S(B_i.f + c_i/2) - S(c_i/2); row 0 of a batch of one."""
    return encode_batch(e, [f])[0]


def encode_batch(e: EncoderState, samples: Sequence) -> np.ndarray:
    """Encode a sequence of samples; row i equals encode(e, samples[i]).

    Returns an (N, D) array; ``[]`` or an (0, n) input yields shape (0, D).
    """
    arr = _check_batch(samples, e.n_features)
    out = np.empty((arr.shape[0], e.dim))
    for _ in encode_blocks(e, arr, out):
        pass
    return out


def encode_blocks(e: EncoderState, samples, out: Optional[np.ndarray] = None
                  ) -> Iterator[tuple[slice, np.ndarray]]:
    """Encode (N, n) ``samples`` block by block, yielding ``(rows, h)`` per
    block of at most ``BLOCK_ROWS`` samples: ``rows`` slices the samples
    and ``h`` holds their encodings, bit-identical to those rows of
    ``encode_batch``.

    ``h`` is ``out[rows]`` when the (N, D) ``out`` is given, which ends up
    holding every encoding.  Without ``out``, ``h`` is the leading rows of
    one (min(N, BLOCK_ROWS), D) buffer that each block overwrites.  An
    overflow names its sample by its index in ``samples``.
    """
    arr = _check_batch(samples, e.n_features)
    bases_t = np.ascontiguousarray(e.bases.T)
    half_phases = e.phases * 0.5
    # as a block computes it, so a zero row encodes to +0.0
    s_phases = _half_sine(half_phases.copy(), np.empty(e.dim))
    square = np.empty((min(arr.shape[0], BLOCK_ROWS), e.dim))
    buffer = np.empty_like(square) if out is None else None
    for start in range(0, arr.shape[0], BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block = arr[rows]
        h = buffer[:len(block)] if out is None else out[rows]
        yield rows, _encode_block(block, bases_t, half_phases, s_phases,
                                  start, h, square[:len(block)])


def regenerate_dims(e: EncoderState, plan: RegenPlan) -> EncoderState:
    """Redraw the base rows and phases of the planned dimensions.

    Draws continue from ``e.draw_counter``; per selected index (ascending),
    the row's ``n`` normals are drawn first, then its phase.  The whole plan
    is drawn in one call and transformed row-wise, bit-identical to drawing
    one dimension at a time.  Unselected rows and phases are bit-identical
    to the input, which is not modified.  An empty plan returns ``e``; a
    non-empty one's indices are appended to the result's ``regen_history``.
    """
    idx = _check_plan(e, plan)
    if idx.size == 0:
        return e
    bases, phases = e.bases.copy(), e.phases.copy()
    _redraw(bases, phases, e.seed, e.draw_counter, idx,
            np.ones(idx.size, dtype=bool))
    return EncoderState(bases, phases, e.seed, e.regen_history + [idx])


def _redraw(bases: np.ndarray, phases: np.ndarray, seed: int,
            position: int, idx: np.ndarray, keep: np.ndarray) -> int:
    """Redraw dimensions ``idx`` from ``position`` of the seed's stream,
    writing into ``bases`` and ``phases`` only the rows where ``keep`` is
    set; returns the stream position after all of ``idx``'s draws."""
    n = bases.shape[1]
    per_dim = normal_uniforms(n) + 1  # a row's normals, then its phase
    if keep.any():  # paired_normals works row by row: drop the rest first
        u = uniforms(seed, position, idx.size * per_dim)
        u = u.reshape(idx.size, per_dim)[keep]
        bases[idx[keep]] = paired_normals(u[:, :-1])[:, :n]
        phases[idx[keep]] = TWO_PI * u[:, -1]
    return position + idx.size * per_dim


def replay_encoder(seed: int, n: int, dim: int,
                   history: Sequence) -> EncoderState:
    """Rebuild an encoder from its replay log: bit for bit the result of
    ``init_encoder(seed, n, dim)`` followed by one ``regenerate_dims`` per
    entry of ``history``, in order.

    Only the draws that survive are transformed: each round writes just the
    dimensions no later round redraws, and a round whose dimensions are all
    redrawn later only advances the stream position past its draws.

    Each entry must pass ``check_index_set``: a non-empty, strictly
    increasing sequence of integers in [0, dim).
    """
    e = init_encoder(seed, n, dim)
    history = [check_index_set(f"regen_history[{i}]", entry, dim)
               for i, entry in enumerate(history)]
    last_round = np.full(dim, -1)
    for r, idx in enumerate(history):
        last_round[idx] = r
    position = e.draw_counter
    for r, idx in enumerate(history):
        position = _redraw(e.bases, e.phases, e.seed, position, idx,
                           last_round[idx] == r)
    return EncoderState(e.bases, e.phases, e.seed, history)


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
        # Each block of the planned rows' own encoder is put straight into
        # ``out`` at the flat offsets row * D + idx: no (N, |idx|) temporary.
        planned = EncoderState(e.bases[idx], e.phases[idx], e.seed, [])
        encodings = np.atleast_2d(out)
        offsets = (np.arange(min(BLOCK_ROWS, rows.shape[0]))[:, None] * e.dim
                   + idx)
        for block, x in encode_blocks(planned, rows):
            np.put(encodings[block], offsets[:x.shape[0]], x)
    return out
