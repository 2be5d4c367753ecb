"""Deterministic counter-based random streams.

All encoder randomness comes from a single Philox4x64 stream keyed by the
model seed.  Draw ``i`` of the stream is fixed once the seed is fixed, so any
stretch of draws can be replayed from ``(seed, position)`` alone:

- uniform double ``i`` is 64-bit output ``i`` of Philox4x64(key=seed), shifted
  right by 11 bits and scaled by 2**-53, giving values in [0, 1);
- standard normals come from uniform pairs ``(u1, u2)`` via the paired
  transform ``r = sqrt(-2*log1p(-u1))``, ``z0 = r*cos(2*pi*u2)``,
  ``z1 = r*sin(2*pi*u2)``; ``k`` normals take ``2*ceil(k/2)`` uniforms
  (``normal_uniforms``), and the trailing normal is discarded when k is odd.
  log1p/sqrt/cos/sin are numpy's float64 kernels (numpy's log1p can differ
  from C libm's by one ulp, so a bit-exact port must match numpy here).

``uniforms(seed, position, count)`` returns draws ``position`` to
``position + count - 1``: positions count uniforms from the start of the
stream, and the caller says where a draw starts (the encoder's
``draw_counter``).  numpy's ``Philox.advance`` moves the counter in 4-output
blocks, so a draw advances whole blocks and burns the remainder.
"""

from __future__ import annotations

import numbers

import numpy as np

TWO_PI = 2.0 * np.pi

MAX_SEED = 2**64 - 1


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, name: str) -> int:
    """``value`` as an int; ValueError naming it ``name`` unless
    ``is_integer`` holds."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str):
    """``value`` unchanged; ValueError naming it ``name`` unless it is a
    real number, as ``numbers.Real`` has it (a bool is not one)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def check_seed(seed: int, name: str = "seed") -> int:
    """Validate the 64-bit non-negative seed ``name``, an integer as
    ``is_integer`` has it; return it as an int."""
    seed = check_integer(seed, name)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{name} must be in [0, 2**64): got {seed}")
    return seed


def normal_uniforms(count: int) -> int:
    """Uniforms behind ``count`` normals: ``2*ceil(count/2)``."""
    return 2 * ((count + 1) // 2)


def uniforms(seed: int, position: int, count: int) -> np.ndarray:
    """``count`` uniforms of the seed's stream from ``position`` (see the
    module docstring)."""
    bitgen = np.random.Philox(key=check_seed(seed))
    if position < 0:
        raise ValueError("stream position must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    bitgen.advance(position // 4)
    gen = np.random.Generator(bitgen)
    gen.random(position % 4)  # burn the within-block offset
    return gen.random(count)


def paired_normals(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms paired along the last axis, whose
    length must be even: ``(u[2j], u[2j+1])`` gives normals 2j and 2j+1.

    Every step is elementwise, so the normals of one row of a 2-D ``u``
    equal those of the same uniforms drawn as a 1-D array.
    """
    # u in [0, 1) makes 1 - u1 strictly positive, so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = TWO_PI * u[..., 1::2]
    z = np.empty(u.shape)
    z[..., 0::2] = r * np.cos(theta)
    z[..., 1::2] = r * np.sin(theta)
    return z

