"""Counter-based deterministic random sampling (splitmix64 core).

Every draw is a pure function of (seed, counter), so sample i of a run
can be produced in any order, or all at once, and always comes out the
same.  That property is what the simulation determinism contract rests
on.

The scalar functions are the definition.  The ``*_range`` functions
evaluate draws 0..n-1 in bulk and equal the scalar ones bit for bit:
splitmix64 runs in uint64 numpy arithmetic, which wraps mod 2**64 just
as the ``& _MASK64`` masks do.  A ``*_range`` function returns exactly
``n`` values or raises ``ValueError``.  ``std_normal_range`` draws its
``u1`` (even counters) and ``u2`` (odd counters) as two ``n``-long
streams.  Its ``start`` offset gives draws start..start+n-1, so a
caller can evaluate a long run in blocks of ``DRAW_BLOCK`` draws, as
``Lognormal.sample`` does, and hold a few block-sized temporaries
instead of several run-sized ones; the block a draw lands in does not
change its value.  ``log``, ``cos`` and ``exp`` are the C library's,
the functions the scalar path calls through ``math``: numpy's own SIMD
``log`` and ``exp`` differ from them in the last ulp, so the bulk path
reaches numpy's per-element libm loop instead (see :func:`libm_apply`).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block of a blocked bulk evaluation: 64 KiB of float64.
DRAW_BLOCK = 8192


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def raw64(seed: int, counter: int) -> int:
    """The counter-th 64-bit output of splitmix64 seeded with ``seed``."""
    return _mix64((seed + (counter + 1) * _GOLDEN) & _MASK64)


def unit_uniform(seed: int, counter: int) -> float:
    """Uniform draw in [0, 1) with 53-bit resolution."""
    return (raw64(seed, counter) >> 11) * 2.0**-53


def unit_uniform_open(seed: int, counter: int) -> float:
    """Uniform draw in (0, 1]; safe to pass to log()."""
    return ((raw64(seed, counter) >> 11) + 1) * 2.0**-53


def std_normal(seed: int, counter: int) -> float:
    """Standard normal draw via Box-Muller; consumes counters 2i, 2i+1."""
    u1 = unit_uniform_open(seed, 2 * counter)
    u2 = unit_uniform(seed, 2 * counter + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def libm_apply(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.log``, ``np.exp`` or ``np.cos``) of every value of a
    1-D array, as a new array, computed by the C library function that
    ``math`` calls.

    numpy's float64 ``log`` and ``exp`` run SIMD kernels unless input and
    output overlap without being the same memory; then its loop calls
    the C library once per element.  So the values are copied one slot
    up in an ``n + 1`` buffer, and each result is written one slot down,
    over a value already read.  A single value would not overlap its
    output slot, so it goes in twice.  A test pins each function to
    ``math`` bit for bit, so a numpy that routes this call elsewhere
    fails it.  Floating-point errors follow the caller's ``np.errstate``.
    """
    n = values.size
    if n == 1:
        values = np.concatenate((values, values))
    buf = np.empty(values.size + 1)
    buf[1:] = values
    ufunc(buf[1:], out=buf[:-1])
    return buf[:n]


def _counters(start: int, n: int, step: int) -> np.ndarray:
    """The uint64 array start, start + step, ...: exactly ``n`` entries."""
    z = np.arange(start, start + step * n, step, dtype=np.uint64)
    # Past int64 numpy's length arithmetic can yield an empty range
    # instead of refusing the size, so the length is checked here.
    if z.size != n:
        raise ValueError(f"cannot hold {n} draws in one array")
    return z


def _splitmix(seed: int, z: np.ndarray) -> np.ndarray:
    """``raw64(seed, c)`` for every ``c + 1`` in the uint64 array ``z``,
    computed in place."""
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def raw64_range(seed: int, n: int) -> np.ndarray:
    """``raw64(seed, c)`` for c in range(n), as a uint64 array."""
    return _splitmix(seed, _counters(1, n, 1))


def _unit(raw: np.ndarray, offset: int) -> np.ndarray:
    # Overwrites raw.  raw >> 11 (+ 1) is at most 2**53, so the
    # conversion is exact.
    raw >>= np.uint64(11)
    raw += np.uint64(offset)
    unit = raw.astype(np.float64)
    unit *= 2.0**-53
    return unit


def unit_uniform_range(seed: int, n: int) -> np.ndarray:
    """``unit_uniform(seed, i)`` for i in range(n)."""
    return _unit(raw64_range(seed, n), 0)


def std_normal_range(seed: int, n: int, start: int = 0) -> np.ndarray:
    """``std_normal(seed, i)`` for i in range(start, start + n)."""
    first = 2 * start + 1  # _counters holds counter + 1
    u1 = _unit(_splitmix(seed, _counters(first, n, 2)), 1)  # counters 2i
    u2 = _unit(_splitmix(seed, _counters(first + 1, n, 2)), 0)  # counters 2i + 1
    out = libm_apply(np.log, u1)
    out *= -2.0
    np.sqrt(out, out=out)
    u2 *= 2.0 * math.pi
    out *= libm_apply(np.cos, u2)
    return out
