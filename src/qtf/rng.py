"""Counter-based deterministic random sampling (splitmix64 core).

Every draw is a pure function of (seed, counter), so sample i of a run
can be produced in any order, or all at once, and always comes out the
same.  That property is what the simulation determinism contract rests
on.

The scalar functions are the definition.  The ``*_range`` functions
evaluate draws 0..n-1 in bulk and equal the scalar ones bit for bit:
splitmix64 runs in uint64 numpy arithmetic, which wraps mod 2**64 just
as the ``& _MASK64`` masks do, and log/cos go through the same libm
calls as the scalar path (numpy's own versions differ in the last ulp).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def libm_map(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to every value, as an array."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=values.size)


def raw64_range(seed: int, n: int) -> np.ndarray:
    """``raw64(seed, c)`` for c in range(n), as a uint64 array."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _unit(raw: np.ndarray, offset: int) -> np.ndarray:
    # raw >> 11 (+ 1) is at most 2**53, so the conversion is exact.
    return ((raw >> np.uint64(11)) + np.uint64(offset)).astype(np.float64) * 2.0**-53


def unit_uniform_range(seed: int, n: int) -> np.ndarray:
    """``unit_uniform(seed, i)`` for i in range(n)."""
    return _unit(raw64_range(seed, n), 0)


def std_normal_range(seed: int, n: int) -> np.ndarray:
    """``std_normal(seed, i)`` for i in range(n)."""
    raw = raw64_range(seed, 2 * n)
    u1 = _unit(raw[0::2], 1)
    u2 = _unit(raw[1::2], 0)
    radius = np.sqrt(-2.0 * libm_map(math.log, u1))
    return radius * libm_map(math.cos, (2.0 * math.pi) * u2)
