import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtf.rng import (
    DRAW_BLOCK,
    libm_apply,
    raw64,
    raw64_range,
    std_normal,
    std_normal_range,
    unit_uniform,
    unit_uniform_open,
    unit_uniform_range,
)

# Reference splitmix64 outputs for initial state 0 (the widely published
# test vector for the canonical mix function).
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_known_answer_vectors():
    assert [raw64(0, i) for i in range(3)] == SPLITMIX64_SEED0


def test_counter_purity():
    # draw 5 depends only on (seed, 5), not on any earlier draws
    assert raw64(1234, 5) == raw64(1234, 5)
    forward = [raw64(42, i) for i in range(10)]
    backward = [raw64(42, i) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


def test_seed_sensitivity():
    assert raw64(1, 0) != raw64(2, 0)
    assert unit_uniform(1, 0) != unit_uniform(2, 0)


def test_uniform_ranges():
    for i in range(2000):
        u = unit_uniform(99, i)
        v = unit_uniform_open(99, i)
        assert 0.0 <= u < 1.0
        assert 0.0 < v <= 1.0


def test_normal_moments_are_sane():
    n = 20000
    draws = [std_normal(7, i) for i in range(n)]
    mean = sum(draws) / n
    var = sum((x - mean) ** 2 for x in draws) / n
    assert abs(mean) < 0.05
    assert abs(math.sqrt(var) - 1.0) < 0.05


def test_negative_seed_is_normalized():
    # seeds are used mod 2**64; any integer is accepted
    assert raw64(-1, 0) == raw64(-1 % (1 << 64), 0)


# Bulk draws must equal the scalar (seed, i) definition bit for bit,
# for seeds anywhere on the integer line (they are used mod 2**64).
SEEDS = st.integers(min_value=-(2**70), max_value=2**70 + 3)


# Draws start..start+n-1: from 0, from small offsets and from offsets
# past 2**32.
STARTS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=2**32, max_value=2**40),
)


@given(seed=SEEDS, n=st.integers(min_value=0, max_value=300), start=STARTS)
@example(seed=-1, n=50, start=0)
@example(seed=2**64 - 1, n=50, start=0)
@example(seed=2**70 + 3, n=50, start=0)
@example(seed=5, n=50, start=8192)
@example(seed=5, n=50, start=2**32 + 1)
@settings(deadline=None)
def test_bulk_draws_equal_scalar_definition(seed, n, start):
    counters = range(start, start + n)
    assert raw64_range(seed, n, start).tolist() == [raw64(seed, i) for i in counters]
    assert unit_uniform_range(seed, n, start).tolist() == [
        unit_uniform(seed, i) for i in counters
    ]
    assert std_normal_range(seed, n, start).tolist() == [std_normal(seed, i) for i in counters]


@given(
    seed=SEEDS,
    start=st.integers(min_value=0, max_value=3 * DRAW_BLOCK),
    n=st.integers(min_value=0, max_value=100),
)
@example(seed=0, start=DRAW_BLOCK, n=DRAW_BLOCK)
@example(seed=2**64 - 1, start=DRAW_BLOCK - 1, n=2)
@settings(deadline=None)
def test_normal_range_from_an_offset_equals_scalar_definition(seed, start, n):
    bulk = std_normal_range(seed, n, start)
    assert bulk.tolist() == [std_normal(seed, i) for i in range(start, start + n)]


def test_bulk_normals_bit_identical_over_many_draws():
    # numpy's own log/cos differ from libm on a few percent of draws;
    # at this size a route through them would not go unnoticed
    n = 20_000
    bulk = std_normal_range(11, n).tolist()
    assert [struct.pack("<d", x) for x in bulk] == [
        struct.pack("<d", std_normal(11, i)) for i in range(n)
    ]


# Inputs for each libm function: the values the draws hand it, then
# wide ones -- subnormals, the edges of the float range and, for exp,
# the arguments next to overflow (709.78) and to a result of 0 (-745.13).
_gen = np.random.default_rng(3)
_UNITS = unit_uniform_range(5, 100_000)
_TINY = [5e-324, 1e-320, 2.2250738585072014e-308, 2.225073858507201e-308]
LIBM_INPUTS = {
    "log": np.concatenate([
        _UNITS + 2.0**-53,  # u1: (0, 1] in steps of 2**-53
        np.ldexp(_gen.uniform(0.5, 1.0, 100_000), _gen.integers(-1073, 1025, 100_000)),
        _TINY,
        [1.0, 1.7976931348623157e308, math.inf],
    ]),
    "exp": np.concatenate([
        -5.0 + 2.0 * std_normal_range(5, 100_000),  # lognormal exponents
        _gen.uniform(-746.0, 709.78, 100_000),
        np.linspace(709.0, 709.782712893384, 2_000),
        np.linspace(-746.0, -744.0, 2_000),
        _TINY,
        [-0.0, -1e4, -math.inf],
    ]),
    "cos": np.concatenate([
        (2.0 * math.pi) * _UNITS,  # the Box-Muller angle
        np.ldexp(_gen.uniform(-1.0, 1.0, 100_000), _gen.integers(-60, 1000, 100_000)),
        _TINY,
        [-0.0, 1.7976931348623157e308],
    ]),
}


def _views(values: np.ndarray) -> list[np.ndarray]:
    """``values`` whole, strided, reversed, read-only and empty."""
    read_only = values.copy()
    read_only.flags.writeable = False
    return [values, values[::3], values[::-2], read_only, read_only[1::2], values[:0]]


@pytest.mark.parametrize("name", sorted(LIBM_INPUTS))
def test_libm_apply_is_the_c_library_function(name):
    # numpy's own float64 log and exp differ from libm in the last ulp
    # on a few percent of values; should libm_apply ever reach them, or a
    # numpy bring its own cos, the bulk draws would drift from std_normal
    ufunc, fn = getattr(np, name), getattr(math, name)
    for values in _views(LIBM_INPUTS[name]):
        out = libm_apply(ufunc, values)
        assert out.dtype == np.float64 and out.shape == values.shape
        expected = np.array([fn(x) for x in values.tolist()], dtype=np.float64)
        mismatched = np.flatnonzero(out.view(np.uint64) != expected.view(np.uint64))
        if mismatched.size:
            first = mismatched[0]
            pytest.fail(
                f"libm_apply(np.{name}, ...) differs from math.{name} at"
                f" {mismatched.size} of {values.size} values, first"
                f" {name}({float(values[first])!r}) = {float(out[first])!r},"
                f" math gives {float(expected[first])!r}"
            )


@pytest.mark.parametrize("name", sorted(LIBM_INPUTS))
def test_libm_apply_on_one_value_is_the_c_library_function(name):
    # one value alone does not overlap its output slot, which would send
    # it to numpy's SIMD loop, an ulp off for some values (exp(3.625)
    # with numpy 2.4.6 on x86-64); a run of n = k * DRAW_BLOCK + 1
    # draws ends on a one-value block
    ufunc, fn = getattr(np, name), getattr(math, name)
    for x in [3.625, *LIBM_INPUTS[name][:3000].tolist()]:
        [y] = libm_apply(ufunc, np.array([x])).tolist()
        assert y == fn(x), (name, x)


# Sizes numpy refuses before it allocates anything (from 2**63 - 1 on,
# np.arange gives an empty range for them), and a negative one.
HUGE_SIZES = [2**61, 2**62, 2**63 - 1, 2**63, 2**64 - 2, -1]


@pytest.mark.parametrize("n", HUGE_SIZES)
@pytest.mark.parametrize("bulk", [raw64_range, unit_uniform_range, std_normal_range])
def test_bulk_draws_return_exactly_n_values_or_raise(bulk, n):
    with pytest.raises(ValueError):
        bulk(3, n)
