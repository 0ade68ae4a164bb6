import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtf.rng import (
    DRAW_BLOCK,
    libm_log,
    libm_map,
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


@given(seed=SEEDS, n=st.integers(min_value=0, max_value=300))
@example(seed=-1, n=50)
@example(seed=2**64 - 1, n=50)
@example(seed=2**70 + 3, n=50)
@settings(deadline=None)
def test_bulk_draws_equal_scalar_definition(seed, n):
    assert raw64_range(seed, n).tolist() == [raw64(seed, i) for i in range(n)]
    assert unit_uniform_range(seed, n).tolist() == [unit_uniform(seed, i) for i in range(n)]
    assert std_normal_range(seed, n).tolist() == [std_normal(seed, i) for i in range(n)]


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


def libm_list(fn, values: np.ndarray) -> list[float]:
    return [fn(x) for x in values.tolist()]


def test_numpy_cos_is_the_c_library_cos():
    # std_normal_range takes cos from numpy's float64 loop, which calls
    # the C library's cos, the function math.cos calls; should numpy
    # ever bring its own cos, the bulk draws would drift from std_normal
    angles = (2.0 * math.pi) * unit_uniform_range(5, 100_000)
    gen = np.random.default_rng(3)
    wide = np.ldexp(gen.uniform(-1.0, 1.0, 100_000), gen.integers(-60, 1000, 100_000))
    for values in (angles, wide):
        mismatched = np.flatnonzero(
            np.cos(values).view(np.uint64)
            != np.array(libm_list(math.cos, values)).view(np.uint64)
        )
        assert mismatched.size == 0, (
            f"np.cos differs from math.cos at {mismatched.size} of {values.size}"
            f" values, first at {values[mismatched[0]]!r}; route the Box-Muller"
            " angle in std_normal_range back through libm_map(math.cos, ...)"
        )


@pytest.mark.parametrize(
    "bulk, fn",
    [
        (partial(libm_map, math.log), math.log),
        (partial(libm_map, math.cos), math.cos),
        (partial(libm_map, math.exp), math.exp),
        (libm_log, math.log),
    ],
    ids=["log", "cos", "exp", "libm_log"],
)
def test_libm_map_reads_strided_and_read_only_arrays(bulk, fn):
    base = unit_uniform_range(9, 1001) + 0.5
    read_only = base.copy()
    read_only.flags.writeable = False
    for values in (base, base[::3], base[::-2], read_only, read_only[1::2], base[:0]):
        out = bulk(values)
        assert out.dtype == np.float64
        assert [struct.pack("<d", x) for x in out.tolist()] == [
            struct.pack("<d", x) for x in libm_list(fn, values)
        ]


# Sizes numpy refuses before it allocates anything (from 2**63 - 1 on,
# np.arange gives an empty range for them), and a negative one.
HUGE_SIZES = [2**61, 2**62, 2**63 - 1, 2**63, 2**64 - 2, -1]


@pytest.mark.parametrize("n", HUGE_SIZES)
@pytest.mark.parametrize("bulk", [raw64_range, unit_uniform_range, std_normal_range])
def test_bulk_draws_return_exactly_n_values_or_raise(bulk, n):
    with pytest.raises(ValueError):
        bulk(3, n)
