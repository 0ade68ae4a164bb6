"""The builder of the shipped fixture ``qtf/data/synthetic_tracks_228.csv``.

The original measurement dataset is not redistributable, so the package
ships 228 synthetic radii whose headline statistics match the published
values by construction.  ``tests/test_tracks.py`` checks that
``fixture_text()`` equals the shipped file byte for byte.
"""

from __future__ import annotations

import math

# Construction targets (mm): 228 rows, median 6.67, mean 7.42, population
# sigma 5.05, exactly 161 rows inside the inclusive 1-sigma band
# [2.37, 12.47], in-band mean 7.42, long right tail reaching 50.
_N_ROWS = 228
_TOTAL_SUM = _N_ROWS * 7.42
_TOTAL_SQ = _N_ROWS * (7.42**2 + 5.05**2)
_IN_BAND_SUM = 161 * 7.42
_OUT_BAND_SUM = _TOTAL_SUM - _IN_BAND_SUM


def _spread(a: float, b: float, n: int) -> list[float]:
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


def synthetic_radii_mm() -> list[float]:
    """Deterministic 228-radius sample hitting the fixture targets.

    Fixed groups place 113 values below the median pair and keep exactly
    161 values inside the band; three free values (one in-band below the
    median, one in-band above it, one in the high tail) are then solved
    in closed form so that the in-band sum, out-of-band sum, and total
    sum of squares land exactly on target.  A fixed stride permutation
    turns the sorted construction into a plausible observation order.
    """
    low = _spread(2.00, 2.30, 44)            # out of band, low side
    in_below = _spread(6.00, 6.64, 68)       # in band, below median
    center = [6.67, 6.67]                    # the two central order stats
    in_above = _spread(7.00, 9.5645, 89)     # in band, above median
    high = _spread(12.60, 16.66, 21) + [50.0]  # out of band, right tail

    fixed_out = low + high
    fixed_in = in_below + center + in_above
    w = _OUT_BAND_SUM - math.fsum(fixed_out)
    pair_sum = _IN_BAND_SUM - math.fsum(fixed_in)
    pair_sq = (
        _TOTAL_SQ
        - math.fsum(x * x for x in fixed_out + fixed_in)
        - w * w
    )
    gap = math.sqrt(2.0 * pair_sq - pair_sum * pair_sum)
    u = (pair_sum - gap) / 2.0
    v = (pair_sum + gap) / 2.0

    ordered = low + in_below + [u] + center + in_above + [v] + high + [w]
    return [ordered[(i * 97 + 13) % _N_ROWS] for i in range(_N_ROWS)]


def fixture_text() -> str:
    """The shipped fixture CSV, regenerated from the builder."""
    lines = [
        "# synthetic track radii (mm), deterministic fixture",
        "# targets: median 6.67, mean 7.42, sigma 5.05, 161 in 1-sigma band",
        "radius_mm",
    ]
    lines.extend(repr(v) for v in synthetic_radii_mm())
    return "\n".join(lines) + "\n"
