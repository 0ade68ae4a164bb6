import json
import math
from pathlib import Path

import pytest

import qtf
from qtf.constants import PhysConsts, constants_snapshot, get_consts, get_paper_values


def test_hbar_is_h_over_two_pi():
    c = get_consts()
    assert c.hbar == pytest.approx(c.h / (2 * math.pi), rel=1e-12)


def test_fields_strictly_positive():
    c = get_consts()
    assert c.h > 0 and c.hbar > 0 and c.k_b > 0 and c.default_temperature > 0


def test_codata_exact_values():
    c = get_consts()
    assert c.h == 6.62607015e-34
    assert c.k_b == 1.380649e-23
    assert c.default_temperature == 300.0


def test_full_precision_hbar_rounds_to_stated_value():
    # the stated rounded constant is 1.055e-34
    assert get_consts().hbar == pytest.approx(1.055e-34, rel=5e-4)


def test_referential_transparency():
    a, b = get_consts(), get_consts()
    assert a == b
    assert (a.h, a.hbar, a.k_b, a.default_temperature) == (
        b.h,
        b.hbar,
        b.k_b,
        b.default_temperature,
    )


def test_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        PhysConsts(k_b=0.0)
    with pytest.raises(ValueError):
        PhysConsts(h=-1e-34)


def test_paper_values_transcription():
    p = get_paper_values()
    assert p.n_median == 2.06e13
    assert p.floor_n == 1e12
    assert p.momentum == 3.26e-19
    assert p.hbar == 1.055e-34
    assert p.median_radius == 6.67e-3
    assert p.mean_radius == 7.42e-3
    assert p.radius_sigma == 5.05e-3
    assert p.n_mean == 2.29e13
    assert p.alpha_mass == 6.644e-27
    assert p.alpha_energy == 8.01e-13


def test_snapshot_file_matches_runtime_values():
    # transcription audit: the checked-in JSON is the source of truth
    snapshot = Path(qtf.__file__).parent / "data" / "constants.json"
    assert json.loads(snapshot.read_text("utf-8")) == constants_snapshot()


def test_stated_momentum_disagrees_with_derived_momentum():
    # both routes are exposed; the stated value is ~sqrt(10) higher than
    # sqrt(2*m*E) from the stated mass and energy, and nothing here
    # decides which was intended
    p = get_paper_values()
    derived = math.sqrt(2 * p.alpha_mass * p.alpha_energy)
    assert p.momentum / derived == pytest.approx(math.sqrt(10), rel=0.01)
