import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtf.cli
from oracles import budget_reference
from qtf.constants import PAPER_REFERENCE, PAPER_TARGET, PHYSICAL
from qtf.errors import DomainError
from qtf.thermo import (
    ThermoQuery,
    audit_against_paper,
    compute_budget,
)

# Frozen extended-precision oracle values (50-digit arithmetic):
#   k_B * 300 * ln 2      = 2.8709788850787238e-21
#   k_B * 300 / (h/2pi)   = 3.9276101738096701e13
#   (h/2pi) / 1e-3        = 1.0545718176461564e-31
#   1e23 * k_B * 300      = 414.1947
#   h * 60 / 4            = 9.939105225e-33
ERASE_PER_BIT_300K = 2.8709788850787238e-21
DECOHERENCE_300K = 3.9276101738096701e13
MIN_SUSTAIN_1MS = 1.0545718176461564e-31
COHERENCE_1E23_300K = 414.1947
ML_MIN_60HZ = 9.939105225e-33

temps = st.floats(min_value=1e-3, max_value=1e6)
counts = st.floats(min_value=0.0, max_value=1e30)
scales = st.floats(min_value=1e-6, max_value=1e6)


class TestLandauer:
    def test_single_bit_oracle(self):
        budget = compute_budget(ThermoQuery(temperature=300.0, bits=1.0))
        assert budget.erase_per_bit == pytest.approx(ERASE_PER_BIT_300K, rel=1e-12)
        assert budget.erase_total == budget.erase_per_bit

    def test_megabit_total(self):
        total = compute_budget(ThermoQuery(temperature=300.0, bits=1e6)).erase_total
        assert total == pytest.approx(2.8709788850787238e-15, rel=1e-12)
        # one-significant-figure agreement with the stated 3e-15
        assert f"{total:.0e}" == "3e-15"

    def test_zero_bits(self):
        assert compute_budget(ThermoQuery(temperature=300.0, bits=0.0)).erase_total == 0.0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            compute_budget(ThermoQuery(temperature=0.0, bits=1.0))

    @given(t=temps)
    @settings(deadline=None)
    def test_per_bit_over_kbt_is_ln2(self, t):
        per_bit = compute_budget(ThermoQuery(temperature=t, bits=1.0)).erase_per_bit
        assert per_bit / (PHYSICAL["k_b"] * t) == pytest.approx(math.log(2), rel=1e-12)

    @given(t=temps, bits=counts, k=scales)
    @settings(deadline=None)
    def test_linear_in_bits(self, t, bits, k):
        total = compute_budget(ThermoQuery(temperature=t, bits=bits)).erase_total
        scaled = compute_budget(ThermoQuery(temperature=t, bits=k * bits)).erase_total
        assert scaled == pytest.approx(k * total, rel=1e-12)


def decoherence_rate(temperature):
    return compute_budget(ThermoQuery(temperature=temperature)).decoherence_rate


class TestDecoherenceRate:
    def test_room_temperature_oracle(self):
        assert decoherence_rate(300.0) == pytest.approx(DECOHERENCE_300K, rel=1e-12)

    def test_linear_in_temperature(self):
        assert decoherence_rate(30.0) == pytest.approx(DECOHERENCE_300K / 10, rel=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            decoherence_rate(-5.0)


def min_sustain_energy(sustain_time):
    return compute_budget(ThermoQuery(sustain_time=sustain_time)).min_sustain


class TestMinSustain:
    def test_one_millisecond_oracle(self):
        e = min_sustain_energy(1e-3)
        assert e == pytest.approx(MIN_SUSTAIN_1MS, rel=1e-12)
        assert e == pytest.approx(1.055e-31, rel=1e-3)

    def test_one_second_equals_hbar(self):
        assert min_sustain_energy(1.0) == PHYSICAL["hbar"]

    def test_inverse_scaling(self):
        assert min_sustain_energy(1e-6) == pytest.approx(MIN_SUSTAIN_1MS * 1e3, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            min_sustain_energy(0.0)


def coherence_cost(n_modes, temperature):
    query = ThermoQuery(n_modes=n_modes, temperature=temperature)
    return compute_budget(query).coherence_cost


class TestCoherenceCost:
    def test_avogadro_scale_oracle(self):
        assert coherence_cost(1e23, 300.0) == pytest.approx(COHERENCE_1E23_300K, rel=1e-12)

    def test_zero_modes(self):
        assert coherence_cost(0.0, 300.0) == 0.0

    def test_single_mode_is_kbt(self):
        assert coherence_cost(1.0, 300.0) == PHYSICAL["k_b"] * 300.0

    @given(n=counts, t=temps, k=scales)
    @settings(deadline=None)
    def test_linear_in_modes(self, n, t, k):
        assert coherence_cost(k * n, t) == pytest.approx(k * coherence_cost(n, t), rel=1e-12)


def ml_bound(frame_rate, bits):
    """The speed-limit energy at the transition time 1/frame_rate, and
    for ``bits`` transitions per frame."""
    budget = compute_budget(ThermoQuery(frame_rate=frame_rate, bits=bits))
    return budget.ml_min_energy, budget.per_frame


class TestMlBound:
    def test_single_transition_oracle(self):
        ml_min, per_frame = ml_bound(60.0, 1.0)
        assert ml_min == pytest.approx(ML_MIN_60HZ, rel=1e-12)
        assert per_frame == ml_min

    def test_megabit_frame(self):
        _, per_frame = ml_bound(60.0, 1e6)
        assert per_frame == pytest.approx(9.939105225e-27, rel=1e-12)

    def test_exact_inversion(self):
        ml_min, _ = ml_bound(1.0 / (PHYSICAL["h"] / 4.0), 1.0)
        assert ml_min == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        # a transition time of 0 is an infinite frame rate
        with pytest.raises(DomainError):
            ml_bound(math.inf, 1.0)

    @given(t=st.floats(min_value=1e-12, max_value=1e6))
    @settings(deadline=None)
    def test_inversion_identity(self, t):
        ml_min, _ = ml_bound(1.0 / t, 1.0)
        assert ml_min * 4.0 * t / PHYSICAL["h"] == pytest.approx(1.0, rel=1e-12)


def dynamic_rendering_rate(energy_per_mode_per_frame, n_modes, frame_rate):
    query = ThermoQuery(
        energy_per_mode_per_frame=energy_per_mode_per_frame,
        n_modes=n_modes,
        frame_rate=frame_rate,
    )
    return compute_budget(query).dynamic_rate


class TestDynamicRate:
    def test_stated_inputs(self):
        assert dynamic_rendering_rate(6e-14, 1e23, 60.0) == pytest.approx(3.6e11, rel=1e-12)

    def test_zero_modes(self):
        assert dynamic_rendering_rate(1.0, 0.0, 60.0) == 0.0

    def test_identity_case(self):
        assert dynamic_rendering_rate(1.0, 1.0, 1.0) == 1.0

    @given(e=st.floats(min_value=0, max_value=1e3), n=counts, f=temps, k=scales)
    @settings(deadline=None)
    def test_linear_in_rate(self, e, n, f, k):
        assert dynamic_rendering_rate(e, n, k * f) == pytest.approx(
            k * dynamic_rendering_rate(e, n, f), rel=1e-12
        )


class TestAsymmetryRatio:
    """The wave-vs-collapsed scene ratio of the budget report."""

    def ratio(self):
        return qtf.cli._budget_body(ThermoQuery())["reference"]["asymmetry_scene_ratio"]

    def test_stated_scene_values(self):
        assert self.ratio() == pytest.approx(1e4, rel=1e-12)

    def test_defaults_use_reference_table(self):
        assert self.ratio() == pytest.approx(
            PAPER_REFERENCE["wave_scene_j"] / PAPER_REFERENCE["collapsed_scene_j"], rel=1e-12
        )

    @given(t=temps, bits=counts, fps=st.floats(min_value=1e-2, max_value=1e4))
    @settings(deadline=None)
    def test_ratio_does_not_move_with_the_query(self, t, bits, fps):
        query = ThermoQuery(temperature=t, bits=bits, frame_rate=fps)
        body = qtf.cli._budget_body(query)
        assert body["reference"]["asymmetry_scene_ratio"] == self.ratio()


class TestBudgetAndAudit:
    def test_budget_fields_nonnegative_and_finite(self):
        budget = compute_budget(ThermoQuery())
        for name in vars(budget):
            value = getattr(budget, name)
            assert math.isfinite(value) and value >= 0, f"{name} = {value}"

    @given(
        t=st.floats(min_value=1.0, max_value=1e4),
        bits=st.floats(min_value=0.0, max_value=1e9),
        modes=st.floats(min_value=0.0, max_value=1e26),
        tau=st.floats(min_value=1e-9, max_value=1e3),
        fps=st.floats(min_value=1e-2, max_value=1e4),
    )
    @settings(deadline=None)
    def test_budget_positivity_for_valid_queries(self, t, bits, modes, tau, fps):
        budget = compute_budget(
            ThermoQuery(
                temperature=t, bits=bits, n_modes=modes, sustain_time=tau, frame_rate=fps
            )
        )
        for name in vars(budget):
            value = getattr(budget, name)
            assert math.isfinite(value) and value >= 0, f"{name} = {value}"

    @pytest.mark.parametrize(
        "query, component",
        [
            (ThermoQuery(temperature=1e308), "decoherence_rate"),
            (ThermoQuery(energy_per_mode_per_frame=1e300), "dynamic_rate"),
            (ThermoQuery(temperature=1e100, bits=1e308), "erase_total"),
            (ThermoQuery(temperature=1e100, n_modes=1e308), "coherence_cost"),
            (ThermoQuery(frame_rate=1e308, bits=1e308), "per_frame"),
        ],
    )
    def test_component_out_of_float_range_is_domain_error(self, query, component):
        with pytest.raises(DomainError, match=f"budget component {component} is not"):
            compute_budget(query)

    @pytest.mark.parametrize(
        "field", ["temperature", "bits", "n_modes", "sustain_time", "energy_per_mode_per_frame"]
    )
    def test_smallest_positive_input_gives_a_finite_budget(self, field):
        # underflow to 0 is a value, not an error; only the reciprocal of
        # frame_rate can overflow, and ThermoQuery refuses that
        budget = compute_budget(ThermoQuery(**{field: 5e-324}))
        for name, value in vars(budget).items():
            assert math.isfinite(value) and value >= 0, f"{name} = {value}"

    def test_query_is_required(self):
        with pytest.raises(TypeError):
            compute_budget()

    def test_erase_total_consistency(self):
        query = ThermoQuery()
        budget = compute_budget(query)
        assert budget.erase_total == pytest.approx(
            query.bits * budget.erase_per_bit, rel=1e-12
        )

    def test_audit_flags_exactly_the_known_inconsistencies(self):
        records = audit_against_paper(compute_budget(ThermoQuery()))
        by_name = {r.quantity: r for r in records}
        # every budget target, in the order of the table
        assert list(by_name) == [
            "erase_per_bit", "erase_total", "decoherence_rate", "min_sustain", "per_frame",
            "dynamic_rate",
        ]
        assert all(by_name[name].stated == PAPER_TARGET[name] for name in by_name)
        flagged = {name for name, r in by_name.items() if r.flagged}
        assert flagged == {"decoherence_rate", "per_frame"}

    def test_audit_gap_values(self):
        records = {r.quantity: r for r in audit_against_paper(compute_budget(ThermoQuery()))}
        assert records["erase_per_bit"].relative_gap == pytest.approx(0.043, abs=0.001)
        assert records["min_sustain"].relative_gap == pytest.approx(0.0546, abs=0.001)
        assert records["decoherence_rate"].relative_gap == pytest.approx(8.82, abs=0.01)
        assert records["per_frame"].relative_gap == pytest.approx(1.0, abs=1e-6)
        assert records["dynamic_rate"].relative_gap < 1e-12

    def test_flag_threshold_boundary(self):
        records = {r.quantity: r for r in audit_against_paper(compute_budget(ThermoQuery()))}
        for name, record in records.items():
            assert record.flagged == (record.relative_gap > 0.10), name
        # gaps of 9.5% and 10.5% either side of the 10% threshold
        stated = PAPER_TARGET["erase_per_bit"]
        budget = compute_budget(ThermoQuery())
        for factor, flagged in ((1.095, False), (1.105, True)):
            [record] = [
                r
                for r in audit_against_paper(replace(budget, erase_per_bit=stated * factor))
                if r.quantity == "erase_per_bit"
            ]
            assert record.flagged == flagged, factor

    def test_query_validation(self):
        with pytest.raises(DomainError):
            ThermoQuery(temperature=-1.0)
        with pytest.raises(DomainError):
            ThermoQuery(bits=-1.0)
        with pytest.raises(DomainError):
            ThermoQuery(frame_rate=0.0)


# Every finite float an input may take, subnormals and the largest included
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@given(
    temperature=POSITIVE,
    bits=NONNEGATIVE,
    n_modes=NONNEGATIVE,
    sustain_time=POSITIVE,
    frame_rate=POSITIVE,
    energy_per_mode_per_frame=NONNEGATIVE,
)
@settings(deadline=None, max_examples=500)
def test_budget_equals_the_reference_bit_for_bit(**inputs):
    try:
        query = ThermoQuery(**inputs)
    except DomainError:
        assume(False)  # 1/frame_rate overflows: not a valid query
    try:
        expected = budget_reference(query)
    except DomainError as exc:
        with pytest.raises(DomainError) as excinfo:
            compute_budget(query)
        assert (str(excinfo.value), excinfo.value.name) == (str(exc), exc.name)
        return
    budget = compute_budget(query)
    assert {name: value.hex() for name, value in vars(budget).items()} == {
        name: value.hex() for name, value in expected.items()
    }
