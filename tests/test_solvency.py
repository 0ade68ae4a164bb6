import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtf.errors import DomainError
from qtf.solvency import ParticleSpec, action_index, momentum_from_energy, n_real_values

# Frozen extended-precision oracle values (50-digit arithmetic,
# computed independently before the implementation):
#   sqrt(2 * 6.644e-27 * 8.01e-13)            = 1.0316825093021593e-19
#   6.67e-3 * 3.26e-19 / (h/2pi)              = 2.0618984535860123e13
#   7.42e-3 * 3.26e-19 / (h/2pi)              = 2.2937461057883375e13
#   6.67e-3 * 1.0316825093021593e-19 / (h/2pi) = 6.5252287439320828e12
P_DERIVED = 1.0316825093021593e-19
N_MEDIAN_PAPER_P = 2.0618984535860123e13
N_FMEAN_PAPER_P = 2.2937461057883375e13
N_MEDIAN_DERIVED_P = 6.5252287439320828e12

positive = st.floats(min_value=1e-12, max_value=1e12)


class TestMomentumFromEnergy:
    def test_alpha_particle_oracle(self):
        p = momentum_from_energy(ParticleSpec(mass=6.644e-27, kinetic_energy=8.01e-13))
        assert p == pytest.approx(P_DERIVED, rel=1e-12)

    def test_zero_energy_gives_zero(self):
        assert momentum_from_energy(ParticleSpec(mass=6.644e-27, kinetic_energy=0.0)) == 0.0

    def test_exact_small_case(self):
        # 2*m*E = 4, sqrt = 2
        assert momentum_from_energy(ParticleSpec(mass=2.0, kinetic_energy=1.0)) == 2.0

    @pytest.mark.parametrize(
        "mass,energy",
        [(-1.0, 1.0), (0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)],
    )
    def test_rejects_bad_inputs(self, mass, energy):
        with pytest.raises(DomainError):
            ParticleSpec(mass=mass, kinetic_energy=energy)


class TestActionIndex:
    def test_median_radius_with_stated_momentum(self):
        n = action_index(6.67e-3, 3.26e-19)
        assert n == pytest.approx(N_MEDIAN_PAPER_P, rel=1e-12)
        assert n == pytest.approx(2.06e13, rel=5e-3)

    def test_filtered_mean_radius_with_stated_momentum(self):
        n = action_index(7.42e-3, 3.26e-19)
        assert n == pytest.approx(N_FMEAN_PAPER_P, rel=1e-12)
        assert n == pytest.approx(2.29e13, rel=5e-3)

    def test_median_radius_with_derived_momentum(self):
        n = action_index(6.67e-3, P_DERIVED)
        assert n == pytest.approx(N_MEDIAN_DERIVED_P, rel=1e-12)

    def test_zero_radius(self):
        n = action_index(0.0, 3.26e-19)
        assert type(n) is float and n == 0.0

    @pytest.mark.parametrize("radius,momentum", [(-1.0, 1.0), (1.0, -1.0), (math.inf, 1.0)])
    def test_rejects_bad_inputs(self, radius, momentum):
        with pytest.raises(DomainError):
            action_index(radius, momentum)

    @given(radius=positive, momentum=positive, factor=st.floats(min_value=1e-6, max_value=10.0))
    @settings(deadline=None)
    def test_strictly_increasing_in_radius(self, radius, momentum, factor):
        bigger = radius * (1.0 + factor)
        assert action_index(bigger, momentum) > action_index(radius, momentum)

    @given(radius=positive, momentum=positive, factor=st.floats(min_value=1e-6, max_value=10.0))
    @settings(deadline=None)
    def test_strictly_increasing_in_momentum(self, radius, momentum, factor):
        bigger = momentum * (1.0 + factor)
        assert action_index(radius, bigger) > action_index(radius, momentum)

    @given(radius=positive, momentum=positive, k=st.floats(min_value=1e-6, max_value=1e6))
    @settings(deadline=None)
    def test_scale_law(self, radius, momentum, k):
        scaled = action_index(k * radius, momentum)
        assert scaled == pytest.approx(k * action_index(radius, momentum), rel=1e-12)

    @given(radius=positive, momentum=positive)
    @settings(deadline=None)
    def test_equals_the_bulk_index_bit_for_bit(self, radius, momentum):
        [bulk] = n_real_values(np.array([radius]), momentum).tolist()
        assert action_index(radius, momentum) == bulk
