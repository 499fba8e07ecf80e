"""Envelope construction and integral tests against independent quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relqkd.errors import InvalidParameterError
from relqkd.wavepacket import (
    AmplitudeProfile, Interval, _grid, _overhang_tail, _plateau_samples,
    make_plateau, mass_in_interval, overlap,
)


def dense_quadrature(profile, lo, hi, n=200_001):
    """Independent oracle: plain trapezoid on a dense resampling of |F|^2."""
    x = np.linspace(lo, hi, n)
    return float(np.trapezoid(profile.value(x) ** 2, x))


class TestInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(InvalidParameterError):
            Interval(1.0, 0.0)


class TestMakePlateau:
    def test_ideal_flat_profile(self):
        p = make_plateau(1.0, 0.0, 0.0)
        assert p.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert mass_in_interval(p, p.window) == pytest.approx(1.0, abs=1e-12)
        assert p.flat_value == pytest.approx(1.0, abs=1e-12)
        assert p.tail_mass == 0.0

    def test_window_mass_hits_requested_tail(self):
        p = make_plateau(1.0, 0.01, 0.02)
        assert mass_in_interval(p, p.window) == pytest.approx(0.99, abs=1e-6)
        assert p.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert p.tail_mass == pytest.approx(0.01, abs=1e-6)

    def test_flat_value_for_double_extent(self):
        # Unit norm plus window mass 1 - delta pin the flat top slightly
        # below 1/sqrt(L); regression value from the quadrature oracle.
        p = make_plateau(2.0, 0.01, 0.02)
        assert p.flat_value == pytest.approx(0.70360766, abs=1e-6)
        assert abs(p.flat_value * math.sqrt(2.0) - 1.0) < 0.01
        # Flat across the plateau interior.
        xs = np.linspace(0.2, 1.8, 101)
        assert np.ptp(p.value(xs)) < 1e-12

    def test_dense_quadrature_agrees(self):
        p = make_plateau(1.5, 0.008, 0.03)
        lo, hi = p.support.lo, p.support.hi
        assert dense_quadrature(p, lo - 0.1, hi + 0.1) == pytest.approx(1.0, abs=1e-6)
        assert dense_quadrature(p, p.window.lo, p.window.hi) == pytest.approx(
            1.0 - p.tail_mass, abs=1e-6)

    def test_infeasible_tail_is_clamped(self):
        p = make_plateau(1.0, 0.5, 0.02)
        assert p.tail_mass < 0.5
        assert mass_in_interval(p, p.window) >= 1.0 - 0.5

    # (L, tail, ramp) -> tail_mass, flat_value, x[0], x.size of the profile
    # built by solving the overhang on whole padded profiles.  The fifth
    # case is the narrowest ramp the grid accepts, 8/4096 of L.
    @pytest.mark.parametrize("args, tail, flat, x0, size", [
        ((1.0, 1e-3, 0.05), 0.0009999999571734808, 1.0116909938248768,
         -0.019761120956416058, 4259),
        ((1.0, 1e-6, 0.1), 9.99998025719151e-07, 1.0591757653257998,
         -0.008191193949795728, 4165),
        ((2.5, 1e-2, 0.2), 0.01000000000338197, 0.6517030972302625,
         -0.2397548568499221, 4883),
        ((0.7, 1e-4, 0.01), 9.999858648268578e-05, 1.1986275925706402,
         -0.002393663425124981, 4126),
        ((1.0, 1e-3, 8 / 4096), 0.0010002115774119247, 0.9995081988016264,
         -0.0017190537646797344, 4112),
        ((1.0, 0.3, 0.05), 0.03614412274268641, 0.9817616196765001, -0.05, 4507),
    ])
    def test_pinned_plateau_values(self, args, tail, flat, x0, size):
        p = make_plateau(*args)
        assert abs(p.tail_mass - tail) <= 1e-12
        assert abs(p.flat_value - flat) <= 1e-12
        assert abs(p.x[0] - x0) <= 1e-12
        assert p.x.size == size

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.005, 0.499), st.floats(8.0, 100.0),
           st.floats(0.0, 1.0))
    def test_overhang_tail_matches_full_grid(self, L, ramp, samples_per_ramp, a_frac):
        """The ramp-only solve equals the tail of the whole padded profile."""
        w = ramp * L
        resolution = samples_per_ramp / w
        a = a_frac * w
        x = _grid(-w, L + w, resolution)
        full = AmplitudeProfile(x, _plateau_samples(L, w, a, x), L, 0.0)
        assert _overhang_tail(L, w, x)(a) == pytest.approx(
            full.normalized().tail_mass, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(plateau_length=0.0),
        dict(plateau_length=-1.0),
        dict(plateau_length=1.0, tail_mass=1.0),
        dict(plateau_length=1.0, tail_mass=-0.1),
        dict(plateau_length=1.0, ramp_fraction=0.5),
        dict(plateau_length=1.0, tail_mass=0.01, ramp_fraction=0.00195),
        dict(plateau_length=1.0, tail_mass=0.01, ramp_fraction=0.0),
        dict(plateau_length=math.nan),
        dict(plateau_length=math.inf),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            make_plateau(**kwargs)


class TestMassInInterval:
    def test_left_half_by_symmetry(self):
        p = make_plateau(1.0)
        assert mass_in_interval(p, Interval(0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_window(self):
        p = make_plateau(1.0)
        assert mass_in_interval(p, Interval(5.0, 6.0)) == 0.0

    def test_partial_window_fraction(self):
        # A window of length 0.6 L inside the support carries 0.6 of the mass.
        p = make_plateau(1.0)
        assert mass_in_interval(p, Interval(0.1, 0.7)) == pytest.approx(0.6, abs=1e-12)

    def test_time_translation(self):
        p = make_plateau(1.0)
        w = Interval(0.3, 0.8)
        assert mass_in_interval(p, w.shifted(2.0), 2.0) == pytest.approx(
            mass_in_interval(p, w), abs=1e-12)

    def test_shift_moves_support_exactly(self):
        p = make_plateau(1.0, 0.01, 0.02)
        q = p.shifted(3.25)
        assert q.support.lo == pytest.approx(p.support.lo + 3.25, abs=0)
        assert q.window.lo == pytest.approx(p.window.lo + 3.25, abs=0)


class TestOverlap:
    def test_self_overlap_is_unit(self):
        p = make_plateau(1.0)
        assert overlap(p, p, Interval(-1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_copy(self):
        p = make_plateau(1.0)
        q = p.shifted(-0.25)
        amp = overlap(p, q, Interval(-2.0, 2.0))
        assert amp == pytest.approx(0.75, abs=1e-12)
        assert amp ** 2 == pytest.approx(0.5625, abs=1e-12)

    def test_truncated_renormalized_saturates_delay_bound(self):
        p = make_plateau(1.0)
        chi = 0.25
        q = p.restrict(Interval(chi, 1.0)).normalized()
        amp = overlap(p, q, Interval(0.0, 1.0))
        assert amp == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert amp ** 2 == pytest.approx(0.75, abs=1e-12)

    def test_delay_bound_over_chi_grid_ideal(self):
        # No delayed substitute can pass the test with probability above
        # 1 - chi/L; the truncated-renormalized resend saturates it.
        p = make_plateau(1.0)
        L = 1.0
        for chi in np.linspace(0.0, 0.9, 10):
            window = Interval(p.support.lo + chi, p.support.hi)
            q = p.restrict(window).normalized()
            amp = overlap(p, q, window)
            assert amp ** 2 <= 1.0 - chi / L + 1e-9

    def test_delay_bound_with_tails(self):
        # The bound is derived for the exactly flat state; edge ramps leave
        # a mass deficit of order the ramp width, so the slack scales with
        # the ramp geometry rather than staying at quadrature level.
        p = make_plateau(1.0, 0.002, 0.02)
        L = 1.0
        slack = 0.02 * L
        for chi in np.linspace(0.0, 0.9, 10):
            window = Interval(p.window.lo, p.window.hi - chi)
            q = p.restrict(Interval(p.support.lo + chi, p.support.hi)).normalized()
            amp = overlap(p, q, window)
            assert amp ** 2 <= 1.0 - chi / L + slack


profiles = st.builds(
    make_plateau,
    st.floats(0.5, 3.0),
    st.floats(0.0, 0.02),
    st.floats(0.02, 0.1),
)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(profiles)
    def test_unit_mass_everywhere(self, p):
        whole = Interval(p.support.lo - 1.0, p.support.hi + 1.0)
        assert mass_in_interval(p, whole) == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(profiles, st.floats(-0.5, 0.5), st.floats(0.1, 2.0), st.floats(0.0, 1.0))
    def test_mass_monotone_in_window(self, p, lo, length, grow):
        small = Interval(lo, lo + length)
        large = Interval(lo - grow, lo + length + grow)
        assert mass_in_interval(p, small) <= mass_in_interval(p, large) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(profiles, st.floats(0.0, 0.8), st.floats(-0.2, 1.0), st.floats(0.3, 1.5))
    def test_cauchy_schwarz(self, p, chi, lo, length):
        q = p.shifted(-chi)
        w = Interval(lo, lo + length)
        amp = overlap(p, q, w)
        bound = mass_in_interval(p, w) * mass_in_interval(q, w)
        assert amp * amp <= bound + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(profiles, st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
    def test_translation_covariance(self, p, delta, t):
        w = Interval(0.2, 0.9)
        lhs = mass_in_interval(p, w, t)
        rhs = mass_in_interval(p, w.shifted(-delta), t - delta)
        assert lhs == pytest.approx(rhs, abs=1e-12)
