"""Envelope construction and integral tests against independent quadrature.

``make_plateau`` returns the closed-form ``Plateau``; the sampled
``AmplitudeProfile`` that ``oracle.sampled`` makes of it is the oracle the
closed forms are checked against, and is itself checked here.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from oracle import plateau_samples, sample, sampled
from relqkd.adversary import EveStrategy, channel_probabilities
from relqkd.errors import InvalidParameterError
from relqkd.harness import SimulateSpec, cmd_simulate
from relqkd.wavepacket import Interval, Plateau, make_plateau, mass_in_interval, overlap


def dense_quadrature(profile, lo, hi, n=200_001):
    """Independent oracle: plain trapezoid on a dense resampling of |F|^2."""
    x = np.linspace(lo, hi, n)
    return float(np.trapezoid(profile.value(x) ** 2, x))


class TestInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(InvalidParameterError):
            Interval(1.0, 0.0)

    def test_endpoints_that_are_no_real_numbers_rejected(self):
        # Once a raw TypeError.
        with pytest.raises(InvalidParameterError, match="lo must be a real number"):
            Interval("a", "b")
        assert Interval(np.float64(0.5), 1) == Interval(0.5, 1.0)


class TestMakePlateau:
    @pytest.mark.parametrize("args", [("a",), (1.0, None), (1.0, 0.1, "x")],
                             ids=["length", "ramp", "overhang"])
    def test_plateau_field_that_is_no_real_number_rejected(self, args):
        # Plateau("a") once raised a raw TypeError.
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            Plateau(*args)

    def test_ramped_length_is_bounded(self):
        # make_plateau(1e308, 1e-3, 0.05) once built a plateau whose
        # integrals raised a raw ValueError; without ramps there is no bound.
        with pytest.raises(InvalidParameterError, match="too long for edge ramps"):
            make_plateau(1e308, 1e-3, 0.05)
        with pytest.raises(InvalidParameterError, match="too long for edge ramps"):
            Plateau(1e308, 1e306)
        assert make_plateau(1e308).plateau_length == 1e308
        assert make_plateau(1e307, 1e-3, 0.05).ramp_width > 0.0

    def test_ideal_flat_profile(self):
        p = make_plateau(1.0, 0.0, 0.0)
        assert p == Plateau(1.0)
        assert (p.flat_value, p.tail_mass, p.norm) == (1.0, 0.0, 1.0)
        s = sampled(p)
        assert s.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert mass_in_interval(s, s.window) == pytest.approx(1.0, abs=1e-12)
        assert s.flat_value == pytest.approx(1.0, abs=1e-12)
        assert s.tail_mass == 0.0

    def test_window_mass_hits_requested_tail(self):
        p = make_plateau(1.0, 0.01, 0.02)
        s = sampled(p)
        assert mass_in_interval(s, s.window) == pytest.approx(0.99, abs=1e-6)
        assert s.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert s.tail_mass == pytest.approx(0.01, abs=1e-6)
        assert p.tail_mass == pytest.approx(0.01, rel=1e-12)

    def test_flat_value_for_double_extent(self):
        # Unit norm plus window mass 1 - delta pin the flat top slightly
        # below 1/sqrt(L); regression value from the quadrature oracle.
        p = make_plateau(2.0, 0.01, 0.02)
        assert p.flat_value == pytest.approx(0.70360766, abs=1e-6)
        assert abs(p.flat_value * math.sqrt(2.0) - 1.0) < 0.01
        # Flat across the plateau interior.
        xs = np.linspace(0.2, 1.8, 101)
        assert np.ptp(sampled(p).value(xs)) < 1e-12

    def test_dense_quadrature_agrees(self):
        p = make_plateau(1.5, 0.008, 0.03)
        s = sampled(p)
        lo, hi = s.support.lo, s.support.hi
        assert dense_quadrature(s, lo - 0.1, hi + 0.1) == pytest.approx(1.0, abs=1e-6)
        assert dense_quadrature(s, s.window.lo, s.window.hi) == pytest.approx(
            1.0 - p.tail_mass, abs=1e-6)

    def test_infeasible_tail_is_clamped(self):
        p = make_plateau(1.0, 0.5, 0.02)
        assert p.tail_mass < 0.5
        assert p.overhang == p.ramp_width
        s = sampled(p)
        assert mass_in_interval(s, s.window) >= 1.0 - 0.5

    # (L, tail, ramp) -> tail_mass, flat_value, x[0], x.size of the sampled
    # oracle at the closed-form overhang (x[0] is minus the overhang).  The
    # fifth case is a ramp of 8/4096 of L, the narrowest that the oracle's
    # grid covers with 8 samples; in the sixth the ramps sit fully outside.
    @pytest.mark.parametrize("args, tail, flat, x0, size", [
        ((1.0, 1e-3, 0.05), 0.0010000556713648523, 1.0116907455160722,
         -0.019761360756365587, 4259),
        ((1.0, 1e-6, 0.1), 1.0004874133606734e-06, 1.0591748062508146,
         -0.008192001090291185, 4165),
        ((2.5, 1e-2, 0.2), 0.010000018913778885, 0.6517030677288729,
         -0.2397549634342151, 4883),
        ((0.7, 1e-4, 0.01), 0.00010020855627923542, 1.1986257557369375,
         -0.0023947300792763384, 4126),
        ((1.0, 1e-3, 8 / 4096), 0.00099366461684669, 0.99951172931051,
         -0.0017155177995389686, 4112),
        ((1.0, 0.3, 0.05), 0.03614412274268641, 0.9817616196765001, -0.05, 4507),
    ])
    def test_pinned_plateau_values(self, args, tail, flat, x0, size):
        p = sampled(make_plateau(*args))
        assert abs(p.tail_mass - tail) <= 1e-12
        assert abs(p.flat_value - flat) <= 1e-12
        assert abs(p.x[0] - x0) <= 1e-12
        assert p.x.size == size

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.005, 0.499), st.floats(8.0, 100.0),
           st.floats(0.0, 1.0))
    def test_overhang_tail_matches_full_grid(self, L, ramp, samples_per_ramp, a_frac):
        """The closed-form tail is the sampled profile's, up to the grid error.

        Linear interpolation misses each ramp by at most h^2 max|C''|/8 =
        pi^2 h^2 / (16 w^2); carried through the mass ratio, the tail moves
        by less than pi^2 h^2 / (w L).
        """
        w = ramp * L
        h = w / samples_per_ramp
        plateau = Plateau(L, w, a_frac * w)
        assert abs(plateau.tail_mass - sample(plateau, 1.0 / h).tail_mass) <= (
            math.pi ** 2 * h * h / (w * L))

    @pytest.mark.parametrize("kwargs", [
        dict(plateau_length=0.0),
        dict(plateau_length=-1.0),
        dict(plateau_length=1.0, tail_mass=1.0),
        dict(plateau_length=1.0, tail_mass=-0.1),
        dict(plateau_length=1.0, ramp_fraction=0.5),
        # The ramp width 1e-308 is past the closed forms' limit (2 pi/w overflows).
        dict(plateau_length=1e-306, tail_mass=1e-3, ramp_fraction=0.01),
        dict(plateau_length=1.0, tail_mass=0.01, ramp_fraction=0.0),
        dict(plateau_length=math.nan),
        dict(plateau_length=math.inf),
        # Arguments that are no real number once raised a raw ValueError
        # (from float("x")) or TypeError (from a comparison).
        dict(plateau_length="x"),
        dict(plateau_length=1.0, tail_mass="x", ramp_fraction=0.05),
        dict(plateau_length=1.0, ramp_fraction=None),
        # A ramp width 1e-30 * 1e-300 that rounds to 0 once built the ideal
        # plateau, with tail mass 0 for a requested 1e-3.
        dict(plateau_length=1e-300, tail_mass=1e-3, ramp_fraction=1e-30),
        dict(plateau_length=1e-300, ramp_fraction=1e-30),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            make_plateau(**kwargs)

    @pytest.mark.parametrize("ramp_fraction", [0.00195, 1e-4, 1e-12])
    def test_ramps_below_the_old_sampling_floor_are_accepted(self, ramp_fraction):
        # make_plateau once refused every ramp below 8/4096 of L, so that a
        # sampled oracle had 8 samples per ramp; the closed forms need no floor.
        for tail in (1e-3, 0.01):
            p = make_plateau(1.0, tail, ramp_fraction)
            assert p.ramp_width == ramp_fraction and 0.0 < p.overhang <= p.ramp_width
            assert 0.0 < p.tail_mass <= tail


def carrier(plateau, y):
    """Unit-height carrier C with its window at [-L, 0], sampled at ``y``."""
    L, w, a = plateau.plateau_length, plateau.ramp_width, plateau.overhang
    x = np.asarray(y) + L
    inside = (x >= -a) & (x <= L + a)
    return np.where(inside, plateau_samples(L, w, a, x), 0.0)


class TestClosedForm:
    @pytest.mark.parametrize("args", [
        (1.0, 1e-3, 0.05), (1.0, 1e-6, 0.1), (2.5, 1e-2, 0.2), (0.7, 1e-4, 0.01),
        (1.0, 1e-3, 8 / 4096), (3.0, 1e-12, 0.4),
    ])
    def test_tail_hits_the_request(self, args):
        # The sampled solve missed (0.7, 1e-4, 0.01) by -1.4e-5 relative.
        assert make_plateau(*args).tail_mass == pytest.approx(args[1], rel=1e-12, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(1e-12, 0.05), st.floats(0.002, 0.499))
    def test_every_feasible_tail_is_hit(self, L, tail, ramp):
        w = ramp * L
        assume(Plateau(L, w, w).tail_mass > tail)
        p = make_plateau(L, tail, ramp)
        assert p.ramp_width == w and 0.0 <= p.overhang <= w
        assert p.tail_mass == pytest.approx(tail, rel=1e-12, abs=0)

    def test_norm_and_flat_value(self):
        p = make_plateau(2.0, 0.01, 0.02)
        L, a = p.plateau_length, p.overhang
        assert p.norm == pytest.approx(p.carrier_mass(-L - a, a), rel=1e-14)
        assert p.flat_value == 1.0 / math.sqrt(p.norm)
        assert p.support == Interval(-a, L + a)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.05, 0.45), st.floats(0.0, 1.0),
           st.floats(-1.2, 0.2), st.floats(0.0, 1.5), st.floats(0.0, 1.0))
    def test_carrier_integrals_match_dense_quadrature(self, L, ramp, a_frac, lo, length,
                                                      chi_frac):
        """Both cosine-sum integrals against a trapezoid on the continuous C.

        The trapezoid rule with step h errs by at most h^2 int|(C^2)''| / 12,
        about h^2 pi^2 / (3 w) here: below 2e-8 for these ranges.
        """
        w = ramp * L
        p = Plateau(L, w, a_frac * w)
        hi = lo + length
        chi = chi_frac * L
        y = np.linspace(lo, hi, 100_001)
        c = carrier(p, y)
        assert p.carrier_mass(lo, hi) == pytest.approx(
            np.trapezoid(c * c, y), abs=1e-7)
        assert p.carrier_overlap(chi, lo, hi) == pytest.approx(
            np.trapezoid(c * carrier(p, y + chi), y), abs=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 10.0), st.one_of(st.just(0.0), st.floats(0.001, 0.499)),
           st.floats(0.0, 1.0), st.floats(-1.2, 0.2), st.floats(0.0, 1.5), st.floats(0.0, 1.2))
    def test_overlap_equals_the_per_pair_shift(self, L, ramp, a_frac, lo, length, chi_frac):
        # Each piece is shifted once per call: the same float operations,
        # so the same bits, as shifting it once per pair.
        w = ramp * L
        p = Plateau(L, w, a_frac * w)
        lo, hi, chi = lo * L, (lo + length) * L, chi_frac * L
        assert (p.carrier_overlap(chi, lo, hi).hex()
                == reference.carrier_overlap(p, chi, lo, hi).hex())

    def test_used_plateau_integrates_as_a_fresh_equal_one(self):
        # A plateau computes its pieces once and keeps them outside its
        # fields; the shared SimulateSpec default is used by every campaign
        # that names no envelope.
        cmd_simulate(SimulateSpec(3, ratios=(0.5,), chi_fractions=(0.25,)))
        for used in (SimulateSpec.envelope, make_plateau(1.0, 1e-3, 0.05),
                     make_plateau(2.5, 0.05, 0.3)):
            L, a = used.plateau_length, used.overhang
            channel_probabilities(used, 0.5 * L, EveStrategy(0.25 * L))
            fresh = Plateau(L, used.ramp_width, a)
            assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
            for integrals in (lambda p: [p.carrier_mass(lo, a) for lo in (-L - a, -0.3 * L)],
                              lambda p: [p.carrier_overlap(chi * L, -L - a, a - chi * L)
                                         for chi in (0.0, 0.1, 0.5)]):
                assert ([x.hex() for x in integrals(Plateau(L, used.ramp_width, a))]
                        == [x.hex() for x in integrals(used)])
            assert used == fresh and hash(used) == hash(fresh)

    @pytest.mark.parametrize("args", [(0.0,), (math.inf,), (1.0, 0.6), (1.0, -0.1),
                                      (1.0, 0.1, 0.2), (1.0, 0.1, -0.01), (1.0, 1e-308)])
    def test_invalid_shape(self, args):
        with pytest.raises(InvalidParameterError):
            Plateau(*args)

    def test_narrowest_ramp(self):
        # The ramps' integrals take cosines at pi/w and 2 pi/w: the narrowest
        # ramp keeps 2 pi/w finite, and one step narrower is refused.
        w = 2.0 * math.pi / sys.float_info.max
        while 2.0 * (math.pi / w) == math.inf:
            w = math.nextafter(w, math.inf)
        narrowest = Plateau(1.0, w, 0.5 * w)
        assert 0.0 <= narrowest.carrier_overlap(0.25 * w, -1.0, 0.0) <= 1.0
        assert 0.0 < narrowest.tail_mass < 1e-300
        for args in ((1.0, math.nextafter(w, 0.0)), (1e-306, 5e-324)):
            with pytest.raises(InvalidParameterError, match="too narrow"):
                Plateau(*args)


class TestMassInInterval:
    def test_left_half_by_symmetry(self):
        p = sampled(make_plateau(1.0))
        assert mass_in_interval(p, Interval(0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_window(self):
        p = sampled(make_plateau(1.0))
        assert mass_in_interval(p, Interval(5.0, 6.0)) == 0.0

    def test_partial_window_fraction(self):
        # A window of length 0.6 L inside the support carries 0.6 of the mass.
        p = sampled(make_plateau(1.0))
        assert mass_in_interval(p, Interval(0.1, 0.7)) == pytest.approx(0.6, abs=1e-12)

    def test_time_translation(self):
        p = sampled(make_plateau(1.0))
        assert mass_in_interval(p, Interval(0.3 + 2.0, 0.8 + 2.0), 2.0) == pytest.approx(
            mass_in_interval(p, Interval(0.3, 0.8)), abs=1e-12)

    def test_shift_moves_support_exactly(self):
        p = sampled(make_plateau(1.0, 0.01, 0.02))
        q = p.shifted(3.25)
        assert q.support.lo == pytest.approx(p.support.lo + 3.25, abs=0)
        assert q.window.lo == pytest.approx(p.window.lo + 3.25, abs=0)


class TestOverlap:
    def test_self_overlap_is_unit(self):
        p = sampled(make_plateau(1.0))
        assert overlap(p, p, Interval(-1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_copy(self):
        p = sampled(make_plateau(1.0))
        q = p.shifted(-0.25)
        amp = overlap(p, q, Interval(-2.0, 2.0))
        assert amp == pytest.approx(0.75, abs=1e-12)
        assert amp ** 2 == pytest.approx(0.5625, abs=1e-12)

    def test_truncated_renormalized_saturates_delay_bound(self):
        p = sampled(make_plateau(1.0))
        chi = 0.25
        q = p.restrict(Interval(chi, 1.0)).normalized()
        amp = overlap(p, q, Interval(0.0, 1.0))
        assert amp == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert amp ** 2 == pytest.approx(0.75, abs=1e-12)

    def test_delay_bound_over_chi_grid_ideal(self):
        # No delayed substitute can pass the test with probability above
        # 1 - chi/L; the truncated-renormalized resend saturates it.
        p = sampled(make_plateau(1.0))
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
        p = sampled(make_plateau(1.0, 0.002, 0.02))
        L = 1.0
        slack = 0.02 * L
        for chi in np.linspace(0.0, 0.9, 10):
            window = Interval(p.window.lo, p.window.hi - chi)
            q = p.restrict(Interval(p.support.lo + chi, p.support.hi)).normalized()
            amp = overlap(p, q, window)
            assert amp ** 2 <= 1.0 - chi / L + slack


profiles = st.builds(
    lambda *args: sampled(make_plateau(*args)),
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
        rhs = mass_in_interval(p, Interval(w.lo - delta, w.hi - delta), t - delta)
        assert lhs == pytest.approx(rhs, abs=1e-12)
