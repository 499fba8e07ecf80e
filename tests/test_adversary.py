"""Delay-tradeoff closed forms and the noise-instrument contraction bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import sample, sampled
from relqkd.adversary import (
    EveStrategy,
    ResendPolicy,
    apply_resend,
    bob_pass_bound,
    channel_probabilities,
    eve_success_probability,
    instrument_contraction_check,
    optimal_delay,
)
from relqkd.errors import InvalidParameterError
from relqkd.harness import _draw_admissibility, simulate_intercept_resend
from relqkd.measurement import (
    BobOutcome,
    EveOutcome,
    PhotonState,
    bob_outcome_distribution,
    eve_outcome_distribution,
)
from relqkd.wavepacket import MAX_RAMPED_LENGTH, Interval, Plateau, make_plateau


class TestClosedForms:
    def test_bob_pass_bound(self):
        assert bob_pass_bound(0.0, 1.0) == pytest.approx(1.0)
        assert bob_pass_bound(1.0, 1.0) == pytest.approx(0.0)
        assert bob_pass_bound(0.25, 1.0) == pytest.approx(0.75)

    def test_arrays_match_the_scalar_forms(self):
        fs = np.linspace(0.0, 1.3, 27)
        assert eve_success_probability(fs).tolist() == [
            eve_success_probability(float(f)) for f in fs]
        chis = np.linspace(0.0, 2.0, 33)
        assert bob_pass_bound(chis, 2.0).tolist() == [
            bob_pass_bound(float(c), 2.0) for c in chis]
        # Scalars stay Python floats: reports print them with repr.
        assert type(eve_success_probability(0.5)) is float
        assert type(bob_pass_bound(0.25, 1.0)) is float

    # Each raised a raw AttributeError.
    @pytest.mark.parametrize("call, named", [
        (lambda: channel_probabilities(None, 0.5, EveStrategy(0.0)), "envelope"),
        (lambda: channel_probabilities(make_plateau(1.0), 0.5, "x"), "eve"),
    ], ids=["no-envelope", "eve-text"])
    def test_channel_layer_refusal_names_the_argument(self, call, named):
        with pytest.raises(InvalidParameterError, match=f"^{named} must be"):
            call()


def joint(chis, ratio):
    """The joint success at L = 1: the product of the two closed forms."""
    return eve_success_probability(ratio + chis) * bob_pass_bound(chis, 1.0)


class TestOptimalDelay:
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.9])
    def test_boundary_optimum(self, ratio):
        chi_star, pr_max = optimal_delay(ratio, 1.0)
        assert chi_star == 0.0
        assert pr_max == pytest.approx(0.5 * (1.0 + ratio), abs=1e-12)

    def test_strictly_decreasing_in_delay(self):
        for ratio in (0.0, 0.3, 0.7):
            chis = np.linspace(0.0, 1.0 - ratio, 200)
            assert np.all(np.diff(joint(chis, ratio)) < 0.0)

    def test_never_exceeds_pr_max(self):
        for ratio in (0.1, 0.5, 0.85):
            pr_max = 0.5 * (1.0 + ratio)
            assert np.all(joint(np.linspace(0.0, 1.0 - ratio, 50), ratio) <= pr_max + 1e-12)


class TestEveStrategy:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            EveStrategy(delay=-0.1)
        for delay in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="delay"):
                EveStrategy(delay=delay)


class TestChannelProbabilities:
    def test_lengths_read_as_floats(self):
        # np.int64(5) + 2**63 once raised a raw OverflowError.
        envelope = make_plateau(1.0, 1e-3, 0.05)
        assert EveStrategy(2 ** 63).delay == 2.0 ** 63
        assert (channel_probabilities(envelope, np.int64(5), EveStrategy(2 ** 63))
                == channel_probabilities(envelope, 5.0, EveStrategy(2.0 ** 63)))

    @settings(max_examples=200, deadline=None)
    @given(tail=st.sampled_from([0.0, 1e-3, 1e-2, 0.5]),
           ramp=st.sampled_from([0.05, 0.2, 0.49]),
           ratio=st.sampled_from([0.0, 0.5, 0.9]), chi=st.floats(0.0, 3.0),
           policy=st.sampled_from(list(ResendPolicy)))
    # The truncated copy's reachable mass once cancelled to 0 here and
    # raised a raw ZeroDivisionError.
    @example(tail=0.0, ramp=0.2, ratio=0.0, chi=0.99999,
             policy=ResendPolicy.TRUNCATED_RENORMALIZED)
    def test_longest_ramped_plateau_scales(self, tail, ramp, ratio, chi, policy):
        # The integrals at MAX_RAMPED_LENGTH stay finite and give what the
        # same envelope gives at L = 1; one step further is refused.
        L = MAX_RAMPED_LENGTH
        scaled = channel_probabilities(make_plateau(L, tail, ramp), ratio * L,
                                       EveStrategy(chi * L, policy))
        unit = channel_probabilities(make_plateau(1.0, tail, ramp), ratio,
                                     EveStrategy(chi, policy))
        assert scaled == pytest.approx(unit, abs=1e-9)
        with pytest.raises(InvalidParameterError, match="too long for edge ramps"):
            make_plateau(math.nextafter(L, math.inf), tail, ramp)

    def test_honest_and_intercepted(self):
        envelope = make_plateau(1.0)
        f_eve, p_pass = channel_probabilities(envelope, 0.5)
        assert f_eve == 0.0
        assert p_pass == pytest.approx(1.0, abs=1e-9)
        # Waiting chi = 0.25 exposes L_ch + chi of the state and leaves the
        # truncated resend 1 - chi of the receiver test.
        f_eve, p_pass = channel_probabilities(envelope, 0.5, EveStrategy(0.25))
        assert f_eve == pytest.approx(0.75, abs=1e-9)
        assert p_pass == pytest.approx(0.75, abs=1e-9)
        silent = EveStrategy(0.25, ResendPolicy.NO_RESEND)
        assert channel_probabilities(envelope, 0.5, silent) == (f_eve, 0.0)

    def test_region_follows_the_given_channel_length(self):
        # Her region is [0, L_ch + chi] for the L_ch passed in, whatever it is.
        envelope = make_plateau(1.0)
        for channel_length, expected in ((0.3, 0.55), (0.0, 0.25)):
            f_eve, _ = channel_probabilities(envelope, channel_length, EveStrategy(0.25))
            assert abs(f_eve - expected) <= 1e-9

    def test_delay_beyond_support_sends_nothing(self):
        # At chi = L the truncated resend of the ideal plateau has nothing
        # left to send: it passes with probability 0, as NO_RESEND does,
        # and a shifted copy misses the receiver entirely.
        envelope = make_plateau(1.0)
        for policy in ResendPolicy:
            f_eve, p_pass = channel_probabilities(envelope, 0.0, EveStrategy(1.0, policy))
            assert (f_eve, p_pass) == (1.0, 0.0)
        assert apply_resend(EveStrategy(1.0), sampled(envelope), bit=0) is None
        tailed = make_plateau(1.0, 1e-3, 0.05)
        support = tailed.support.length
        for chi in (support, 1.5):
            eve = EveStrategy(chi)
            assert channel_probabilities(tailed, 0.0, eve)[1] == 0.0
            assert composed_probabilities(sampled(tailed), 0.0, eve)[1] == 0.0

    @pytest.mark.parametrize("args", [(1.0,), (0.7, 1e-4, 0.01), (2.5, 1e-2, 0.2)])
    def test_honest_pass_is_exactly_one(self, args):
        # The honest mass is the normalizer itself, so nothing is summed:
        # a pass probability of 1 - 1e-16 would lengthen honest sessions.
        for channel_length in (0.0, 0.3 * args[0]):
            assert channel_probabilities(make_plateau(*args), channel_length) == (0.0, 1.0)

    @pytest.mark.parametrize("channel_length", [-0.1, math.inf, math.nan])
    def test_bad_channel_length_rejected(self, channel_length):
        with pytest.raises(InvalidParameterError):
            channel_probabilities(make_plateau(1.0), channel_length)


def composed_probabilities(profile, channel_length, eve):
    """(f_eve, p_pass) through the explicit states and measurements.

    ``profile`` is a sampled envelope, such as ``oracle.sampled(envelope)``.  The
    carrier, the eavesdropper's region and the receiver's domain and time
    are those ``channel_probabilities`` documents; the honest state, her
    resent substitute and both outcome distributions are built out.
    """
    base = profile.shifted(-profile.window.hi)
    support = base.support
    omega_b = Interval(channel_length, channel_length + support.length)
    t_b = channel_length - support.lo
    honest = PhotonState(bit=0, profile=base)
    if eve is None:
        dist = bob_outcome_distribution(honest, t_b, omega_b)
        return 0.0, 1.0 - dist[BobOutcome.INCONCLUSIVE]
    omega_e = Interval(0.0, channel_length + eve.delay)
    f_eve = eve_outcome_distribution(honest, omega_e, omega_e.hi)[EveOutcome.FIRED_ZERO]
    resend = apply_resend(eve, base, bit=0)
    if resend is None:
        return f_eve, 0.0
    dist = bob_outcome_distribution(resend, t_b, omega_b, reference=base)
    return f_eve, 1.0 - dist[BobOutcome.INCONCLUSIVE]


envelopes = st.one_of(
    st.builds(make_plateau, st.floats(0.25, 4.0)),
    st.builds(make_plateau, st.floats(0.25, 4.0), st.floats(0.0, 0.05),
              st.floats(0.002, 0.2)),
)


def grid_error(envelope):
    """Bound on the sampled oracle's error at 4096 samples across L.

    Linear interpolation misses each ramp of width w by at most
    h^2 max|C''|/8 = pi^2 h^2 / (16 w^2); carried through the mass ratios,
    no probability moves by more than pi^2 h^2 / (w L).  The ideal plateau
    is linear between samples, so only rounding is left.
    """
    L, w = envelope.plateau_length, envelope.ramp_width
    h = L / 4096
    return 1e-12 + (math.pi ** 2 * h * h / (w * L) if w else 0.0)


class TestChannelProbabilityIntegrals:
    # The delay stays at most 0.99 (L - L_ch): as chi approaches the support
    # length, p_pass is a ratio of two vanishing integrals and the oracle
    # loses every digit to rounding.
    @settings(max_examples=40, deadline=None)
    @given(envelopes, st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    def test_matches_the_composed_measurements(self, envelope, ratio, chi_frac):
        L = envelope.plateau_length
        channel_length = ratio * L
        chi = chi_frac * (L - channel_length)
        profile = sampled(envelope)
        tol = grid_error(envelope)
        for policy in ResendPolicy:
            eve = EveStrategy(chi, policy)
            direct = channel_probabilities(envelope, channel_length, eve)
            composed = composed_probabilities(profile, channel_length, eve)
            assert direct == pytest.approx(composed, abs=tol)
        assert channel_probabilities(envelope, channel_length) == pytest.approx(
            composed_probabilities(profile, channel_length, None), abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.25, 4.0), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    def test_ideal_plateau_closed_forms(self, L, ratio, chi_frac):
        # Every integral is an interval length, so the results are the
        # closed forms to within one ulp of 1; the shifted copy squares a
        # rounded ratio on both sides, and gets two.
        envelope = make_plateau(L)
        channel_length = ratio * L
        chi = chi_frac * (L - channel_length)
        expected_f = (channel_length + chi) / L
        expected_pass = {
            ResendPolicy.TRUNCATED_RENORMALIZED: (1.0 - chi / L, 1),
            ResendPolicy.SHIFTED_COPY: ((1.0 - chi / L) ** 2, 2),
            ResendPolicy.NO_RESEND: (0.0, 0),
        }
        for policy, (p_pass, ulps) in expected_pass.items():
            f, p = channel_probabilities(envelope, channel_length, EveStrategy(chi, policy))
            assert abs(f - expected_f) <= math.ulp(expected_f)
            assert abs(p - p_pass) <= ulps * math.ulp(1.0)
        assert channel_probabilities(envelope, channel_length) == (0.0, 1.0)

    def test_oracle_converges_as_grid_step_squared(self):
        # Quadrupling the samples across L divides the oracle's gap by 16.
        envelope = make_plateau(0.7, 1e-4, 0.01)
        L = envelope.plateau_length
        eve = EveStrategy(0.25 * L)
        direct = channel_probabilities(envelope, 0.5 * L, eve)
        gaps = []
        for samples in (4096, 16384, 65536):
            composed = composed_probabilities(sample(envelope, samples / L), 0.5 * L, eve)
            gaps.append([abs(d - c) for d, c in zip(direct, composed)])
        assert 1e-6 < gaps[0][1] < 1e-5
        for coarse, fine in zip(gaps, gaps[1:]):
            for g_coarse, g_fine in zip(coarse, fine):
                assert 12.0 < g_coarse / g_fine < 20.0


def log_uniform(lo: float, hi: float):
    """Floats 10^e for e uniform on [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


class TestEnvelopeNumericEdges:
    @settings(max_examples=500, deadline=None)
    @given(L=log_uniform(-306.0, 300.0),
           # Down to the least subnormal, far below the 8/4096 of L that
           # make_plateau once refused.
           fraction=st.one_of(log_uniform(-323.3, -0.302),
                              st.sampled_from([0.0, 5e-324, 1e-320, 2.2e-308, 8 / 4096])),
           tail=st.one_of(st.just(0.0), log_uniform(-15.0, -1e-4)),
           overhang=st.one_of(st.none(), st.floats(0.0, 1.0)),
           ratio=st.floats(0.0, 0.99), chi=st.floats(0.0, 2.0),
           policy=st.sampled_from(list(ResendPolicy)))
    @example(L=1e-306, fraction=0.01, tail=1e-3, overhang=None, ratio=0.5, chi=0.1,
             policy=ResendPolicy.TRUNCATED_RENORMALIZED)
    def test_every_envelope_is_refused_or_sound(self, L, fraction, tail, overhang, ratio,
                                                 chi, policy):
        """Each envelope is refused, or its tail and both probabilities are sound.

        ``overhang`` None builds through ``make_plateau``, a fraction of the
        ramp width builds a ``Plateau`` directly.  Below 8/4096 of L, where
        the sampled oracle cannot cover a ramp, the probabilities are held
        against the ideal plateau's instead: a ramp moves each carrier
        integral by at most about w and the norm by at most 5w/4, and the
        largest gap seen on random draws was 1.4 w/L.
        """
        try:
            if overhang is None:
                envelope = make_plateau(L, tail, fraction)
            else:
                w = fraction * L
                envelope = Plateau(L, w, overhang * w)
        except InvalidParameterError:
            return
        assert math.isfinite(envelope.tail_mass)
        eve = EveStrategy(chi * L, policy)
        probabilities = channel_probabilities(envelope, ratio * L, eve)
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        if fraction < 8 / 4096:
            ideal = channel_probabilities(make_plateau(L), ratio * L, eve)
            tol = 4.0 * envelope.ramp_width / L + 1e-15
            assert probabilities == pytest.approx(ideal, abs=tol, rel=0)


class TestMonteCarloConsistency:
    def test_simulated_joint_rate_below_bound(self):
        # Explicit intercept-resend never beats the closed-form product.
        for idx, (ratio, chi) in enumerate([(0.5, 0.0), (0.5, 0.25), (0.25, 0.5)]):
            s = simulate_intercept_resend(1.0, ratio, chi, 50_000, seed=(5, idx))
            sigma = max(s.stderr, 1e-6)
            assert s.joint_empirical <= s.joint_analytic + 3.0 * sigma
            eve_sigma = math.sqrt(s.eve_empirical * (1.0 - s.eve_empirical) / 50_000)
            assert abs(s.eve_empirical - s.pr_e_analytic) <= 3.0 * max(eve_sigma, 1e-6)


def _complex_gaussian(rng, shape):
    """One normal draw of shape (2, *shape): the real parts, then the imaginary parts."""
    real, imag = rng.normal(size=(2, *shape))
    return real + 1j * imag


class TestKrausInstrument:
    """``instrument_contraction_check`` on admissibility matrices sum_k lam_k^2 |in_k><in_k|."""

    def test_identity_instrument_preserves_domain_mass(self):
        # A = I, the largest admissible matrix, attains the bound.
        lhs = instrument_contraction_check(
            np.eye(8), 0.6, _complex_gaussian(np.random.default_rng(3), (8,)))
        assert lhs == pytest.approx(0.6, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 12),
           st.integers(1, 8), st.floats(0.0, 1.0), st.floats(1e-3, 1.0))
    def test_random_instruments_respect_bound(self, seed, n_sets, rank, dim, f, headroom):
        # Random PSD stacks scaled to top eigenvalue h give at most h * f.
        rng = np.random.default_rng(seed)
        vectors = _complex_gaussian(rng, (n_sets, rank, dim))
        stack = vectors.conj().swapaxes(-1, -2) @ vectors
        stack *= (headroom / np.linalg.eigvalsh(stack)[:, -1])[:, None, None]
        lhs = instrument_contraction_check(stack, f, _complex_gaussian(rng, (n_sets, dim)))
        assert lhs.shape == (n_sets,)
        assert np.all((-1e-12 <= lhs) & (lhs <= headroom * f + 1e-9))

    def test_invalid_set_rejected(self):
        # Set 0 at headroom 1, its weights scaled by sqrt(1.5): refused
        # before the state, which is not one, is read.
        stack, headroom = _draw_admissibility(np.random.default_rng(11), 1)
        bad = stack[0] * (1.5 / headroom[0])
        with pytest.raises(InvalidParameterError, match="trace-non-increasing"):
            instrument_contraction_check(bad, 0.6, np.zeros(8))

    def test_admissibility_matrix_shape(self):
        stack, headroom = _draw_admissibility(np.random.default_rng(0), 5)
        assert stack.shape == (5, 8, 8) and headroom.shape == (5,)
        np.testing.assert_allclose(stack, stack.conj().swapaxes(-1, -2), atol=1e-15)
        assert np.all(np.linalg.eigvalsh(stack)[:, 0] >= -1e-15)

    def test_stack_acts_on_every_set(self):
        # One inadmissible set rejects the whole stack.  (The masses of a
        # stack and of its sets one by one agree: see test_harness.py.)
        rng = np.random.default_rng(5)
        stack, headroom = _draw_admissibility(rng, 4)
        states = _complex_gaussian(rng, (4, 8))
        stack[2] *= 1.5 / headroom[2]
        with pytest.raises(InvalidParameterError, match="trace-non-increasing"):
            instrument_contraction_check(stack, 0.6, states)


class _CountingGenerator:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestStackedDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_every_set_is_admissible_at_its_headroom(self, seed, n_sets):
        rng = _CountingGenerator(np.random.default_rng(seed))
        stack, headroom = _draw_admissibility(rng, n_sets)
        # The vectors, the weights and the headroom: one call each, whatever n_sets is.
        assert rng.calls == 3
        assert np.all((0.3 <= headroom) & (headroom < 1.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(stack)[:, -1], headroom, rtol=1e-12)
