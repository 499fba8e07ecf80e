"""Delay-tradeoff closed forms and the noise-instrument contraction bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relqkd.adversary import (
    DIMENSION,
    N_OPERATORS,
    EveStrategy,
    KrausSet,
    ResendPolicy,
    apply_resend,
    bob_pass_bound,
    channel_probabilities,
    draw_kraus_sets,
    eve_success_probability,
    instrument_contraction_check,
    kraus_set_from_draws,
    optimal_delay,
)
from relqkd.errors import InvalidParameterError, RejectedInstrumentError
from relqkd.harness import simulate_intercept_resend
from relqkd.measurement import (
    BobOutcome,
    EveOutcome,
    PhotonState,
    bob_outcome_distribution,
    eve_outcome_distribution,
)
from relqkd.wavepacket import MAX_RAMPED_LENGTH, Interval, _sample, make_plateau


class TestClosedForms:
    def test_bob_pass_bound(self):
        assert bob_pass_bound(0.0, 1.0) == pytest.approx(1.0)
        assert bob_pass_bound(1.0, 1.0) == pytest.approx(0.0)
        assert bob_pass_bound(0.25, 1.0) == pytest.approx(0.75)

    def test_arrays_match_the_scalar_forms(self):
        fs = np.linspace(-0.1, 1.2, 27)
        assert eve_success_probability(fs).tolist() == [
            eve_success_probability(float(f)) for f in fs]
        chis = np.linspace(0.0, 2.0, 33)
        assert bob_pass_bound(chis, 2.0).tolist() == [
            bob_pass_bound(float(c), 2.0) for c in chis]
        # Scalars stay Python floats: reports print them with repr.
        assert type(eve_success_probability(0.5)) is float
        assert type(bob_pass_bound(0.25, 1.0)) is float
        with pytest.raises(InvalidParameterError):
            bob_pass_bound(np.array([0.0, 1.5]), 1.0)

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            bob_pass_bound(1.5, 1.0)

    def test_extent_read_as_a_float(self):
        # np.minimum once raised a raw OverflowError on an extent past int64.
        assert bob_pass_bound(0, 2 ** 63) == 1.0

    def test_infinite_extent_rejected(self):
        # inf / inf once gave NaN.
        with pytest.raises(InvalidParameterError, match="extent must be finite"):
            bob_pass_bound(math.inf, math.inf)


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

    def test_lengths_read_as_floats(self):
        # np.int64(5) / 2**63 once raised a raw OverflowError.
        assert optimal_delay(np.int64(5), 2 ** 63) == optimal_delay(5.0, 2.0 ** 63)

    def test_infinite_extent_rejected_briefly(self):
        # The refusal once printed the 1000-point delay scan.
        with pytest.raises(InvalidParameterError) as refusal:
            optimal_delay(0.0, math.inf)
        assert str(refusal.value) == "need 0 <= L_ch < L < inf, got L_ch=0.0, L=inf"

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
        assert apply_resend(EveStrategy(1.0), envelope.sampled(), bit=0) is None
        tailed = make_plateau(1.0, 1e-3, 0.05)
        support = tailed.support.length
        for chi in (support, 1.5):
            eve = EveStrategy(chi)
            assert channel_probabilities(tailed, 0.0, eve)[1] == 0.0
            assert composed_probabilities(tailed.sampled(), 0.0, eve)[1] == 0.0

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

    ``profile`` is a sampled envelope, such as ``Plateau.sampled()``.  The
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
        profile = envelope.sampled()
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
            composed = composed_probabilities(_sample(envelope, samples / L), 0.5 * L, eve)
            gaps.append([abs(d - c) for d, c in zip(direct, composed)])
        assert 1e-6 < gaps[0][1] < 1e-5
        for coarse, fine in zip(gaps, gaps[1:]):
            for g_coarse, g_fine in zip(coarse, fine):
                assert 12.0 < g_coarse / g_fine < 20.0


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


def _one_set(rng, headroom=None):
    """A single admissible set, drawn and built as set 0 of a one-set stack."""
    draws = draw_kraus_sets(rng, 1, headroom)
    return kraus_set_from_draws(*(draw[0] for draw in draws))


class TestKrausInstrument:
    def test_identity_instrument_preserves_domain_mass(self):
        kraus = KrausSet(np.ones(8), np.eye(8), np.eye(8))
        holds, lhs = instrument_contraction_check(
            kraus, 0.6, _complex_gaussian(np.random.default_rng(3), (8,)))
        assert holds
        assert lhs == pytest.approx(0.6, abs=1e-12)

    def test_random_instruments_respect_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            kraus = _one_set(rng)
            holds, lhs = instrument_contraction_check(kraus, 0.6, _complex_gaussian(rng, (8,)))
            assert holds
            assert lhs <= 0.6 + 1e-9

    def test_invalid_set_rejected(self):
        # The check validates the set before it reads the state.
        rng = np.random.default_rng(11)
        valid = _one_set(rng, headroom=1.0)
        bad = KrausSet(valid.weights * math.sqrt(1.5), valid.outputs, valid.inputs)
        with pytest.raises(RejectedInstrumentError):
            instrument_contraction_check(bad, 0.6, _complex_gaussian(rng, (8,)))

    def test_set_copies_the_callers_arrays(self):
        w = np.array([0.5, 0.5])
        e = np.eye(2, dtype=complex)
        kraus = KrausSet(w, e, e)
        assert w.flags.writeable and e.flags.writeable
        with pytest.raises(ValueError):
            kraus.weights[0] = 0.0
        w[0] = 3.0
        e[0, 0] = 0.0
        assert kraus.weights.tolist() == [0.5, 0.5]
        assert kraus.outputs[0, 0] == kraus.inputs[0, 0] == 1.0

    def test_admissibility_matrix_shape(self):
        kraus = _one_set(np.random.default_rng(0))
        m = kraus.admissibility_matrix()
        assert m.shape == (8, 8)
        top = float(np.linalg.eigvalsh(m)[-1])
        assert top <= 1.0 + 1e-9

    def test_stack_acts_on_every_set(self):
        draws = draw_kraus_sets(np.random.default_rng(5), 4, headroom=1.0)
        stack = kraus_set_from_draws(*draws)
        singles = [kraus_set_from_draws(*(column[i] for column in draws)) for i in range(4)]
        m = stack.admissibility_matrix()
        assert m.shape == (4, 8, 8)
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(stack.weights[i], single.weights)
            np.testing.assert_allclose(m[i], single.admissibility_matrix(), atol=1e-15)
        stack.validate()
        # One inadmissible set rejects the whole stack.
        weights = stack.weights.copy()
        weights[2] *= math.sqrt(1.5)
        with pytest.raises(RejectedInstrumentError, match="top eigenvalue 1.5"):
            KrausSet(weights, stack.outputs, stack.inputs).validate()

    def test_nonunit_vectors_rejected(self):
        with pytest.raises(InvalidParameterError):
            KrausSet(weights=np.ones(1),
                     outputs=np.array([[2.0, 0.0, 0.0, 0.0]]),
                     inputs=np.array([[1.0, 0.0, 0.0, 0.0]]))


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
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.none() | st.floats(0.05, 1.0))
    def test_every_set_is_admissible_at_its_headroom(self, seed, n_sets, headroom):
        rng = _CountingGenerator(np.random.default_rng(seed))
        draws = draw_kraus_sets(rng, n_sets, headroom)
        # The vectors, the weights and a drawn headroom: one call each, whatever n_sets is.
        assert rng.calls == 2 + (headroom is None)
        target = draws[3]
        assert target.shape == (n_sets,)
        if headroom is None:
            assert np.all((0.3 <= target) & (target < 1.0))
        else:
            assert np.all(target == headroom)
        stack = kraus_set_from_draws(*draws)
        assert stack.weights.shape == (n_sets, N_OPERATORS)
        assert stack.outputs.shape == stack.inputs.shape == (n_sets, N_OPERATORS, DIMENSION)
        stack.validate()
        np.testing.assert_allclose(np.linalg.eigvalsh(stack.admissibility_matrix())[:, -1],
                                   target, rtol=1e-12)

    @pytest.mark.parametrize("n_sets", [0], ids=["no-sets"])
    def test_rejects_bad_sizes(self, n_sets):
        with pytest.raises(InvalidParameterError):
            draw_kraus_sets(np.random.default_rng(0), n_sets)

    def test_one_set_is_built_once(self, monkeypatch):
        built = []
        real = KrausSet.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(KrausSet, "__post_init__", counted)
        draws = draw_kraus_sets(np.random.default_rng(4), 3)
        stack = kraus_set_from_draws(*draws)
        assert len(built) == 1
        np.testing.assert_allclose(np.linalg.eigvalsh(stack.admissibility_matrix())[:, -1],
                                   draws[3], rtol=1e-12)
