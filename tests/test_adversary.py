"""Delay-tradeoff closed forms and the noise-instrument contraction bound."""

import numpy as np
import pytest

from relqkd.adversary import (
    EveStrategy,
    KrausSet,
    ResendPolicy,
    bob_pass_bound,
    channel_probabilities,
    eve_correct_probability,
    instrument_contraction_check,
    joint_success,
    optimal_delay,
    random_kraus_set,
    scaled_invalid_kraus_set,
)
from relqkd.errors import InvalidParameterError, RejectedInstrumentError
from relqkd.harness import simulate_intercept_resend
from relqkd.wavepacket import make_plateau


class TestClosedForms:
    def test_eve_correct_probability(self):
        assert eve_correct_probability(0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert eve_correct_probability(0.0, 0.5, 1.0) == pytest.approx(0.75)
        assert eve_correct_probability(0.5, 0.5, 1.0) == pytest.approx(1.0)

    def test_bob_pass_bound(self):
        assert bob_pass_bound(0.0, 1.0) == pytest.approx(1.0)
        assert bob_pass_bound(1.0, 1.0) == pytest.approx(0.0)
        assert bob_pass_bound(0.25, 1.0) == pytest.approx(0.75)

    def test_joint_success(self):
        assert joint_success(0.0, 0.5, 1.0) == pytest.approx(0.75)
        assert joint_success(0.0, 1.0, 1.0) == pytest.approx(1.0)
        assert joint_success(0.5, 0.25, 1.0) == pytest.approx(0.4375)

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            eve_correct_probability(-0.1, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            eve_correct_probability(0.6, 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            bob_pass_bound(1.5, 1.0)


class TestOptimalDelay:
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.9])
    def test_boundary_optimum(self, ratio):
        chi_star, pr_max = optimal_delay(ratio, 1.0, grid_points=1000)
        assert chi_star == 0.0
        assert pr_max == pytest.approx(0.5 * (1.0 + ratio), abs=1e-12)

    def test_strictly_decreasing_in_delay(self):
        for ratio in (0.0, 0.3, 0.7):
            chis = np.linspace(0.0, 1.0 - ratio, 200)
            vals = np.array([joint_success(c, ratio, 1.0) for c in chis])
            assert np.all(np.diff(vals) < 0.0)

    def test_never_exceeds_pr_max(self):
        for ratio in (0.1, 0.5, 0.85):
            pr_max = 0.5 * (1.0 + ratio)
            for chi in np.linspace(0.0, 1.0 - ratio, 50):
                assert joint_success(chi, ratio, 1.0) <= pr_max + 1e-12


class TestEveStrategy:
    def test_accessible_region_length(self):
        strategy = EveStrategy(delay=0.25, channel_length=0.4)
        region = strategy.accessible_region(0.0)
        assert region.length == pytest.approx(0.65)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            EveStrategy(delay=-0.1, channel_length=0.4)


class TestChannelProbabilities:
    def test_honest_and_intercepted(self):
        envelope = make_plateau(1.0)
        f_eve, p_pass = channel_probabilities(envelope, 0.5)
        assert f_eve == 0.0
        assert p_pass == pytest.approx(1.0, abs=1e-9)
        # Waiting chi = 0.25 exposes L_ch + chi of the state and leaves the
        # truncated resend 1 - chi of the receiver test.
        f_eve, p_pass = channel_probabilities(envelope, 0.5, EveStrategy(0.25, 0.5))
        assert f_eve == pytest.approx(0.75, abs=1e-9)
        assert p_pass == pytest.approx(0.75, abs=1e-9)
        silent = EveStrategy(0.25, 0.5, ResendPolicy.NO_RESEND)
        assert channel_probabilities(envelope, 0.5, silent) == (f_eve, 0.0)


class TestMonteCarloConsistency:
    def test_simulated_joint_rate_below_bound(self):
        # Explicit intercept-resend never beats the closed-form product.
        for idx, (ratio, chi) in enumerate([(0.5, 0.0), (0.5, 0.25), (0.25, 0.5)]):
            s = simulate_intercept_resend(1.0, ratio, chi, 50_000, seed=(5, idx))
            sigma = max(s.joint_stderr, 1e-6)
            assert s.joint_empirical <= s.joint_analytic + 3.0 * sigma
            assert abs(s.eve_empirical - s.eve_analytic) <= 3.0 * max(s.eve_stderr, 1e-6)


class TestKrausInstrument:
    def test_identity_instrument_preserves_domain_mass(self):
        kraus = KrausSet.identity(8)
        holds, lhs = instrument_contraction_check(
            kraus, 0.6, rng=np.random.default_rng(3))
        assert holds
        assert lhs == pytest.approx(0.6, abs=1e-12)

    def test_random_instruments_respect_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            kraus = random_kraus_set(rng, dimension=8)
            holds, lhs = instrument_contraction_check(kraus, 0.6, rng=rng)
            assert holds
            assert lhs <= 0.6 + 1e-9

    def test_invalid_set_rejected(self):
        rng = np.random.default_rng(11)
        bad = scaled_invalid_kraus_set(rng, factor=1.5)
        with pytest.raises(RejectedInstrumentError):
            instrument_contraction_check(bad, 0.6, rng=rng)

    def test_admissibility_matrix_shape(self):
        kraus = random_kraus_set(np.random.default_rng(0), dimension=6, n_operators=9)
        m = kraus.admissibility_matrix()
        assert m.shape == (6, 6)
        top = float(np.linalg.eigvalsh(m)[-1])
        assert top <= 1.0 + 1e-9

    def test_nonunit_vectors_rejected(self):
        with pytest.raises(InvalidParameterError):
            KrausSet(weights=np.ones(1),
                     outputs=np.array([[2.0, 0.0, 0.0, 0.0]]),
                     inputs=np.array([[1.0, 0.0, 0.0, 0.0]]))
