"""Receiver and eavesdropper measurement distributions and their draws."""

import math

import numpy as np
import pytest

from oracle import sampled
from relqkd.adversary import (
    EveStrategy,
    ResendPolicy,
    apply_resend,
    channel_probabilities,
    eve_success_probability,
)
from relqkd.distill import ProtocolConfig, run_session
from relqkd.errors import CausalityViolationError, InvalidParameterError
from relqkd.measurement import (
    BobOutcome,
    EveOutcome,
    PhotonState,
    bob_outcome_distribution,
    eve_outcome_distribution,
)
from relqkd.wavepacket import Interval, make_plateau

L = 1.0


@pytest.fixture(scope="module")
def base():
    return sampled(make_plateau(L)).shifted(-L)


def receiver_geometry(profile, channel_length=0.4):
    support = profile.support
    omega_b = Interval(channel_length, channel_length + support.length)
    t_b = channel_length - support.lo
    return omega_b, t_b


class TestBobDistribution:
    def test_honest_state_is_deterministic(self, base):
        omega_b, t_b = receiver_geometry(base)
        for bit in (0, 1):
            dist = bob_outcome_distribution(PhotonState(bit=bit, profile=base), t_b, omega_b)
            conclusive = BobOutcome.ZERO if bit == 0 else BobOutcome.ONE
            assert dist[conclusive] == pytest.approx(1.0, abs=1e-9)
            assert dist[BobOutcome.INCONCLUSIVE] == pytest.approx(0.0, abs=1e-9)

    def test_optimally_delayed_state(self, base):
        omega_b, t_b = receiver_geometry(base)
        strategy = EveStrategy(delay=0.25)
        resend = apply_resend(strategy, base, bit=0)
        dist = bob_outcome_distribution(resend, t_b, omega_b, reference=base)
        assert dist[BobOutcome.ZERO] == pytest.approx(0.75, abs=1e-9)
        assert dist[BobOutcome.ONE] == 0.0
        assert dist[BobOutcome.INCONCLUSIVE] == pytest.approx(0.25, abs=1e-9)

    def test_tail_mass_shows_up_as_inconclusive(self):
        profile = sampled(make_plateau(L, 0.01, 0.02)).shifted(-L)
        state = PhotonState(bit=0, profile=profile)
        # Receiver domain of exactly the plateau length: the tails straddle
        # its edges and their mass becomes the inconclusive probability.
        omega_b = Interval(0.4, 0.4 + L)
        dist = bob_outcome_distribution(state, 0.4 + L, omega_b)
        assert dist[BobOutcome.INCONCLUSIVE] == pytest.approx(0.01, abs=1e-6)

    def test_distribution_sums_to_one(self, base):
        omega_b, t_b = receiver_geometry(base)
        for chi in (0.0, 0.1, 0.3, 0.7):
            resend = apply_resend(EveStrategy(chi), base, bit=1)
            dist = bob_outcome_distribution(resend, t_b, omega_b, reference=base)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0.0 for v in dist.values())

    def test_wrong_polarization_never_fires(self, base):
        omega_b, t_b = receiver_geometry(base)
        for policy in (ResendPolicy.TRUNCATED_RENORMALIZED, ResendPolicy.SHIFTED_COPY):
            resend = apply_resend(EveStrategy(0.2, policy), base, bit=0)
            dist = bob_outcome_distribution(resend, t_b, omega_b, reference=base)
            assert dist[BobOutcome.ONE] == 0.0

    def test_delayed_pass_never_beats_bound(self, base):
        omega_b, t_b = receiver_geometry(base)
        for chi in np.linspace(0.0, 0.9, 7):
            for policy in (ResendPolicy.TRUNCATED_RENORMALIZED, ResendPolicy.SHIFTED_COPY):
                resend = apply_resend(EveStrategy(float(chi), policy), base, bit=0)
                dist = bob_outcome_distribution(resend, t_b, omega_b, reference=base)
                assert 1.0 - dist[BobOutcome.INCONCLUSIVE] <= 1.0 - chi / L + 1e-9

    def test_too_early_measurement_rejected(self, base):
        omega_b, t_b = receiver_geometry(base)
        state = PhotonState(bit=0, profile=base)
        with pytest.raises(CausalityViolationError):
            bob_outcome_distribution(state, t_b - 0.5, omega_b)

    def test_short_receiver_domain_rejected(self, base):
        state = PhotonState(bit=0, profile=base)
        with pytest.raises(InvalidParameterError):
            bob_outcome_distribution(state, 2.0, Interval(0.4, 0.4 + 0.5 * L))


class TestEveDistribution:
    def test_whole_state_available(self, base):
        state = PhotonState(bit=1, profile=base)
        omega_e = Interval(0.0, 2.0)
        dist = eve_outcome_distribution(state, omega_e, 2.0)
        assert dist[EveOutcome.FIRED_ONE] == pytest.approx(1.0, abs=1e-9)
        assert dist[EveOutcome.NO_FIRE] == pytest.approx(0.0, abs=1e-9)

    def test_nothing_available_before_arrival(self, base):
        state = PhotonState(bit=0, profile=base)
        dist = eve_outcome_distribution(state, Interval(0.0, 0.6), 0.0)
        assert dist[EveOutcome.NO_FIRE] == pytest.approx(1.0, abs=1e-9)

    def test_partial_fraction(self, base):
        state = PhotonState(bit=0, profile=base)
        omega_e = Interval(0.0, 0.6)
        dist = eve_outcome_distribution(state, omega_e, 0.6)
        assert dist[EveOutcome.FIRED_ZERO] == pytest.approx(0.6, abs=1e-9)
        assert dist[EveOutcome.FIRED_ONE] == 0.0
        assert dist[EveOutcome.NO_FIRE] == pytest.approx(0.4, abs=1e-9)


class TestGuessStatistics:
    """Success (1 + f)/2 and error (1 - f)/2 of the optimal restricted guess."""

    @pytest.mark.parametrize("f,expected", [
        (0.0, (0.5, 0.5)),
        (1.0, (0.0, 1.0)),
        (0.6, (0.2, 0.8)),
    ])
    def test_values(self, f, expected):
        p_ok = eve_success_probability(f)
        p_err = 1.0 - p_ok
        assert p_err == pytest.approx(expected[0], abs=1e-12)
        assert p_ok == pytest.approx(expected[1], abs=1e-12)

    def test_affine_in_f(self):
        fs = np.linspace(0.0, 1.0, 11)
        errs = np.array([1.0 - eve_success_probability(f) for f in fs])
        assert np.allclose(np.diff(errs, 2), 0.0, atol=1e-15)

    def test_out_of_range_saturates(self):
        # An accessible region longer than the state cannot beat certainty.
        assert eve_success_probability(1.5) == 1.0
        assert eve_success_probability(1.0 + 1e-9) == 1.0


def eve_session(delay, seed, key_length=16):
    eve = EveStrategy(delay=delay)
    return run_session(ProtocolConfig(
        key_length=key_length, block_size=3, blocks_per_parity=4, hash_rounds=8,
        disclose_fraction=0.1, envelope=make_plateau(L), channel_length=0.5, seed=seed,
        eve=eve)), eve


class TestSamplers:
    """The session draws each round's outcomes from the exact distributions."""

    def test_degenerate_distribution(self):
        # Honest rounds always pass; a region covering the whole state
        # always fires, and on the sent bit.
        honest = run_session(ProtocolConfig(
            key_length=16, block_size=3, blocks_per_parity=4, hash_rounds=8,
            disclose_fraction=0.1, envelope=make_plateau(L), channel_length=0.5, seed=0))
        assert {r.b_outcome for r in honest.rounds if r.a_bit == 0} == {BobOutcome.ZERO}
        assert {r.b_outcome for r in honest.rounds if r.a_bit == 1} == {BobOutcome.ONE}
        transcript, _ = eve_session(delay=0.5, seed=1)
        for r in transcript.rounds:
            assert r.eve_outcome is (EveOutcome.FIRED_ZERO if r.a_bit == 0
                                     else EveOutcome.FIRED_ONE)

    def test_fire_rate_matches_binomial(self):
        # 6784 key bits take about 100k rounds.
        transcript, eve = eve_session(delay=0.1, seed=1234, key_length=6784)
        f_eve, _ = channel_probabilities(make_plateau(L), 0.5, eve)
        assert f_eve == pytest.approx(0.6, abs=1e-9)
        n = len(transcript.rounds)
        assert n >= 100_000
        fired = sum(r.eve_outcome is not EveOutcome.NO_FIRE for r in transcript.rounds)
        sigma = math.sqrt(0.6 * 0.4 / n)
        assert abs(fired / n - 0.6) <= 3.0 * sigma

    def test_same_seed_same_sequence(self):
        run_a, _ = eve_session(delay=0.1, seed=99)
        run_b, _ = eve_session(delay=0.1, seed=99)
        assert [r.eve_outcome for r in run_a.rounds] == [r.eve_outcome for r in run_b.rounds]
        assert run_a.to_text() == run_b.to_text()


class TestPhotonState:
    def test_validation(self, base):
        with pytest.raises(InvalidParameterError):
            PhotonState(bit=2, profile=base)
        with pytest.raises(InvalidParameterError):
            PhotonState(bit=0, profile=base, delay=-0.1)

    @pytest.mark.parametrize("name", ["emission_time", "delay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None])
    def test_times_must_be_finite_reals(self, base, name, value):
        # A NaN emission time was once accepted, and bob_outcome_distribution
        # then gave a certain conclusive outcome; a NaN delay was refused
        # only at measurement, by a message that named neither.
        with pytest.raises(InvalidParameterError, match=name):
            PhotonState(bit=0, profile=base, **{name: value})

    def test_times_are_stored_as_floats(self, base):
        state = PhotonState(bit=0, profile=base, emission_time=np.int64(1), delay=np.float32(0.25))
        assert (type(state.emission_time), type(state.delay)) == (float, float)
        assert (state.emission_time, state.delay) == (1.0, 0.25)

    def test_envelope_translation(self, base):
        state = PhotonState(bit=0, profile=base, emission_time=1.0, delay=0.25)
        env = state.envelope_at(2.0)
        assert env.support.lo == pytest.approx(base.support.lo + 0.75, abs=0)
