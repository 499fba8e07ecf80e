"""Mutual information, Holevo quantity, and Hartley parity information."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relqkd.errors import InvalidParameterError
from relqkd.infotheory import (
    ClassicalChannel,
    eve_channel,
    holevo_quantity,
    mutual_information,
    shannon_entropy,
)
from relqkd.security import exact_eta, parity_count


class TestMutualInformation:
    def test_perfect_channel_gives_one_bit(self):
        ch = ClassicalChannel(np.array([0.5, 0.5]), np.eye(2))
        assert mutual_information(ch) == pytest.approx(1.0, abs=1e-12)

    def test_useless_channel_gives_zero(self):
        ch = ClassicalChannel(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert mutual_information(ch) == pytest.approx(0.0, abs=1e-12)

    def test_restricted_measurement_channel(self):
        assert mutual_information(eve_channel(0.6)) == pytest.approx(0.6, abs=1e-12)

    def test_malformed_channel_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClassicalChannel(np.array([0.5, 0.6]), np.eye(2))
        with pytest.raises(InvalidParameterError):
            ClassicalChannel(np.array([0.5, 0.5]), np.array([[0.5, 0.4], [0.0, 1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
           st.lists(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_bounded_by_entropies(self, raw_priors, raw_rows):
        if len(raw_rows) != len(raw_priors):
            raw_rows = (raw_rows * len(raw_priors))[:len(raw_priors)]
        priors = np.array(raw_priors) / np.sum(raw_priors)
        cond = np.array([np.array(r) / np.sum(r) for r in raw_rows])
        ch = ClassicalChannel(priors, cond)
        mi = mutual_information(ch)
        outcome_marginal = priors @ cond
        assert -1e-12 <= mi
        assert mi <= min(shannon_entropy(priors), shannon_entropy(outcome_marginal)) + 1e-9


class TestDecomposition:
    """Firing outcomes carry the full bit, silent outcomes carry none."""

    @pytest.mark.parametrize("f", [0.0, 0.35, 1.0])
    def test_split(self, f):
        ch = eve_channel(f)
        # A silent outcome leaves the prior untouched: no information.
        silent = ch.conditional[:, 2]
        assert silent[0] == silent[1] == pytest.approx(1.0 - f, abs=0)
        # So the whole mutual information is f bits from the firing outcomes.
        assert mutual_information(ch) == pytest.approx(f, abs=1e-9)

    def test_monotone_in_f(self):
        totals = [mutual_information(eve_channel(f)) for f in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-15 for a, b in zip(totals, totals[1:]))


class TestHolevo:
    def test_orthogonal_pure_states(self):
        assert holevo_quantity([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(
            1.0, abs=1e-12)

    def test_identical_states(self):
        assert holevo_quantity([0.5, 0.5], [[0.3, 0.7], [0.3, 0.7]]) == pytest.approx(
            0.0, abs=1e-12)

    def test_restricted_measurement_ensemble(self):
        f = 0.6
        spectra = [[f, 0.0, 1.0 - f], [0.0, f, 1.0 - f]]
        chi = holevo_quantity([0.5, 0.5], spectra)
        assert chi == pytest.approx(f, abs=1e-12)
        # Commuting ensemble: the eigenbasis measurement attains the bound.
        assert mutual_information(eve_channel(f)) == pytest.approx(chi, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.floats(0.05, 0.95))
    def test_eigenbasis_measurement_attains_commuting_bound(self, s0, s1, w):
        priors = np.array([w, 1.0 - w])
        spectra = np.array([np.array(s0) / np.sum(s0), np.array(s1) / np.sum(s1)])
        chi = holevo_quantity(priors, spectra)
        full = mutual_information(ClassicalChannel(priors, spectra))
        assert full == pytest.approx(chi, abs=1e-9)
        # Coarse-graining outcomes can only lose information.
        merged = np.stack([spectra[:, 0] + spectra[:, 1],
                           spectra[:, 2] + spectra[:, 3]], axis=1)
        coarse = mutual_information(ClassicalChannel(priors, merged))
        assert coarse <= chi + 1e-9

    def test_invalid_spectra_rejected(self):
        with pytest.raises(InvalidParameterError):
            holevo_quantity([0.5, 0.5], [[0.6, 0.6], [1.0, 0.0]])


class TestHartley:
    """Hartley information log2|parity set| = eta * n * k, with eta exact."""

    def test_small_cases_against_enumeration(self):
        # All 6-bit strings whose weight is a multiple of 2, halved: 16.
        assert exact_eta(3, 2) * 6 == pytest.approx(math.log2(16), abs=1e-12)
        assert exact_eta(2, 1) * 2 == pytest.approx(1.0, abs=1e-12)

    def test_large_block_approximation(self):
        # n*k = 40, k = 4: within half a bit of n*k - log2(2k) = 37.
        assert abs(exact_eta(10, 4) * 40 - 37.0) < 0.5

    def test_eta_approaches_one(self):
        k = 3
        etas = [exact_eta(n, k) for n in (4, 10, 30, 60)]
        assert all(b >= a for a, b in zip(etas, etas[1:]))
        assert etas[-1] > 0.95

    def test_matches_exact_counter(self):
        for n, k in [(5, 3), (7, 2), (4, 5)]:
            assert exact_eta(n, k) * n * k == pytest.approx(
                math.log2(parity_count(n, k).exact), abs=1e-12)
