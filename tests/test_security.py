"""Parity counting identity, key-level bounds, and the parameter solver."""

import contextlib
import dataclasses
import math
import re
import signal
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from relqkd import security
from relqkd.errors import InvalidParameterError, RelqkdError
from relqkd.security import (
    MAX_TOTAL,
    SecurityReport,
    SolvedParameters,
    build_report,
    exact_eta,
    parity_cosine,
    parity_count,
    solve_parameters,
)

LN2 = math.log(2.0)


def enumerate_parity_strings(total: int, k: int) -> int:
    """Brute-force oracle: strings of length n*k with weight a multiple of k."""
    count = sum(1 for v in range(2 ** total) if v.bit_count() % k == 0)
    return count // 2


class TestParityCount:
    @pytest.mark.parametrize("n,k,expected", [(3, 2, 16), (2, 1, 2), (1, 3, 1)])
    def test_small_cases(self, n, k, expected):
        assert parity_count(n, k) == expected
        assert round(parity_cosine(n, k)) == expected
        assert enumerate_parity_strings(n * k, k) == expected

    def test_enumeration_up_to_16(self):
        for total in range(1, 17):
            for k in range(1, total + 1):
                if total % k:
                    continue
                count = parity_count(total // k, k)
                assert count == enumerate_parity_strings(total, k)
                assert round(parity_cosine(total // k, k)) == count

    def test_approximation_for_moderate_blocks(self):
        # The count is within (1 +- 0.1) of 2^{nk}/(2k) already at n*k = 15.
        count = parity_count(5, 3)
        approx = 2 ** 15 / 6
        assert 0.9 * approx < count < 1.1 * approx

    def test_cosine_tracks_big_integers(self):
        for n, k in [(50, 2), (40, 5), (200, 1), (25, 8)]:
            count = float(parity_count(n, k))
            assert abs(parity_cosine(n, k) - count) / count < 1e-6

    def test_validation(self):
        for count in (parity_count, parity_cosine):
            for n, k in ((0, 3), (3, 0)):
                with pytest.raises(InvalidParameterError, match="need n, k >= 1"):
                    count(n, k)

    def test_count_is_an_int(self):
        assert [type(parity_count(n, k)) for n, k in ((1, 1), (9, 1), (3, 2))] == [int] * 3

    def test_exact_side_is_the_binomial_sum(self):
        for total in range(1, 301):
            for k in range(1, total + 1):
                if total % k == 0:
                    expected = sum(math.comb(total, i * k)
                                   for i in range(total // k + 1)) // 2
                    assert parity_count(total // k, k) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2000))
    def test_closed_form_at_k1_is_the_walk(self, n):
        assert parity_count(n, 1) == reference.parity_walk(n, 1) == 2 ** (n - 1)

    def test_cosine_side_is_the_term_by_term_form(self):
        # Bitwise the expression evaluated while 2^{nk} is a float.
        for total in range(1, 201):
            for k in range(1, total + 1):
                if total % k:
                    continue
                n = total // k
                acc = 0.0
                for l in range(1, k + 1):
                    sign = -1.0 if (n * l) % 2 else 1.0
                    acc += (math.cos(l * math.pi / k) ** total) * sign
                expected = (2.0 ** total) / (2.0 * k) * acc
                assert parity_cosine(n, k).hex() == expected.hex()

    def test_cosine_side_is_the_reference_loop(self):
        for total in range(1, 301):
            for k in range(1, total + 1):
                if total % k == 0:
                    got = parity_cosine(total // k, k).hex()
                    assert got == reference.parity_cosine(total // k, k).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1023).flatmap(
        lambda total: st.sampled_from([k for k in range(1, total + 1) if total % k == 0])
        .map(lambda k: (total // k, k))))
    def test_cosine_side_is_the_reference_loop_below_1024(self, nk):
        assert parity_cosine(*nk).hex() == reference.parity_cosine(*nk).hex()

    def test_reports_and_solves_never_take_the_cosine_side(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError(f"the cosine side was evaluated at (n={n}, k={k})")

        monkeypatch.setattr(security, "parity_cosine", refuse)
        assert build_report(64, 9, 3, 12, 0.5, 1e-3, 1e-3).eta == exact_eta(9, 3)
        assert solve_parameters(1e-3, 1e-3, 64, 0.5)[1].all_ok

    def test_cosine_side_never_overflows(self):
        # 2^{nk} is no float from n*k = 1024 on: the cosine side refuses,
        # while the exact count is an int of any size.
        for n, k in ((1024, 1), (100, 11), (1100, 1)):
            with pytest.raises(InvalidParameterError, match="n\\*k < 1024"):
                parity_cosine(n, k)
        assert parity_count(1100, 1) == 2 ** 1099
        assert parity_cosine(341, 3) == float(parity_count(341, 3))


class TestZeta:
    """zeta = [(1 + ratio)/2]^(eta n k), as a report derives it."""

    def test_zero_ratio(self):
        # At k = 1, eta n k = n - 1.
        assert build_report(16, 11, 1, 12, 0.0, 1e-3, 1e-3).zeta == pytest.approx(
            2.0 ** -10, rel=1e-12)

    def test_half_ratio(self):
        assert build_report(16, 21, 1, 12, 0.5, 1e-3, 1e-3).zeta == pytest.approx(
            0.75 ** 20, rel=1e-12)

    def test_decreasing_in_block_product(self):
        values = [build_report(16, n, 1, 12, 0.5, 1e-3, 1e-3).zeta for n in (5, 10, 20, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_ratio_validation(self):
        for ratio in (1.0, math.nan, -0.1):
            with pytest.raises(InvalidParameterError, match="channel ratio must lie in"):
                build_report(16, 10, 1, 12, ratio, 1e-3, 1e-3)
        # A ratio that is no real number once raised a raw TypeError.
        with pytest.raises(InvalidParameterError, match="must be a real number"):
            build_report(16, 10, 1, 12, "a", 1e-3, 1e-3)

    def test_one_block_per_parity_is_vacuous(self):
        # n = 1: the parity set holds one string, so eta = 0 and zeta = 1.
        assert exact_eta(1, 3) == 0.0
        report = build_report(8, 1, 3, 4, 0.5, 1e-2, 1e-2)
        assert report.eta == 0.0 and report.zeta == 1.0
        assert not (report.pr_eve_key_valid or report.identical_ok or report.eve_prob_ok
                    or report.i_ae_ok or report.i_be_ok)


class TestEveKeyProbability:
    """The key-guessing bound 2^-N (1 + 2 zeta)^N, as a report derives it."""

    def test_guessing_floor(self):
        # 0.5 ** 1099 underflows, so zeta = 0.
        report = build_report(16, 1100, 1, 12, 0.0, 1e-3, 1e-3)
        assert report.zeta == 0.0
        assert report.pr_eve_key == pytest.approx(2.0 ** -16, rel=1e-12)
        assert report.pr_eve_key_valid

    def test_small_zeta(self):
        report = build_report(16, 14, 1, 12, 0.0, 1e-3, 1e-3)
        assert report.zeta == pytest.approx(2.0 ** -13, rel=1e-12)
        assert report.pr_eve_key == pytest.approx(
            2.0 ** -16 * (1.0 + 2.0 * report.zeta) ** 16, rel=1e-9)

    def test_degenerate_channel(self):
        # zeta = 1/2 reproduces certainty: the full-length channel limit.
        report = build_report(16, 2, 1, 12, 0.0, 1e-3, 1e-3)
        assert report.zeta == 0.5
        assert report.pr_eve_key == pytest.approx(1.0, rel=1e-12)
        assert report.pr_eve_key_valid

    def test_vacuous_bound_flagged(self):
        assert not build_report(8, 1, 1, 12, 0.5, 1e-3, 1e-3).pr_eve_key_valid

    @pytest.mark.parametrize("n_key,zeta_value", [(10 ** 6, 0.9), (4000, 0.75), (1752, 1.0)])
    def test_bound_past_the_float_range_is_inf(self, n_key, zeta_value):
        # exp of the log bound once raised a raw OverflowError here.  n = 2
        # at k = 1 gives zeta = (1 + ratio)/2; n = 1 gives zeta = 1.
        n, ratio = (1, 0.5) if zeta_value == 1.0 else (2, 2.0 * zeta_value - 1.0)
        report = build_report(n_key, n, 1, 12, ratio, 1e-3, 1e-3)
        assert report.zeta == zeta_value
        assert (report.pr_eve_key, report.pr_eve_key_valid) == (math.inf, False)

    def test_monotone_in_zeta(self):
        reports = [build_report(16, n, 1, 12, 0.5, 1e-3, 1e-3) for n in (40, 20, 10, 5, 2, 1)]
        assert all(b.zeta > a.zeta and b.pr_eve_key > a.pr_eve_key
                   for a, b in zip(reports, reports[1:]))


class TestInformationBounds:
    """I(A;B), I(A;E) and the I(B;E) bound, as a report derives them."""

    def test_perfect_limit(self):
        report = build_report(16, 1100, 1, 60, 0.0, 1e-3, 1e-3)
        assert report.zeta == 0.0
        assert report.i_ab == pytest.approx(16.0, abs=1e-9)
        assert report.i_ae == 0.0
        assert report.i_be == pytest.approx(0.0, abs=1e-15)

    def test_reference_point(self):
        report = build_report(16, 21, 1, 20, 0.0, 1e-3, 1e-3)
        z = report.zeta
        assert z == pytest.approx(2.0 ** -20, rel=1e-12)
        assert report.i_ab == pytest.approx(16.0 - 2.0 ** -20 / LN2, rel=1e-9)
        assert report.i_ae == pytest.approx(16.0 * math.log1p(2.0 * z) / LN2, rel=1e-9)
        assert report.i_be == pytest.approx((32.0 * z + 2.0 ** -20) / LN2, rel=1e-9)

    def test_vanishing_with_block_product(self):
        iaes = [build_report(64, n, 1, 40, 0.5, 1e-3, 1e-3).i_ae for n in (20, 60, 120)]
        assert all(b < a for a, b in zip(iaes, iaes[1:]))
        assert iaes[-1] < 1e-6

    def test_i_ab_never_exceeds_key_length(self):
        for m in (1, 5, 20):
            assert build_report(32, 20, 1, m, 0.0, 1e-3, 1e-3).i_ab <= 32.0


def reference_solve(eps1, eps2, n_key, ratio, max_total=1_000_000):
    """The solver as first written: every n*k in order, then every odd k."""
    m1 = math.ceil(-math.log2(eps1))
    m2 = math.ceil(math.log2(2.0 / (eps2 * LN2)))
    hash_rounds = max(1, m1, m2)
    for total in range(1, max_total + 1):
        for k in range(1, total + 1, 2):
            if total % k:
                continue
            n = total // k
            if exact_eta(n, k) <= 0.0:
                continue
            report = build_report(n_key, n, k, hash_rounds, ratio, eps1, eps2)
            if report.all_ok:
                return SolvedParameters(k, n, hash_rounds), report
    raise InvalidParameterError(
        f"no (n, k) with n*k <= {max_total} satisfies the criterion"
    )


def _outcome(solve, *args, **kwargs):
    try:
        params, report = solve(*args, **kwargs)
    except InvalidParameterError as exc:
        return "error", str(exc)
    return params, report.to_text()


class TestSolveParameters:
    def test_hash_rounds_inversion(self):
        # With a generous eps2, only the mismatch criterion binds M.
        params, _ = solve_parameters(2.0 ** -10, 0.9, 8, 0.0)
        assert params.hash_rounds == 10

    def test_zero_ratio_search(self):
        params, report = solve_parameters(1e-3, 1e-3, 64, 0.0)
        assert report.all_ok
        # Independent check of the binding constraint at the solution.
        n, k, m = params.blocks_per_parity, params.block_size, params.hash_rounds
        z = reference.zeta(n, k, 0.0, exact_eta(n, k))
        assert reference.information_bounds(64, m, z).i_ae <= 1e-3
        assert reference.information_bounds(64, m, z).i_be <= 1e-3

    def test_report_round_trips_through_reevaluation(self):
        params, report = solve_parameters(1e-3, 1e-3, 64, 0.5)
        again = build_report(64, params.blocks_per_parity, params.block_size,
                             params.hash_rounds, 0.5, 1e-3, 1e-3)
        assert again.all_ok
        assert again.zeta == pytest.approx(report.zeta, rel=1e-12)

    def test_minimality_of_block_product(self):
        params, _ = solve_parameters(1e-3, 1e-3, 64, 0.5)
        total = params.blocks_per_parity * params.block_size
        # No smaller odd-k candidate satisfies the criterion.
        for smaller in range(2, total):
            for k in range(1, smaller + 1, 2):
                if smaller % k:
                    continue
                n = smaller // k
                if exact_eta(n, k) <= 0.0:
                    continue
                assert not build_report(64, n, k, params.hash_rounds, 0.5,
                                        1e-3, 1e-3).all_ok

    def test_invalid_ratio_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_parameters(1e-3, 1e-3, 64, 1.0)
        # An eps1, eps2 or ratio that is no real number once raised a raw TypeError.
        for args in (("x", 0.3, 64, 0.3), (0.3, "x", 64, 0.3), (0.3, 0.3, 64, "x")):
            with pytest.raises(InvalidParameterError, match="must be a real number"):
                solve_parameters(*args)

    @pytest.mark.parametrize("eps1, eps2", [(0.0, 1e-3), (1e-3, 1.0)], ids=["eps1-0", "eps2-1"])
    def test_eps_outside_the_unit_interval_rejected(self, eps1, eps2):
        with pytest.raises(InvalidParameterError, match=r"^eps1 and eps2 must lie in \(0, 1\)$"):
            solve_parameters(eps1, eps2, 64, 0.5)

    @pytest.mark.parametrize("n_key", [math.nan, math.inf, 64.5, 64.0, "64"])
    def test_key_length_that_is_no_integer_rejected(self, n_key):
        # NaN once passed n_key < 1 and the search never returned; 64.5
        # was answered for a 64.5-bit key.
        with _time_limit(5), pytest.raises(InvalidParameterError,
                                           match="key length must be an integer"):
            solve_parameters(0.3, 0.3, n_key, 0.3)

    @pytest.mark.parametrize("ratio,n", [(0.0, 20), (0.5, 45), (0.9, 246), (0.95, 498)])
    def test_pinned_solutions(self, ratio, n):
        params, report = solve_parameters(1e-3, 1e-3, 64, ratio)
        assert params == SolvedParameters(1, n, 12)
        assert report.all_ok

    def test_high_ratio_solves(self):
        params, report = solve_parameters(1e-3, 1e-3, 64, 0.99)
        assert params == SolvedParameters(1, 2507, 12)
        assert report.all_ok
        assert not build_report(64, 2506, 1, 12, 0.99, 1e-3, 1e-3).all_ok

    @settings(max_examples=60, deadline=None)
    @given(eps1=st.floats(1e-4, 0.5), eps2=st.floats(1e-2, 0.5),
           n_key=st.integers(1, 64), ratio=st.floats(0.0, 0.75),
           shortfall=st.integers(1, 40))
    def test_matches_reference_search(self, eps1, eps2, n_key, ratio, shortfall):
        expected = _outcome(reference_solve, eps1, eps2, n_key, ratio)
        assert _outcome(solve_parameters, eps1, eps2, n_key, ratio) == expected
        params = expected[0]
        below = params.block_size * params.blocks_per_parity - shortfall
        with mock.patch.object(security, "MAX_TOTAL", below):
            below_outcome = _outcome(solve_parameters, eps1, eps2, n_key, ratio)
        assert below_outcome == _outcome(reference_solve, eps1, eps2, n_key, ratio,
                                         max_total=below)


class TestNumpyIntegers:
    """Each integer argument is read as a Python int, so numpy's int64 cannot wrap."""

    def test_parity_count(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parity_count(np.int64(100), np.int32(1)) == parity_count(100, 1)
            assert parity_cosine(np.int64(100), np.int32(1)) == parity_cosine(100, 1)
        assert type(parity_count(np.int64(100), 1)) is int
        assert parity_count(np.int64(100), 1) == 2 ** 99

    def test_report(self):
        # _log2_int once raised a raw AttributeError on numpy integers.
        report = build_report(np.int64(64), np.int64(45), np.int8(1), np.uint16(12), 0.5,
                              1e-3, 1e-3)
        assert report.to_text() == build_report(64, 45, 1, 12, 0.5, 1e-3, 1e-3).to_text()
        assert type(report.n_key) is int and type(report.hash_rounds) is int

    def test_solver_and_bounds(self):
        assert (solve_parameters(1e-3, 1e-3, np.int64(64), 0.5)[0]
                == solve_parameters(1e-3, 1e-3, 64, 0.5)[0])
        report = build_report(np.int64(16), np.int64(9), np.int64(1), np.int64(4),
                              np.float64(0.5), 1e-3, 1e-3)
        again = build_report(16, 9, 1, 4, 0.5, 1e-3, 1e-3)
        assert ((report.zeta, report.pr_eve_key, report.i_ab, report.i_ae, report.i_be)
                == (again.zeta, again.pr_eve_key, again.i_ab, again.i_ae, again.i_be))
        assert exact_eta(np.int64(9), np.int64(3)) == exact_eta(9, 3)

    @pytest.mark.parametrize("value", [2.0, math.nan, np.float64(3.0), np.bool_(True), "3"])
    def test_non_integers_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            parity_count(value, 1)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            build_report(64, value, 1, 12, 0.5, 1e-3, 1e-3)


class TestSizeBound:
    """n*k above MAX_TOTAL, the solver's search bound, is refused before any count."""

    @pytest.mark.parametrize("call", [lambda: parity_count(2 ** 40, 1),
                                      lambda: exact_eta(2 ** 40, 1),
                                      lambda: build_report(64, 2 ** 62, 1, 12, 0.5, 1e-3, 1e-3),
                                      lambda: parity_count(MAX_TOTAL // 3 + 1, 3)],
                             ids=["parity_count", "exact_eta", "build_report", "k3"])
    def test_past_the_bound_refused(self, call):
        # The first three once raised a raw MemoryError computing 1 << (n - 1).
        with _time_limit(5), pytest.raises(InvalidParameterError,
                                           match=f"n\\*k must be at most {MAX_TOTAL}, got"):
            call()

    def test_the_bound_itself_accepted(self):
        assert MAX_TOTAL == 1_000_000
        with _time_limit(5):
            assert parity_count(MAX_TOTAL, 1) == 1 << (MAX_TOTAL - 1)
            assert build_report(64, MAX_TOTAL, 1, 12, 0.5, 1e-3, 1e-3).all_ok


class TestKeyLength:
    """Every function that takes a key length reads it the same way."""

    CALLS = {
        "build_report": lambda n_key: build_report(n_key, 2, 1, 10, 0.5, 1e-3, 1e-3),
        "solve_parameters": lambda n_key: solve_parameters(1e-3, 1e-3, n_key, 0.5),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_past_the_float_range_rejected(self, call):
        # Each once raised a raw OverflowError converting N to a float.
        with _time_limit(5), pytest.raises(InvalidParameterError,
                                           match="key length must be at most"):
            self.CALLS[call](10**400)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_below_one_rejected(self, call):
        with pytest.raises(InvalidParameterError, match="key length must be >= 1, got 0"):
            self.CALLS[call](0)

    def test_largest_float_accepted(self):
        report = build_report(int(1.7e308), 2, 1, 12, 0.8, 1e-3, 1e-3)
        assert (report.pr_eve_key, report.pr_eve_key_valid) == (math.inf, False)
        # 2N overflows here; the I(B;E) bound once read NaN at zeta = 0, so
        # no report passed and the solver searched up to max_total.
        report = build_report(int(1.7e308), 1100, 1, 12, 0.0, 1e-3, 1e-3)
        assert report.zeta == 0.0 and report.i_be == 2.0 ** -12 / LN2
        with _time_limit(5):
            params, report = solve_parameters(1e-3, 1e-3, 10**308, 0.5)
        assert report.all_ok and params.blocks_per_parity == 2496


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError from the block once ``seconds`` have passed.

    It is raised again from here: pytest cannot format a traceback that
    ends in the frame the signal interrupted.
    """
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        raise TimeoutError(f"no answer within {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ROADMAP item 17's pool of numeric edges.
_EDGES = st.sampled_from([0, 1, -1, 0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e308,
                          2 ** 63, 2 ** 70, np.int64(5), np.int64(-1), np.uint64(2 ** 63),
                          np.float64(0.25), np.float64(math.nan), np.float32(1e30)])


class TestZetaValue:
    """Every entry on the path to a report's zeta meets numeric edges with a typed refusal."""

    @settings(max_examples=300, deadline=None)
    @given(n_key=_EDGES, hash_rounds=_EDGES)
    def test_numeric_edges(self, n_key, hash_rounds):
        # Each call returns a non-NaN result or raises a RelqkdError, within
        # 5 s.  The parity count takes the edges as (n, k) and a report as
        # its key length and (n, k); 2^63 blocks once raised a raw MemoryError.
        for call in (lambda: (parity_count(n_key, hash_rounds),),
                     lambda: (parity_cosine(n_key, hash_rounds),),
                     lambda: (exact_eta(n_key, hash_rounds),),
                     lambda: dataclasses.astuple(build_report(
                         n_key, n_key, hash_rounds, 12, 0.5, 1e-3, 1e-3))):
            try:
                with _time_limit(5):
                    result = call()
            except RelqkdError:
                continue
            assert not any(isinstance(value, float) and math.isnan(value) for value in result)


class TestReportSerialization:
    def test_schema_and_round_trip(self):
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        text = report.to_text()
        assert text.startswith("relqkd-report/1\n")
        parsed = SecurityReport.from_text(text)
        assert parsed.to_text() == text
        assert parsed == report
        assert parsed.all_ok == report.all_ok

    @settings(max_examples=200, deadline=None)
    @given(n_key=st.integers(1, 256), n=st.integers(2, 80), k=st.sampled_from([1, 3, 5, 7]),
           hash_rounds=st.integers(1, 40), ratio=st.floats(0.0, 0.99),
           eps1=st.floats(1e-9, 0.5), eps2=st.floats(1e-9, 0.5),
           p_err=st.none() | st.floats(0.0, 0.5), aborted=st.none() | st.booleans())
    def test_built_reports_round_trip(self, n_key, n, k, hash_rounds, ratio, eps1, eps2,
                                      p_err, aborted):
        report = build_report(n_key, n, k, hash_rounds, ratio, eps1, eps2, p_err, aborted)
        assert SecurityReport.from_text(report.to_text()) == report

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(0.0, 1.0, exclude_max=True),
           eps1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           eps2=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           p_err=st.floats(0.0, 1.0))
    def test_any_finite_floats_round_trip(self, ratio, eps1, eps2, p_err):
        # Each float parameter anywhere in its domain; the bounds follow.
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        report = dataclasses.replace(report, ratio=ratio, eps1=eps1, eps2=eps2,
                                     p_err_estimate=p_err)
        assert SecurityReport.from_text(report.to_text()) == report

    def test_stores_nine_parameters(self):
        assert [f.name for f in dataclasses.fields(SecurityReport) if f.init] == [
            "n_key", "blocks_per_parity", "block_size", "hash_rounds", "ratio",
            "eps1", "eps2", "p_err_estimate", "aborted"]

    def test_replace_rederives_the_bounds(self):
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        assert report.all_ok
        moved = dataclasses.replace(report, ratio=0.9)
        assert moved == build_report(16, report.blocks_per_parity, 1, report.hash_rounds,
                                     0.9, 1e-3, 1e-3)
        assert moved.zeta > report.zeta
        assert not (moved.eve_prob_ok or moved.i_ae_ok or moved.all_ok)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(report, zeta=0.0)

    def test_rejects_foreign_text(self):
        with pytest.raises(InvalidParameterError):
            SecurityReport.from_text("something else\nn_key=4\n")

    @pytest.mark.parametrize("text", [5, None, b"relqkd-report/1\n"], ids=["int", "none", "bytes"])
    def test_rejects_what_is_no_str(self, text):
        # 5 once raised a raw AttributeError.
        with pytest.raises(InvalidParameterError, match="a report is a str"):
            SecurityReport.from_text(text)

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("n_key=16\n", ""),
        lambda t: t.replace("n_key=16", "n_key=x"),
        lambda t: t.replace("eta=", "eta=0.5x", 1),
        lambda t: t.replace("identical_ok=true", "identical_ok=yes"),
        lambda t: t.replace("i_ae_ok=true", "i_ae_ok=True"),
        lambda t: t + "no separator\n",
        lambda t: t + "unknown=1\n",
        lambda t: t + "n_key=16\n",
        lambda t: t.replace("all_ok=true", "all_ok=false"),
        lambda t: t.replace("i_be_ok=true", "i_be_ok=false"),
        lambda t: t.replace("all_ok=true\n", ""),
        # Each of these contradicts the parameters and was once accepted:
        # 2^-12 <= eps1, and the bounds are what the parameters give.
        lambda t: t.replace("identical_ok=true", "identical_ok=false").replace(
            "all_ok=true", "all_ok=false"),
        lambda t: re.sub(r"\ni_ae=[^\n]*", "\ni_ae=0.0", t),
        lambda t: re.sub(r"\npr_eve_key=[^\n]*", "\npr_eve_key=1e-300", t),
        # Text that to_text never writes.
        lambda t: t.replace("\nratio=", "\n\nratio="),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("eps1=0.001\neps2=0.001", "eps2=0.001\neps1=0.001"),
        lambda t: t.replace("n_key=16", "n_key=016"),
        lambda t: t.replace("hash_rounds=12", "hash_rounds=" + "9" * 400),
    ], ids=["missing-n_key", "n_key-x", "eta-garbled", "bool-yes", "bool-True",
            "no-equals", "unknown-key", "duplicate-key", "all_ok-false",
            "flag-disagrees", "missing-all_ok", "identical_ok-false-but-holds",
            "i_ae-0", "pr_eve_key-1e-300", "blank-line", "crlf", "reordered-keys",
            "n_key-0-padded", "hash_rounds-overflows-a-float"])
    def test_malformed_reports_raise_typed_errors(self, mangle):
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        text = mangle(report.to_text())
        assert text != report.to_text()
        with pytest.raises(InvalidParameterError):
            SecurityReport.from_text(text)

    @pytest.mark.parametrize("eps1,eps2", [(float("nan"), 2.0), (0.0, 1e-3), (1e-3, 1.0),
                                           (-1e-3, 1e-3), (1e-3, float("inf"))],
                             ids=["nan-and-2", "eps1-0", "eps2-1", "eps1-negative", "eps2-inf"])
    def test_eps_outside_unit_interval_rejected(self, eps1, eps2):
        with pytest.raises(InvalidParameterError, match=r"eps[12] must lie in \(0, 1\)"):
            build_report(16, 25, 1, 12, 0.25, eps1, eps2)
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        text = report.to_text().replace("eps1=0.001\neps2=0.001",
                                        f"eps1={eps1!r}\neps2={eps2!r}")
        with pytest.raises(InvalidParameterError, match=r"eps[12] must lie in \(0, 1\)"):
            SecurityReport.from_text(text)

    def test_session_fields_round_trip(self):
        _, report = solve_parameters(1e-3, 1e-3, 16, 0.25)
        report = dataclasses.replace(report, p_err_estimate=0.125, aborted=False)
        text = report.to_text()
        assert SecurityReport.from_text(text).to_text() == text
        with pytest.raises(InvalidParameterError):
            SecurityReport.from_text(text.replace("aborted=false", "aborted=0"))


class TestReportFields:
    """The constructor reads every parameter, so each report it makes reads back."""

    REPORT = (16, 20, 1, 8, 0.25, 1e-3, 1e-3)

    @pytest.mark.parametrize("changes", [
        # Once accepted, and read back unequal to itself.
        dict(p_err_estimate=math.nan),
        # Each once accepted, and written as text that from_text refused.
        dict(p_err_estimate="x"),
        dict(p_err_estimate=-3.0),
        dict(p_err_estimate=1.5),
        dict(aborted="yes"),
        # Each once raised a raw TypeError.
        dict(ratio="x"),
        dict(ratio=None),
        dict(eps1="x"),
        dict(eps2=None),
    ], ids=["p_err-nan", "p_err-x", "p_err-negative", "p_err-above-1", "aborted-yes",
            "ratio-x", "ratio-none", "eps1-x", "eps2-none"])
    def test_bad_field_refused(self, changes):
        name = next(iter(changes))
        report = build_report(*self.REPORT)
        with pytest.raises(InvalidParameterError, match=name):
            dataclasses.replace(report, **changes)

    # The parity count walks O((nk)^2) bit operations, 1.9 s at (14000, 7):
    # a field out of range is refused before it, through either way in.
    @pytest.mark.parametrize("name, value, refusal", [
        ("ratio", 1.5, r"channel ratio must lie in \[0, 1\), got 1.5"),
        ("n_key", 0, "key length must be >= 1, got 0"),
        ("hash_rounds", 0, "hash rounds must be >= 1, got 0"),
    ], ids=["ratio", "n_key", "hash_rounds"])
    @pytest.mark.parametrize("way", ["build_report", "from_text"])
    def test_range_refused_before_the_count(self, monkeypatch, name, value, refusal, way):
        text = build_report(*self.REPORT).to_text()
        fields = dict(n_key=64, blocks_per_parity=14000, block_size=7, hash_rounds=12,
                      ratio=0.5, eps1=1e-3, eps2=1e-3)
        fields[name] = value
        for key, given in fields.items():
            text = re.sub(f"(?m)^{key}=.*$", f"{key}={given}", text)

        def count(n, k):
            raise AssertionError("the parity count ran")

        monkeypatch.setattr(security, "parity_count", count)
        with pytest.raises(InvalidParameterError, match=f"^{refusal}$"):
            if way == "build_report":
                build_report(**fields)
            else:
                SecurityReport.from_text(text)

    @settings(max_examples=300, deadline=None)
    @given(n_key=st.integers(1, int(1.7e308)), n=st.integers(1, 200), k=st.integers(1, 9),
           hash_rounds=st.integers(1, 80), ratio=st.floats(0.0, 1.0, exclude_max=True))
    def test_bounds_are_the_reference_functions(self, n_key, n, k, hash_rounds, ratio):
        # The report derives its bounds in one place; these are the three
        # functions that once derived them, bit for bit.
        report = build_report(n_key, n, k, hash_rounds, ratio, 1e-3, 1e-3)
        z = reference.zeta(n, k, ratio, exact_eta(n, k))
        assert report.zeta == z
        assert ((report.pr_eve_key, report.pr_eve_key_valid)
                == tuple(reference.eve_key_probability(n_key, z)))
        assert ((report.i_ab, report.i_ae, report.i_be)
                == tuple(reference.information_bounds(n_key, hash_rounds, z)))

    def test_numpy_bool_abort_is_stored_as_a_bool(self):
        # np.True_ was once written as "aborted=True", which from_text refused.
        report = build_report(*self.REPORT, 0.125, np.True_)
        assert report.aborted is True
        assert "\naborted=true\n" in report.to_text()
        assert SecurityReport.from_text(report.to_text()) == report

    @settings(max_examples=300, deadline=None)
    @given(ratio=_EDGES | st.sampled_from([0.5, 0.99, None, "x"]),
           eps1=_EDGES | st.sampled_from([1e-3, 0.5, 5e-324, None, "x"]),
           eps2=_EDGES | st.sampled_from([1e-3, 0.5, None, "x"]),
           p_err=_EDGES | st.sampled_from([0.125, 5e-324, None, "x"]),
           aborted=st.sampled_from([None, True, False, np.True_, np.False_, 1, "yes"]))
    def test_every_accepted_report_round_trips(self, ratio, eps1, eps2, p_err, aborted):
        try:
            report = build_report(16, 20, 1, 8, ratio, eps1, eps2, p_err, aborted)
        except RelqkdError:
            return
        assert all(type(getattr(report, name)) is float for name in ("ratio", "eps1", "eps2"))
        assert report.p_err_estimate is None or type(report.p_err_estimate) is float
        assert report.aborted is None or type(report.aborted) is bool
        assert SecurityReport.from_text(report.to_text()) == report


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
                math.log2(parity_count(n, k)), abs=1e-12)
