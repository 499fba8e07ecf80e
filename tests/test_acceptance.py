"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Each criterion runs one of ``relqkd verify``'s checks, ``harness.check_*``,
so the suite and ``relqkd verify`` share one implementation of every check.
Criteria 1, 2, 6 and 8 run their checks exactly as ``relqkd verify`` does.
Criterion 3 passes its own cosine grid, 4 its own seeds, trial count and
hash rounds, 5 its own seed and trial count, and 7 its own seed.  Statistical
checks use exact binomial standard errors around the analytic value with
fixed seeds, so the suite is deterministic.
"""

import time

import numpy as np

from relqkd.distill import majority_decode
from relqkd.harness import (
    check_delay_bound,
    check_hash_calibration,
    check_information,
    check_instrument_bound,
    check_intercept_resend,
    check_majority_tail,
    check_parity_cosine,
    check_parity_identity,
    check_session,
)


def report(log, number: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    log.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_delay_tradeoff_monte_carlo(criterion_log):
    """Eve-correct and receiver-pass rates match the closed forms at 3 sigma."""
    t0 = time.time()
    result = check_intercept_resend()
    elapsed = time.time() - t0
    report(criterion_log, 1, result.passed and elapsed < 60.0,
           f"{result.detail}; {elapsed:.1f}s < 60s")


def test_criterion_2_optimum_at_boundary(criterion_log):
    """Grid scan puts the joint-success maximum at zero delay."""
    result = check_delay_bound()
    report(criterion_log, 2, result.passed, result.detail)


def test_criterion_3_parity_identity(criterion_log):
    """Binomial sum, cosine form, and enumeration agree."""
    exact = check_parity_identity()
    assert exact.passed, exact.detail
    cosine = check_parity_cosine(totals=(40, 80, 120, 160, 200), ks=(1, 2, 4, 5, 8, 10))
    report(criterion_log, 3, cosine.passed,
           f"exact agreement for n*k <= 20; cosine {cosine.detail} up to n*k = 200")


def test_criterion_4_hash_calibration(criterion_log):
    """One injected discrepancy escapes M rounds with probability 2^-M."""
    t0 = time.time()
    results = [check_hash_calibration(100_000, rounds, 4000 + rounds) for rounds in (5, 10)]
    elapsed = time.time() - t0
    report(criterion_log, 4, all(r.passed for r in results) and elapsed < 30.0,
           "; ".join(r.detail for r in results) + f"; {elapsed:.1f}s < 30s")


def test_criterion_5_majority_block_error(criterion_log):
    """Decoded block error matches the exact binomial tail for k=5, p=0.05."""
    t0 = time.time()
    k, p_flip, blocks = 5, 0.05, 1_000_000
    result = check_majority_tail(blocks, 55)
    # The check's vectorized decode agrees with the module operation on a
    # sample of the same draws.
    rng = np.random.default_rng(55)
    flips = rng.random((blocks, k)) < p_flip
    sample = rng.integers(0, blocks, 1000)
    for idx in sample:
        assert majority_decode(flips[idx].astype(int)) == int(flips[idx].sum() * 2 > k)
    elapsed = time.time() - t0
    report(criterion_log, 5, result.passed and elapsed < 60.0,
           f"{result.detail}; {elapsed:.1f}s < 60s")


def test_criterion_6_information_formulas(criterion_log):
    """Her information about the sent bits in a session is f(chi), at two delays."""
    result = check_information()
    report(criterion_log, 6, result.passed, result.detail)


def test_criterion_7_instrument_bound(criterion_log):
    """Random admissible instruments never exceed the available mass; the identity attains it."""
    result = check_instrument_bound(777)
    report(criterion_log, 7, result.passed, f"f = 0.6, d = 8: {result.detail}")


def test_criterion_8_end_to_end_session(criterion_log):
    """Solver output drives a noiseless session to identical 64-bit keys."""
    result = check_session()
    report(criterion_log, 8, result.passed, result.detail)
