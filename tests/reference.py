"""Whole-array references for the bounded-memory self-checks and the parity count.

``relqkd.harness`` runs its hash-calibration, majority-tail and
parity-identity checks in fixed-size chunks, and ``relqkd.security`` takes
``parity_count``'s exact side at k = 1 in closed form.  The functions here
are the plain forms those replace: each check draws or builds its whole
working array at once, and ``parity_walk`` walks the binomial row for any
k.  The tests hold the package's results equal to these, byte for byte.
"""

import math

import numpy as np

from relqkd import distill, security
from relqkd.distill import majority_decode
from relqkd.harness import CheckResult, _stderr


def parity_walk(n: int, k: int) -> int:
    """(1/2) * sum_i C(n*k, i*k), one multiplicative pass over the binomial row."""
    total = n * k
    binom = twice = 1
    for j in range(1, total + 1):
        binom = binom * (total - j + 1) // j
        if j % k == 0:
            twice += binom
    return twice // 2


def parity_identity() -> CheckResult:
    """``check_parity_identity``, growing the popcounts by concatenation."""
    limit = 20
    weights = np.zeros(1, dtype=np.uint8)
    histogram = [1]
    for total in range(1, limit + 1):
        block = weights + 1
        histogram.append(0)
        for j in range(1, total + 1):
            histogram[j] += int(np.count_nonzero(block == j))
        weights = np.concatenate((weights, block))
        for k in range(1, total + 1):
            if total % k:
                continue
            n = total // k
            count = security.parity_count(n, k)
            if round(count.cosine) != count.exact:
                return CheckResult("parity-identity", False,
                                   f"cosine side mismatch at (n={n}, k={k})")
            if sum(histogram[::k]) // 2 != count.exact:
                return CheckResult("parity-identity", False,
                                   f"enumeration mismatch at (n={n}, k={k})")
    return CheckResult("parity-identity", True,
                       f"exact agreement for all n*k <= {limit} (tolerance: exact)")


def hash_calibration(trials: int, rounds: int, seed: int) -> CheckResult:
    """``check_hash_calibration`` with one whole-array draw and hash step per round."""
    n_bits = 16 + rounds
    dtype = np.uint32 if n_bits <= 32 else np.uint64
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, 1 << n_bits, size=trials, dtype=dtype)
    ib = ia ^ (dtype(1) << rng.integers(0, n_bits, size=trials, dtype=dtype))
    for length in range(n_bits, n_bits - rounds, -1):
        subset = rng.integers(1, 1 << length, size=ia.size, dtype=dtype)
        pa, pb, ia, ib = distill._hash_step(ia, ib, subset)
        match = pa == pb
        ia, ib = ia[match], ib[match]
    undetected = ia.size
    expected = 2.0 ** (-rounds)
    sigma = _stderr(expected, trials)
    ok = abs(undetected / trials - expected) <= 3.0 * sigma
    return CheckResult("hash-calibration", ok,
                       f"undetected {undetected / trials:.5f} vs 2^-{rounds}="
                       f"{expected:.5f} (tolerance 3 sigma = {3 * sigma:.2g})")


def majority_tail(trials: int, seed: int) -> CheckResult:
    """``check_majority_tail`` with all (trials, 5) uniforms drawn at once."""
    k, p_flip = 5, 0.05
    rng = np.random.default_rng(seed)
    errors = int(np.count_nonzero(majority_decode(rng.random((trials, k)) < p_flip)))
    expected = sum(math.comb(k, j) * p_flip ** j * (1 - p_flip) ** (k - j)
                   for j in range(k // 2 + 1, k + 1))
    sigma = _stderr(expected, trials)
    ok = abs(errors / trials - expected) <= 3.0 * sigma
    return CheckResult("majority-tail", ok,
                       f"block error {errors / trials:.3e} vs binomial tail "
                       f"{expected:.3e} (tolerance 3 sigma = {3 * sigma:.2g})")
