"""Whole-array references for the bounded-memory paths and the parity count.

``relqkd.harness`` runs its hash-calibration, majority-tail and
parity-identity checks in fixed-size chunks, a sweep's closed forms
once over its grid and its pass probabilities once per delay,
``relqkd.wavepacket`` shifts a carrier's pieces once per overlap,
``relqkd.distill`` draws a session's rounds in chunks until it has its
blocks, addresses each stream by name and draws its hash subsets in
batches, and ``relqkd.security`` takes ``parity_count`` at k = 1 in
closed form, evaluates the cosine side of the counting identity in
``parity_cosine`` alone, and derives a report's bounds in one place.
The functions here are the plain forms those replace: ``sweep_rows``
builds each grid point's row from scalar closed forms, its own
``channel_probabilities`` call and ``dataclasses.replace``,
``carrier_overlap`` shifts a piece once per pair, each check and
``session`` draws or builds its whole working array at once, ``session``
spawns its streams in order, ``random_nonzero`` draws one subset per
call, ``parity_walk`` walks the binomial row for any k, ``parity_cosine``
is the cosine loop as it stood beside the count, and ``zeta``,
``eve_key_probability`` and ``information_bounds`` compute the bounds
one function each.  The tests hold the package's results equal to these,
byte for byte.
"""

import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np

from relqkd import distill, security, wavepacket
from relqkd.adversary import (
    EveStrategy,
    bob_pass_bound,
    channel_probabilities,
    eve_success_probability,
)
from relqkd.distill import ROUND_COLUMNS, Transcript, majority_decode
from relqkd.errors import (
    InvalidParameterError,
    require_float,
    require_integer,
)
from relqkd.security import LN2
from relqkd.harness import CheckResult, InterceptResendSummary, _stderr, _zscore


def session(cfg: distill.ProtocolConfig) -> Transcript:
    """``run_session`` with spawned streams and whole-array draws.

    Each per-round stream is drawn whole over a bound on the rounds, which
    doubles until the stop lies within it; the table is cut at the stop,
    and the blocks are grouped and shuffled.  A session past int32 round
    ids or memory is not modelled.
    """
    f_eve, p_pass = channel_probabilities(cfg.envelope, cfg.channel_length, cfg.eve)
    k = cfg.block_size
    need_blocks = (cfg.key_length + cfg.hash_rounds) * cfg.blocks_per_parity
    bound = need_blocks * k
    while True:
        bound *= 2
        children = np.random.SeedSequence(cfg.seed).spawn(len(distill.STREAMS))
        rngs = dict(zip(distill.STREAMS, map(np.random.default_rng, children)))
        table, blocks_end, stop = _draw(cfg, rngs, f_eve, p_pass, need_blocks, bound)
        if stop is not None:
            break
    table = table[:stop]
    unspent = np.flatnonzero((table[:blocks_end, 1] < 2) & (table[:blocks_end, 3] == 0))
    if k == 1:
        blocks = unspent[:, None]
    else:
        one = table[unspent, 0] == 1
        blocks = np.concatenate([ids[:ids.size - ids.size % k].reshape(-1, k)
                                 for ids in (unspent.compress(~one), unspent.compress(one))])
        blocks = blocks[np.argsort(blocks[:, 0], kind="stable")]
    blocks = blocks.take(rngs["shuffle"].permutation(len(blocks)), axis=0)
    length = cfg.key_length + cfg.hash_rounds
    subsets = tuple(format(random_nonzero(rngs["hash"], n), f"0{n}b")[::-1]
                    for n in range(length, length - cfg.hash_rounds, -1))
    return Transcript(table, blocks, subsets, cfg.blocks_per_parity)


def _draw(cfg, rngs, f_eve, p_pass, need_blocks, rounds):
    """The first ``rounds`` rounds' table, the rounds through the one that
    completes the blocks, and the session's stop; None for either that lies
    past ``rounds``."""
    k = cfg.block_size
    a_bits = rngs["bits"].random(rounds) < 0.5
    if cfg.eve is not None:
        fire, guess = rngs["eve"].random((rounds, 2)).T
        fired = fire < f_eve
        sent_on = np.where(fired, a_bits, guess < 0.5)
    else:
        fired = None
        sent_on = a_bits
    if p_pass == 1.0:
        conclusive = np.full(rounds, True)
    else:
        conclusive = rngs["bob"].random(rounds) < p_pass
    outcome_bits = sent_on
    if cfg.loss_probability or cfg.flip_probability:
        lost, flipped = rngs["noise"].random((rounds, 2)).T
        conclusive &= lost >= cfg.loss_probability
        outcome_bits = sent_on ^ (flipped < cfg.flip_probability)
    disclosed = conclusive & (rngs["public"].random(rounds) < cfg.disclose_fraction)
    unspent = conclusive & ~disclosed
    made = sum(np.cumsum(unspent & (a_bits == bit)) // k for bit in (False, True))
    table = np.empty((rounds, len(ROUND_COLUMNS)), dtype=np.uint8)
    table[:, 0] = a_bits
    table[:, 1] = np.where(conclusive, outcome_bits, 2)
    table[:, 2] = 3 if fired is None else np.where(fired, a_bits, 2)
    table[:, 3] = disclosed
    if made[-1] < need_blocks or not disclosed.any():
        return table, None, None
    blocks_end = int(np.argmax(made >= need_blocks)) + 1
    return table, blocks_end, max(blocks_end, int(np.argmax(disclosed)) + 1)


def random_nonzero(rng: np.random.Generator, length: int) -> int:
    """One random non-zero subset of ``length`` bits, as a session drew each one."""
    if length <= 62:
        return int(rng.integers(1, 1 << length))
    mask = (1 << length) - 1
    while True:
        v = int.from_bytes(rng.bytes((length + 7) // 8), "little") & mask
        if v:
            return v


def zeta(n: int, k: int, ratio: float, eta: float) -> float:
    """Per-parity-bit advantage factor [(1 + ratio)/2]^(eta * n * k).

    eta = 0, one string per parity set as at n = 1, gives 1: a vacuous bound.
    """
    n, k = require_integer("n", n), require_integer("k", k)
    ratio, eta = require_float("ratio", ratio), require_float("eta", eta)
    if not (0.0 <= ratio < 1.0):
        raise InvalidParameterError(f"channel ratio must lie in [0, 1), got {ratio}")
    if not (0.0 <= eta <= 1.0):
        raise InvalidParameterError(f"eta must lie in [0, 1], got {eta}")
    if n < 1 or k < 1:
        raise InvalidParameterError(f"need n, k >= 1, got n={n}, k={k}")
    return eve_success_probability(ratio) ** (eta * n * k)


def _zeta_value(zeta_value) -> float:
    """zeta as a Python float, refused unless it is >= 0 (so NaN is refused)."""
    z = require_float("zeta", zeta_value)
    if not z >= 0.0:
        raise InvalidParameterError(f"zeta must be >= 0, got {zeta_value}")
    return z


class EveKeyBound(NamedTuple):
    value: float
    valid: bool   # False when the bound exceeds 1 and is vacuous


def eve_key_probability(n_key: int, zeta_value: float) -> EveKeyBound:
    """Bound 2^-N (1 + 2*zeta)^N on the eavesdropper guessing the full key.

    The bound is computed in log space; past the float range it is inf,
    and vacuous.
    """
    n_key, zeta_value = security._key_length(n_key), _zeta_value(zeta_value)
    log_value = n_key * (math.log1p(2.0 * zeta_value) - LN2)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return EveKeyBound(value, value <= 1.0 + 1e-12)


class InformationBounds(NamedTuple):
    i_ab: float
    i_ae: float
    i_be: float


def information_bounds(n_key: int, hash_rounds: int, zeta_value: float) -> InformationBounds:
    """Mutual-information bounds (bits) between the three parties' keys.

    I(A;B) = N + log2(1 - 2^-M); I(A;E) = N log2(1 + 2 zeta); the bound on
    I(B;E) combines the two through the information triangle inequality.
    The conservative + sign is used in the I(B;E) combination so the bound
    can never go negative.
    """
    n_key = security._key_length(n_key)
    hash_rounds = require_integer("hash rounds", hash_rounds)
    if hash_rounds < 1:
        raise InvalidParameterError(f"hash rounds must be >= 1, got {hash_rounds}")
    zeta_value = _zeta_value(zeta_value)
    p_miss = 2.0 ** (-hash_rounds)
    i_ab = n_key + math.log1p(-p_miss) / LN2
    i_ae = n_key * math.log1p(2.0 * zeta_value) / LN2
    # N zeta first: 2.0 * N overflows to inf near the float range, and inf * 0 is NaN.
    i_be = (2.0 * (n_key * zeta_value) + p_miss) / LN2
    return InformationBounds(i_ab, i_ae, i_be)


def parity_walk(n: int, k: int) -> int:
    """(1/2) * sum_i C(n*k, i*k), one multiplicative pass over the binomial row."""
    total = n * k
    binom = twice = 1
    for j in range(1, total + 1):
        binom = binom * (total - j + 1) // j
        if j % k == 0:
            twice += binom
    return twice // 2


def parity_cosine(n: int, k: int) -> float:
    """The cosine side as ``parity_count`` once returned it while 2^{nk} was a float."""
    total = n * k
    acc = 0.0
    for l in range(1, k + 1):
        c = math.cos(l * math.pi / k)
        sign = -1.0 if (n * l) % 2 else 1.0
        acc += (c ** total) * sign
    cosine = (2.0 ** total) / (2.0 * k) * acc
    return cosine


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
            if round(security.parity_cosine(n, k)) != count:
                return CheckResult("parity-identity", False,
                                   f"cosine side mismatch at (n={n}, k={k})")
            if sum(histogram[::k]) // 2 != count:
                return CheckResult("parity-identity", False,
                                   f"enumeration mismatch at (n={n}, k={k})")
    return CheckResult("parity-identity", True,
                       f"exact agreement for all n*k <= {limit} (tolerance: exact)")


def hash_calibration(trials: int, rounds: int, seed: int) -> CheckResult:
    """``check_hash_calibration`` with one whole-array draw and hash step per round,
    on uint64 rows."""
    n_bits = 16 + rounds
    dtype = np.uint64
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


def sweep_rows(spec) -> list[InterceptResendSummary]:
    """``cmd_analyze`` or ``cmd_simulate`` rows, each grid point built on its own.

    A point takes its closed forms from scalar calls.  In ``simulate`` it
    builds its own ``EveStrategy``, calls ``channel_probabilities`` on a
    fresh copy of the envelope, which has not computed its pieces, draws
    its four counts in turn from the campaign's one generator,
    ``SeedSequence(seed)``'s, and fills in the Monte Carlo fields with
    ``dataclasses.replace``.
    """
    L = spec.envelope.plateau_length
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rows = []
    for ratio, cf in itertools.product(spec.ratios, spec.chi_fractions):
        pr_e = eve_success_probability(ratio + cf)
        pr_b = bob_pass_bound(cf, 1.0)
        row = InterceptResendSummary(ratio, cf, pr_e, pr_b, pr_e * pr_b)
        if spec.mode == "simulate":
            trials = spec.trials
            f, p_pass = channel_probabilities(dataclasses.replace(spec.envelope), ratio * L,
                                              EveStrategy(cf * L, spec.resend_policy))
            fired = rng.binomial(trials, f)
            eve_correct = fired + rng.binomial(trials - fired, 0.5)
            joint = rng.binomial(eve_correct, p_pass)
            passed = joint + rng.binomial(trials - eve_correct, p_pass)
            j_emp = joint / trials
            row = dataclasses.replace(
                row, joint_empirical=j_emp, stderr=_stderr(j_emp, trials),
                zscore=_zscore(j_emp, row.joint_analytic, trials),
                available_fraction=f, pass_probability=p_pass,
                eve_empirical=eve_correct / trials, bob_empirical=passed / trials)
        rows.append(row)
    return rows


def carrier_overlap(envelope, chi: float, lo: float, hi: float) -> float:
    """``Plateau.carrier_overlap``, shifting the second piece once per pair."""
    pieces = envelope._pieces
    total = 0.0
    for p_lo, p_hi, p_terms in pieces:
        for q_lo, q_hi, q_terms in pieces:
            a, b = max(lo, p_lo, q_lo - chi), min(hi, p_hi, q_hi - chi)
            if a < b:
                shifted = tuple((c, k, y0 - chi) for c, k, y0 in q_terms)
                total += wavepacket._product_integral(p_terms, shifted, a, b)
    return total
