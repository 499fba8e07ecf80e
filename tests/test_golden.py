"""Golden bytes: fixed-seed outputs pinned by their sha256.

Refactors must leave every CSV, transcript and report byte-identical for
a fixed seed, and ``relqkd verify``'s text, which is pinned as a literal.  A change that moves an RNG stream or a text format on
purpose re-pins the digests below and says so.  Each distill case also
pins a digest of the session itself, independent of any text format: its
round table, hash log and keys.  A change of format alone leaves those
digests as they are.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from relqkd.adversary import instrument_contraction_check
from relqkd.distill import Transcript
from relqkd.harness import (
    _draw_admissibility,
    check_hash_calibration,
    check_instrument_bound,
    check_majority_tail,
    check_parity_cosine,
    check_parity_identity,
    cmd_analyze,
    cmd_distill,
    cmd_simulate,
    cmd_verify,
    load_campaign,
)

ANALYZE_INI = """
[campaign]
mode = analyze
seed = 1

[sweep]
ratios = 0, 0.25, 0.5, 0.9
chi_fractions = 0, 0.1, 0.25, 0.5
"""

SIMULATE_INI = """
[campaign]
mode = simulate
trials = 20000
seed = 2024

[sweep]
ratios = 0.5, 0.9
chi_fractions = 0, 0.25

[geometry]
state_extent = 1.0

[state]
tail_mass = 1e-3
ramp_fraction = 0.05
"""

DISTILL_INI = """
[campaign]
mode = distill
seed = {seed}

[geometry]
state_extent = 1.0
channel_length = 0.5

[protocol]
key_length = {key_length}
block_size = {block_size}
blocks_per_parity = {blocks_per_parity}
hash_rounds = 4
disclose_fraction = 0.1
flip_probability = {flip}
loss_probability = {loss}
{extra}
"""

SMALL = dict(key_length=8, block_size=3, blocks_per_parity=2, loss=0.0)

DISTILL_CASES = {
    "clean": dict(SMALL, seed=11, flip=0.0, extra=""),
    "noisy": dict(SMALL, seed=12, flip=0.05, extra=""),
    "eve": dict(SMALL, seed=13, flip=0.0,
                extra="[eve]\nenabled = true\ndelay = 0.25\nresend = truncated\n"),
    # An eavesdropper at delay 0 passes every round (p_pass is exactly 1).
    "eve0": dict(SMALL, seed=18, flip=0.0,
                 extra="[eve]\nenabled = true\ndelay = 0\nresend = shifted\n"),
    "tailed": dict(SMALL, seed=14, flip=0.0,
                   extra="[state]\ntail_mass = 1e-3\nramp_fraction = 0.05\n"),
    # The block shapes of the distill-large benchmark at a shorter key.
    "k1n55": dict(key_length=128, block_size=1, blocks_per_parity=55, loss=0.0,
                  seed=15, flip=0.0, extra=""),
    "k7n9": dict(key_length=128, block_size=7, blocks_per_parity=9, loss=0.1,
                 seed=16, flip=0.02, extra=""),
    # (1024 + 4) * 64 = 65792 blocks: past 2^16 block ids.
    "k1n64": dict(key_length=1024, block_size=1, blocks_per_parity=64, loss=0.1,
                  seed=17, flip=0.0, extra=""),
}

GOLDEN = {
    "analyze.csv":
        "25d8c9c4b896696cef841748d7e6d6a900c48ecc63fd6eda47780616bd25f2d0",
    "simulate.csv":
        "abdbeef746da16cdc46294f3dac52a4763e52232626456a1969a2b0b3d5f948c",
    "clean.session":
        "74faa25e53dc0a1cde4aac956df8fc67fd0db58b2458c5bb206d3c5893468123",
    "clean.transcript.txt":
        "20e917c414f40de8b4d7d2f5561af6d238a7d4dd88abcd84488f4b141de9c142",
    "clean.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "noisy.session":
        "6c452ed37c6306a9585866d936eeb7245cd010816c6aef23ec24723d8b22aea7",
    "noisy.transcript.txt":
        "866fe7309172285116f42da02160d19e02327ae214fb7e044b2bc88cc0ae1006",
    "noisy.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "eve.session":
        "1ceef410d5dab95cd4dd3c3d947720a5981ff84561bc2859b9d9447105de8c59",
    "eve.transcript.txt":
        "2f9b92856eaa07849a287f24b7012991ff743492e85105c5fef4e01c53cc295b",
    "eve.report.txt":
        "58a8ef1104c637b2e9abd0267b7280ae62f2a6013239463f637682ab7f899c52",
    "eve0.session":
        "204ec45583b91f3358e9e975fe8e5beeaebf1c2b933c2e3dc51be1e3618569d4",
    "eve0.transcript.txt":
        "2a2e0459e51984d5429aa015f658f3a115c57ab069d089422e2ef82d438008a6",
    "eve0.report.txt":
        "f945a3284d941c856939090dbc11263fb7331b4e25d70ab541ba2564ca6d42f5",
    "tailed.session":
        "2de17c96ae21f2755951a618303899c8621bedaee2d3077033ffa34cdf7810f8",
    "tailed.transcript.txt":
        "b2cf43b44d7665ecfde21f5b5c36ef7eb7cfa437abeeb954599613c934a920f3",
    "tailed.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "k1n55.session":
        "b090a8a946f1494e2303a88897c843341aaea35d1686d5706b8bcfbdc9fca9c9",
    "k1n55.transcript.txt":
        "f62e1dec71d7b786733744f70984bf201e0443e20725eb0a2ed58e6e08cd4ba8",
    "k1n55.report.txt":
        "ec69f8babcd159b89ea6f9813a1618ae3cb88a3d337fa497f9408a2bce22f325",
    "k7n9.session":
        "75ecfd950212ef8623a0bf9482bd3bb88656cf81ee3e0f5ef66e0673d72bd269",
    "k7n9.transcript.txt":
        "33e7e17497cbddcd1cb64a7a5c3e14f45b669535750bd8f517a51e23e2f954bd",
    "k7n9.report.txt":
        "f875f5356217ab8fdc714dc5eecf21f7ea80ea4e49227725a0fdab7369a34d49",
    "k1n64.session":
        "ef37c67448421fe773e7cbd025948ed55e3fe896dfd85b40b8b119fd35b53124",
    "k1n64.transcript.txt":
        "72df9a3753ecde40b6729fea883931c9927857388a19ae4035fb7badaea9cd19",
    "k1n64.report.txt":
        "a58f328dd9908b8767b0a20c7e0675597e6709bd6ad71e0ade90255c72c9c765",
}

# ``relqkd verify``'s output: every check's seed, tolerance and printed figure.
VERIFY_TEXT = (
    "[PASS] parity-identity: exact agreement for all n*k <= 20 (tolerance: exact)\n"
    "[PASS] parity-cosine: worst relative error 1.67e-16 (tolerance 1e-06)\n"
    "[PASS] delay-bound: bound respected on a 25-point delay grid; 1000-point scans peak at "
    "chi=0 with value (1+ratio)/2 at 5 ratios (tolerance 1e-09)\n"
    "[PASS] instrument-bound: 100 admissible sets below headroom * f (tolerance 1e-09); "
    "the identity attains f (tolerance 1e-12); negative control rejected\n"
    "[PASS] hash-calibration: undetected 0.03081 vs 2^-5=0.03125 (tolerance 3 sigma = 0.0017)\n"
    "[PASS] majority-tail: block error 1.105e-03 vs binomial tail 1.158e-03 "
    "(tolerance 3 sigma = 0.00023)\n"
    "[PASS] intercept-resend: 16 grid points x 100000 trials match the closed forms "
    "(tolerance 3 sigma, +1e-3 on the pass rate)\n"
    "[PASS] information: 0.4980 bit over 1271 rounds vs f=0.5 at chi=0 (z=-0.14); "
    "0.7628 bit over 1695 rounds vs f=0.75 at chi=0.25 (z=+1.22) (tolerance 3 sigma)\n"
    "[PASS] session: solver's (k=1, n=45, M=12) yields identical 64-bit keys at seed 808, "
    "and a report that meets the criterion (tolerance: exact)\n"
    "9/9 checks passed\n"
)

# The details of the acceptance criteria that pass their own seeds and
# sizes (see tests/test_acceptance.py), which ``VERIFY_TEXT`` does not reach.
CRITERION_DETAILS = {
    3: ("exact agreement for all n*k <= 20 (tolerance: exact)",
        "worst relative error 2.19e-16 (tolerance 1e-06)"),
    4: ("undetected 0.03193 vs 2^-5=0.03125 (tolerance 3 sigma = 0.0017)",
        "undetected 0.00093 vs 2^-10=0.00098 (tolerance 3 sigma = 0.0003)"),
    5: ("block error 1.095e-03 vs binomial tail 1.158e-03 (tolerance 3 sigma = 0.0001)",),
    7: ("100 admissible sets below headroom * f (tolerance 1e-09); the identity attains f "
        "(tolerance 1e-12); negative control rejected",),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def session_digest(transcript) -> str:
    """sha256 of the round table's bytes, the hash log's fields and both keys.

    The table is hashed as the five int32 columns it once had: the four of
    ``round_table``, then each round's block, -1 for none.
    """
    table = np.column_stack([transcript.round_table,
                             np.full(len(transcript.round_table), -1, dtype=np.int32)])
    table[transcript.blocks, 4] = np.arange(len(transcript.blocks))[:, None]
    digest = hashlib.sha256(table.tobytes())
    digest.update(repr([dataclasses.astuple(h) for h in transcript.hash_log]).encode())
    for key in (transcript.key_a, transcript.key_b):
        digest.update(b"-" if key is None else key.tobytes())
    return digest.hexdigest()


def campaign(tmp_path, name, text, out):
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return load_campaign(str(path), out_override=str(tmp_path / out))


def test_analyze_csv(tmp_path):
    cmd_analyze(campaign(tmp_path, "analyze", ANALYZE_INI, "analyze.csv"))
    assert sha256(tmp_path / "analyze.csv") == GOLDEN["analyze.csv"]


def test_simulate_csv(tmp_path):
    cmd_simulate(campaign(tmp_path, "simulate", SIMULATE_INI, "simulate.csv"))
    assert sha256(tmp_path / "simulate.csv") == GOLDEN["simulate.csv"]


@pytest.mark.parametrize("case", sorted(DISTILL_CASES))
def test_distill_transcript_and_report(tmp_path, case):
    transcript, _ = cmd_distill(
        campaign(tmp_path, case, DISTILL_INI.format(**DISTILL_CASES[case]), case))
    assert session_digest(transcript) == GOLDEN[case + ".session"]
    # A C-order copy of the column-major table derives the same session.
    assert transcript.round_table.flags.f_contiguous
    c_order = dataclasses.replace(
        transcript, round_table=np.ascontiguousarray(transcript.round_table))
    assert session_digest(c_order) == GOLDEN[case + ".session"]
    for suffix in (".transcript.txt", ".report.txt"):
        assert sha256(tmp_path / (case + suffix)) == GOLDEN[case + suffix], suffix
    text = (tmp_path / (case + ".transcript.txt")).read_text()
    assert Transcript.from_text(text) == transcript


def test_verify_text():
    assert cmd_verify().to_text() == VERIFY_TEXT


# The instrument-bound check's draws at the seeds of ``relqkd verify`` and
# criterion 7, which its detail does not show: the sha256 of the
# admissibility stack, the headroom and the states, the generator state
# after them, and the largest and the summed domain mass they give, to 10 digits.
INSTRUMENT_DRAWS = {
    715: ("e10e1e673f08dd7f4700b6c7a4f96aad057fcec91fa47fe10942736fcae516cf",
          47888842252620474903058081340161630857, "0.3339748071", "12.44576449"),
    777: ("a710428b435bb83e19f2ff0181ac9ce92c3102369382d5b070dc2e6b28c3bfff",
          54677608274575527939177844303485555757, "0.4437591494", "13.51357438"),
}

#: The checks behind each of ``CRITERION_DETAILS``, at the suite's arguments.
CRITERION_CHECKS = {
    3: lambda: (check_parity_identity(),
                check_parity_cosine(totals=(40, 80, 120, 160, 200), ks=(1, 2, 4, 5, 8, 10))),
    4: lambda: tuple(check_hash_calibration(100_000, rounds, 4000 + rounds)
                     for rounds in (5, 10)),
    5: lambda: (check_majority_tail(1_000_000, 55),),
    7: lambda: (check_instrument_bound(777),),
}


@pytest.mark.parametrize("criterion", sorted(CRITERION_DETAILS))
def test_criterion_details(criterion):
    results = CRITERION_CHECKS[criterion]()
    assert all(r.passed for r in results)
    assert tuple(r.detail for r in results) == CRITERION_DETAILS[criterion]


@pytest.mark.parametrize("seed", sorted(INSTRUMENT_DRAWS))
def test_instrument_draws_and_masses(seed):
    rng = np.random.default_rng(seed)
    stack, headroom = _draw_admissibility(rng, 100)
    real, imag = rng.normal(size=(2, 100, 8))
    states = real + 1j * imag
    digest = hashlib.sha256()
    for column in (stack, headroom, states):
        digest.update(np.ascontiguousarray(column).tobytes())
    masses = instrument_contraction_check(stack, 0.6, states)
    assert (digest.hexdigest(), rng.bit_generator.state["state"]["state"],
            format(masses.max(), ".10g"), format(masses.sum(), ".10g")) == INSTRUMENT_DRAWS[seed]
