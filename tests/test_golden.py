"""Golden bytes: fixed-seed outputs pinned by their sha256.

Refactors must leave every CSV, transcript and report byte-identical for
a fixed seed, and ``relqkd verify``'s text, which is pinned as a literal.
The files are those that ``relqkd.cli.main``, the one writer, writes with
``--out``.  A change that moves an RNG stream or a text format on
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
from relqkd.cli import main
from relqkd.distill import Transcript
from relqkd.harness import (
    _draw_admissibility,
    check_hash_calibration,
    check_instrument_bound,
    check_majority_tail,
    check_parity_cosine,
    check_parity_identity,
    cmd_distill,
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
        "27df0c01565b17307de6e405495753e9ac29aaa019eccde913b7b0cc90543ac6",
    "clean.session":
        "bc8b33951e7b07c0f50badb3076da98d93a14900a927de3b50e843d2b5f32f08",
    "clean.transcript.txt":
        "2952e3fe859b013a1d2e19f62848539a2e9fc8af38fd12009ad22f269f62d717",
    "clean.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "noisy.session":
        "81e41ff10521720e91c61239043cbbb47a5c49d9e834c8c6aedacaa979a688ae",
    "noisy.transcript.txt":
        "713b949f0da7e45fcc95375f6454e460155492e0b529df9f7f6d8679e3bd9b7c",
    "noisy.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "eve.session":
        "aeac9f64db1f05bc4d4993a1f342c4b6718da048cb57fca32d80e45370d998ab",
    "eve.transcript.txt":
        "214e7c0e1f5e0b28095331b527d686042cfc77809313207d03cf29853eeeb3d3",
    "eve.report.txt":
        "1ab32714af7c7a5d6874ca3854c5096e3fcbd87ad60f5c30e6ac4d2c612c981a",
    "eve0.session":
        "cf67b27fbd9840cecaf9364ac30f7d7300d50274ee08daa9780d8f3b866f5da6",
    "eve0.transcript.txt":
        "9d8129c91c836ebccbfdf4208a0e7fd5831fb3752a9e804883a2d79348b8dcf4",
    "eve0.report.txt":
        "63a45c4cbf98fb73d982611cf33070c5d759464f13b3e579d2dcdb292fec3d77",
    "tailed.session":
        "94b56ac8e0cf212d8e7ea824afa633047cabb2b1ab7c3de25d88aaaebe52fef3",
    "tailed.transcript.txt":
        "a5d514bd9a39b511afa8865d21c782dc829004f19724299981c166ecac818bc1",
    "tailed.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "k1n55.session":
        "b3833e912feaa938bffd9960ee5decdce6aacf6e39eff29f12dcb84edae7b38d",
    "k1n55.transcript.txt":
        "3c52c13fa970e0d019eddb939351379ef54f847d3254b453be7f2e7122adaffa",
    "k1n55.report.txt":
        "ec69f8babcd159b89ea6f9813a1618ae3cb88a3d337fa497f9408a2bce22f325",
    "k7n9.session":
        "032fa2a8c0b24e2a6f5350b8584d8f08ec1d45eaddf1bf3064d7ddb83e890c6e",
    "k7n9.transcript.txt":
        "0d297add8612c20cfd5a273848e933fa411ab66803c6c7b8c1adced9b628e427",
    "k7n9.report.txt":
        "d0896f61f05c2f88c5166644a1e34d86c40e278b2965e848166db472486d3dcc",
    "k1n64.session":
        "c87d16bb7e5bda46623457f5cc844c4bb85cacf24cde86ef3c77f6985044bfcc",
    "k1n64.transcript.txt":
        "4b205712f14fadfe3b0ba6d95ff038aa3f1826181a06d47b1862e93090c04044",
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
    "[PASS] information: 0.4948 bit over 1063 rounds vs f=0.5 at chi=0 (z=-0.34); "
    "0.7499 bit over 1408 rounds vs f=0.75 at chi=0.25 (z=-0.01) (tolerance 3 sigma)\n"
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


def campaign(tmp_path, name, text):
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return load_campaign(str(path))


def write_with_cli(tmp_path, mode, name, text, out):
    """``relqkd <mode> <name>.ini --out <out>`` on the campaign ``text``, which must exit 0."""
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    assert main([mode, str(path), "--out", str(tmp_path / out)]) == 0


def test_analyze_csv(tmp_path):
    write_with_cli(tmp_path, "analyze", "analyze", ANALYZE_INI, "analyze.csv")
    assert sha256(tmp_path / "analyze.csv") == GOLDEN["analyze.csv"]


def test_simulate_csv(tmp_path):
    write_with_cli(tmp_path, "simulate", "simulate", SIMULATE_INI, "simulate.csv")
    assert sha256(tmp_path / "simulate.csv") == GOLDEN["simulate.csv"]


@pytest.mark.parametrize("case", sorted(DISTILL_CASES))
def test_distill_transcript_and_report(tmp_path, case):
    text = DISTILL_INI.format(**DISTILL_CASES[case])
    transcript, _ = cmd_distill(campaign(tmp_path, case, text))
    assert session_digest(transcript) == GOLDEN[case + ".session"]
    # A C-order copy of the column-major table derives the same session.
    assert transcript.round_table.flags.f_contiguous
    c_order = dataclasses.replace(
        transcript, round_table=np.ascontiguousarray(transcript.round_table))
    assert session_digest(c_order) == GOLDEN[case + ".session"]
    write_with_cli(tmp_path, "distill", case, text, case)
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
