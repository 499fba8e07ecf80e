"""Golden bytes: fixed-seed outputs pinned by their sha256.

Refactors must leave every CSV, transcript and report byte-identical for
a fixed seed.  A change that moves an RNG stream or a text format on
purpose re-pins the digests below and says so.
"""

import hashlib

import pytest

from relqkd.harness import cmd_analyze, cmd_distill, cmd_simulate, load_campaign

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
    "tailed": dict(SMALL, seed=14, flip=0.0,
                   extra="[state]\ntail_mass = 1e-3\nramp_fraction = 0.05\n"),
    # The block shapes of the distill-large benchmark at a shorter key.
    "k1n55": dict(key_length=128, block_size=1, blocks_per_parity=55, loss=0.0,
                  seed=15, flip=0.0, extra=""),
    "k7n9": dict(key_length=128, block_size=7, blocks_per_parity=9, loss=0.1,
                 seed=16, flip=0.02, extra=""),
}

GOLDEN = {
    "analyze.csv":
        "05e333496027fe2d4ba1bbe4ccbd388ab01c4d2eebf9746cc94d974eb8111abc",
    "simulate.csv":
        "ebabf1a7c1e3817c858a5406b57d638ec7155c299608cfba74886df2cca30deb",
    "clean.transcript.txt":
        "e9ecad3d4791ffd6095facf7d7891505f132f633e4bb69b1d9b1f027defd762e",
    "clean.report.txt":
        "fb93d594ff70acb34a88a706563311d15d53bc9caac9aa7285bb15affaf2c79c",
    "noisy.transcript.txt":
        "bb3d03c51f61d685f803d0c13748cee031e192c45274b54463bd70315c19caaf",
    "noisy.report.txt":
        "fb93d594ff70acb34a88a706563311d15d53bc9caac9aa7285bb15affaf2c79c",
    "eve.transcript.txt":
        "66643714cc976fb829c09336a91273a50a3fd4a0e72864da7cd853d0112ac1f2",
    "eve.report.txt":
        "7c25409b61d33ed08fa10ccac25a6e8e47faf925550047038cb9f4ac21baa354",
    "tailed.transcript.txt":
        "8997a28ccd6fcdb7a9c4378436600662179981c131259e8f1fedc542dbd57fb6",
    "tailed.report.txt":
        "fb93d594ff70acb34a88a706563311d15d53bc9caac9aa7285bb15affaf2c79c",
    "k1n55.transcript.txt":
        "63e5be1cae2eda19d3ddfbedef15e170139fdea80b29efbc748ef2de30119515",
    "k1n55.report.txt":
        "5181043bf3e505403a098a63eed94c0d670fbd031ff8b8988bc1b438a2270f4f",
    "k7n9.transcript.txt":
        "4ede3e858719079cc6c57e47cdf51eb6613509ef348274201eaa2efbb7424154",
    "k7n9.report.txt":
        "48d0ae0ccb8dbd29ffdbc647fc2d83dd91e7876160fde7e7499fe2d36ecfc36c",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    cmd_distill(campaign(tmp_path, case, DISTILL_INI.format(**DISTILL_CASES[case]), case))
    for suffix in (".transcript.txt", ".report.txt"):
        assert sha256(tmp_path / (case + suffix)) == GOLDEN[case + suffix], suffix
