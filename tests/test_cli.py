"""The ``relqkd`` command line, run in process through ``relqkd.cli.main``."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqkd.cli import main
from relqkd.distill import _CHUNK, Transcript, run_session
from relqkd.errors import InvalidParameterError
from relqkd.harness import (
    AnalyzeSpec,
    SimulateSpec,
    cmd_analyze,
    cmd_distill,
    cmd_simulate,
    load_campaign,
    rows_to_csv,
)
from relqkd.security import SecurityReport
import reference

DISTILL_INI = """
[campaign]
mode = distill
seed = {seed}

[geometry]
channel_length = 0.5

[protocol]
key_length = {key_length}
block_size = {block_size}
blocks_per_parity = {blocks_per_parity}
hash_rounds = {hash_rounds}
disclose_fraction = 0.1
flip_probability = {flip}
loss_probability = {loss}
"""

SMALL = DISTILL_INI.format(seed=7, key_length=8, block_size=3, blocks_per_parity=2,
                           hash_rounds=4, flip=0.0, loss=0.0)


def test_large_noisy_session_round_trips(tmp_path, capsys):
    # An N = 1024 noisy session: its transcript and report read back and
    # write back the same text, and the same transcript under the /4
    # header, or the same report with its checks flipped, is refused.
    # Its 80,437 rounds take one base-64 digit each, and its 65,142 member
    # ids three digits each: 0.4 of the bytes the /4 text took.
    path = tmp_path / "large.ini"
    path.write_text(DISTILL_INI.format(seed=1, key_length=1024, block_size=7,
                                       blocks_per_parity=9, hash_rounds=10,
                                       flip=0.02, loss=0.1))
    assert main(["distill", str(path), "--out", str(tmp_path / "large")]) == 0
    report = (tmp_path / "large.report.txt").read_text()
    assert capsys.readouterr().out == report
    transcript = (tmp_path / "large.transcript.txt").read_text()
    assert transcript.split("\n", 1)[0] == "relqkd-transcript/5"
    assert len(transcript) == 288_469
    assert len(transcript) <= 0.4 * len(reference.as_schema_4(transcript)) == 0.4 * 725_240
    assert Transcript.from_text(transcript).to_text() == transcript
    assert SecurityReport.from_text(report).to_text() == report
    with pytest.raises(InvalidParameterError):
        Transcript.from_text(transcript.replace("relqkd-transcript/5",
                                                "relqkd-transcript/4", 1))
    flipped = report.replace("identical_ok=true", "identical_ok=false").replace(
        "all_ok=true", "all_ok=false")
    assert flipped != report
    with pytest.raises(InvalidParameterError):
        SecurityReport.from_text(flipped)


def test_transcript_written_in_pieces_is_to_text(tmp_path, capsys):
    # ``--out`` writes the transcript a piece at a time, and stdout gets the
    # same pieces without it: an N = 1024 noisy session of over 90,000
    # rounds spans two pieces or more of every line, and both outputs are the
    # session's to_text() byte for byte.
    path = tmp_path / "large.ini"
    path.write_text(DISTILL_INI.format(seed=1, key_length=1024, block_size=7,
                                       blocks_per_parity=9, hash_rounds=10,
                                       flip=0.02, loss=0.1))
    expected = run_session(load_campaign(str(path)).protocol).to_text()
    assert len(expected.split("\n")[2]) > _CHUNK
    assert main(["distill", str(path), "--out", str(tmp_path / "large")]) == 0
    report = capsys.readouterr().out
    assert (tmp_path / "large.transcript.txt").read_bytes() == expected.encode("ascii")
    assert main(["distill", str(path)]) == 0
    assert capsys.readouterr().out == expected + report


def test_distill_writes_a_vacuous_bound_as_inf(tmp_path, capsys):
    # N = 4000 at zeta = .75: 2^-N (1 + 2 zeta)^N overflows a float, and
    # the command once exited 1 with a raw OverflowError.
    path = tmp_path / "vacuous.ini"
    path.write_text(DISTILL_INI.format(seed=7, key_length=4000, block_size=1,
                                       blocks_per_parity=2, hash_rounds=10, flip=0.0, loss=0.0))
    assert main(["distill", str(path), "--out", str(tmp_path / "vacuous")]) == 0
    report = capsys.readouterr().out
    assert "\npr_eve_key=inf\npr_eve_key_valid=false\n" in report
    assert "\nall_ok=false\n" in report
    assert SecurityReport.from_text(report).to_text() == report


def test_distill_one_block_per_parity_writes_a_vacuous_report(tmp_path, capsys):
    # n = 1 once ran the session and then exited 2 with "eta must lie in
    # (0, 1], got 0.0", naming no config key.  Its parity set holds one
    # string, so zeta = 1 and every flag is false.
    path = tmp_path / "single.ini"
    path.write_text(DISTILL_INI.format(seed=7, key_length=8, block_size=3,
                                       blocks_per_parity=1, hash_rounds=4, flip=0.0, loss=0.0))
    assert main(["distill", str(path), "--out", str(tmp_path / "single")]) == 0
    report = capsys.readouterr().out
    assert "\neta=0.0\nzeta=1.0\n" in report
    for flag in ("pr_eve_key_valid", "identical_ok", "eve_prob_ok", "i_ae_ok", "i_be_ok",
                 "all_ok"):
        assert f"\n{flag}=false\n" in report
    assert SecurityReport.from_text(report).to_text() == report


def test_distill_writes_the_report_file_to_stdout(tmp_path, capsys):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    assert main(["distill", str(path), "--out", str(tmp_path / "small")]) == 0
    assert capsys.readouterr().out == (tmp_path / "small.report.txt").read_text()


@pytest.mark.parametrize("blocked", ["transcript", "report"])
def test_distill_write_that_fails_leaves_neither_file(tmp_path, capsys, blocked):
    # With run.report.txt a directory, run.transcript.txt was once written
    # and left behind by a command that exited 2.
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    (tmp_path / f"run.{blocked}.txt").mkdir()
    assert main(["distill", str(path), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("relqkd: i/o error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"run.{blocked}.txt", "small.ini"]
    assert (tmp_path / f"run.{blocked}.txt").is_dir()


@pytest.mark.parametrize("eve", ["delay = 0.25\n", "resend = none\n",
                                 "delay = 0.25\nresend = shifted\n"])
def test_eve_keys_without_enabled_are_invalid_input(tmp_path, capsys, eve):
    # These used to run a session with no eavesdropper, silently.
    path = tmp_path / "eve.ini"
    path.write_text(SMALL + "[eve]\n" + eve)
    assert main(["distill", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[eve]" in captured.err and "lacks 'enabled'" in captured.err


@pytest.mark.parametrize("eve,dropped", [("delay = 0.25\n", "'delay'"),
                                         ("resend = none\n", "'resend'"),
                                         ("resend = none\ndelay = 0\n", "'resend', 'delay'")])
def test_eve_keys_with_enabled_false_are_invalid_input(tmp_path, capsys, eve, dropped):
    # These used to run without an eavesdropper and drop the keys, silently.
    path = tmp_path / "eve.ini"
    path.write_text(SMALL + "[eve]\nenabled = false\n" + eve)
    assert main(["distill", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"[eve] sets enabled = false, which drops {dropped}: " in captured.err


def test_eve_disabled_explicitly_runs_without_eavesdropper(tmp_path, capsys):
    path = tmp_path / "eve.ini"
    path.write_text(SMALL + "[eve]\nenabled = false\n")
    assert main(["distill", str(path), "--out", str(tmp_path / "eve")]) == 0
    lines = (tmp_path / "eve.transcript.txt").read_text().split("\n")
    name, digits = lines[2].split("\t")
    assert name == "table" and {reference.round_codes(c)[2] for c in digits} == {3}


@pytest.mark.parametrize("text, refusal", [
    (SMALL[:SMALL.index("[protocol]")], "mode 'distill' needs a [protocol] section"),
    (SMALL + "[eve]\nenabled = maybe\n", "not a boolean: 'maybe'"),
], ids=["no-protocol", "enabled-maybe"])
def test_distill_campaign_refused_as_invalid_input(tmp_path, capsys, text, refusal):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["distill", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"relqkd: error: bad campaign file {str(path)!r}: {refusal}\n" == captured.err


# Only simulate reads trials.
TRIALS = {"analyze": "", "simulate": "trials = 1000\n", "distill": ""}


def _sweep(mode):
    return (f"[campaign]\nmode = {mode}\n{TRIALS[mode]}seed = 7\n"
            "[sweep]\nratios = 0.5\nchi_fractions = 0.1\n")


@pytest.mark.parametrize("mode,eve,key", [
    # This file once wrote the same row as enabled = true.
    ("simulate", "enabled = false\nresend = none\n", "enabled"),
    ("analyze", "enabled = false\n", "enabled"),
    # A sweep reads no 'enabled', the first key of these two files.
    ("simulate", "enabled = true\ndelay = 0.25\n", "enabled"),
    ("analyze", "enabled = true\nresend = shifted\n", "enabled"),
], ids=["found-file", "enabled", "delay", "resend"])
def test_eve_keys_a_sweep_ignores_are_invalid_input(tmp_path, capsys, mode, eve, key):
    path = tmp_path / "sweep.ini"
    path.write_text(_sweep(mode) + "[eve]\n" + eve)
    assert main([mode, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"mode {mode!r} does not read [eve] {key!r}" in captured.err


def test_simulate_takes_the_resend_policy(tmp_path, capsys):
    # Forwarding nothing, the eavesdropper's substitute never passes.
    path = tmp_path / "sweep.ini"
    path.write_text(_sweep("simulate") + "[eve]\nresend = none\n")
    assert main(["simulate", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["joint_empirical"] == columns["pass_probability"] == "0"


# Within about 1e-5 of the support length the truncated copy's reachable
# mass cancels to 0; both commands once exited 1 with a ZeroDivisionError.
NEAR_SUPPORT = "[state]\nramp_fraction = 0.2\n"


def test_simulate_delay_at_the_support_length_never_passes(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(_sweep("simulate").replace("0.1", "0.99999") + NEAR_SUPPORT)
    assert main(["simulate", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["chi_over_L"] == "0.99999" and columns["pass_probability"] == "0"


def test_distill_delay_at_the_support_length_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "eve.ini"
    path.write_text(SMALL + NEAR_SUPPORT + "[eve]\nenabled = true\ndelay = 0.99999\n")
    assert main(["distill", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no round can ever pass" in captured.err


def test_distill_disclosure_too_rare_to_wait_for_is_refused(tmp_path, capsys):
    # A session waits 1 / (p_sift * d) = 10^12 rounds on average for a
    # disclosed round, past the int32 round ids: refused before drawing.
    path = tmp_path / "rare.ini"
    path.write_text(SMALL.replace("disclose_fraction = 0.1", "disclose_fraction = 1e-12"))
    assert main(["distill", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a session expects 1e+12 rounds" in captured.err


# Both modes build the envelope from [geometry] and [state]; only distill
# reads channel_length.
ENVELOPE_MODES = [
    ("simulate", "[sweep]\nratios = 0.5\nchi_fractions = 0.1\n"),
    ("distill", "[protocol]\nkey_length = 8\nblock_size = 3\nblocks_per_parity = 2\n"
                "hash_rounds = 4\ndisclose_fraction = 0.1\n"
                "[eve]\nenabled = true\ndelay = 0.25\n"),
]
CHANNEL = {"simulate": "", "distill": "channel_length = 0.0\n"}


@pytest.mark.parametrize("mode,extra", ENVELOPE_MODES)
def test_ramped_extent_past_the_closed_forms_is_invalid_input(tmp_path, capsys, mode, extra):
    # At 1e308 the ramps' cosine integrals once overflowed: math.cos(inf)
    # raised a raw ValueError with a traceback, and the program exited 1.
    path = tmp_path / "huge.ini"
    path.write_text(f"[campaign]\nmode = {mode}\n{TRIALS[mode]}seed = 7\n{extra}"
                    "[geometry]\nstate_extent = 1e308\n"
                    "[state]\ntail_mass = 1e-3\nramp_fraction = 0.05\n")
    assert main([mode, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "state_extent 1e+308" in captured.err and "too long for edge ramps" in captured.err


@pytest.mark.parametrize("mode,extra", ENVELOPE_MODES)
def test_ramp_too_narrow_for_the_closed_forms_is_invalid_input(tmp_path, capsys, mode, extra):
    # A ramp width of 1e-308 makes the ramps' cosine frequency 2 pi/w
    # overflow: math.cos raised a raw ValueError, and the program exited 1.
    path = tmp_path / "tiny.ini"
    path.write_text(f"[campaign]\nmode = {mode}\n{TRIALS[mode]}seed = 7\n{extra}"
                    f"[geometry]\nstate_extent = 1e-306\n{CHANNEL[mode]}"
                    "[state]\ntail_mass = 1e-3\nramp_fraction = 0.01\n")
    assert main([mode, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "state_extent 1e-306" in captured.err and "ramp width 1e-308" in captured.err


def test_no_command_writes_a_file(tmp_path, monkeypatch):
    # Only relqkd.cli writes, though a campaign's out names a path.
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out")
    grid = dict(ratios=(0.5,), chi_fractions=(0.1,), out=out)
    cmd_analyze(AnalyzeSpec(1, **grid))
    cmd_simulate(SimulateSpec(1, **grid))
    (tmp_path / "small.ini").write_text(SMALL.replace("seed = 7", f"seed = 7\nout = {out}"))
    cmd_distill(load_campaign("small.ini"))
    assert [p.name for p in tmp_path.iterdir()] == ["small.ini"]


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(
    lambda values: ", ".join(map(repr, values)))


@st.composite
def campaigns(draw):
    """A small analyze, simulate or distill campaign: its mode and its file's text."""
    mode = draw(st.sampled_from(["analyze", "simulate", "distill"]))
    seed = draw(st.integers(0, 2**32))
    if mode == "distill":
        text = DISTILL_INI.format(
            seed=seed, key_length=draw(st.integers(1, 48)),
            block_size=draw(st.sampled_from([1, 3, 5])),
            blocks_per_parity=draw(st.integers(1, 3)), hash_rounds=draw(st.integers(1, 8)),
            flip=draw(st.sampled_from([0.0, 0.05])), loss=draw(st.sampled_from([0.0, 0.2])))
        return mode, text + draw(st.sampled_from(["", "[eve]\nenabled = true\ndelay = 0.25\n"]))
    trials = f"trials = {draw(st.integers(1, 10**9))}\n" if mode == "simulate" else ""
    return mode, (f"[campaign]\nmode = {mode}\nseed = {seed}\n{trials}"
                  f"[sweep]\nratios = {draw(_FRACTIONS)}\nchi_fractions = {draw(_FRACTIONS)}\n")


@settings(max_examples=60, deadline=None)
@given(campaigns(), st.booleans())
def test_each_file_holds_what_the_command_returned(campaign, out_in_file):
    # The output path comes from --out or from the file's [campaign] out.
    mode, text = campaign
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "campaign.ini"), os.path.join(tmp, "run")
        with open(path, "w") as fh:
            fh.write(text.replace("\nseed = ", f"\nout = {out}\nseed = ", 1) if out_in_file
                     else text)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main([mode, path] + ([] if out_in_file else ["--out", out])) == 0
        spec = load_campaign(path)
        if mode == "distill":
            transcript, report = cmd_distill(spec)
            expected = {"run.transcript.txt": b"".join(transcript.text_pieces()),
                        "run.report.txt": report.to_text().encode()}
            shown = report.to_text()
        else:
            rows = (cmd_analyze if mode == "analyze" else cmd_simulate)(spec)
            expected, shown = {"run": rows_to_csv(rows).encode()}, ""
        written = {}
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name), "rb") as fh:
                written[name] = fh.read()
        assert written.pop("campaign.ini")
        assert written == expected
        assert stdout.getvalue() == shown


def test_verify_out_writes_its_stdout(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == 0
    assert out.read_bytes().decode() == capsys.readouterr().out


@pytest.mark.parametrize("name", ["sweep_50%.csv", "sweep_%%(seed)s.csv"])
def test_campaign_values_are_read_literally(tmp_path, monkeypatch, capsys, name):
    # '%' once had to be written '%%', and 'sweep_50%.csv' was refused.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.ini").write_text(_sweep("analyze").replace("seed = 7",
                                                                  f"seed = 7\nout = {name}"))
    assert main(["analyze", "sweep.ini"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / name).read_text().startswith("ratio,chi_over_L,")
