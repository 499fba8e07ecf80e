"""Campaign loading, sweep tables, determinism, self-checks, CLI exit codes."""

import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from corpus import MINIMAL, VALUES
from relqkd import adversary, distill, harness, security
from relqkd.adversary import ResendPolicy, instrument_contraction_check
from relqkd.cli import main as cli_main
from relqkd.errors import InvalidParameterError
from relqkd.harness import (
    MAX_TRIALS,
    AnalyzeSpec,
    CheckResult,
    DistillSpec,
    SimulateSpec,
    check_delay_bound,
    check_hash_calibration,
    check_majority_tail,
    check_parity_cosine,
    check_parity_identity,
    cmd_analyze,
    cmd_distill,
    cmd_simulate,
    cmd_verify,
    load_campaign,
    rows_to_csv,
    simulate_intercept_resend,
)
from relqkd.wavepacket import make_plateau

# Rows per chunk of the hash-calibration and majority-tail checks.
_CHUNK = 1 << 13

ANALYZE_INI = """
[campaign]
mode = analyze
seed = 7

[sweep]
ratios = 0, 0.5, 0.9
chi_fractions = 0
"""

SIMULATE_INI = """
[campaign]
mode = simulate
trials = 5000
seed = 11

[sweep]
ratios = 0.5
chi_fractions = 0, 0.25

[geometry]
state_extent = 1.0
"""

# The README grid on a tailed envelope.
TAILED_INI = """
[campaign]
mode = simulate
trials = 1000
seed = 7

[sweep]
ratios = 0, 0.25, 0.5, 0.9
chi_fractions = 0, 0.1, 0.25, 0.5

[state]
tail_mass = 1e-3
ramp_fraction = 0.05
"""

# TAILED_INI's grid as analyze reads it, without [state], [geometry] or trials.
GRID_INI = """
[campaign]
mode = analyze
seed = 7

[sweep]
ratios = 0, 0.25, 0.5, 0.9
chi_fractions = 0, 0.1, 0.25, 0.5
"""

DISTILL_INI = """
[campaign]
mode = distill
seed = 99

[geometry]
state_extent = 1.0
channel_length = 0.5

[protocol]
key_length = 8
block_size = 3
blocks_per_parity = 2
hash_rounds = 4
disclose_fraction = 0.1

[security]
eps1 = 1e-2
eps2 = 1e-2
"""


def _per_trial_counts(seed, trials, f, p_pass):
    """The per-trial sampler, kept as an oracle: three uniforms per trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eve_correct = rng.random(trials) < f
    eve_correct |= rng.random(trials) < 0.5
    passed = rng.random(trials) < p_pass
    return [np.count_nonzero(eve_correct), np.count_nonzero(passed),
            np.count_nonzero(passed & eve_correct)]


def _shifted_eve_count(simulate_point):
    """``_simulate_point`` with 1000 more right guesses in 10^5 trials."""
    def point(*args):
        row = simulate_point(*args)
        return replace(row, eve_empirical=row.eve_empirical + 0.01)
    return point


# Grid fractions: both ends of [0, 1], the sign of zero, and anything between.
_FRACTION = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
_AXIS = st.lists(_FRACTION, max_size=3).map(lambda xs: xs + [0.0, 1.0]).flatmap(st.permutations)


@st.composite
def sweep_specs(draw):
    """A sweep campaign: either mode, L in {0.3, 1, 2.5, 7}, ideal or tailed."""
    mode = draw(st.sampled_from(["analyze", "simulate"]))
    grid = draw(st.integers(0, 2**64 - 1)), tuple(draw(_AXIS)), tuple(draw(_AXIS))
    if mode == "analyze":
        return AnalyzeSpec(*grid)
    L = draw(st.sampled_from([0.3, 1.0, 2.5, 7.0]))
    shape = draw(st.sampled_from([(0.0, 0.0), (1e-3, 0.05), (0.05, 0.3)]))
    return SimulateSpec(*grid, trials=draw(st.integers(1, 10**12)),
                        envelope=make_plateau(L, *shape),
                        resend_policy=draw(st.sampled_from(ResendPolicy)))


@pytest.fixture
def analyze_spec(tmp_path):
    path = tmp_path / "analyze.ini"
    path.write_text(ANALYZE_INI)
    return load_campaign(str(path))


class TestConfig:
    def test_load_analyze(self, analyze_spec):
        assert analyze_spec.mode == "analyze"
        assert analyze_spec.ratios == (0.0, 0.5, 0.9)
        assert analyze_spec.seed == 7

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[campaign]\nmode = analyze\n[sweep]\nratios = 0\nchi_fractions = 0\n")
        with pytest.raises(InvalidParameterError):
            load_campaign(str(path))

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParameterError):
            AnalyzeSpec(seed=1, ratios=(), chi_fractions=(0.0,))

    @pytest.mark.parametrize("mode", ["analyze", "simulate"])
    @pytest.mark.parametrize("axis,value", [
        ("ratios", 1.5), ("ratios", -0.1), ("ratios", float("nan")),
        ("chi_fractions", 1.5), ("chi_fractions", -0.1),
    ])
    def test_sweep_outside_unit_interval_rejected(self, mode, axis, value):
        grid = {"ratios": (0.5,), "chi_fractions": (0.1,), axis: (0.25, value)}
        with pytest.raises(InvalidParameterError, match=f"{value} is outside"):
            {"analyze": AnalyzeSpec, "simulate": SimulateSpec}[mode](seed=1, **grid)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "campaign.ini"
        path.write_text(ANALYZE_INI.replace("mode = analyze", "mode = frobnicate"))
        with pytest.raises(InvalidParameterError, match="unknown mode 'frobnicate'"):
            load_campaign(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(InvalidParameterError):
            load_campaign("/nonexistent/campaign.ini")

    # Each once raised a raw TypeError, and a list was read as several
    # files merged into one campaign.
    @pytest.mark.parametrize("path", [5, None, ["a.ini", "b.ini"]], ids=["int", "none", "list"])
    def test_path_that_is_no_path_rejected(self, path):
        with pytest.raises(InvalidParameterError, match="^the campaign path must be a str, bytes "
                           f"or os.PathLike, got {type(path).__name__}$"):
            load_campaign(path)

    def test_path_like_or_bytes_path_loads(self, tmp_path, analyze_spec):
        path = tmp_path / "analyze.ini"
        assert load_campaign(path) == load_campaign(bytes(path)) == analyze_spec

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            AnalyzeSpec(seed=-1, ratios=(0.0,), chi_fractions=(0.0,))

    def test_trial_count_beyond_int64_rejected(self):
        grid = dict(ratios=(0.5,), chi_fractions=(0.1,))
        assert SimulateSpec(seed=1, trials=MAX_TRIALS, **grid)
        with pytest.raises(InvalidParameterError, match="trials must lie in"):
            SimulateSpec(seed=1, trials=MAX_TRIALS + 1, **grid)

    @pytest.mark.parametrize("field, value", [("seed", 1.5)], ids=["float-seed"])
    def test_non_integer_seed_or_trials_rejected(self, tmp_path, field, value):
        # seed = 1.5 once raised a raw TypeError in cmd_simulate.  A file's
        # trials are read by int, so only the seed override can be no integer.
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        assert load_campaign(str(path), seed_override=np.int64(3)).seed == 3
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            load_campaign(str(path), seed_override=value)

    def test_removed_resolution_key_rejected(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI + "\n[state]\nresolution = 4096\n")
        # The key went with the sampled grid; the generic message names what [state] takes.
        with pytest.raises(InvalidParameterError, match=r"unknown \[state\] key 'resolution': "
                           "the section takes tail_mass, ramp_fraction"):
            load_campaign(str(path))

    @pytest.mark.parametrize("extra,fault", [
        ("[geometry]\nchanel_length = 0.5\n", "unknown [geometry] key 'chanel_length'"),
        ("ratio = 0.5\n", "unknown [sweep] key 'ratio'"),
        ("[eve]\nenabled = true\ndelay = 0.25\npolicy = shifted\n",
         "unknown [eve] key 'policy'"),
        ("[sweeps]\nratios = 0.5\n", "unknown section [sweeps]"),
        ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
        ("[sweep]\nratios = 0.5\n", "section 'sweep' already exists"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, extra, fault):
        # Each of these used to run as if the line were absent.
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI + extra)
        with pytest.raises(InvalidParameterError) as info:
            load_campaign(str(path))
        assert fault in str(info.value)

    @pytest.mark.parametrize("out", [""], ids=["empty"])
    def test_out_that_is_no_path_rejected(self, out):
        with pytest.raises(InvalidParameterError, match="^out must be a non-empty path or None"):
            AnalyzeSpec(1, ratios=(0.5,), chi_fractions=(0.1,), out=out)

    def test_empty_out_of_a_distill_spec_rejected(self):
        protocol = distill.ProtocolConfig(8, 3, 2, 4, 0.1, make_plateau(1.0), 0.5, 1)
        with pytest.raises(InvalidParameterError, match="^out must be a non-empty path or None"):
            DistillSpec(protocol, out="")

    def test_empty_out_in_a_file_is_invalid_input(self, tmp_path, capsys):
        # It once sent the table to stdout, while --out '' is refused.
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI.replace("seed = 7", "seed = 7\nout ="))
        assert cli_main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out must be a non-empty path or None, got ''" in captured.err

    def test_verify_is_no_campaign_mode(self, tmp_path, capsys):
        assert harness.MODES == ("analyze", "simulate", "distill")
        path = tmp_path / "verify.ini"
        path.write_text("[campaign]\nmode = verify\nseed = 1\n")
        with pytest.raises(InvalidParameterError, match="unknown mode 'verify'"):
            load_campaign(str(path))
        assert cli_main(["analyze", str(path)]) == 2
        assert "unknown mode 'verify'" in capsys.readouterr().err


# The keys each mode reads: the README's table, written out here so that
# the test does not read it from ``harness._KEYS``.
READ = {
    "analyze": {"mode", "seed", "out", "ratios", "chi_fractions"},
    "simulate": {"mode", "seed", "out", "trials", "ratios", "chi_fractions", "state_extent",
                 "tail_mass", "ramp_fraction", "resend"},
    "distill": {"mode", "seed", "out", "state_extent", "channel_length", "tail_mass",
                "ramp_fraction", "enabled", "delay", "resend", *harness._KEYS["protocol"],
                "eps1", "eps2"},
}


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


class TestModeKeys:
    @pytest.mark.parametrize("mode", harness.MODES)
    @pytest.mark.parametrize("section,key", [(section, key) for section in harness._KEYS
                                             for key in harness._KEYS[section]])
    def test_a_mode_takes_exactly_the_keys_it_reads(self, tmp_path, mode, section, key):
        # An analyze file with a whole [protocol] section, or a distill file
        # with [sweep], once ran as if the section were absent.
        sections = {name: dict(keys) for name, keys in MINIMAL[mode].items()}
        sections.setdefault(section, {})[key] = mode if key == "mode" else VALUES[key][0]
        if mode == "distill" and section == "eve":
            sections["eve"].setdefault("enabled", "true")
        path = tmp_path / "campaign.ini"
        path.write_text(_ini(sections))
        if key in READ[mode]:
            assert load_campaign(str(path)).mode == mode
        else:
            with pytest.raises(InvalidParameterError, match=re.escape(
                    f"mode {mode!r} does not read [{section}] {key!r}")):
                load_campaign(str(path))

    def test_the_table_has_34_settable_pairs(self):
        pairs = {mode: {key for keys in harness._KEYS.values()
                        for key, (_, modes) in keys.items() if mode in modes}
                 for mode in harness.MODES}
        assert pairs == READ
        assert [len(pairs[mode]) for mode in harness.MODES] == [5, 10, 19]
        assert sum(map(len, pairs.values())) == 34

    def test_readme_table_is_the_key_table(self):
        # Each row names its sections' keys, or "(N keys)" for all N of one.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| (`\[.*?) \|(.*)\|$", readme, re.M)
        assert len(rows) == 7
        stated = set()
        for keys, marks in rows:
            modes = [mode for mode, mark in zip(harness.MODES, marks.split("|")) if mark.strip()]
            for section, names in re.findall(r"`\[(\w+)\]` ([^;`]*)", keys):
                names = names.strip(" ,")
                count = re.fullmatch(r"\((\d+) keys\)", names)
                names = list(harness._KEYS[section]) if count else names.split(", ")
                assert not count or len(names) == int(count[1])
                stated |= {(mode, section, key) for mode in modes for key in names}
        table = {(mode, section, key) for section, keys in harness._KEYS.items()
                 for key, (_, modes) in keys.items() for mode in modes}
        assert stated == table

    def test_each_spec_holds_what_its_mode_reads(self):
        assert {spec.mode: {f.name for f in fields(spec)}
                for spec in (AnalyzeSpec, SimulateSpec, DistillSpec)} == {
            "analyze": {"seed", "ratios", "chi_fractions", "out"},
            "simulate": {"seed", "ratios", "chi_fractions", "out", "trials", "envelope",
                         "resend_policy"},
            "distill": {"protocol", "eps1", "eps2", "out"}}

    # A distill file's other [eve] keys take effect with enabled = true, and
    # a tail mass with a ramp.  A distill file's keys fit no other mode, so
    # its mode has no second valid value.
    @pytest.mark.parametrize("mode,section,key", [
        (mode, section, key) for mode in harness.MODES for section in harness._KEYS
        for key in harness._KEYS[section]
        if key in READ[mode] and (mode, key) != ("distill", "mode")])
    def test_each_key_a_mode_reads_reaches_its_spec(self, tmp_path, mode, section, key):
        def spec(value):
            sections = {name: dict(keys) for name, keys in MINIMAL[mode].items()}
            if key != "mode" and "ramp_fraction" in READ[mode]:
                sections["state"] = {"ramp_fraction": "0.05"}
            if mode == "distill":
                sections["eve"] = {"enabled": "true"}
            sections.setdefault(section, {})[key] = value
            path = tmp_path / "campaign.ini"
            path.write_text(_ini(sections))
            return load_campaign(str(path))

        first, second = harness.MODES[:2] if key == "mode" else VALUES[key]
        assert spec(first) != spec(second)

    def test_misspelt_key_of_an_unread_section_is_unknown(self, tmp_path):
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI + "[protocol]\nkey_length = 8\nblok_size = 3\n")
        with pytest.raises(InvalidParameterError, match=r"unknown \[protocol\] key 'blok_size'"):
            load_campaign(str(path))

    def test_readme_campaign_examples_load_under_their_mode(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        modes = []
        for block in blocks:
            path = tmp_path / "example.ini"
            path.write_text(block)
            modes.append(load_campaign(str(path)).mode)
        assert modes == list(harness.MODES)


class TestAnalyze:
    def test_ratio_sweep_values(self, analyze_spec):
        rows = cmd_analyze(analyze_spec)
        assert [r.pr_e_analytic for r in rows] == [0.5, 0.75, 0.95]
        assert all(r.pr_b_bound == 1.0 for r in rows)
        assert all(r.joint_empirical is None for r in rows)
        assert all(r.available_fraction is None and r.pass_probability is None for r in rows)

    def test_csv_is_stable(self, analyze_spec):
        rows = cmd_analyze(analyze_spec)
        assert rows_to_csv(rows) == rows_to_csv(cmd_analyze(analyze_spec))
        header = rows_to_csv(rows).splitlines()[0]
        assert header == ("ratio,chi_over_L,pr_e_analytic,pr_b_bound,"
                          "joint_analytic,joint_empirical,stderr,zscore,"
                          "available_fraction,pass_probability")


class TestSimulate:
    def test_rows_carry_empirics_and_zscores(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        spec = load_campaign(str(path))
        rows = cmd_simulate(spec)
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row.joint_empirical, float)
            assert row.stderr > 0.0
            assert abs(row.zscore) < 5.0

    def test_analyze_rows_are_the_closed_forms_of_simulate_rows(self, tmp_path):
        def campaign(mode, text):
            path = tmp_path / f"{mode}.ini"
            path.write_text(text)
            return load_campaign(str(path))

        analyzed = cmd_analyze(campaign("analyze", GRID_INI))
        simulated = cmd_simulate(campaign("simulate", TAILED_INI))
        assert len(analyzed) == 16
        assert [astuple(r)[:5] for r in analyzed] == [astuple(r)[:5] for r in simulated]
        assert all(value is None for r in analyzed for value in astuple(r)[5:])
        assert all(value is not None for r in simulated for value in astuple(r))

    @pytest.mark.parametrize("extent", ["0.7", "3"])
    def test_rows_carry_the_grid_fractions_at_any_extent(self, tmp_path, extent):
        # Scaling a fraction by L and dividing by L again can move it by one ulp.
        def rows(mode, text):
            path = tmp_path / f"{mode}.ini"
            path.write_text(text)
            return (cmd_analyze if mode == "analyze" else cmd_simulate)(load_campaign(str(path)))

        analyzed = rows("analyze", GRID_INI)
        simulated = rows("simulate", TAILED_INI + f"\n[geometry]\nstate_extent = {extent}\n")
        assert [astuple(r)[:5] for r in analyzed] == [astuple(r)[:5] for r in simulated]
        grid = [(ratio, cf) for ratio in (0, 0.25, 0.5, 0.9) for cf in (0, 0.1, 0.25, 0.5)]
        assert [(r.ratio, r.chi_over_L) for r in simulated] == grid

    def test_byte_identical_outputs(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli_main(["simulate", str(path), "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    # Closed forms once per grid and one row per point give the rows and
    # the CSV of scalar closed forms and ``replace``, bit for bit.
    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_rows_and_csv_equal_the_per_point_reference(self, spec):
        rows = (cmd_analyze if spec.mode == "analyze" else cmd_simulate)(spec)
        expected = reference.sweep_rows(spec)
        assert repr(rows) == repr(expected)
        assert rows_to_csv(rows) == rows_to_csv(expected)

    # A campaign seeds one generator as ``simulate_intercept_resend`` seeds
    # its one point, so a one-point campaign gives that point's row.
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.3, 1.0, 2.5, 7.0]), _FRACTION, _FRACTION,
           st.sampled_from([(0.0, 0.0), (1e-3, 0.05), (0.05, 0.3)]),
           st.sampled_from(ResendPolicy), st.integers(1, MAX_TRIALS), st.integers(0, 2**64 - 1))
    def test_one_point_campaign_is_simulate_intercept_resend(
            self, L, ratio, cf, shape, policy, trials, seed):
        channel_length, chi = ratio * L, cf * L
        spec = SimulateSpec(seed, (channel_length / L,), (chi / L,), trials=trials,
                            envelope=make_plateau(L, *shape), resend_policy=policy)
        point = simulate_intercept_resend(L, channel_length, chi, trials, seed, *shape, policy)
        assert repr(cmd_simulate(spec)) == repr([point])

    def test_pass_probability_once_per_delay_and_one_generator(self, tmp_path, monkeypatch):
        path = tmp_path / "tailed.ini"
        path.write_text(TAILED_INI)
        spec = load_campaign(str(path))
        calls = Counter()

        def counting(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        for owner, name in ((harness, "_pass_probability"), (harness, "_fired_fraction"),
                            (np.random, "default_rng")):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        assert len(cmd_simulate(spec)) == 16
        assert calls == {"_pass_probability": 4, "_fired_fraction": 16, "default_rng": 1}

    # A simulate campaign is where trials, seeds and grid points come in;
    # ``simulate_intercept_resend`` trusts its callers.
    @staticmethod
    def _campaign(**fields):
        return SimulateSpec(**{"seed": 1, "trials": 1000, "ratios": (0.5,),
                               "chi_fractions": (0.0,), **fields})

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError, match="trials must lie in"):
            self._campaign(trials=0)

    # SeedSequence once raised a raw ValueError or TypeError.
    # None would seed from fresh OS entropy: two calls once read joint
    # rates 0.756 and 0.765.
    @pytest.mark.parametrize("seed", [-1, "s", 1.5, (5, -1), None],
                             ids=["negative", "string", "float", "negative-entry", "none"])
    def test_seed_that_seeds_nothing_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="^seed must be"):
            self._campaign(seed=seed)

    # A channel length of 1.5 once gave a row of ratio 1.5 and pr_e_analytic 1.
    @pytest.mark.parametrize("channel_length", [1.5, -0.1, float("nan")])
    def test_channel_length_outside_the_state_rejected(self, channel_length):
        with pytest.raises(InvalidParameterError, match="channel length must lie in \\[0, L\\]"):
            self._campaign(ratios=(channel_length,))
        assert simulate_intercept_resend(2.0, 2.0, 0.0, 1000, 1).ratio == 1.0

    def test_cost_does_not_depend_on_trials(self):
        # Per-trial draws would need 8 TB here; the counts need a few ints.
        tracemalloc.start()
        try:
            s = simulate_intercept_resend(1.0, 0.5, 0.25, 10**12, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert abs(s.joint_empirical - s.joint_analytic) <= 5.0 * s.stderr

    def test_counts_have_the_law_of_per_trial_draws(self):
        # Over many seeds, (E, B, J) from the four binomials and from the
        # per-trial oracle both match the exact means and covariances.
        T, f, p, seeds, z = 200, 0.55, 0.7, 20_000, 4.0

        def exact_counts(seed):
            # Ideal plateau of L = 1: f = 0.25 + 0.3, p_pass = 1 - 0.3.
            s = simulate_intercept_resend(1.0, 0.25, 0.3, T, seed)
            assert s.available_fraction == pytest.approx(f, abs=1e-12)
            assert s.pass_probability == pytest.approx(p, abs=1e-12)
            return [round(x * T) for x in (s.eve_empirical, s.bob_empirical,
                                           s.joint_empirical)]

        pe = (1.0 + f) / 2.0
        mean = T * np.array([pe, p, pe * p])
        cov = T * np.array([[pe * (1 - pe), 0.0, pe * p * (1 - pe)],
                            [0.0, p * (1 - p), pe * p * (1 - p)],
                            [pe * p * (1 - pe), pe * p * (1 - p), pe * p * (1 - pe * p)]])
        for sampler in (exact_counts, lambda seed: _per_trial_counts(seed, T, f, p)):
            x = np.array([sampler((2027, i)) for i in range(seeds)], dtype=float)
            dev = x - x.mean(axis=0)
            assert np.all(np.abs(x.mean(axis=0) - mean) <= z * np.sqrt(np.diag(cov) / seeds))
            # Each sample covariance is a mean of products; its standard
            # error is theirs over sqrt(seeds).
            products = dev[:, :, None] * dev[:, None, :]
            sample_cov = products.sum(axis=0) / (seeds - 1)
            stderr = products.std(axis=0) / np.sqrt(seeds)
            assert np.all(np.abs(sample_cov - cov) <= z * stderr), sample_cov

    def test_delay_beyond_extent_rejected(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI.replace("chi_fractions = 0, 0.25",
                                             "chi_fractions = 1.5"))
        with pytest.raises(InvalidParameterError, match=r"delay must lie in \[0, L\]"):
            cmd_simulate(load_campaign(str(path)))

    def test_one_envelope_per_campaign(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return make_plateau(*args, **kwargs)

        monkeypatch.setattr(harness, "make_plateau", counting)
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        assert len(cmd_simulate(load_campaign(str(path)))) == 2
        assert len(calls) == 1
        calls.clear()
        assert check_delay_bound().passed
        assert len(calls) == 1


class TestDistill:
    def test_writes_transcript_and_report(self, tmp_path):
        path = tmp_path / "distill.ini"
        path.write_text(DISTILL_INI)
        transcript, report = cmd_distill(load_campaign(str(path)))
        assert not transcript.aborted
        assert (transcript.key_a == transcript.key_b).all()
        assert cli_main(["distill", str(path), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run.transcript.txt").read_text().startswith(
            "relqkd-transcript/5")
        assert (tmp_path / "run.report.txt").read_text().startswith(
            "relqkd-report/1")
        assert report.p_err_estimate == transcript.p_err_estimate

    def test_seed_override_is_the_files_seed(self, tmp_path):
        def transcript(text, seed=None):
            path = tmp_path / "distill.ini"
            path.write_text(text)
            return cmd_distill(load_campaign(str(path), seed_override=seed))[0].to_text()

        overridden = transcript(DISTILL_INI, 5)
        assert overridden == transcript(DISTILL_INI.replace("seed = 99", "seed = 5"))
        assert overridden != transcript(DISTILL_INI, 6)

    def test_numpy_integer_fields_write_the_same_report(self, tmp_path):
        # The report once raised a raw AttributeError on numpy integers.
        path = tmp_path / "distill.ini"
        path.write_text(DISTILL_INI)
        spec = load_campaign(str(path))
        fields = ("key_length", "block_size", "blocks_per_parity", "hash_rounds", "seed")
        protocol = replace(spec.protocol,
                           **{name: np.int64(getattr(spec.protocol, name)) for name in fields})
        assert cli_main(["distill", str(path), "--out", str(tmp_path / "plain")]) == 0
        transcript, report = cmd_distill(replace(spec, protocol=protocol))
        assert report.to_text() == (tmp_path / "plain.report.txt").read_text()
        assert (b"".join(transcript.text_pieces())
                == (tmp_path / "plain.transcript.txt").read_bytes())


def _shift_both_sides(monkeypatch, total):
    """Add 1 to both sides of the counting identity at n*k = ``total``."""
    for name in ("parity_count", "parity_cosine"):
        real = getattr(security, name)
        monkeypatch.setattr(security, name,
                            lambda n, k, real=real: real(n, k) + (n * k == total))


class TestVerify:
    def test_all_checks_pass(self):
        summary = cmd_verify()
        assert summary.all_passed
        text = summary.to_text()
        assert text.count("[PASS]") == len(summary.results)
        # Every check advertises its tolerance.
        assert all("tolerance" in r.detail for r in summary.results)

    def test_tampered_counter_reported_as_failure(self, monkeypatch):
        real = security.parity_count
        monkeypatch.setattr(security, "parity_count", lambda n, k: real(n, k) + (n * k == 6))
        summary = cmd_verify()
        assert not summary.all_passed
        assert "[FAIL] parity-identity" in summary.to_text()

    def test_enumeration_mismatch_reported_as_failure(self, monkeypatch):
        # Both sides of the identity shifted together: only the brute-force
        # enumeration disagrees.
        _shift_both_sides(monkeypatch, 6)
        assert "[FAIL] parity-identity: enumeration mismatch" in cmd_verify().to_text()

    def test_stacked_instrument_masses_equal_the_per_set_check(self):
        # The check's own draws at the verify seed: the stack, then one state per set.
        rng = np.random.default_rng(715)
        stack, headroom = harness._draw_admissibility(rng, 100)
        real, imag = rng.normal(size=(2, 100, 8))
        states = real + 1j * imag
        stacked = instrument_contraction_check(stack, 0.6, states)
        per_set = [instrument_contraction_check(stack[i], 0.6, states[i]) for i in range(100)]
        assert stacked.shape == (100,) and np.all(stacked <= headroom * 0.6)
        np.testing.assert_allclose(stacked, per_set, rtol=0.0, atol=1e-15)

    def test_lifted_domain_mass_reported_as_failure(self, monkeypatch):
        real = harness.instrument_contraction_check
        monkeypatch.setattr(harness, "instrument_contraction_check",
                            lambda stack, f, psi: real(stack, f, psi) + 0.5)
        assert "[FAIL] instrument-bound: bound violated" in cmd_verify().to_text()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3 * _CHUNK), st.integers(1, 16), st.integers(0, 2**32 - 1))
    @example(_CHUNK + 1, 16, 716)
    def test_hash_survivors_equal_the_boolean_mask_compaction(self, trials, rounds, seed):
        # Each round's hash steps, one per chunk of at most _CHUNK rows and
        # joined in order, see the rows that the boolean mask of the
        # previous round's matches would keep, in the same order, and the
        # values that uint64 draws give, as uint32 rows.
        real = distill._hash_step
        seen = []

        def recording(ia, ib, subset):
            seen.append((ia.copy(), ib.copy(), subset.copy()))
            return real(ia, ib, subset)

        with mock.patch.object(distill, "_hash_step", recording):
            detail = check_hash_calibration(trials, rounds, seed).detail
        n_bits = 16 + rounds
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, 1 << n_bits, size=trials, dtype=np.uint64)
        ib = ia ^ (np.uint64(1) << rng.integers(0, n_bits, size=trials, dtype=np.uint64))
        for length in range(n_bits, n_bits - rounds, -1):
            subset = rng.integers(1, 1 << length, size=ia.size, dtype=np.uint64)
            calls = -(-ia.size // _CHUNK)
            chunks, seen = seen[:calls], seen[calls:]
            assert all(0 < chunk[0].size <= _CHUNK for chunk in chunks)
            for got, expected in zip(zip(*chunks), (ia, ib, subset)):
                assert all(part.dtype == np.uint32 for part in got)
                assert np.array_equal(np.concatenate(got), expected)
            pa, pb, ia, ib = real(ia, ib, subset)
            match = pa == pb
            ia, ib = ia[match], ib[match]
        assert not seen
        assert detail.startswith(f"undetected {ia.size / trials:.5f} ")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3 * _CHUNK), st.integers(1, 16), st.integers(0, 2**32 - 1))
    @example(_CHUNK - 1, 16, 716)
    @example(_CHUNK, 16, 716)
    @example(_CHUNK + 1, 16, 716)
    def test_chunked_checks_equal_their_whole_array_forms(self, trials, rounds, seed):
        assert check_hash_calibration(trials, rounds, seed) == reference.hash_calibration(
            trials, rounds, seed)
        assert check_majority_tail(trials, seed) == reference.majority_tail(trials, seed)

    def test_in_place_enumeration_equals_the_concatenating_one(self, monkeypatch):
        assert check_parity_identity() == reference.parity_identity()
        # A count off at n*k = 20, the last block, is found by both.
        _shift_both_sides(monkeypatch, 20)
        failed = check_parity_identity()
        assert failed == reference.parity_identity() and not failed.passed

    @pytest.mark.parametrize("check", [
        check_parity_identity, check_hash_calibration, check_majority_tail])
    def test_check_runs_in_bounded_memory(self, check):
        # The whole-array forms peak at 2.10, 3.00 and 1.97 MB.
        check()
        tracemalloc.start()
        try:
            passed = check().passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert passed and peak <= 1.6e6

    def test_hash_step_that_never_detects_reported_as_failure(self, monkeypatch):
        real = distill._hash_step

        def blind(ia, ib, subset):
            pa, _, next_a, next_b = real(ia, ib, subset)
            return pa, pa, next_a, next_b

        monkeypatch.setattr(distill, "_hash_step", blind)
        assert "[FAIL] hash-calibration" in cmd_verify().to_text()

    @pytest.mark.parametrize("name,owner,attr,fault", [
        # A pass bound that grows with chi moves the scan's optimum off 0.
        ("delay-bound", adversary, "bob_pass_bound",
         lambda real: lambda chi, L: real(L - chi, L)),
        ("intercept-resend", harness, "_simulate_point", _shifted_eve_count),
        # The session's own binding fires 0.1 more often; the check's reference stays.
        ("information", distill, "channel_probabilities",
         lambda real: lambda *args: (real(*args)[0] + 0.1, real(*args)[1])),
        # Flipped votes flip B's parity bits (n = 45 is odd), so the keys differ.
        ("session", distill, "majority_decode", lambda real: lambda block: real(block) ^ 1),
        # An admissibility test that accepts anything lets the negative control through.
        ("instrument-bound", adversary, "_admissible", lambda real: lambda stack: True),
    ], ids=["delay-bound", "intercept-resend", "information", "session", "instrument-bound"])
    def test_fault_reported_as_failure(self, monkeypatch, capsys, name, owner, attr, fault):
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        assert cli_main(["verify"]) == 1
        assert f"[FAIL] {name}: " in capsys.readouterr().out

    # Past 16 rounds, 10^5 trials expect under one survivor: the check checks nothing.
    @pytest.mark.parametrize("kwargs", [dict(trials=0), dict(rounds=0), dict(rounds=17),
                                        dict(rounds=48)],
                             ids=["no-trials", "no-rounds", "17-rounds", "64-bit-strings"])
    def test_hash_calibration_rejects_bad_sizes(self, kwargs):
        with pytest.raises(InvalidParameterError):
            check_hash_calibration(**kwargs)

    # Each argument that would check nothing, or crash with a raw error,
    # raises InvalidParameterError naming it.
    @pytest.mark.parametrize("kwargs, named", [
        (dict(trials=0), "trials"),
        (dict(trials=-5), "trials"),
    ], ids=["no-trials", "negative-trials"])
    def test_majority_tail_rejects_bad_arguments(self, kwargs, named):
        with pytest.raises(InvalidParameterError, match=named):
            check_majority_tail(**kwargs)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(totals=()), "totals"),
        (dict(totals=(7, 11), ks=(2, 3)), "divides"),
        (dict(ks=(0,)), "ks"),
        (dict(ks=(-2, 2)), "ks"),
        (dict(totals=(0, 24)), "totals"),
    ], ids=["no-totals", "no-divisible-pair", "zero-k", "negative-k", "zero-total"])
    def test_parity_cosine_rejects_an_empty_grid(self, kwargs, named):
        with pytest.raises(InvalidParameterError, match=named):
            check_parity_cosine(**kwargs)

    # 1024 once passed by comparing the count with itself, as the cosine
    # side's float, and 1100 raised a raw OverflowError.
    @pytest.mark.parametrize("total", [1024, 1100])
    def test_parity_cosine_refuses_a_total_past_the_float_range(self, total):
        with pytest.raises(InvalidParameterError, match=r"n\*k < 1024"):
            check_parity_cosine(totals=(total,), ks=(1,))


class TestCli:
    def test_analyze_stdout(self, tmp_path, capsys):
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI)
        assert cli_main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ratio,chi_over_L")

    def test_mode_mismatch_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI)
        assert cli_main(["simulate", str(path)]) == 2

    def test_bad_config_is_invalid_input(self, capsys):
        assert cli_main(["analyze", "/nonexistent.ini"]) == 2

    @pytest.mark.parametrize("resolution", ["nan", "inf", "4096"])
    def test_non_finite_resolution_is_invalid_input(self, tmp_path, capsys, resolution):
        # The removed key is refused whatever its value.
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI + f"\n[state]\nresolution = {resolution}\n")
        assert cli_main(["simulate", str(path)]) == 2
        assert ("unknown [state] key 'resolution': the section takes tail_mass, ramp_fraction"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode,text", [("simulate", SIMULATE_INI),
                                           ("distill", DISTILL_INI)])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, mode, text):
        path = tmp_path / f"{mode}.ini"
        path.write_text(text.replace("seed = ", "seed = -"))
        assert cli_main([mode, str(path)]) == 2
        path.write_text(text)
        assert cli_main([mode, str(path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.count("seed must be >= 0") == 2

    def test_trial_count_beyond_int64_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI.replace("trials = 5000", f"trials = {2**63}"))
        assert cli_main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"trials must lie in [1, {MAX_TRIALS}], got {2**63}" in captured.err

    def test_full_delay_on_untailed_envelope(self, tmp_path, capsys):
        # At chi = L the truncated resend has nothing left to send: the
        # point passes with probability 0, as analyze tabulates it.
        # 10^12 trials per point run as fast as 2000: the counts are drawn exactly.
        sweep = "[sweep]\nratios = 0, 0.5\nchi_fractions = 0.5, 1\n"
        path = tmp_path / "sim.ini"
        for trials in (2000, 10**12):
            path.write_text(f"[campaign]\nmode = simulate\ntrials = {trials}\nseed = 3\n{sweep}")
            assert cli_main(["simulate", str(path)]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
            columns = dict(zip(rows[0], zip(*rows[1:])))
            full = [i for i, cf in enumerate(columns["chi_over_L"]) if cf == "1"]
            assert len(full) == 2
            for name in ("pr_b_bound", "joint_empirical", "zscore"):
                assert [columns[name][i] for i in full] == ["0", "0"]
        # A session there cannot sift a single round, and says so.
        path.write_text(DISTILL_INI.replace("channel_length = 0.5", "channel_length = 0")
                        + "[eve]\nenabled = true\ndelay = 1.0\n")
        assert cli_main(["distill", str(path)]) == 2
        assert "no round can ever pass" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analyze", "simulate"])
    @pytest.mark.parametrize("sweep,value", [
        ("ratios = 1.5, -0.1\nchi_fractions = 0.1", "1.5"),
        ("ratios = 0.5\nchi_fractions = 0, -0.1", "-0.1"),
    ])
    def test_out_of_range_sweep_is_invalid_input(self, tmp_path, capsys, mode,
                                                 sweep, value):
        path = tmp_path / f"{mode}.ini"
        path.write_text(f"[campaign]\nmode = {mode}\nseed = 7\n[sweep]\n{sweep}\n")
        assert cli_main([mode, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{value} is outside [0, 1]" in captured.err

    @pytest.mark.parametrize("key", ["key_length", "block_size", "blocks_per_parity",
                                     "hash_rounds", "disclose_fraction"])
    def test_missing_protocol_key_is_invalid_input(self, tmp_path, capsys, key):
        # Each once crashed with a raw TypeError (exit 1).
        path = tmp_path / "distill.ini"
        path.write_text("\n".join(line for line in DISTILL_INI.splitlines()
                                  if not line.startswith(f"{key} =")))
        assert cli_main(["distill", str(path)]) == 2
        assert f"[protocol] lacks {key!r}" in capsys.readouterr().err

    def test_session_beyond_memory_is_invalid_input(self, tmp_path, capsys):
        # 10^15 key bits expect about 7e15 rounds, past the 2^31 - 1 that
        # int32 round ids can name, so the session is refused before it
        # draws; numpy's MemoryError once escaped (exit 1).  The other sizes
        # once planned more rounds than a float holds (OverflowError) or
        # than numpy can size an array by (ValueError), and escaped too.
        for old, new in [("key_length = 8", f"key_length = {10**15}"),
                         ("key_length = 8", f"key_length = {10**400}"),
                         ("key_length = 8", f"key_length = {10**19}"),
                         ("hash_rounds = 4", f"hash_rounds = {10**26}"),
                         ("block_size = 3", f"block_size = {10**20 + 1}")]:
            path = tmp_path / "distill.ini"
            path.write_text(DISTILL_INI.replace(old, new))
            assert cli_main(["distill", str(path)]) == 2, new
            assert "rounds, more than the 2147483647 that int32 round ids can name" in \
                capsys.readouterr().err, new

    @pytest.mark.parametrize("key,value", [("eps1", "nan"), ("eps1", "0"), ("eps1", "1"),
                                           ("eps2", "-0.001"), ("eps2", "inf")])
    def test_security_epsilon_outside_unit_interval_is_invalid_input(self, tmp_path, capsys,
                                                                       key, value):
        # eps1 = nan once ran the session and wrote eps1=nan with exit 0.
        path = tmp_path / "distill.ini"
        path.write_text(DISTILL_INI.replace(f"{key} = 1e-2", f"{key} = {value}"))
        assert cli_main(["distill", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"[security] {key} must lie in (0, 1), got {float(value)}" in captured.err

    def test_bad_state_is_invalid_input_in_every_mode(self, tmp_path, capsys):
        # analyze once ignored [state] and exited 0; it now refuses the
        # section, which its closed forms do not read.
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI + "[state]\ntail_mass = 0.5\nramp_fraction = 0\n")
        assert cli_main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mode 'analyze' does not read [state] 'tail_mass'" in captured.err
        for mode, text in (("simulate", SIMULATE_INI), ("distill", DISTILL_INI)):
            path = tmp_path / f"{mode}.ini"
            path.write_text(text + "[state]\ntail_mass = 0.5\nramp_fraction = 0\n")
            assert cli_main([mode, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "needs edge ramps" in captured.err

    def test_verify_exit_codes(self, capsys, monkeypatch):
        assert cli_main(["verify"]) == 0
        failing = (lambda: CheckResult("stub", False, "forced failure (tolerance 0)"),)
        monkeypatch.setattr("relqkd.harness.DEFAULT_CHECKS", failing)
        assert cli_main(["verify"]) == 1

    def test_misspelt_key_is_invalid_input(self, tmp_path, capsys):
        # L_ch = 0.5 misspelt once ran with exit 0 at L_ch = 0.
        path = tmp_path / "analyze.ini"
        path.write_text(ANALYZE_INI + "[geometry]\nchanel_length = 0.5\n")
        assert cli_main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown [geometry] key 'chanel_length'" in captured.err

    @pytest.mark.parametrize("option,value", [("--seed", "-1"), ("--seed", "x"),
                                              ("--out", "")])
    def test_bad_option_is_named(self, tmp_path, capsys, option, value):
        # The campaign file is valid, so the error names the option, not it.
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        assert cli_main(["simulate", str(path), option, value]) == 2
        err = capsys.readouterr().err
        assert f"argument {option}:" in err
        assert "campaign file" not in err

    def test_successive_calls_do_not_leak_options(self, tmp_path, capsys):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        expected = rows_to_csv(cmd_simulate(load_campaign(str(path))))
        out = tmp_path / "first.csv"
        assert cli_main(["simulate", str(path), "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text() != expected
        capsys.readouterr()
        assert cli_main(["simulate", str(path)]) == 0
        assert capsys.readouterr().out == expected

    def test_seed_override_changes_simulation(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(SIMULATE_INI)
        a = cmd_simulate(load_campaign(str(path), seed_override=1))
        b = cmd_simulate(load_campaign(str(path), seed_override=2))
        assert a != b
