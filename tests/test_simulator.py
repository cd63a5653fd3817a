import bisect
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cowqkd import (
    CountFileError,
    CountRecord,
    GainSet,
    SimConfig,
    ValidationError,
    analytic_gains,
    channel_transmittance,
    empirical_gains,
    format_counts,
    replay_counts,
    simulate_session,
    write_counts,
)
import cowqkd.simulator
from cowqkd.cli import build_params, load_config, main
from cowqkd.concentration import CLICK_FIELDS, validate_record
from cowqkd.simulator import (
    _ROWS,
    _SENT_FIELDS,
    _TALLY_MATRIX,
    _TALLY_ROWS,
    SIM_MODES,
    _Batch,
    _dead_ticks,
    _draws,
    _event_probabilities,
    _joint_law,
    _mask_laws,
    _row_counts,
    _walk,
    _Walk,
)
from helpers import make_params, per_round_draw

# Attenuation high enough that the transmittance underflows to exactly zero.
OPAQUE_KM = 100_000.0

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sim_params(**overrides):
    defaults = dict(length_km=25.0, p_decoy_alpha_alpha=0.15, p_decoy_vacuum=0.15)
    defaults.update(overrides)
    return make_params(**defaults)


def drawn(batches):
    """A session's batches as one: their rounds and rows in order, their emissions summed."""
    batches = list(batches)
    return _Batch(sum(b.sent for b in batches), np.concatenate([b.rounds for b in batches]),
                  np.concatenate([b.rows for b in batches]))


class TestSimConfig:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, rounds=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, rounds=100, mode="batch")

    @pytest.mark.parametrize("rounds", [1e5, 2.5, True, "100"])
    def test_rejects_non_integer_rounds(self, rounds):
        with pytest.raises(ValueError, match="rounds"):
            SimConfig(seed=1, rounds=rounds)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, False])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed, rounds=100)

    def test_rejects_rounds_past_the_64_bit_counts(self):
        # Only the configs are built: no round is drawn.
        assert SimConfig(seed=1, rounds=2**63 - 1).rounds == 2**63 - 1
        for rounds in (2**63, 10**19):
            with pytest.raises(ValidationError, match=r"below 2\*\*63"):
                SimConfig(seed=1, rounds=rounds)


class TestSimulateSession:
    def test_deterministic_across_runs(self):
        p = sim_params()
        cfg = SimConfig(seed=7, rounds=300_000)
        assert simulate_session(p, cfg) == simulate_session(p, cfg)

    def test_seeds_differ(self):
        p = sim_params()
        a = simulate_session(p, SimConfig(seed=1, rounds=300_000))
        b = simulate_session(p, SimConfig(seed=2, rounds=300_000))
        assert a != b

    def test_record_is_internally_consistent(self):
        p = sim_params()
        r = simulate_session(p, SimConfig(seed=3, rounds=300_000))
        assert validate_record(r) is r
        assert r.rounds == 300_000
        assert r.n_sent_0z + r.n_sent_1z + r.n_sent_alpha_alpha + r.n_sent_vac == r.rounds

    def test_chunk_boundaries_do_not_change_totals(self):
        # The walk's record over a round count one past a power of two.
        p = sim_params()
        r = simulate_session(p, SimConfig(seed=5, rounds=(1 << 20) + 1, mode="streaming"))
        assert r.rounds == (1 << 20) + 1
        assert validate_record(r) is r

    def test_no_light_no_darks_means_no_clicks(self):
        p = sim_params(length_km=OPAQUE_KM, dark_count_prob=0.0)
        r = simulate_session(p, SimConfig(seed=11, rounds=100_000))
        assert r.n_z == 0
        assert r.n_aa_m0 == r.n_aa_m1 == r.n_vac_m0 == r.n_vac_m1 == 0
        assert r.n_0z_tau0 == r.n_0z_tau1 == 0
        assert r.n_sent_0z > 0 and r.n_sent_vac > 0

    def test_vanishing_click_probability(self):
        # Every row with an event has a probability below 1e-299, yet each
        # round still takes a state.
        p = sim_params(length_km=OPAQUE_KM, dark_count_prob=1e-300)
        r = simulate_session(p, SimConfig(seed=11, rounds=100_000))
        assert r.n_z == r.n_vac_m0 == r.n_aa_m0 == 0
        assert r.n_sent_0z + r.n_sent_1z + r.n_sent_alpha_alpha + r.n_sent_vac == r.rounds

    def test_vacuum_decoy_clicks_are_pure_darks(self):
        # Nearly every round sends the vacuum decoy; its monitoring-port
        # frequency must reproduce the dark-count gain.
        p = make_params(p_decoy_alpha_alpha=0.01, p_decoy_vacuum=0.98)
        r = simulate_session(p, SimConfig(seed=2, rounds=10_000_000))
        p_d = p.detectors.dark_count_prob
        expected = p_d * (1.0 - p_d) ** 3
        sigma = math.sqrt(expected * (1.0 - expected) / r.n_sent_vac)
        for clicks in (r.n_vac_m0, r.n_vac_m1):
            assert abs(clicks / r.n_sent_vac - expected) < 3.0 * sigma

    def test_sifted_count_matches_click_probability(self):
        p = sim_params()
        r = simulate_session(p, SimConfig(seed=13, rounds=1_000_000))
        eta = channel_transmittance(p.channel, p.detectors)
        a = p.receiver.t_b * p.source.mu * eta
        q = 1.0 - p.detectors.dark_count_prob
        p_click = 1.0 - q * q * math.exp(-a)
        n_signal = r.n_sent_0z + r.n_sent_1z
        sigma = math.sqrt(p_click * (1.0 - p_click) * n_signal)
        assert abs(r.n_z - n_signal * p_click) < 4.0 * sigma

    def test_emission_counts_follow_source_distribution(self):
        # Every round's state, clicking or not, must follow the source
        # distribution.
        p = make_params(length_km=20.0, p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        rounds = 1 << 22
        r = simulate_session(p, SimConfig(seed=37, rounds=rounds))
        src = p.source
        for sent, prob in ((r.n_sent_0z, src.p_z0), (r.n_sent_1z, src.p_z1),
                           (r.n_sent_alpha_alpha, src.p_decoy_alpha_alpha),
                           (r.n_sent_vac, src.p_decoy_vacuum)):
            sigma = math.sqrt(rounds * prob * (1.0 - prob))
            assert abs(sent - rounds * prob) < 4.0 * sigma

    def test_mean_gains_match_analytic_across_seeds(self):
        p = sim_params()
        expected = analytic_gains(p)
        src = p.source
        rounds_per_seed = 1_000_000
        seeds = range(50)
        class_fraction = {
            "data_0z_tau0": src.p_z0, "data_0z_tau1": src.p_z0,
            "data_1z_tau0": src.p_z1, "data_1z_tau1": src.p_z1,
            "mon_0z_m0": src.p_z0, "mon_0z_m1": src.p_z0,
            "mon_1z_m0": src.p_z1, "mon_1z_m1": src.p_z1,
            "mon_alpha_alpha_m0": src.p_decoy_alpha_alpha,
            "mon_alpha_alpha_m1": src.p_decoy_alpha_alpha,
            "mon_vac_m0": src.p_decoy_vacuum,
            "mon_vac_m1": src.p_decoy_vacuum,
        }
        sums = {name: 0.0 for name in class_fraction}
        for seed in seeds:
            r = simulate_session(p, SimConfig(seed=seed, rounds=rounds_per_seed))
            gains = empirical_gains(r)
            for name in sums:
                sums[name] += getattr(gains, name)
        for name, fraction in class_fraction.items():
            g = getattr(expected, name)
            n_class = fraction * rounds_per_seed
            sigma_mean = math.sqrt(g * (1.0 - g) / n_class) / math.sqrt(len(seeds))
            assert abs(sums[name] / len(seeds) - g) < 4.0 * sigma_mean, name


def assert_rows_follow_the_pattern_law(p, seed, rounds):
    """Chi-square of a session's 1,024 row counts, and of its emissions,
    against a law built gate by gate from the firing probabilities."""
    src = p.source
    pi = [src.p_z0, src.p_z1, src.p_decoy_alpha_alpha, src.p_decoy_vacuum]
    fire = _event_probabilities(p)
    # law[k][b]: state k is sent and exactly the events of bit pattern b fire.
    law = np.array([[pi[k] * math.prod(f if b >> j & 1 else 1.0 - f
                                       for j, f in enumerate(fire[k]))
                     for b in range(256)] for k in range(4)])
    counts = _row_counts(p, SimConfig(seed=seed, rounds=rounds), np.random.default_rng(seed)).reshape(4, 256)
    assert counts.sum() == rounds
    expected = rounds * law
    rare = expected < 20.0
    observed = np.append(counts[~rare], counts[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3
    sent = stats.chisquare(counts.sum(axis=1), rounds * np.array(pi))
    assert sent.pvalue > 1e-3


class TestSessionDraw:
    # From sparse events to dense ones; 1e8 rounds cost a multinomial draw like any other count.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("length_km, dark_count_prob, rounds", [
        (100.0, 1.8e-6, 10**8), (100.0, 1e-3, 1 << 20), (20.0, 1e-2, 1 << 20), (0.0, 0.1, 1 << 20),
    ])
    def test_record_is_numpys_multinomial_of_the_reversed_law(self, length_km, dark_count_prob,
                                                               rounds, seed):
        # The reference draws in the test's own words: the seed's first generator,
        # one multinomial of the rows in reverse order.  Streaming mode at one
        # tick of dead time draws the same.
        p = make_params(length_km=length_km, dark_count_prob=dark_count_prob, dead_time_s=1e-9,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        law = _joint_law(p).ravel()
        counts = np.random.default_rng(seed).multinomial(rounds, law[::-1])[::-1]
        expected = [int(counts[rows].sum()) for rows in _TALLY_ROWS.values()]
        expected += counts.reshape(4, 256).sum(axis=1).tolist()
        assert expected[0] > 0
        for mode in SIM_MODES:
            record = simulate_session(p, SimConfig(seed=seed, rounds=rounds, mode=mode))
            assert [getattr(record, field) for field in (*_TALLY_ROWS, *_SENT_FIELDS)] == expected, mode


class TestSamplerLaw:
    @pytest.mark.parametrize("length_km", [0.0, 20.0, 100.0])
    def test_state_and_event_pattern_law(self, length_km):
        # Dark counts of 5% fill the cells where several events fire at once.
        p = make_params(length_km=length_km, dark_count_prob=0.05,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        assert_rows_follow_the_pattern_law(p, seed=53, rounds=1 << 21)

    # The profile's regimes, with its own dark counts and with 5%.
    @pytest.mark.parametrize("dark_count_prob", ["config", 0.05])
    @pytest.mark.parametrize("length_km", [0.0, 20.0, 100.0])
    def test_row_law_of_the_eta20_profile(self, length_km, dark_count_prob):
        overrides = {"channel.length_km": length_km}
        if dark_count_prob != "config":
            overrides["detectors.dark_count_prob"] = dark_count_prob
        assert_rows_follow_the_pattern_law(eta20_params(**overrides), seed=67, rounds=1 << 22)

    @pytest.mark.parametrize("length_km", [20.0, 100.0])
    def test_rows_of_negligible_mass_stay_empty_at_any_round_count(self, length_km):
        # numpy's multinomial gives its last category what the others leave,
        # and its running sum drifts by about 1e-15: on a row of 1e-24, at
        # 1e18 rounds, that drift alone would be thousands of counts.
        p = make_params(length_km=length_km)
        rounds = 10**18
        law = _joint_law(p).ravel()
        negligible = rounds * law < 1e-4
        assert negligible.sum() > 100
        for seed in range(3):
            counts = _row_counts(p, SimConfig(seed=seed, rounds=rounds), np.random.default_rng(seed))
            assert counts.sum() == rounds
            assert not counts[negligible].any(), np.flatnonzero(counts * negligible)


class TestSamplerEdges:
    def test_sampler_rejects_a_state_law_that_is_not_a_distribution(self):
        # Unvalidated params: decoy probabilities summing above 1 leave
        # negative bit-state probabilities.
        p = make_params(p_decoy_alpha_alpha=0.7, p_decoy_vacuum=0.6)
        with pytest.raises(ValidationError, match="must be a distribution"):
            _joint_law(p)

    @pytest.mark.parametrize("rounds", [1, 1000, (1 << 20) + 1])
    def test_every_round_holds_one_event_when_every_gate_fires(self, rounds):
        # Unvalidated params: dark counts of 1 fire all four gates in every round.
        p = make_params(length_km=OPAQUE_KM, dark_count_prob=1.0)
        counts = _row_counts(p, SimConfig(seed=23, rounds=rounds), np.random.default_rng(23))
        assert counts.sum() == rounds
        assert np.all(np.flatnonzero(counts) & 255 == 0xF0)

    def test_dark_floor_frequency_per_gate(self):
        # Without light each gate's dark bit fires with p_d, which the pattern
        # law's test takes from _event_probabilities rather than checks.
        p = make_params(length_km=OPAQUE_KM, dark_count_prob=0.01)
        rounds = 200_000
        counts = _row_counts(p, SimConfig(seed=17, rounds=rounds), np.random.default_rng(17))
        rows = np.arange(1024)
        assert not counts[rows & 15 != 0].any()
        sigma = math.sqrt(0.01 * 0.99 / rounds)
        for gate in range(4):
            fired = counts[rows & 16 << gate != 0].sum()
            assert abs(fired / rounds - 0.01) < 3.0 * sigma, gate

    def test_dark_gate_multiplicity_per_round(self):
        # Darks fire independently at the four gates, so the number of dark
        # gates in a round is binomial in p_d: exactly two with 6 p_d^2 (1-p_d)^2.
        p_d = 0.05
        p = make_params(length_km=OPAQUE_KM, dark_count_prob=p_d)
        rounds = 200_000
        counts = _row_counts(p, SimConfig(seed=41, rounds=rounds), np.random.default_rng(41))
        darks = np.array([bin(row >> 4 & 15).count("1") for row in range(1024)])
        for k in (1, 2, 3):
            expected = math.comb(4, k) * p_d**k * (1.0 - p_d) ** (4 - k)
            sigma = math.sqrt(expected * (1.0 - expected) / rounds)
            assert abs(counts[darks == k].sum() / rounds - expected) < 4.0 * sigma, k


def eta20_params(**overrides):
    """keyrate_eta20_dt30.cfg with config-key overrides."""
    return build_params({**load_config(CONFIGS / "keyrate_eta20_dt30.cfg"), **overrides})


class TestPinnedRecords:
    # A record is a function of the seed's draws alone, so a faster sampler
    # must reproduce these exactly.  A deliberate change to the draws re-pins
    # them and records each old and new value in CHANGES.md.
    SENT = dict(n_sent_0z=1130910, n_sent_1z=1132163, n_sent_alpha_alpha=440927, n_sent_vac=441729)
    RECORDS = {
        "per_pair": dict(
            n_z=79506, n_aa_m0=845, n_aa_m1=2, n_vac_m0=1, n_vac_m1=0,
            n_0z_tau0=39807, n_0z_tau1=1, n_1z_tau0=1, n_1z_tau1=39693,
            n_0z_m0=2113, n_0z_m1=2147, n_1z_m0=2214, n_1z_m1=2168,
        ),
        # The live-set walk draws its own emissions.
        "streaming": dict(
            n_sent_0z=1133442, n_sent_1z=1131759, n_sent_alpha_alpha=440401, n_sent_vac=440127,
            n_z=153, n_aa_m0=42, n_aa_m1=0, n_vac_m0=0, n_vac_m1=0,
            n_0z_tau0=78, n_0z_tau1=0, n_1z_tau0=0, n_1z_tau1=75,
            n_0z_m0=87, n_0z_m1=78, n_1z_m0=74, n_1z_m1=88,
        ),
    }

    @pytest.mark.parametrize("mode", ["per_pair", "streaming"])
    def test_seed_3_record_at_20km(self, mode):
        # A round count of no special form: 3 * 2^20 + 1.
        rounds = 3 * (1 << 20) + 1
        record = simulate_session(eta20_params(**{"channel.length_km": 20.0}),
                                  SimConfig(seed=3, rounds=rounds, mode=mode))
        assert record == CountRecord(rounds=rounds, **{**self.SENT, **self.RECORDS[mode]})

    # Other regimes at the same seed and round count: dense dead times, and
    # dark counts that fill most of the joint table.  The streaming records
    # are the live-set walk's, the per_pair ones the multinomial draw's.
    OTHER = {
        "streaming, 20 km, 2 ns": (
            {"channel.length_km": 20.0, "detectors.dead_time_s": 2e-9}, "streaming",
            dict(n_sent_0z=1132690, n_sent_1z=1133750, n_sent_alpha_alpha=439714,
                 n_sent_vac=439575, n_z=78981, n_aa_m0=861, n_aa_m1=1, n_vac_m0=1,
                 n_vac_m1=0, n_0z_tau0=39331, n_0z_tau1=4, n_1z_tau0=1, n_1z_tau1=39641,
                 n_0z_m0=2135, n_0z_m1=2239, n_1z_m0=2254, n_1z_m1=2145),
        ),
        "streaming, 20 km, 1 us": (
            {"channel.length_km": 20.0, "detectors.dead_time_s": 1e-6}, "streaming",
            dict(n_sent_0z=1132025, n_sent_1z=1133121, n_sent_alpha_alpha=440130,
                 n_sent_vac=440453, n_z=4249, n_aa_m0=467, n_aa_m1=0, n_vac_m0=0,
                 n_vac_m1=2, n_0z_tau0=2082, n_0z_tau1=0, n_1z_tau0=0, n_1z_tau1=2167,
                 n_0z_m0=1205, n_0z_m1=1233, n_1z_m0=1238, n_1z_m1=1189),
        ),
        "per_pair, 0 km, p_d 0.05": (
            {"channel.length_km": 0.0, "detectors.dark_count_prob": 0.05}, "per_pair",
            dict(n_sent_0z=1132670, n_sent_1z=1131541, n_sent_alpha_alpha=440348,
                 n_sent_vac=441170, n_z=397242, n_aa_m0=18802, n_aa_m1=17097,
                 n_vac_m0=18970, n_vac_m1=18891, n_0z_tau0=83284, n_0z_tau1=51359,
                 n_1z_tau0=51084, n_1z_tau1=83626, n_0z_m0=48979, n_0z_m1=48597,
                 n_1z_m0=48229, n_1z_m1=48093),
        ),
        "per_pair, 0 km, p_d 0.2": (
            {"channel.length_km": 0.0, "detectors.dark_count_prob": 0.2}, "per_pair",
            dict(n_sent_0z=1132242, n_sent_1z=1132353, n_sent_alpha_alpha=440600,
                 n_sent_vac=440534, n_z=940547, n_aa_m0=42352, n_aa_m1=41195,
                 n_vac_m0=45134, n_vac_m1=45105, n_0z_tau0=49944, n_0z_tau1=145195,
                 n_1z_tau0=144975, n_1z_tau1=50233, n_0z_m0=108159, n_0z_m1=107940,
                 n_1z_m0=108021, n_1z_m1=107758),
        ),
    }

    @pytest.mark.parametrize("case", list(OTHER))
    def test_seed_3_record_in_other_regimes(self, case):
        overrides, mode, counts = self.OTHER[case]
        rounds = 3 * (1 << 20) + 1
        record = simulate_session(eta20_params(**overrides), SimConfig(seed=3, rounds=rounds, mode=mode))
        assert record == CountRecord(rounds=rounds, **counts)


def greedy_rows(rounds, rows, dead):
    """Rows after a plain per-click greedy dead time over decoded ticks.

    Bits g and g + 4 of a row are gate g's photon click and dark count; the
    data detector's gates d0 and d1 sit at ticks 2r and 2r + 1 of round r,
    each monitoring port's at 2r.  A dropped gate loses both its bits.
    """
    detector = ("data", "data", "m0", "m1")
    last: dict[str, float] = {}
    kept = []
    for r, row in zip(rounds.tolist(), rows.tolist()):
        out = row >> 8 << 8
        for gate in range(4):
            tick = 2 * r + (gate == 1)
            if row & 17 << gate and tick - last.get(detector[gate], -math.inf) >= dead:
                out |= row & 17 << gate
                last[detector[gate]] = tick
        kept.append(out)
    return kept


def tallies(rows, sent):
    """Each click tally of the rows, in _TALLY_ROWS order, then the emissions."""
    per_row = np.bincount(rows, minlength=1024)
    return [int(per_row[counted].sum()) for counted in _TALLY_ROWS.values()] + sent.tolist()


class TestRowTally:
    # Dead times of 1, 2 and 3 half-period ticks, and the 30 us of the
    # eta = 0.2 profile (30,000), against the filter over per_pair rows drawn
    # round by round in tests/helpers.py; with p_d = 5% every (state, pattern)
    # cell can occur.  At 1 tick the filter keeps every row.  Above it the walk
    # draws only kept clicks: its rows are the filter's fixed point, and their
    # tallies have the law of the filter over per_pair rows.
    @pytest.mark.parametrize("dead", [1, 2, 3, 30_000])
    @pytest.mark.parametrize("length_km", [0.0, 20.0, 100.0])
    def test_dead_time_rows_equal_greedy_filter(self, length_km, dead):
        p = make_params(length_km=length_km, dark_count_prob=0.05, dead_time_s=dead * 1e-9,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        if dead == 1:
            per_pair = per_round_draw(p, 1 << 17, np.random.default_rng(59))
            assert per_pair.rows.size > 0
            assert greedy_rows(per_pair.rounds, per_pair.rows, dead) == per_pair.rows.tolist()
            return
        walk = _Walk.build(p)
        chunk = drawn(_walk(np.random.default_rng(59), 1 << 17, walk, dead))
        assert chunk.rows.dtype == np.int16
        assert np.all(chunk.rows & 255 != 0)
        assert greedy_rows(chunk.rounds, chunk.rows, dead) == chunk.rows.tolist()
        # Seed-averaged tallies and emissions, over sessions long enough for
        # several dead periods.
        n, seeds = (1 << 13 if dead < 100 else 1 << 15), range(40)
        walked, filtered = [], []
        for seed in seeds:
            chunk = drawn(_walk(np.random.default_rng(seed), n, walk, dead))
            walked.append(tallies(chunk.rows, chunk.sent))
            chunk = per_round_draw(p, n, np.random.default_rng(1000 + seed))
            filtered.append(tallies(np.array(greedy_rows(chunk.rounds, chunk.rows, dead)), chunk.sent))
        walked, filtered = np.array(walked), np.array(filtered)
        diff = walked.mean(axis=0) - filtered.mean(axis=0)
        sigma = np.sqrt((walked.var(axis=0, ddof=1) + filtered.var(axis=0, ddof=1)) / len(seeds))
        assert np.all(np.abs(diff) <= 4.0 * sigma), (diff / sigma).round(2).tolist()

    def test_no_tally_counts_an_empty_pattern(self):
        # An event whose gates dead time all dropped keeps its row at pattern 0.
        for field, rows in _TALLY_ROWS.items():
            assert rows.shape == (1024,)
            assert not rows[::256].any(), field


class TestPerRoundDraw:
    # The greedy-filter reference in tests/helpers.py, built gate by gate,
    # against the joint law the simulator draws from; with p_d = 5% every
    # (state, pattern) cell can occur.
    @pytest.mark.parametrize("length_km", [0.0, 20.0, 100.0])
    def test_rows_follow_the_joint_law(self, length_km):
        p = make_params(length_km=length_km, dark_count_prob=0.05,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        rounds = 1 << 18
        chunk = per_round_draw(p, rounds, np.random.default_rng(59))
        # The event rounds, each with some event, in distinct ascending rounds.
        assert chunk.rows.size > 0
        assert np.all(chunk.rows & 255 != 0)
        assert np.all(np.diff(chunk.rounds) > 0)
        assert 0 <= chunk.rounds[0] and chunk.rounds[-1] < rounds
        # With the rounds without an event put back, the rows follow _joint_law.
        counts = np.bincount(chunk.rows, minlength=1024)
        counts[::256] = chunk.sent - counts.reshape(4, 256).sum(axis=1)
        assert counts.sum() == rounds
        expected = rounds * _joint_law(p).ravel()
        rare = expected < 20.0
        observed = np.append(counts[~rare], counts[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestStreamingMode:
    def test_streaming_never_exceeds_per_pair(self):
        p = make_params(length_km=20.0)
        per_pair = simulate_session(p, SimConfig(seed=9, rounds=500_000))
        streaming = simulate_session(p, SimConfig(seed=9, rounds=500_000, mode="streaming"))
        assert streaming.n_z <= per_pair.n_z
        assert streaming.n_aa_m0 <= per_pair.n_aa_m0

    def test_dead_time_strongly_suppresses_fast_links(self):
        p = make_params(length_km=20.0)
        per_pair = simulate_session(p, SimConfig(seed=9, rounds=500_000))
        streaming = simulate_session(p, SimConfig(seed=9, rounds=500_000, mode="streaming"))
        assert 0 < streaming.n_z < per_pair.n_z / 10

    def test_modes_agree_without_dead_time(self):
        p = sim_params(dead_time_s=0.0)
        a = simulate_session(p, SimConfig(seed=21, rounds=200_000))
        b = simulate_session(p, SimConfig(seed=21, rounds=200_000, mode="streaming"))
        assert a == b


    @pytest.mark.parametrize("dead_time_s", [1e-9, 5e-10])
    def test_one_tick_dead_time_drops_nothing(self, dead_time_s):
        # At 5e8 pairs per second a tick is 1e-9 s. A detector's clicks sit on
        # distinct ticks, so a dead time of one tick or less removes none.
        p = sim_params(length_km=0.0, dark_count_prob=0.05, dead_time_s=dead_time_s)
        per_pair = simulate_session(p, SimConfig(seed=3, rounds=100_000))
        streaming = simulate_session(p, SimConfig(seed=3, rounds=100_000, mode="streaming"))
        assert streaming == per_pair
        # Clicks are dense enough here that two ticks do remove some.
        two_ticks = sim_params(length_km=0.0, dark_count_prob=0.05, dead_time_s=2e-9)
        assert simulate_session(two_ticks, SimConfig(seed=3, rounds=100_000,
                                                     mode="streaming")).n_z < per_pair.n_z


class TestRareDecoyTallies:
    """Exact-tail companion to tests/test_acceptance.py::test_oracle_equivalence.

    n_aa_m1, n_vac_m0 and n_vac_m1 expect about 0.18 counts per 1e7 rounds,
    where one count over expectation is a normal z of 1.9 and two are 4.3, so
    a z-score judges a re-streamed sampler by chance.  Here each tally is held
    to its exact binomial law given the emissions (Poisson in this limit): the
    count must lie inside both one-sided tails of probability ALPHA, the
    one-sided tail of a normal 3 sigma.
    """

    ALPHA = 1.35e-3

    @pytest.mark.parametrize("km", [20.0, 80.0, 100.0])
    def test_counts_inside_exact_tails(self, km):
        p = make_params(length_km=km)
        gains = analytic_gains(p)
        record = simulate_session(p, SimConfig(seed=1, rounds=10_000_000))
        for click in ("n_aa_m1", "n_vac_m0", "n_vac_m1"):
            sent, gain = CLICK_FIELDS[click]
            n, g, k = getattr(record, sent), getattr(gains, gain), getattr(record, click)
            assert 0.1 < n * g < 0.3, (click, n * g)  # the regime the z-score misjudges
            at_least, at_most = stats.binom.sf(k - 1, n, g), stats.binom.cdf(k, n, g)
            assert min(at_least, at_most) >= self.ALPHA, (
                f"{click} = {k} at {km} km against an expected {n * g:.3f}: "
                f"P(X >= k) = {at_least:.3g}, P(X <= k) = {at_most:.3g}")


def walk_session(p, rounds, dead, seed):
    """A session's walk under a dead time of dead ticks, as one batch."""
    return drawn(_walk(np.random.default_rng(seed), rounds, _Walk.build(p), dead))


class TestWalkBatches:
    def test_streaming_clicks_respect_dead_time(self):
        # The data line is one detector: both bins, half a period apart,
        # share its dead time.
        p = make_params(length_km=5.0, efficiency=0.2, dark_count_prob=1e-3, dead_time_s=1.01e-7)
        cfg = SimConfig(seed=43, rounds=300_000, mode="streaming")
        chunk = walk_session(p, cfg.rounds, _dead_ticks(p, cfg), seed=43)
        half_period = 0.5 / p.source.pulse_pair_rate
        ticks = {"data": [], "m0": [], "m1": []}
        for r, row in zip(chunk.rounds.tolist(), chunk.rows.tolist()):
            for gate, detector in enumerate(("data", "data", "m0", "m1")):
                if row & 17 << gate:
                    ticks[detector].append(2 * r + (gate == 1))
        # The gate clicks of a per_pair session of the same length, from its row counts.
        per_pair = _row_counts(p, cfg, np.random.default_rng(43))
        clicks = sum(((np.arange(1024) >> gate & 17) != 0) * per_pair for gate in range(4)).sum()
        assert sum(map(len, ticks.values())) < clicks / 2
        for detector, ts in ticks.items():
            assert len(ts) > 1, detector
            assert min(np.diff(ts)) * half_period >= p.detectors.dead_time_s * (1.0 - 1e-9), detector

    # Dead times of 2 and 3 ticks, and the 30 us of the eta = 0.2 profile
    # over more than 2^20 rounds.  At one tick streaming mode draws the
    # per_pair record, as TestSessionDraw checks.
    @pytest.mark.parametrize("dead, rounds, overrides", [
        (2, 200_000, dict(length_km=5.0, efficiency=0.2, dark_count_prob=1e-3)),
        (3, 200_000, dict(length_km=5.0, efficiency=0.2, dark_count_prob=1e-3)),
        (30_000, (1 << 20) + 100_000, dict(length_km=20.0, efficiency=0.2,
                                           p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)),
    ])
    def test_streaming_equals_greedy_dead_time(self, dead, rounds, overrides):
        # A per-click greedy filter on integer half-period ticks keeps every
        # click of the walk: the walk's clicks are its fixed point.
        chunk = walk_session(make_params(dead_time_s=dead * 1e-9, **overrides), rounds, dead, seed=47)
        for bits in (17 | 34, 68, 136):  # each detector clicks
            assert np.any(chunk.rows & bits), bits
        assert greedy_rows(chunk.rounds, chunk.rows, dead) == chunk.rows.tolist()

    # Dense clicks at 2 ticks, over several batches, and 30 us over more than 2^20 rounds.
    @pytest.mark.parametrize("dead_time_s, rounds", [(2e-9, 200_000), (30e-6, (1 << 20) + 100_000)])
    def test_batches_carry_the_records_tallies(self, dead_time_s, rounds):
        p = make_params(length_km=20.0, efficiency=0.2, dark_count_prob=1e-3,
                        dead_time_s=dead_time_s, p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        cfg = SimConfig(seed=61, rounds=rounds, mode="streaming")
        chunk = walk_session(p, rounds, _dead_ticks(p, cfg), seed=61)
        assert chunk.rows.size > 100
        record = simulate_session(p, cfg)
        assert tallies(chunk.rows, chunk.sent) == [getattr(record, field)
                                                   for field in (*_TALLY_ROWS, *_SENT_FIELDS)]

    # A 2-tick dead time and the 30 us of the eta = 0.2 profile, with first
    # rounds on both sides of 2^20.
    @pytest.mark.parametrize("dead", [2, 30_000])
    @pytest.mark.parametrize("n", [(1 << 20) - 5000, (1 << 20) + 5000])
    def test_streaming_events_in_the_first_rounds_ignore_the_round_count(self, dead, n):
        p = make_params(length_km=20.0, efficiency=0.2, dead_time_s=dead * 1e-9,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)

        def first(rounds):
            chunk = walk_session(p, rounds, dead, seed=67)
            keep = chunk.rounds < n
            return chunk.rounds[keep].tolist(), chunk.rows[keep].tolist()

        rounds, rows = first(n)
        assert len(rows) > 100
        assert first(n + 1) == first(3 << 20) == (rounds, rows)

    @pytest.mark.parametrize("dead", [2, 3, 30_000])
    def test_walk_rounds_strictly_increase(self, dead):
        p = make_params(length_km=0.0, dark_count_prob=0.05)
        rounds = 1 << 16
        chunk = walk_session(p, rounds, dead, seed=23)
        assert chunk.rows.size > 1
        assert np.all(np.diff(chunk.rounds) > 0)
        assert 0 <= chunk.rounds[0] and chunk.rounds[-1] < rounds

    # A monitoring port has one gate, at tick 2r, and after a click in round r
    # it is dead until round r + ceil(dead / 2).  Its rounds are independent,
    # so its clicks are a renewal process: each gap is that many dead rounds
    # plus a geometric count of live rounds without a click, whichever gates
    # of the other detectors are live.
    @pytest.mark.parametrize("length_km", [0.0, 20.0])
    @pytest.mark.parametrize("dead, rounds", [(2, 1 << 19), (3, 1 << 19), (30_000, 1 << 26)])
    def test_monitoring_click_gaps_are_dead_rounds_plus_geometric(self, length_km, dead, rounds):
        p = make_params(length_km=length_km, dark_count_prob=0.05,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        chunk = walk_session(p, rounds, dead, seed=71)
        src, fire = p.source, _event_probabilities(p)
        pi = np.array([src.p_z0, src.p_z1, src.p_decoy_alpha_alpha, src.p_decoy_vacuum])
        for gate in (2, 3):
            # A round's chance that the gate clicks, photon or dark, when it is live.
            q = float(pi @ (1.0 - (1.0 - fire[:, gate]) * (1.0 - fire[:, gate + 4])))
            clicks = chunk.rounds[chunk.rows & 17 << gate != 0]
            waits = np.append(clicks[0], np.diff(clicks) - (dead + 1) // 2)
            assert waits.size > 4000 and waits.min() >= 0, gate
            mean, sigma = (1.0 - q) / q, math.sqrt((1.0 - q) / q**2 / waits.size)
            assert abs(waits.mean() - mean) < 4.0 * sigma, (gate, waits.mean(), mean)
            # Waits of 0 to J - 1 rounds, and J or more, against the geometric law.
            j = int(math.log(20.0 / waits.size) / math.log(1.0 - q))
            expected = waits.size * np.append(q * (1.0 - q) ** np.arange(j), (1.0 - q) ** j)
            observed = np.bincount(np.minimum(waits, j), minlength=j + 1)
            assert stats.chisquare(observed, expected).pvalue > 1e-3, gate

    def test_a_walk_of_1e9_rounds_without_events(self):
        # No light and no darks: the walk makes one step and draws the emissions.
        p = sim_params(length_km=OPAQUE_KM, dark_count_prob=0.0)
        chunk = walk_session(p, 10**9, 50_000, seed=1)
        assert chunk.rows.size == 0
        assert chunk.sent.sum() == 10**9


class TestEmpiricalGains:
    def full_record(self):
        p = sim_params()
        return simulate_session(p, SimConfig(seed=29, rounds=1_000_000)), p

    def test_single_click_single_emission_class(self):
        r = CountRecord(rounds=1000, n_z=0, n_sent_alpha_alpha=0,
                        n_sent_vac=1000, n_aa_m0=0, n_aa_m1=0,
                        n_vac_m0=1, n_vac_m1=0)
        g = empirical_gains(r)
        assert g.mon_vac_m0 == pytest.approx(1e-3, rel=1e-12, abs=0.0)
        assert g.mon_vac_m1 == 0.0

    def test_a_class_never_sent_reads_none(self):
        r = CountRecord(rounds=1000, n_z=0, n_sent_alpha_alpha=0,
                        n_sent_vac=1000, n_aa_m0=0, n_aa_m1=0,
                        n_vac_m0=1, n_vac_m1=0)
        g = empirical_gains(r)
        assert g.mon_alpha_alpha_m0 is None and g.mon_alpha_alpha_m1 is None
        assert g.as_dict() == {"mon_vac_m0": 1e-3, "mon_vac_m1": 0.0}

    def test_a_replayed_record_resolves_only_the_decoy_gains(self, tmp_path):
        # A count log holds the eight wire keys: no bit-state tally or emissions.
        record, _ = self.full_record()
        path = tmp_path / "counts.txt"
        write_counts(record, path)
        full, g = empirical_gains(record), empirical_gains(replay_counts(path))
        decoy = ("mon_alpha_alpha_m0", "mon_alpha_alpha_m1", "mon_vac_m0", "mon_vac_m1")
        bit_state = [f.name for f in dataclasses.fields(GainSet) if f.name not in decoy]
        assert len(bit_state) == 8
        assert [name for name in bit_state if getattr(g, name) is not None] == []
        assert g.as_dict() == {name: getattr(full, name) for name in decoy}

    def test_full_simulated_record_resolves_every_field(self):
        record, p = self.full_record()
        gains = GainSet(**empirical_gains(record).as_dict())
        expected = analytic_gains(p)
        assert gains.data_0z_tau0 == pytest.approx(expected.data_0z_tau0, rel=0.1)

    def test_as_dict_skips_unresolved_fields_and_copies(self):
        g = GainSet(**dict.fromkeys((f.name for f in dataclasses.fields(GainSet)), None)
                    | {"mon_vac_m0": 0.5, "mon_vac_m1": 0.0})
        d = g.as_dict()
        assert d == {"mon_vac_m0": 0.5, "mon_vac_m1": 0.0}
        d["mon_vac_m0"] = 0.25
        assert g.as_dict() == {"mon_vac_m0": 0.5, "mon_vac_m1": 0.0}
        assert g.as_dict() is not g.as_dict()

    def test_as_dict_of_a_closed_form_set_holds_every_field(self):
        expected = analytic_gains(sim_params())
        assert expected.as_dict() == dataclasses.asdict(expected)


class TestCountFileRoundtrip:
    def small_record(self):
        return CountRecord(rounds=1_000_000, n_z=350_000, n_sent_alpha_alpha=150_000,
                           n_sent_vac=150_000, n_aa_m0=120, n_aa_m1=3,
                           n_vac_m0=2, n_vac_m1=1)

    def test_format_is_canonical(self):
        text = format_counts(self.small_record())
        assert text == (
            "rounds = 1000000\n"
            "n_z = 350000\n"
            "n_sent_aa = 150000\n"
            "n_sent_vac = 150000\n"
            "n_aa_m0 = 120\n"
            "n_aa_m1 = 3\n"
            "n_vac_m0 = 2\n"
            "n_vac_m1 = 1\n"
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "counts.txt"
        write_counts(self.small_record(), path)
        replayed = replay_counts(path)
        assert replayed == self.small_record()

    def test_simulated_record_roundtrips_core_fields(self, tmp_path):
        p = sim_params()
        record = simulate_session(p, SimConfig(seed=31, rounds=200_000))
        path = tmp_path / "counts.txt"
        write_counts(record, path)
        replayed = replay_counts(path)
        assert replayed.n_z == record.n_z
        assert replayed.n_aa_m0 == record.n_aa_m0
        assert replayed.n_0z_tau0 is None

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# session log\n\n" + format_counts(self.small_record()))
        assert replay_counts(path) == self.small_record()

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(format_counts(self.small_record()) + "n_bogus = 4\n")
        with pytest.raises(CountFileError, match=r"line 9: unknown key 'n_bogus'"):
            replay_counts(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(format_counts(self.small_record()) + "n_z = 350000\n")
        with pytest.raises(CountFileError, match="repeated key 'n_z'"):
            replay_counts(path)

    def test_non_integer_value_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(format_counts(self.small_record()).replace("= 3", "= 3.5"))
        with pytest.raises(CountFileError, match="not an integer"):
            replay_counts(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("rounds 1000\n")
        with pytest.raises(CountFileError, match="expected 'key = integer'"):
            replay_counts(path)

    def test_empty_file_lists_missing_keys(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("")
        with pytest.raises(CountFileError, match="missing keys: rounds"):
            replay_counts(path)

    def test_invariant_violations_surface(self, tmp_path):
        bad = dataclasses.replace(self.small_record(), n_aa_m0=150_001)
        path = tmp_path / "counts.txt"
        write_counts(bad, path)
        with pytest.raises(CountFileError, match="n_aa_m0"):
            replay_counts(path)


class TestWalk:
    @pytest.mark.parametrize("length_km", [0.0, 20.0])
    def test_mask_laws_are_marginals_of_the_joint_law(self, length_km):
        p = make_params(length_km=length_km, dark_count_prob=0.05,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        src = p.source
        pi = [src.p_z0, src.p_z1, src.p_decoy_alpha_alpha, src.p_decoy_vacuum]
        fire = _event_probabilities(p)
        law = [[pi[k] * math.prod(f if b >> j & 1 else 1.0 - f for j, f in enumerate(fire[k]))
                for b in range(256)] for k in range(4)]
        laws = _mask_laws(_joint_law(p))
        walk = _Walk.build(p)
        for mask in range(16):
            live = sum(17 << g for g in range(4) if mask >> g & 1)
            # Dead gates register nothing, and a d0 click leaves d1 dead.
            expected = np.zeros((4, 256))
            for k in range(4):
                for b in range(256):
                    kept = b & live
                    expected[k, kept & ~34 if kept & 17 else kept] += law[k][b]
            np.testing.assert_allclose(laws[mask], expected, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(walk.idle[mask], expected[:, 0] / expected[:, 0].sum(), rtol=1e-12)
            rate = 1.0 - expected[:, 0].sum()
            assert walk.scale[mask] == (pytest.approx(-1.0 / math.log1p(-rate), rel=1e-9)
                                        if mask else math.inf)
            # The rows kept for bisect find what a search of all 1,024 finds.
            cum = np.cumsum(np.where(np.arange(256) == 0, 0.0, expected)) / rate
            u = np.random.default_rng(mask).random(2000) if mask else []
            assert [walk.rows[mask][bisect.bisect(walk.cum[mask], x)] for x in u] == \
                np.searchsorted(cum, u, side="right").tolist()

    @pytest.mark.parametrize("dead", [2, 3, 4])
    def test_a_zero_exponential_still_advances_the_walk_one_round(self, dead):
        # Gaps of 0 put a click in every round where some gate is live, a gate
        # being live as the greedy filter over the kept clicks has it.
        class ZeroExponentials:
            def __init__(self):
                self.draws = np.random.default_rng(23)

            def standard_exponential(self, size):
                return np.zeros(size)

            def random(self, size):
                return self.draws.random(size)

            def multinomial(self, n, pvals):
                return self.draws.multinomial(n, pvals)

        p = eta20_params(**{"channel.length_km": 0.0, "detectors.dark_count_prob": 0.2})
        n = 5000
        batches = list(_walk(ZeroExponentials(), n, _Walk.build(p), dead))
        # The walk flushes its clicks every 4,096.
        assert len(batches) > 1
        assert all(b.rows.size == 4096 for b in batches[:-1])
        chunk = drawn(batches)
        assert greedy_rows(chunk.rounds, chunk.rows, dead) == chunk.rows.tolist()
        assert chunk.sent.sum() == n
        rows = dict(zip(chunk.rounds.tolist(), chunk.rows.tolist()))
        last = dict.fromkeys(("data", "m0", "m1"), -dead)  # each detector's last click tick
        d1_alone = 0  # d1 clicks in rounds where d0 is still dead
        for r in range(n):
            d0_live, d1_live = 2 * r - last["data"] >= dead, 2 * r + 1 - last["data"] >= dead
            live = d1_live or 2 * r - last["m0"] >= dead or 2 * r - last["m1"] >= dead
            assert (r in rows) == live, r
            row = rows.get(r, 0)
            d1_alone += d1_live and not d0_live and row & 34 != 0
            for gate, det in enumerate(("data", "data", "m0", "m1")):
                if row & 17 << gate:
                    last[det] = 2 * r + (gate == 1)
        assert d1_alone > 0

    def test_a_session_of_mostly_dead_gates_counts_every_emission(self):
        # 20% dark counts at 0 km: each gate clicks within a few rounds of
        # reviving, so 30 us (15,000 rounds) of dead time covers nearly every
        # round, whose emissions the walk draws from the dead gates' law.
        p = eta20_params(**{"channel.length_km": 0.0, "detectors.dark_count_prob": 0.2})
        n = 1 << 20
        chunk = drawn(_walk(np.random.default_rng(3), n, _Walk.build(p), 30_000))
        assert 0 < chunk.rows.size < n // 3000
        src = p.source
        pi = np.array([src.p_z0, src.p_z1, src.p_decoy_alpha_alpha, src.p_decoy_vacuum])
        assert chunk.sent.sum() == n
        assert stats.chisquare(chunk.sent, n * pi).pvalue > 1e-3


class TestCountLogKeysInErrors:
    def test_cap_violation_names_the_log_key(self, tmp_path):
        record = CountRecord(rounds=1_000_000, n_z=1000, n_sent_alpha_alpha=100,
                             n_sent_vac=100, n_aa_m0=101, n_aa_m1=0,
                             n_vac_m0=0, n_vac_m1=0)
        path = tmp_path / "counts.txt"
        write_counts(record, path)
        with pytest.raises(CountFileError, match=r"exceeds n_sent_aa \(n_sent_alpha_alpha\) = 100"):
            replay_counts(path)


class TestCountLogNamesEveryBadLine:
    LOG = format_counts(CountRecord(rounds=1_000_000, n_z=350_000, n_sent_alpha_alpha=150_000,
                                    n_sent_vac=150_000, n_aa_m0=120, n_aa_m1=3, n_vac_m0=2, n_vac_m1=1))

    def test_two_bad_lines_are_both_named(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(self.LOG
                        .replace("n_z = 350000", "n_z = many").replace("n_aa_m1 = 3", "n_aa_m1 3"))
        with pytest.raises(CountFileError) as exc:
            replay_counts(path)
        assert str(exc.value) == (
            f"{path}: line 2: n_z: not an integer: 'many'; "
            "line 6: expected 'key = integer', got 'n_aa_m1 3'; missing keys: n_z, n_aa_m1")

    # A count is ASCII -?[0-9]+; int() alone would also read 1_000_000, +10000 and other digits.
    @pytest.mark.parametrize("text", ["1_000_000", "+10000", "\u0661\u0660\u0660\u0660\u0660", "1e6"])
    def test_a_count_is_plain_ascii_digits(self, tmp_path, text):
        path = tmp_path / "counts.txt"
        path.write_text(self.LOG.replace("n_sent_vac = 150000", f"n_sent_vac = {text}"), encoding="utf-8")
        with pytest.raises(CountFileError) as exc:
            replay_counts(path)
        assert str(exc.value) == f"{path}: line 4: n_sent_vac: not an integer: {text!r}; missing keys: n_sent_vac"

    def test_a_negative_count_is_read_and_refused_by_its_value(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(self.LOG.replace("n_vac_m1 = 1", "n_vac_m1 = -1"))
        with pytest.raises(CountFileError, match="n_vac_m1 must be non-negative, got -1"):
            replay_counts(path)

    def test_analyze_exits_2_naming_both_lines(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(self.LOG + "n_bogus = 1\nn_z = 2\n")
        assert main(["analyze", "--counts", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 9: unknown key 'n_bogus'" in err and "line 10: repeated key 'n_z'" in err


class TestClosedFormsAreTheSimulatorsMarginals:
    """Each closed-form gain is its tally's share of its state's joint law."""

    GRID = list(itertools.product((0.0, 20.0, 100.0, 150.0), (1.8e-6, 0.05),
                                  (math.pi / 2, 0.3, 2.0), (0.1, 0.2)))

    @staticmethod
    def marginal_gains(p):
        s = p.source
        state = dict(zip(_SENT_FIELDS, (s.p_z0, s.p_z1, s.p_decoy_alpha_alpha, s.p_decoy_vacuum)))
        law = _joint_law(p).ravel()
        return {field: law[_TALLY_ROWS[click]].sum() / state[sent]
                for click, (sent, field) in CLICK_FIELDS.items()}

    @pytest.mark.parametrize("length_km, p_d, phase, efficiency", GRID)
    def test_eleven_gains_equal_their_tallies(self, length_km, p_d, phase, efficiency):
        p = make_params(length_km=length_km, dark_count_prob=p_d, phase_shift=phase,
                        efficiency=efficiency, p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        gains = analytic_gains(p)
        marginals = self.marginal_gains(p)
        del marginals["mon_alpha_alpha_m1"]
        for field, value in marginals.items():
            assert value == pytest.approx(getattr(gains, field), rel=1e-13, abs=0.0), field

    # The tally counts dark-only m1 clicks, exp(-b/2) at phase pi/2; the closed form suppresses with exp(-2b).
    @pytest.mark.parametrize("length_km, gap", [(0.0, 1.51e-2), (20.0, 5.99e-3), (100.0, 1.50e-4),
                                                (150.0, 1.50e-5)])
    def test_destructive_port_gap(self, length_km, gap):
        p = make_params(length_km=length_km, efficiency=0.2, phase_shift=math.pi / 2,
                        p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
        tally = self.marginal_gains(p)["mon_alpha_alpha_m1"]
        assert tally / analytic_gains(p).mon_alpha_alpha_m1 - 1.0 == pytest.approx(gap, rel=5e-3)


class TestDeadTimePastTheSession:
    def test_endless_dead_time_draws_as_one_second(self):
        p = make_params(length_km=0.0, dead_time_s=1.0)
        sim = SimConfig(seed=1, rounds=10_000, mode="streaming")
        endless = dataclasses.replace(p, detectors=dataclasses.replace(p.detectors, dead_time_s=1e300))
        assert simulate_session(endless, sim) == simulate_session(p, sim)

    def test_cli_simulates_an_endless_dead_time(self, capsys):
        argv = ["simulate", "--mode", "streaming", "--set", "detectors.dead_time_s=1e300",
                "--rounds", "1000"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("rounds = 1000\n")


class TestDrawStreams:
    """_walk's two streams share one generator, so the record depends on when each
    stream draws its next batch: exactly when it first needs one."""

    SIZES = [256, 512, 1024, 2048, 4096, 8192, 8192]

    def test_batches_are_drawn_in_the_order_each_stream_first_needs_one(self):
        rng, by_hand = np.random.default_rng(29), np.random.default_rng(29)
        streams = {"exp": _draws(rng.standard_exponential), "uniform": _draws(rng.random)}
        hand_draw = {"exp": by_hand.standard_exponential, "uniform": by_hand.random}
        sizes = {name: iter(self.SIZES) for name in streams}
        left = {name: [] for name in streams}  # the batch drawn by hand, reversed for pop()
        taken = dict.fromkeys(streams, 0)
        got, expected = [], []
        # Uneven takes, so that the streams empty their batches at different times and
        # the exponential stream runs out of the seven batches long before the uniform one.
        takes = itertools.cycle([("exp", 700), ("uniform", 300), ("uniform", 450), ("exp", 1100)])
        while min(taken.values()) < sum(self.SIZES):
            name, want = next(takes)
            want = min(want, sum(self.SIZES) - taken[name])
            got += itertools.islice(streams[name], want)
            for _ in range(want):
                if not left[name]:
                    left[name] = hand_draw[name](next(sizes[name])).tolist()[::-1]
                expected.append(left[name].pop())
            taken[name] += want
        assert got == expected
        assert all(type(x) is float for x in got[:3])
        assert [next(sizes[name], None) for name in streams] == [None, None]
        # No stream drew ahead: both generators are at the same point.
        assert rng.random() == by_hand.random()


class TestTallyMatrix:
    """A session's 13 click tallies are one product of _TALLY_MATRIX with its row counts."""

    def test_rows_are_the_tally_masks_in_field_order(self):
        assert _TALLY_MATRIX.shape == (len(_TALLY_ROWS), _ROWS) == (13, 1024)
        assert _TALLY_MATRIX.dtype == np.bool_
        for row, mask in zip(_TALLY_MATRIX, _TALLY_ROWS.values(), strict=True):
            assert np.array_equal(row, mask)
        assert set(_TALLY_ROWS) <= {f.name for f in dataclasses.fields(CountRecord)}

    @staticmethod
    def counts_with_a_big_row(big_row):
        counts = np.random.default_rng(big_row).integers(0, 2**40, _ROWS, dtype=np.int64)
        counts[big_row] = 2**62 - 12_345  # with the rest, the total stays below 2**63
        return counts

    # z0 with a d0 photon click (n_z, n_0z_tau0), both-bins with an m0 click, vacuum with an m1 click.
    BIG_ROWS = [1, 2 * 256 + 4, 3 * 256 + 8]

    @pytest.mark.parametrize("big_row", BIG_ROWS)
    def test_product_is_the_masked_sums_exactly(self, big_row):
        counts = self.counts_with_a_big_row(big_row)
        product = np.dot(_TALLY_MATRIX, counts)
        assert product.dtype == np.int64
        assert product.tolist() == [sum(map(int, counts[rows])) for rows in _TALLY_ROWS.values()]
        assert max(product.tolist()) > 2**62

    @pytest.mark.parametrize("big_row", BIG_ROWS)
    def test_a_session_tallies_its_row_counts_exactly(self, monkeypatch, big_row):
        counts = self.counts_with_a_big_row(big_row)
        monkeypatch.setattr(cowqkd.simulator, "_row_counts", lambda params, cfg, rng: counts)
        record = simulate_session(sim_params(), SimConfig(seed=1, rounds=int(counts.sum())))
        assert [getattr(record, field) for field in _TALLY_ROWS] == [
            sum(map(int, counts[rows])) for rows in _TALLY_ROWS.values()]
