import dataclasses
import math
import random

import numpy as np
import pytest

from cowqkd import (
    AnalysisConfig,
    BoundedValue,
    CountRecord,
    DegenerateGainsError,
    KeyRateResult,
    SecurityParams,
    analytic_gains,
    binary_entropy,
    bound_expected_count,
    bound_gain,
    evaluate_analytic_point,
    evaluate_record,
    expected_sifted_clicks,
    phase_error_expected_upper,
    phase_error_observed_upper,
    qber,
    secure_key_length,
    xbasis_gain_lower_m0,
    xbasis_gain_upper_m1,
)
from cowqkd.concentration import CLICK_FIELDS, validate_record
from cowqkd.finite_key import _xbasis_norms
from helpers import EVERY_ANALYSIS, analysis_id, make_params

MU = 0.5


def exact(value: float, eps: float = 0.05) -> BoundedValue:
    """Zero-width bound pinning a gain at its exact value."""
    return BoundedValue(observed=value, lower=value, upper=value, failure_prob=eps)


def keyrate_profile(**overrides):
    defaults = dict(efficiency=0.2, dead_time_s=30e-6,
                    p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
    defaults.update(overrides)
    return make_params(**defaults)


class TestXBasisNorms:
    def test_frozen_values(self):
        n_plus, n_minus = _xbasis_norms(MU)
        assert n_plus == pytest.approx(3.213061319425267, rel=1e-14, abs=0.0)
        assert n_minus == pytest.approx(0.7869386805747332, rel=1e-14, abs=0.0)

    def test_sum_is_four(self):
        rng = random.Random(5)
        for _ in range(20):
            n_plus, n_minus = _xbasis_norms(rng.uniform(0.01, 2.0))
            assert n_plus + n_minus == pytest.approx(4.0, rel=1e-14, abs=0.0)
            assert 2.0 < n_plus < 4.0
            assert 0.0 < n_minus < 2.0


class TestXBasisGainUpper:
    def test_zero_gains_leave_constant_remainder(self):
        value = xbasis_gain_upper_m1(exact(0.0), exact(0.0), MU)
        n_plus, n_minus = _xbasis_norms(MU)
        expected = (n_minus / n_plus) * math.exp(MU) * n_minus / 4.0
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert value == pytest.approx(0.07944197294635495, rel=1e-12, abs=0.0)

    def test_zero_gains_without_remainder(self):
        assert xbasis_gain_upper_m1(exact(0.0), exact(0.0), MU,
                                    include_remainder=False) == 0.0

    def test_quadratic_form_small_mu(self):
        g_aa, g_vac = 4e-6, 1e-6
        value = xbasis_gain_upper_m1(exact(g_aa), exact(g_vac), 1e-12,
                                     include_remainder=False)
        expected = (math.sqrt(g_aa) + math.sqrt(g_vac)) ** 2 / 4.0
        assert value == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_destructive_gain(self):
        lo = xbasis_gain_upper_m1(exact(1e-6), exact(1e-6), MU, include_remainder=False)
        hi = xbasis_gain_upper_m1(exact(4e-6), exact(1e-6), MU, include_remainder=False)
        assert hi > lo

    def test_clamped_to_one(self):
        assert xbasis_gain_upper_m1(exact(1.0), exact(1.0), MU) == 1.0

    def test_requires_upper_side(self):
        lower_only = BoundedValue(observed=1e-6, lower=0.0, upper=None, failure_prob=0.1)
        with pytest.raises(ValueError):
            xbasis_gain_upper_m1(lower_only, exact(0.0), MU)


class TestXBasisGainLower:
    def test_all_zero(self):
        assert xbasis_gain_lower_m0(exact(0.0), exact(0.0), MU) == 0.0

    def test_negative_clamps_to_zero(self):
        tiny = BoundedValue(observed=1e-9, lower=0.0, upper=1e-3, failure_prob=0.1)
        assert xbasis_gain_lower_m0(tiny, tiny, MU) == 0.0

    def test_exact_gains_quadratic_form(self):
        g_aa, g_vac = 2e-3, 1.8e-6
        value = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), MU,
                                     include_remainder=False)
        n_plus, _ = _xbasis_norms(MU)
        cross = 2.0 * math.sqrt(g_aa * g_vac)
        expected = (math.exp(MU) * g_aa + math.exp(-MU) * g_vac - cross) / n_plus
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_cross_term_modes_differ(self):
        g_aa, g_vac = 2e-3, 1.8e-6
        mixed = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), MU,
                                     cross_term="mixed", include_remainder=False)
        vacuum = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), MU,
                                      cross_term="vacuum", include_remainder=False)
        # The mixed cross term is larger whenever g_aa > g_vac, so it yields
        # the more conservative (smaller) lower bound.
        assert mixed < vacuum

    def test_remainder_only_loosens(self):
        g_aa, g_vac = 2e-3, 1.8e-6
        kept = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), MU, include_remainder=True)
        dropped = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), MU, include_remainder=False)
        assert kept <= dropped

    def test_unknown_cross_term(self):
        with pytest.raises(ValueError):
            xbasis_gain_lower_m0(exact(0.0), exact(0.0), MU, cross_term="bogus")


class TestPhaseErrorExpected:
    def test_equal_bounds_give_half(self):
        gains = analytic_gains(make_params())
        assert phase_error_expected_upper(gains, 0.3, 0.3, MU) == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_monotone_in_upper_bound(self):
        gains = analytic_gains(make_params())
        low = phase_error_expected_upper(gains, 1e-5, 0.0, MU)
        high = phase_error_expected_upper(gains, 2e-5, 0.0, MU)
        assert 0.0 < low < high < 1.0

    def test_clamped_to_unit_interval(self):
        gains = analytic_gains(make_params())
        assert phase_error_expected_upper(gains, 1.0, 0.0, MU) == 1.0

    def test_degenerate_monitoring_gains(self):
        gains = analytic_gains(make_params(length_km=20_000.0, dark_count_prob=0.0))
        with pytest.raises(DegenerateGainsError):
            phase_error_expected_upper(gains, 0.1, 0.0, MU)


class TestPhaseErrorObserved:
    def test_frozen_statistical_floor(self):
        assert phase_error_observed_upper(0.0, 14_811, 500_000_000, 1e-11) == \
            pytest.approx(0.029241321659747785, rel=1e-12, abs=0.0)

    def test_loose_eps_recovers_expected_value(self):
        assert phase_error_observed_upper(0.3, 1_000_000, 500_000_000, 1.0 - 1e-12) == \
            pytest.approx(0.3, abs=1e-6)

    def test_allowance_shrinks_with_clicks(self):
        small = phase_error_observed_upper(0.1, 10_000, 10**9, 1e-11)
        large = phase_error_observed_upper(0.1, 10_000_000, 10**9, 1e-11)
        assert small > large > 0.1

    def test_capped_at_one(self):
        assert phase_error_observed_upper(0.99, 100, 10**6, 1e-11) == 1.0

    def test_zero_clicks_rejected(self):
        with pytest.raises(ZeroDivisionError):
            phase_error_observed_upper(0.1, 0, 10**6, 1e-11)

    def test_more_clicks_than_rounds_rejected(self):
        with pytest.raises(ValueError):
            phase_error_observed_upper(0.1, 200, 100, 1e-11)

    def test_clicks_may_equal_rounds(self):
        assert phase_error_observed_upper(0.1, 200, 200, 1e-11) == \
            phase_error_observed_upper(0.1, 200, 201, 1e-11)


class TestSecureKeyLength:
    SEC = SecurityParams()

    def test_frozen_overhead_constants(self):
        r = secure_key_length(100_000.0, 0.1, 0.01, self.SEC)
        assert r.correctness_term_bits == pytest.approx(50.82892142331043, rel=1e-12, abs=0.0)
        assert r.secrecy_term_bits == pytest.approx(71.08241808752197, rel=1e-12, abs=0.0)

    def test_term_accounting_identity(self):
        n_z, ep, e_z = 100_000.0, 0.08, 0.01
        r = secure_key_length(n_z, ep, e_z, self.SEC)
        assert not r.aborted
        expected = (n_z * (1.0 - binary_entropy(ep)) - r.leak_ec_bits
                    - r.correctness_term_bits - r.secrecy_term_bits)
        assert r.key_length_bits == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert r.leak_ec_bits == pytest.approx(
            self.SEC.f_ec * n_z * binary_entropy(e_z), rel=1e-12, abs=0.0)

    def test_qber_abort(self):
        r = secure_key_length(100_000.0, 0.1, 0.06, self.SEC)
        assert r.aborted and "qber" in r.abort_reason
        assert r.key_length_bits == 0.0

    def test_phase_error_abort(self):
        r = secure_key_length(100_000.0, 0.5, 0.01, self.SEC)
        assert r.aborted and "phase error" in r.abort_reason

    def test_qber_abort_takes_precedence(self):
        r = secure_key_length(100_000.0, 0.7, 0.2, self.SEC)
        assert "qber" in r.abort_reason

    def test_no_positive_key_abort(self):
        r = secure_key_length(50.0, 0.45, 0.01, self.SEC)
        assert r.aborted and r.abort_reason == "no positive key length"

    def test_abort_flag_consistency(self):
        rng = random.Random(23)
        for _ in range(50):
            r = secure_key_length(
                rng.uniform(1.0, 1e6),
                rng.uniform(0.0, 1.0),
                rng.uniform(0.0, 0.2),
                self.SEC,
            )
            assert r.aborted == (r.abort_reason is not None)
            assert r.aborted == (r.key_length_bits == 0.0)
            assert r.phase_error_observed_upper <= 0.5

    def test_monotone_in_phase_error(self):
        rng = random.Random(41)
        for _ in range(30):
            ep1 = rng.uniform(0.0, 0.45)
            ep2 = rng.uniform(ep1, 0.49)
            k1 = secure_key_length(1e6, ep1, 0.01, self.SEC).key_length_bits
            k2 = secure_key_length(1e6, ep2, 0.01, self.SEC).key_length_bits
            assert k2 <= k1

    def test_monotone_in_qber(self):
        rng = random.Random(43)
        for _ in range(30):
            e1 = rng.uniform(0.0, 0.04)
            e2 = rng.uniform(e1, 0.049)
            k1 = secure_key_length(1e6, 0.1, e1, self.SEC).key_length_bits
            k2 = secure_key_length(1e6, 0.1, e2, self.SEC).key_length_bits
            assert k2 <= k1

    def test_missing_expected_bound_reads_nan(self):
        # Without ep_expected_upper the expected bound is never computed, so
        # it must not read as the 0.5 abort cap; a given one is still capped.
        r = secure_key_length(1e5, 0.1, 0.01, self.SEC)
        assert math.isnan(r.phase_error_expected_upper)
        assert r.phase_error_observed_upper == 0.1 and not r.aborted
        capped = secure_key_length(1e5, 0.1, 0.01, self.SEC, ep_expected_upper=0.7)
        assert capped.phase_error_expected_upper == 0.5

    def test_missing_expected_bound_reads_nan_per_point(self):
        r = secure_key_length(np.array([1e5, 2e5]), 0.1, 0.01, self.SEC)
        assert np.isnan(r.phase_error_expected_upper).all()
        np.testing.assert_array_equal(r.phase_error_observed_upper, [0.1, 0.1])
        capped = secure_key_length(np.array([1e5, 2e5]), 0.1, 0.01, self.SEC,
                                   ep_expected_upper=np.array([0.3, 0.7]))
        np.testing.assert_array_equal(capped.phase_error_expected_upper, [0.3, 0.5])

    def test_grid_point_without_sifted_clicks_aborts(self):
        n_z = np.array([1e5, 0.0, 2e5])
        r = secure_key_length(n_z, np.array([0.1, 0.2, 0.1]), 0.01, self.SEC)
        assert r.aborted.tolist() == [False, True, False]
        assert r.abort_reason[1] == "no sifted detections"
        assert r.phase_error_observed_upper[1] == 0.5
        assert r.key_length_bits[1] == 0.0
        for i in (0, 2):
            point = secure_key_length(n_z[i], 0.1, 0.01, self.SEC)
            assert r.abort_reason[i] is None and not point.aborted
            assert r.phase_error_observed_upper[i] == point.phase_error_observed_upper
            assert r.key_length_bits[i] == point.key_length_bits

    def test_looser_security_never_hurts(self):
        tight = secure_key_length(1e5, 0.1, 0.01, SecurityParams())
        loose = secure_key_length(
            1e5, 0.1, 0.01, SecurityParams(eps_cor=1e-9, eps_sec=1e-6))
        assert loose.key_length_bits >= tight.key_length_bits


class TestSiftedClickModel:
    def test_frozen_default_detector(self):
        assert expected_sifted_clicks(make_params()) == \
            pytest.approx(18348.565066365823, rel=1e-12, abs=0.0)

    def test_frozen_upgraded_detector(self):
        p = make_params(efficiency=0.2, dead_time_s=30e-6)
        assert expected_sifted_clicks(p) == pytest.approx(30998.562818478036, rel=1e-12, abs=0.0)

    def test_no_dead_time_is_linear(self):
        p = make_params(dead_time_s=0.0)
        one = expected_sifted_clicks(p, 1.0)
        two = expected_sifted_clicks(p, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12, abs=0.0)

    def test_dead_time_saturation_ceiling(self):
        p = make_params(length_km=0.0, efficiency=1.0, dead_time_s=1e-3)
        clicks = expected_sifted_clicks(p, 1.0)
        assert clicks < 1.0 / 1e-3
        assert clicks == pytest.approx(1.0 / 1e-3, rel=1e-2)

    def test_dead_time_only_reduces(self):
        free = expected_sifted_clicks(make_params(dead_time_s=0.0))
        gated = expected_sifted_clicks(make_params(dead_time_s=50e-6))
        assert gated < free

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            expected_sifted_clicks(make_params(), 0.0)

    def test_small_intensity_has_no_cancellation(self):
        # a = t_b mu eta = 1e-9, where 1 - exp(-a) keeps only about 7 digits.
        p = make_params(length_km=0.0, efficiency=1e-9 / (0.9 * 0.5), dark_count_prob=0.0,
                        dead_time_s=0.0)
        a = p.receiver.t_b * p.source.mu * p.detectors.efficiency
        p_signal = 1.0 - p.source.p_decoy_alpha_alpha - p.source.p_decoy_vacuum
        expected = p.source.pulse_pair_rate * p_signal * a * (1.0 - a / 2.0)
        assert expected_sifted_clicks(p) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestEvaluateAnalyticPoint:
    def test_frozen_60km_fixture(self):
        r = evaluate_analytic_point(keyrate_profile(length_km=60.0))
        assert not r.aborted
        assert r.qber == pytest.approx(0.0003177790468450279, rel=1e-9)
        assert r.phase_error_expected_upper == pytest.approx(0.33327807824900496, rel=1e-9)
        assert r.phase_error_observed_upper == pytest.approx(0.3529283990628322, rel=1e-9)
        assert r.key_length_bits == pytest.approx(1805.8470492066015, rel=1e-9)

    def test_key_falls_with_distance(self):
        keys = [evaluate_analytic_point(keyrate_profile(length_km=l)).key_length_bits
                for l in (20.0, 40.0, 60.0, 80.0)]
        assert all(k > 0 for k in keys)
        assert keys == sorted(keys, reverse=True)

    def test_phase_error_grows_with_distance(self):
        eps = [evaluate_analytic_point(keyrate_profile(length_km=l)).phase_error_expected_upper
               for l in (20.0, 40.0, 60.0, 80.0)]
        assert eps == sorted(eps)

    def test_aborts_beyond_cutoff(self):
        r = evaluate_analytic_point(keyrate_profile(length_km=120.0))
        assert r.aborted
        assert r.key_length_bits == 0.0

    def test_small_decoy_budget_aborts_at_long_distance(self):
        r = evaluate_analytic_point(make_params())
        assert r.aborted

    def test_zero_decoy_probability_rejected(self):
        with pytest.raises(ValueError):
            evaluate_analytic_point(make_params(p_decoy_vacuum=0.0))

    def test_grid_point_without_decoy_emissions_names_its_field(self):
        # Built without validate, which would reject the zero probability first.
        p = make_params(p_decoy_vacuum=np.array([0.01, 0.0]))
        with pytest.raises(ValueError, match="n_sent_vac"):
            evaluate_analytic_point(p)

    def test_default_analysis_matches_explicit(self):
        p = keyrate_profile(length_km=60.0)
        assert evaluate_analytic_point(p) == evaluate_analytic_point(p, AnalysisConfig())


class TestEvaluateRecord:
    @staticmethod
    def modeled_record(params, rounds=500_000_000) -> CountRecord:
        gains = analytic_gains(params)
        src = params.source
        n_aa = round(rounds * src.p_decoy_alpha_alpha)
        n_vac = round(rounds * src.p_decoy_vacuum)
        n_signal = rounds - n_aa - n_vac
        duration = rounds / src.pulse_pair_rate
        return CountRecord(
            rounds=rounds,
            n_z=round(expected_sifted_clicks(params, duration)),
            n_sent_alpha_alpha=n_aa,
            n_sent_vac=n_vac,
            n_aa_m0=round(n_aa * gains.mon_alpha_alpha_m0),
            n_aa_m1=round(n_aa * gains.mon_alpha_alpha_m1),
            n_vac_m0=round(n_vac * gains.mon_vac_m0),
            n_vac_m1=round(n_vac * gains.mon_vac_m1),
        )

    def test_modeled_counts_track_analytic_result(self):
        p = keyrate_profile(length_km=40.0)
        analytic = evaluate_analytic_point(p)
        from_record = evaluate_record(self.modeled_record(p), p)
        assert not from_record.aborted
        assert from_record.phase_error_expected_upper == pytest.approx(
            analytic.phase_error_expected_upper, rel=0.05)

    def test_empirical_qber_used_when_bins_present(self):
        p = keyrate_profile(length_km=40.0)
        base = self.modeled_record(p)
        import dataclasses
        noisy = dataclasses.replace(
            base, n_0z_tau0=45_000, n_0z_tau1=5_000, n_1z_tau0=5_000, n_1z_tau1=45_000)
        r = evaluate_record(noisy, p)
        assert r.qber == pytest.approx(0.1, rel=1e-12, abs=0.0)
        assert r.aborted and "qber" in r.abort_reason

    def test_analytic_qber_fallback(self):
        p = keyrate_profile(length_km=40.0)
        r = evaluate_record(self.modeled_record(p), p)
        assert r.qber == pytest.approx(qber(analytic_gains(p)), rel=1e-12, abs=0.0)

    def test_analytic_qber_when_every_bin_is_empty(self):
        p = keyrate_profile(length_km=40.0)
        empty = dataclasses.replace(self.modeled_record(p), n_0z_tau0=0, n_0z_tau1=0,
                                    n_1z_tau0=0, n_1z_tau1=0)
        assert evaluate_record(empty, p).qber == qber(analytic_gains(p))

    def test_no_decoy_emissions_rejected(self):
        p = keyrate_profile(length_km=40.0)
        record = CountRecord(rounds=1000, n_z=10, n_sent_alpha_alpha=0,
                             n_sent_vac=0, n_aa_m0=0, n_aa_m1=0,
                             n_vac_m0=0, n_vac_m1=0)
        with pytest.raises(ValueError):
            evaluate_record(record, p)

    def test_missing_vacuum_emissions_name_their_field(self):
        p = keyrate_profile(length_km=40.0)
        record = CountRecord(rounds=1000, n_z=10, n_sent_alpha_alpha=100,
                             n_sent_vac=0, n_aa_m0=3, n_aa_m1=1,
                             n_vac_m0=0, n_vac_m1=0)
        with pytest.raises(ValueError, match="n_sent_vac"):
            evaluate_record(record, p)

    def test_numpy_integer_counts_match_int_counts(self):
        p = keyrate_profile(length_km=40.0)
        record = self.modeled_record(p)
        as_numpy = CountRecord(**{k: np.int64(v) for k, v in vars(record).items()
                                  if v is not None})
        assert validate_record(as_numpy) is as_numpy
        assert evaluate_record(as_numpy, p) == evaluate_record(record, p)

    def test_zero_sifted_clicks_abort(self):
        p = keyrate_profile(length_km=40.0)
        record = CountRecord(rounds=1000, n_z=0, n_sent_alpha_alpha=100,
                             n_sent_vac=100, n_aa_m0=1, n_aa_m1=0,
                             n_vac_m0=0, n_vac_m1=0)
        r = evaluate_record(record, p)
        assert r.aborted and r.abort_reason == "no sifted detections"
        assert r.key_length_bits == 0.0


def chained_by_hand(gains, counts, qber_value, n_z, rounds, params, analysis):
    """The pipeline after the gains, written as a chain of its public steps."""
    eps_1, mu = params.security.eps_1, params.source.mu
    include = analysis.remainder_terms == "include"

    def gain_bound(click, direction):
        emitted = counts[CLICK_FIELDS[click][0]]
        count = bound_expected_count(counts[click], emitted, eps_1, direction,
                                     provider=analysis.delta_provider)
        return bound_gain(count, emitted)

    xg_up = xbasis_gain_upper_m1(gain_bound("n_aa_m1", "upper"), gain_bound("n_vac_m1", "upper"),
                                 mu, include_remainder=include)
    xg_lo = xbasis_gain_lower_m0(gain_bound("n_aa_m0", "both"), gain_bound("n_vac_m0", "both"),
                                 mu, cross_term=analysis.cross_term, include_remainder=include)
    ep_star = phase_error_expected_upper(gains, xg_up, xg_lo, mu)
    # A point without sifted detections aborts; its phase error is bounded as if it had one.
    if isinstance(n_z, np.ndarray):
        sifted = np.where(n_z > 0, n_z, 1.0)
    else:
        sifted = n_z if n_z > 0 else 1.0
    ep_obs = phase_error_observed_upper(ep_star, sifted, rounds, params.security.eps_2)
    return secure_key_length(n_z, ep_obs, qber_value, params.security, ep_expected_upper=ep_star)


def assert_identical(result, expected):
    """Every field equal bit for bit, and of the same type."""
    for field in dataclasses.fields(KeyRateResult):
        got, want = getattr(result, field.name), getattr(expected, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            if want.dtype == object:
                assert got.tolist() == want.tolist(), field.name
            else:
                assert got.tobytes() == want.tobytes(), field.name
        elif isinstance(want, float):
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), field.name
        else:
            assert got == want, field.name


#: A scalar point and a 127-point grid from a positive key through every abort.
PIPELINE_LENGTHS = {"scalar": 60.0, "grid": np.linspace(0.0, 250.0, 127)}


class TestPipelineEqualsPublicSteps:
    """Both entry points equal their public steps chained by hand, exactly, so
    the private formulas of the flat pass and the public adapters cannot drift
    apart."""

    @pytest.mark.parametrize("analysis", EVERY_ANALYSIS, ids=analysis_id)
    @pytest.mark.parametrize("shape", sorted(PIPELINE_LENGTHS))
    def test_analytic_point(self, shape, analysis):
        p = keyrate_profile(length_km=PIPELINE_LENGTHS[shape])
        gains = analytic_gains(p, m1_model=analysis.m1_model)
        counts = {"n_sent_alpha_alpha": p.rounds * p.source.p_decoy_alpha_alpha,
                  "n_sent_vac": p.rounds * p.source.p_decoy_vacuum}
        for click in ("n_aa_m0", "n_aa_m1", "n_vac_m0", "n_vac_m1"):
            sent, gain = CLICK_FIELDS[click]
            counts[click] = counts[sent] * getattr(gains, gain)
        n_z = expected_sifted_clicks(p, p.block_duration_s())
        expected = chained_by_hand(gains, counts, qber(gains), n_z, p.rounds, p, analysis)
        result = evaluate_analytic_point(p, analysis)
        assert_identical(result, expected)
        if shape == "grid":  # the grid reaches more than one outcome
            assert len(set(result.abort_reason.tolist())) > 1

    @pytest.mark.parametrize("per_bin", [False, True], ids=["modelled_qber", "observed_qber"])
    @pytest.mark.parametrize("analysis", EVERY_ANALYSIS, ids=analysis_id)
    @pytest.mark.parametrize("shape", sorted(PIPELINE_LENGTHS))
    def test_record(self, shape, analysis, per_bin):
        record = TestEvaluateRecord.modeled_record(keyrate_profile(length_km=40.0), rounds=10**8)
        if per_bin:
            record = dataclasses.replace(record, n_0z_tau0=9_000, n_0z_tau1=30,
                                         n_1z_tau0=40, n_1z_tau1=9_100)
        p = keyrate_profile(length_km=PIPELINE_LENGTHS[shape], rounds=record.rounds)
        gains = analytic_gains(p, m1_model=analysis.m1_model)
        qber_value = 70 / 18_170 if per_bin else qber(gains)
        expected = chained_by_hand(gains, vars(record), qber_value, float(record.n_z),
                                   record.rounds, p, analysis)
        assert_identical(evaluate_record(record, p, analysis), expected)

    @pytest.mark.parametrize("analysis", EVERY_ANALYSIS, ids=analysis_id)
    def test_record_without_sifted_detections(self, analysis):
        record = CountRecord(rounds=1000, n_z=0, n_sent_alpha_alpha=100, n_sent_vac=100,
                             n_aa_m0=1, n_aa_m1=0, n_vac_m0=0, n_vac_m1=0)
        p = keyrate_profile(length_km=PIPELINE_LENGTHS["grid"], rounds=record.rounds)
        gains = analytic_gains(p, m1_model=analysis.m1_model)
        expected = chained_by_hand(gains, vars(record), qber(gains), 0.0, record.rounds, p,
                                   analysis)
        result = evaluate_record(record, p, analysis)
        assert_identical(result, expected)
        assert set(result.abort_reason.tolist()) == {"no sifted detections"}


def test_missing_both_bins_emissions_name_their_log_key():
    p = keyrate_profile(length_km=40.0)
    record = CountRecord(rounds=1000, n_z=10, n_sent_alpha_alpha=0,
                         n_sent_vac=100, n_aa_m0=0, n_aa_m1=0,
                         n_vac_m0=1, n_vac_m1=0)
    with pytest.raises(ValueError, match=r"n_sent_aa \(n_sent_alpha_alpha\)"):
        evaluate_record(record, p)
