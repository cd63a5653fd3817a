import dataclasses
import math
import random

import pytest

from cowqkd import (
    DegenerateGainsError,
    GainSet,
    analytic_gains,
    channel_transmittance,
    qber,
)
from helpers import make_params

# Channel that attenuates everything to exactly zero (underflows to 0.0).
OPAQUE_KM = 20_000.0


def all_zero_gainset() -> GainSet:
    return GainSet(*([0.0] * 12))


class TestDataLineGains:
    def test_frozen_values_100km(self):
        g = analytic_gains(make_params())
        assert g.data_0z_tau0 == pytest.approx(0.00044989633573679316, rel=1e-12, abs=0.0)
        assert g.data_0z_tau1 == pytest.approx(1.7999935200058317e-06, rel=1e-12, abs=0.0)

    def test_small_intensity_has_no_cancellation(self):
        # a = t_b mu eta = 1e-9, where 1 - exp(-a) keeps only about 7 digits.
        p = make_params(length_km=0.0, efficiency=1e-9 / (0.9 * 0.5), dark_count_prob=0.0)
        a = p.receiver.t_b * p.source.mu * channel_transmittance(p.channel, p.detectors)
        b = (1.0 - p.receiver.t_b) * p.source.mu * p.detectors.efficiency
        g = analytic_gains(p)
        assert g.data_0z_tau0 == pytest.approx(a * (1.0 - a / 2.0), rel=1e-12, abs=0.0)
        signal = b / 2.0 * (1.0 - b / 4.0) * math.exp(-a)
        assert g.mon_0z_m0 == pytest.approx(signal, rel=1e-12, abs=0.0)

    def test_symmetry_between_bit_values(self):
        rng = random.Random(3)
        for _ in range(10):
            g = analytic_gains(make_params(
                length_km=rng.uniform(0.0, 250.0),
                dark_count_prob=rng.uniform(0.0, 1e-3),
                mu=rng.uniform(0.05, 0.95),
            ))
            assert g.data_0z_tau0 == g.data_1z_tau1
            assert g.data_0z_tau1 == g.data_1z_tau0
            assert g.mon_0z_m0 == g.mon_1z_m0
            assert g.mon_0z_m1 == g.mon_1z_m1

    def test_wrong_bin_is_pure_dark_count(self):
        p = make_params()
        wrong = analytic_gains(p).data_0z_tau1
        p_d = p.detectors.dark_count_prob
        assert wrong == pytest.approx(p_d * (1.0 - p_d) ** 2, rel=1e-12, abs=0.0)

    def test_no_darks_no_wrong_clicks(self):
        g = analytic_gains(make_params(dark_count_prob=0.0))
        assert g.data_0z_tau1 == 0.0
        assert g.data_1z_tau0 == 0.0
        assert g.mon_alpha_alpha_m1 == 0.0
        assert g.mon_vac_m0 == 0.0
        assert g.mon_vac_m1 == 0.0
        assert g.data_0z_tau0 > 0.0

    def test_opaque_channel_right_bin_vanishes(self):
        p = make_params(length_km=OPAQUE_KM)
        g = analytic_gains(p)
        right, wrong = g.data_0z_tau0, g.data_0z_tau1
        p_d = p.detectors.dark_count_prob
        assert right == 0.0
        assert wrong == pytest.approx(p_d * (1.0 - p_d) ** 2, rel=1e-12, abs=0.0)


class TestQber:
    def test_no_darks_gives_zero(self):
        assert qber(analytic_gains(make_params(dark_count_prob=0.0))) == 0.0

    def test_frozen_value_100km(self):
        assert qber(analytic_gains(make_params())) == pytest.approx(
            0.0039849637985047625, rel=1e-12, abs=0.0)

    def test_dark_only_limit_is_one(self):
        # The correct-bin gain counts only photon-driven clicks, so once the
        # channel is opaque the estimator saturates at 1 rather than the
        # symmetric random-click value 1/2.
        assert qber(analytic_gains(make_params(length_km=OPAQUE_KM))) == 1.0

    def test_scale_invariance(self):
        g = analytic_gains(make_params())
        scaled = dataclasses.replace(
            g,
            data_0z_tau0=3.0 * g.data_0z_tau0,
            data_0z_tau1=3.0 * g.data_0z_tau1,
            data_1z_tau0=3.0 * g.data_1z_tau0,
            data_1z_tau1=3.0 * g.data_1z_tau1,
        )
        assert qber(scaled) == pytest.approx(qber(g), rel=1e-12, abs=0.0)

    def test_monotone_in_length(self):
        values = [qber(analytic_gains(make_params(length_km=l)))
                  for l in (50.0, 100.0, 150.0, 200.0)]
        assert values == sorted(values)
        assert all(0.0 < v < 1.0 for v in values)

    def test_crossing_region_near_156km(self):
        assert qber(analytic_gains(make_params(length_km=155.0))) < 0.05
        assert qber(analytic_gains(make_params(length_km=157.0))) > 0.05

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGainsError):
            qber(all_zero_gainset())


class TestMonitoringGains:
    def test_frozen_values_100km(self):
        g = analytic_gains(make_params())
        assert g.mon_alpha_alpha_m0 == pytest.approx(2.6787440724413296e-05, rel=1e-12, abs=0.0)
        assert g.mon_alpha_alpha_m1 == pytest.approx(1.7990005575621108e-06, rel=1e-12, abs=0.0)
        assert g.mon_vac_m0 == pytest.approx(1.7999902800174957e-06, rel=1e-12, abs=0.0)
        assert g.mon_vac_m0 == g.mon_vac_m1
        assert g.mon_0z_m0 == pytest.approx(2.6787440724413296e-05, rel=1e-12, abs=0.0)

    def test_bright_port_matches_interference_formula(self):
        p = make_params(phase_shift=math.pi / 2)
        eta_mon = channel_transmittance(p.channel, p.detectors, monitoring=True)
        b = (1.0 - p.receiver.t_b) * p.source.mu * eta_mon
        eta_data = channel_transmittance(p.channel, p.detectors)
        a = p.receiver.t_b * p.source.mu * eta_data
        q = 1.0 - p.detectors.dark_count_prob
        expected = q ** 3 * (1.0 - q * math.exp(-b / 2.0)) * math.exp(-a)
        assert analytic_gains(p).mon_alpha_alpha_m0 == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_phase_zero_puts_all_light_on_m0(self):
        aligned = analytic_gains(make_params(phase_shift=0.0)).mon_alpha_alpha_m0
        quadrature = analytic_gains(make_params(phase_shift=math.pi / 2)).mon_alpha_alpha_m0
        assert aligned > quadrature

    def test_phase_pi_leaves_only_darks_on_m0(self):
        p = make_params(phase_shift=math.pi)
        q = 1.0 - p.detectors.dark_count_prob
        eta_data = channel_transmittance(p.channel, p.detectors)
        a = p.receiver.t_b * p.source.mu * eta_data
        expected = q ** 3 * p.detectors.dark_count_prob * math.exp(-a)
        assert analytic_gains(p).mon_alpha_alpha_m0 == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_m1_model_variants(self):
        p = make_params()
        switch = analytic_gains(p, m1_model="optical_switch").mon_alpha_alpha_m1
        fifty = analytic_gains(p, m1_model="fifty_fifty").mon_alpha_alpha_m1
        assert switch == pytest.approx(1.7990005575621108e-06, rel=1e-12, abs=0.0)
        assert fifty == pytest.approx(1.7990905098387768e-06, rel=1e-12, abs=0.0)
        assert fifty > switch

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            analytic_gains(make_params(), m1_model="bogus")

    def test_vacuum_gain_is_dark_floor(self):
        p = make_params()
        p_d = p.detectors.dark_count_prob
        assert analytic_gains(p).mon_vac_m0 == pytest.approx(p_d * (1.0 - p_d) ** 3, rel=1e-12, abs=0.0)

    def test_vacuum_gain_independent_of_length(self):
        near = analytic_gains(make_params(length_km=10.0)).mon_vac_m0
        far = analytic_gains(make_params(length_km=200.0)).mon_vac_m0
        assert near == far

    def test_signal_monitoring_gains_equal_across_bits_and_ports(self):
        g = analytic_gains(make_params())
        gains = (g.mon_0z_m0, g.mon_0z_m1, g.mon_1z_m0, g.mon_1z_m1)
        assert len(set(gains)) == 1
        assert gains[0] == pytest.approx(2.6787440724413296e-05, rel=1e-12, abs=0.0)

    def test_signal_monitoring_vanishes_without_light_or_darks(self):
        g = analytic_gains(make_params(length_km=OPAQUE_KM, dark_count_prob=0.0))
        gains = (g.mon_0z_m0, g.mon_0z_m1, g.mon_1z_m0, g.mon_1z_m1)
        assert gains == (0.0, 0.0, 0.0, 0.0)


class TestGainSetProperties:
    def test_all_fields_are_probabilities(self):
        rng = random.Random(29)
        for _ in range(20):
            g = analytic_gains(make_params(
                length_km=rng.uniform(0.0, 300.0),
                dark_count_prob=rng.uniform(0.0, 0.01),
                mu=rng.uniform(0.05, 0.95),
                efficiency=rng.uniform(0.05, 1.0),
            ))
            for field in dataclasses.fields(g):
                value = getattr(g, field.name)
                assert 0.0 <= value <= 1.0, field.name

    def test_length_monotonicity_by_mechanism(self):
        # Photon-driven gains fall with distance; pure dark-count gains stay
        # flat; the suppressed interference port climbs toward the dark floor
        # as the residual light that vetoes it fades.
        rng = random.Random(31)
        photon_driven = ("data_0z_tau0", "data_1z_tau1", "mon_alpha_alpha_m0",
                         "mon_0z_m0", "mon_0z_m1", "mon_1z_m0", "mon_1z_m1")
        dark_flat = ("data_0z_tau1", "data_1z_tau0", "mon_vac_m0", "mon_vac_m1")
        for _ in range(10):
            l1 = rng.uniform(0.0, 150.0)
            l2 = l1 + rng.uniform(5.0, 100.0)
            g_near = analytic_gains(make_params(length_km=l1))
            g_far = analytic_gains(make_params(length_km=l2))
            for name in photon_driven:
                assert getattr(g_far, name) <= getattr(g_near, name), name
            for name in dark_flat:
                assert getattr(g_far, name) == getattr(g_near, name), name
            assert g_far.mon_alpha_alpha_m1 >= g_near.mon_alpha_alpha_m1

    def test_analytic_gains_uses_m1_model(self):
        p = make_params()
        default = analytic_gains(p)
        fifty = analytic_gains(p, m1_model="fifty_fifty")
        assert fifty.mon_alpha_alpha_m1 > default.mon_alpha_alpha_m1
        assert fifty.data_0z_tau0 == default.data_0z_tau0
