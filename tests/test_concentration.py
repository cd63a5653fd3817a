import dataclasses
import math

import numpy as np
import pytest

from cowqkd import (
    BoundedValue,
    CountRecord,
    bound_expected_count,
    bound_gain,
    GainSet,
)
from cowqkd.concentration import (
    CLICK_FIELDS,
    DELTA_PROVIDERS,
    delta_hoeffding,
    delta_observed,
    validate_record,
)
from cowqkd.simulator import WIRE_KEYS


def record(**overrides) -> CountRecord:
    base = dict(
        rounds=1_000_000,
        n_z=400_000,
        n_sent_alpha_alpha=10_000,
        n_sent_vac=10_000,
        n_aa_m0=120,
        n_aa_m1=3,
        n_vac_m0=2,
        n_vac_m1=1,
    )
    base.update(overrides)
    return CountRecord(**base)


class TestValidateRecord:
    def test_valid_record_passes(self):
        r = record()
        assert validate_record(r) is r

    def test_replay_scale_example(self):
        r = record(rounds=500_000_000, n_z=14_811, n_sent_alpha_alpha=0,
                   n_sent_vac=0, n_aa_m0=0, n_aa_m1=0, n_vac_m0=0, n_vac_m1=0)
        assert validate_record(r) is r

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_z"):
            validate_record(record(n_z=-1))

    def test_float_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            validate_record(record(n_aa_m0=1.5))

    def test_bool_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            validate_record(record(n_vac_m1=True))

    def test_clicks_cannot_exceed_emissions(self):
        with pytest.raises(ValueError, match="n_aa_m0"):
            validate_record(record(n_aa_m0=10_001))

    def test_decoy_emissions_cannot_exceed_rounds(self):
        with pytest.raises(ValueError):
            validate_record(record(n_sent_alpha_alpha=600_000, n_sent_vac=600_000))

    def test_sifted_clicks_capped_by_signal_emissions(self):
        with pytest.raises(ValueError, match="n_z"):
            validate_record(record(n_z=990_000))

    def test_extended_fields_must_sum_to_rounds(self):
        with pytest.raises(ValueError, match="sum"):
            validate_record(record(n_sent_0z=100, n_sent_1z=100))

    def test_extended_fields_consistent(self):
        r = record(n_sent_0z=490_000, n_sent_1z=490_000,
                   n_0z_tau0=200_000, n_0z_tau1=10,
                   n_1z_tau0=12, n_1z_tau1=199_000,
                   n_0z_m0=50, n_0z_m1=1, n_1z_m0=49, n_1z_m1=2)
        assert validate_record(r) is r


class TestBoundedValue:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundedValue(observed=10.0, lower=11.0, upper=20.0, failure_prob=0.1)
        with pytest.raises(ValueError):
            BoundedValue(observed=10.0, lower=0.0, upper=9.0, failure_prob=0.1)

    def test_failure_prob_must_be_open_interval(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                BoundedValue(observed=1.0, lower=0.0, upper=2.0, failure_prob=eps)
        BoundedValue(observed=1.0, lower=0.0, upper=2.0, failure_prob=1.0 - 1e-12)

    def test_failure_prob_message_matches_the_deltas(self):
        with pytest.raises(ValueError) as bounded:
            BoundedValue(observed=1.0, lower=0.0, upper=2.0, failure_prob=2.0)
        with pytest.raises(ValueError) as delta:
            delta_hoeffding(10.0, 2.0)
        message = "failure probability must lie in (0, 1), got 2.0"
        assert str(bounded.value) == str(delta.value) == message

    def test_one_sided_views_allowed(self):
        up = BoundedValue(observed=5.0, lower=None, upper=9.0, failure_prob=0.1)
        assert up.lower is None
        lo = BoundedValue(observed=5.0, lower=2.0, upper=None, failure_prob=0.1)
        assert lo.upper is None


#: Means of the exact-tail tests, from sparse monitoring clicks to large blocks.
TAIL_MEANS = (0.5, 2.0, 9.0, 30.0, 126.0, 1e3, 1e4, 1e5)


def exact_tail_failures(provider, mean, eps, n=None):
    """Exact probabilities that a provider's upper bound falls below the true
    mean and that its lower bound rises above it, for a Poisson count of that
    mean or, given n, a binomial count over n trials."""
    stats = pytest.importorskip("scipy.stats")
    if n is None:
        # Counts past the grid are charged to the lower side as failures.
        k = np.arange(0.0, math.ceil(mean + 50.0 * math.sqrt(mean) + 100.0))
        pmf, beyond, n = stats.poisson.pmf(k, mean), stats.poisson.sf(k[-1], mean), math.inf
    else:
        k = np.arange(0.0, n + 1.0)
        pmf, beyond = stats.binom.pmf(k, n, mean / n), 0.0
    bound = bound_expected_count(k, n, eps, provider=provider)
    return pmf[bound.upper < mean].sum(), pmf[bound.lower > mean].sum() + beyond


class TestExactTails:
    @pytest.mark.parametrize("eps", [1e-11, 1e-3])
    @pytest.mark.parametrize("n", [1_000, 100_000])
    def test_hoeffding_holds_on_both_sides(self, n, eps):
        for mean in [m for m in TAIL_MEANS if m < n] + [n / 2]:
            upper_fails, lower_fails = exact_tail_failures("hoeffding", mean, eps, n)
            assert upper_fails <= eps and lower_fails <= eps, mean

    @pytest.mark.parametrize("eps", [1e-11, 1e-3])
    def test_observed_lower_side_holds(self, eps):
        for mean in TAIL_MEANS:
            assert exact_tail_failures("observed", mean, eps)[1] <= eps, mean

    @pytest.mark.parametrize("mean, fails", [
        (0.5, 0.6065), (2.0, 0.1353), (9.0, 1.234e-3), (30.0, 2.046e-6), (126.0, 5.801e-9),
    ])
    def test_observed_upper_side_is_heuristic(self, mean, fails):
        # Documented behaviour: X + sqrt(2 X ln(1/eps)) is 0 at X = 0, so the
        # upper side fails far more often than eps at small means.
        upper_fails = exact_tail_failures("observed", mean, 1e-11)[0]
        assert upper_fails > 1e-11
        assert upper_fails == pytest.approx(fails, rel=1e-3, abs=0.0)


class TestDeltas:
    def test_hoeffding_zero_emissions(self):
        assert delta_hoeffding(0, 1e-11) == 0.0

    def test_hoeffding_frozen_value(self):
        assert delta_hoeffding(14_811, 1e-11) == pytest.approx(433.0932151025244, rel=1e-12, abs=0.0)

    def test_hoeffding_matches_closed_form(self):
        n, eps = 5_000_000, 1e-11
        assert delta_hoeffding(n, eps) == pytest.approx(
            math.sqrt(0.5 * n * math.log(1.0 / eps)), rel=1e-12, abs=0.0)

    def test_observed_matches_closed_form(self):
        assert delta_observed(100, 1e-11) == pytest.approx(
            math.sqrt(2.0 * 100 * math.log(1e11)), rel=1e-12, abs=0.0)

    def test_observed_zero_counts(self):
        assert delta_observed(0, 1e-11) == 0.0

    def test_monotone_in_n(self):
        values = [delta_hoeffding(n, 1e-10) for n in (10, 100, 1000, 10_000)]
        assert values == sorted(values)

    def test_monotone_in_eps(self):
        tight = delta_hoeffding(1000, 1e-12)
        loose = delta_hoeffding(1000, 1e-2)
        assert tight > loose

    def test_loose_eps_limit(self):
        assert delta_hoeffding(10_000, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-3)

    def test_hoeffding_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            delta_hoeffding(-1, 1e-11)

    def test_eps_domain(self):
        for eps in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                delta_hoeffding(100, eps)
            with pytest.raises(ValueError):
                delta_observed(100, eps)

    def test_provider_registry(self):
        assert set(DELTA_PROVIDERS) == {"hoeffding", "observed"}


class TestBoundExpectedCount:
    def test_frozen_hoeffding_upper(self):
        b = bound_expected_count(500, 5_000_000, 1e-11, direction="upper")
        assert b.upper == pytest.approx(8457.454998762874, rel=1e-12, abs=0.0)
        assert b.lower is None
        assert b.observed == 500.0

    def test_observed_provider_width(self):
        b = bound_expected_count(500, 5_000_000, 1e-11, direction="upper",
                                 provider="observed")
        assert b.upper == pytest.approx(500 + math.sqrt(2 * 500 * math.log(1e11)),
                                        rel=1e-12, abs=0.0)

    def test_lower_clamped_at_zero(self):
        b = bound_expected_count(0, 1_000_000, 1e-11, direction="both")
        assert b.lower == 0.0
        assert b.upper > 0.0

    def test_two_sided_width_is_twice_delta(self):
        n, eps = 5_000_000, 1e-11
        b = bound_expected_count(9000, n, eps, direction="both")
        assert b.lower > 0.0
        assert b.upper - b.lower == pytest.approx(2.0 * delta_hoeffding(n, eps), rel=1e-12, abs=0.0)

    def test_directions(self):
        lo = bound_expected_count(10, 100, 0.05, direction="lower")
        assert lo.upper is None and lo.lower is not None
        both = bound_expected_count(10, 100, 0.05, direction="both")
        assert both.upper is not None and both.lower is not None

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            bound_expected_count(10, 100, 0.05, direction="sideways")

    def test_bad_provider(self):
        with pytest.raises(ValueError):
            bound_expected_count(10, 100, 0.05, provider="bogus")
        # A provider is a registry name; a callable is not one.
        with pytest.raises(ValueError, match="unknown provider"):
            bound_expected_count(10, 100, 0.05, provider=lambda observed, n, eps: 1.0)

    def test_observed_cannot_exceed_emissions(self):
        with pytest.raises(ValueError):
            bound_expected_count(101, 100, 0.05)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            bound_expected_count(-1, 100, 0.05)
        with pytest.raises(ValueError):
            bound_expected_count(1, -100, 0.05)

    def test_upper_monotone_in_emissions(self):
        uppers = [bound_expected_count(50, n, 1e-6, direction="upper").upper
                  for n in (1_000, 10_000, 100_000)]
        assert uppers == sorted(uppers)

    def test_loose_eps_collapses_to_observation(self):
        b = bound_expected_count(1000, 10_000, 1.0 - 1e-12, direction="both")
        assert b.upper == pytest.approx(1000.0, abs=1e-2)
        assert b.lower == pytest.approx(1000.0, abs=1e-2)


class TestBoundGain:
    def test_scaling(self):
        counts = bound_expected_count(9000, 5_000_000, 1e-11, direction="both")
        g = bound_gain(counts, 5_000_000)
        assert g.observed == pytest.approx(9000 / 5_000_000, rel=1e-12, abs=0.0)
        assert g.lower == pytest.approx(counts.lower / 5_000_000, rel=1e-12, abs=0.0)
        assert g.upper == pytest.approx(counts.upper / 5_000_000, rel=1e-12, abs=0.0)

    def test_upper_clamped_to_one(self):
        counts = bound_expected_count(100, 100, 1e-11, direction="upper")
        g = bound_gain(counts, 100)
        assert g.upper == 1.0

    def test_zero_emissions_rejected(self):
        counts = BoundedValue(observed=0.0, lower=0.0, upper=1.0, failure_prob=0.1)
        with pytest.raises(ZeroDivisionError):
            bound_gain(counts, 0)

    def test_zero_emissions_rejected_with_clicks(self):
        with pytest.raises(ZeroDivisionError):
            bound_gain(BoundedValue(3, 1, 5, 1e-9), 0)

    def test_negative_emissions_rejected(self):
        with pytest.raises(ValueError, match=r"emission count -10 .*observed count 3\b"):
            bound_gain(BoundedValue(3, 1, 5, 1e-9), -10)

    def test_emissions_below_the_count_rejected(self):
        with pytest.raises(ValueError, match=r"emission count 2 .*observed count 3\b"):
            bound_gain(BoundedValue(3, 1, 5, 1e-9), 2)

    def test_emission_grid_checked_per_point(self):
        counts = BoundedValue(np.array([3.0, 3.0]), np.array([1.0, 1.0]), np.array([5.0, 5.0]), 1e-9)
        assert bound_gain(counts, np.array([10.0, 3.0])).observed.tolist() == [0.3, 1.0]
        with pytest.raises(ValueError, match="emission count"):
            bound_gain(counts, np.array([10.0, -1.0]))

    def test_all_zero(self):
        counts = BoundedValue(observed=0.0, lower=0.0, upper=0.0, failure_prob=0.1)
        g = bound_gain(counts, 1000)
        assert (g.observed, g.lower, g.upper) == (0.0, 0.0, 0.0)

    def test_failure_prob_carried_through(self):
        counts = bound_expected_count(10, 1000, 0.025, direction="both")
        assert bound_gain(counts, 1000).failure_prob == 0.025


class TestFieldTables:
    record_fields = {f.name for f in dataclasses.fields(CountRecord)}

    def test_click_fields_name_record_fields(self):
        for click, (sent, _) in CLICK_FIELDS.items():
            assert click in self.record_fields
            assert sent in self.record_fields

    def test_gain_fields_cover_gainset_once(self):
        gains = [gain for _, gain in CLICK_FIELDS.values()]
        assert sorted(gains) == sorted(f.name for f in dataclasses.fields(GainSet))

    def test_wire_keys_are_the_required_fields(self):
        required = {f.name for f in dataclasses.fields(CountRecord)
                    if f.default is dataclasses.MISSING}
        wire = [field for _, field in WIRE_KEYS]
        assert len(wire) == len(set(wire))
        assert set(wire) == required
