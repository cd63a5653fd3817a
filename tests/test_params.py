import dataclasses
import math
import random
from pathlib import Path

import pytest

from cowqkd import (
    SourceParams,
    SystemParams,
    ValidationError,
    binary_entropy,
    channel_transmittance,
    validate,
)
from cowqkd.cli import CONFIG_KEYS, _PARAM_SECTIONS
from cowqkd.params import _RANGES
from helpers import make_params

#: Each key's allowed interval as (lower end, lower closed, upper end, upper
#: closed), written out apart from params._RANGES so a slip in either shows.
#: A zero decoy probability leaves the analytic pipeline no decoy counts.
EXPECTED_INTERVALS = {
    "source.mu": (0.0, False, 1.0, False),
    "source.pulse_pair_rate": (0.0, False, math.inf, False),
    "source.p_decoy_alpha_alpha": (0.0, False, 1.0, False),
    "source.p_decoy_vacuum": (0.0, False, 1.0, False),
    "channel.length_km": (0.0, True, math.inf, False),
    "channel.attenuation_db_per_km": (0.0, False, math.inf, False),
    "channel.extra_loss_db": (0.0, True, math.inf, False),
    "detectors.efficiency": (0.0, False, 1.0, True),
    "detectors.dark_count_prob": (0.0, True, 1.0, False),
    "detectors.dead_time_s": (0.0, True, math.inf, False),
    "receiver.t_b": (0.0, False, 1.0, False),
    "receiver.phase_shift": (-math.inf, False, math.inf, False),
    "security.eps_cor": (0.0, False, 1.0, False),
    "security.eps_sec": (0.0, False, 1.0, False),
    "security.eps_1": (0.0, False, 1.0, False),
    "security.eps_2": (0.0, False, 1.0, False),
    "security.f_ec": (1.0, True, math.inf, False),
    "security.qber_abort_threshold": (0.0, False, 0.5, False),
    "rounds": (1, True, math.inf, False),
}


def with_key(key, value):
    """Default SystemParams with one config key set to value."""
    params = SystemParams()
    if key == "rounds":
        return dataclasses.replace(params, rounds=value)
    prefix, name = key.split(".")
    section = dataclasses.replace(getattr(params, prefix), **{name: value})
    return dataclasses.replace(params, **{prefix: section})


def violations(params):
    try:
        validate(params)
    except ValidationError as exc:
        return exc.violations
    return []


class TestChannelTransmittance:
    def test_16_db_net_loss(self):
        p = make_params(length_km=80.0, efficiency=1.0)
        eta = channel_transmittance(p.channel, p.detectors)
        assert eta == pytest.approx(10.0 ** (-1.6), rel=1e-12, abs=0.0)

    def test_zero_length_gives_detector_efficiency(self):
        p = make_params(length_km=0.0, efficiency=0.2)
        assert channel_transmittance(p.channel, p.detectors) == pytest.approx(0.2, rel=1e-12, abs=0.0)

    def test_100_km_default_detector(self):
        p = make_params()
        assert channel_transmittance(p.channel, p.detectors) == pytest.approx(1e-3, rel=1e-12, abs=0.0)

    def test_extra_loss_charged_to_monitoring_line_only(self):
        p = make_params(extra_loss_db=2.0)
        data = channel_transmittance(p.channel, p.detectors)
        mon = channel_transmittance(p.channel, p.detectors, monitoring=True)
        baseline = make_params()
        assert data == channel_transmittance(baseline.channel, baseline.detectors)
        assert mon == pytest.approx(data * 10.0 ** (-0.2), rel=1e-12, abs=0.0)

    def test_monitoring_equals_data_without_extra_loss(self):
        p = make_params()
        assert channel_transmittance(p.channel, p.detectors, monitoring=True) == \
            channel_transmittance(p.channel, p.detectors)

    def test_monotonicity(self):
        rng = random.Random(11)
        for _ in range(25):
            l1 = rng.uniform(0.0, 150.0)
            l2 = l1 + rng.uniform(1.0, 100.0)
            att = rng.uniform(0.1, 0.4)
            eff = rng.uniform(0.05, 1.0)
            near = make_params(length_km=l1, attenuation_db_per_km=att, efficiency=eff)
            far = make_params(length_km=l2, attenuation_db_per_km=att, efficiency=eff)
            assert channel_transmittance(far.channel, far.detectors) < \
                channel_transmittance(near.channel, near.detectors)

    def test_bounded_by_detector_efficiency(self):
        rng = random.Random(13)
        for _ in range(25):
            eff = rng.uniform(0.05, 1.0)
            p = make_params(length_km=rng.uniform(0.0, 300.0), efficiency=eff)
            eta = channel_transmittance(p.channel, p.detectors)
            assert 0.0 < eta <= eff


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_concavity(self):
        rng = random.Random(17)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            y = rng.uniform(0.0, 1.0)
            mid = binary_entropy(0.5 * (x + y))
            assert mid >= 0.5 * (binary_entropy(x) + binary_entropy(y)) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestSourceParams:
    def test_balanced_fill_of_signal_probabilities(self):
        src = SourceParams(p_decoy_alpha_alpha=0.2, p_decoy_vacuum=0.1)
        assert src.p_z0 == pytest.approx(0.35, rel=1e-12, abs=0.0)
        assert src.p_z1 == pytest.approx(0.35, rel=1e-12, abs=0.0)


class TestValidate:
    def test_defaults_pass(self):
        p = make_params()
        assert validate(p) is p

    def test_mu_out_of_range(self):
        with pytest.raises(ValidationError) as exc:
            validate(make_params(mu=1.5))
        assert any("mu" in v for v in exc.value.violations)

    def test_probability_sum_violation(self):
        src = SourceParams(p_decoy_alpha_alpha=0.6, p_decoy_vacuum=0.6)
        p = dataclasses.replace(make_params(), source=src)
        with pytest.raises(ValidationError) as exc:
            validate(p)
        assert any("sum" in v for v in exc.value.violations)

    def test_violations_aggregate(self):
        bad = make_params(mu=1.5, dark_count_prob=1.5)
        with pytest.raises(ValidationError) as exc:
            validate(bad)
        assert len(exc.value.violations) >= 2

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValidationError):
            validate(make_params(efficiency=0.0))

    def test_negative_dead_time_rejected(self):
        with pytest.raises(ValidationError):
            validate(make_params(dead_time_s=-1e-6))

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValidationError):
            validate(make_params(rounds=0))

    def test_message_lists_each_violation(self):
        with pytest.raises(ValidationError) as exc:
            validate(make_params(mu=-0.5, efficiency=2.0))
        message = str(exc.value)
        for violation in exc.value.violations:
            assert violation in message


class TestIntervalEnds:
    def test_every_parameter_key_has_a_range(self):
        keys = {key for key in CONFIG_KEYS if key.partition(".")[0] in _PARAM_SECTIONS}
        assert set(_RANGES) == keys | {"rounds"} == set(EXPECTED_INTERVALS)

    def test_readme_lists_each_range(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = [row.split("|") for row in readme.splitlines() if row.startswith("| `")]
        listed = {cells[1].strip(" `"): cells[3].strip(" `") for cells in rows}
        assert {key: listed[key] for key in _RANGES} == _RANGES

    @pytest.mark.parametrize("key", list(EXPECTED_INTERVALS))
    def test_each_end(self, key):
        lo, lo_closed, hi, hi_closed = EXPECTED_INTERVALS[key]
        for end, closed, outward in ((lo, lo_closed, -math.inf), (hi, hi_closed, math.inf)):
            if math.isinf(end):
                # An unbounded side takes any finite value, however large.
                big = 10**18 if key == "rounds" else math.copysign(1e300, end)
                assert violations(with_key(key, big)) == []
                continue
            assert (violations(with_key(key, end)) == []) == closed, end
            outside = end - 1 if key == "rounds" else math.nextafter(end, outward)
            found = violations(with_key(key, outside))
            assert any(key in v for v in found), (outside, found)

    @pytest.mark.parametrize("key", ["source.p_decoy_alpha_alpha", "source.p_decoy_vacuum"])
    def test_zero_decoy_probability_rejected(self, key):
        assert violations(with_key(key, 0.0)) == [f"{key} must lie in (0, 1), got 0.0"]

    def test_nan_reports_one_violation(self):
        assert violations(make_params(mu=math.nan)) == ["source.mu must be finite, got nan"]


class TestSystemParams:
    def test_block_duration(self):
        p = make_params(rounds=500_000_000, pulse_pair_rate=5.0e8)
        assert p.block_duration_s() == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_block_duration_scales_with_rounds(self):
        p = make_params(rounds=1_000_000, pulse_pair_rate=5.0e8)
        assert p.block_duration_s() == pytest.approx(0.002, rel=1e-12, abs=0.0)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.rounds = 5
