"""X-basis gain bounds, phase-error bounds, and the secure key length.

The phase error rate of the protocol equals the bit error rate of a virtual
X-basis protocol whose states are superpositions of the two bit states.  Its
monitoring-line gains cannot be observed directly; they are sandwiched
between combinations of the observable decoy gains.  The sandwich, a
statistical fluctuation step, and the entropic key-length bound are
implemented here, with every contested algebraic choice exposed as an
explicit mode.

The pipeline is elementwise: parameters holding numpy arrays (a scan grid)
give a KeyRateResult of arrays over the grid.  A check that fails at any
element raises for the whole call.  Both entry points end in one pass,
_finish_pipeline, that chains the public steps: bound_expected_count and
bound_gain give the six decoy bounds as gain BoundedValues, which feed
xbasis_gain_upper_m1 and xbasis_gain_lower_m0, then
phase_error_expected_upper, phase_error_observed_upper and
secure_key_length.  No step has a private core, so every formula has one
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .concentration import (
    CLICK_FIELDS,
    DELTA_PROVIDERS,
    BoundedValue,
    CountRecord,
    _LOG_NAMES,
    bound_expected_count,
    bound_gain,
    delta_hoeffding,
)
from .gains import M1_MODELS, DegenerateGainsError, GainSet, _intensity, analytic_gains, qber
from .params import SecurityParams, SystemParams, binary_entropy
from .params import _any, _check_choice, _clamp01, _min, _where, raise_float_errors

__all__ = [
    "KeyRateResult",
    "AnalysisConfig",
    "xbasis_gain_upper_m1",
    "xbasis_gain_lower_m0",
    "phase_error_expected_upper",
    "phase_error_observed_upper",
    "secure_key_length",
    "expected_sifted_clicks",
    "evaluate_analytic_point",
    "evaluate_record",
]

# Cross term inside the constructive-port lower bound: geometric mean of the
# two upper-bounded gains, or twice the vacuum one alone.
CROSS_TERM_MODES = ("mixed", "vacuum")
# The non-quadratic remainder tails of the sandwich bounds can be kept or
# dropped; at mu near 0.5 they are so loose that keeping them voids the bound.
REMAINDER_MODES = ("include", "drop")

#: The values each AnalysisConfig field accepts.
_ANALYSIS_CHOICES = (
    ("delta_provider", tuple(DELTA_PROVIDERS)),
    ("cross_term", CROSS_TERM_MODES),
    ("remainder_terms", REMAINDER_MODES),
    ("m1_model", M1_MODELS),
)

#: Abort reasons by cause code, in order of precedence (0: no abort); the qber
#: reason is formatted with the qber and the threshold.
_ABORT_REASONS = np.array([None, "no sifted detections", "qber {:.6g} above abort threshold {:.6g}",
                           "phase error bound at or above 0.5", "no positive key length"], dtype=object)

#: The click tallies behind the six decoy bounds and the sides bounded: both
#: monitoring ports above, the constructive port also below.
_DECOY_SIDES = {"n_aa_m0": "both", "n_aa_m1": "upper", "n_vac_m0": "both", "n_vac_m1": "upper"}


def _xbasis_norms(mu: float) -> tuple[float, float]:
    """n_plus and n_minus, 2 (1 +/- e^-mu): the virtual X-basis states' normalizations."""
    e = np.exp(-mu)
    return 2.0 * (1.0 + e), 2.0 * (1.0 - e)


@dataclass(frozen=True)
class KeyRateResult:
    """Full outcome of one finite-key evaluation.

    key_length_bits is the extractable key per block, floored at zero; the
    phase-error fields are clamped to [0, 0.5] since anything at or above 0.5
    aborts.  abort_reason is None exactly when aborted is False.  The fields
    are arrays of one shape when an array input moves the result, and Python
    scalars otherwise.
    """

    qber: float
    phase_error_expected_upper: float
    phase_error_observed_upper: float
    key_length_bits: float
    leak_ec_bits: float
    correctness_term_bits: float
    secrecy_term_bits: float
    aborted: bool
    abort_reason: str | None = None


@dataclass(frozen=True)
class AnalysisConfig:
    """Mode switches for the finite-key pipeline.

    delta_provider names the concentration inequality used for the six decoy
    bounds.  cross_term and remainder_terms select the algebraic variant of
    the X-basis sandwich; m1_model selects the destructive-port gain model.
    The defaults are the combination that reproduces the reference distance
    cutoffs; the alternatives are retained for comparison and documented in
    the README.
    """

    delta_provider: str = "observed"
    cross_term: str = "mixed"
    remainder_terms: str = "drop"
    m1_model: str = "optical_switch"

    def __post_init__(self) -> None:
        for name, allowed in _ANALYSIS_CHOICES:
            _check_choice(name, getattr(self, name), allowed)


def _require_side(bound: BoundedValue, side: str, name: str) -> float:
    value = getattr(bound, side)
    if value is None:
        raise ValueError(f"{name} needs a populated {side} bound")
    return _clamp01(value)


def xbasis_gain_upper_m1(
    bounded_aa_m1: BoundedValue,
    bounded_vac_m1: BoundedValue,
    mu: float,
    *,
    include_remainder: bool = True,
) -> float:
    """Upper bound on the virtual X-state gain at the destructive port.

    Quadratic part: (e^(mu/2) sqrt(g_aa) + e^(-mu/2) sqrt(g_vac))^2 / n_plus,
    evaluated at the upper-bounded decoy gains.  The remainder tail
    (n_minus/n_plus)(e^mu n_minus/4 + e^mu sqrt(g_aa) + sqrt(g_vac)) accounts
    for the decoy states spanning the bit-state pair only approximately; it
    contains a gain-independent constant and can be dropped.  Clamped to
    [0, 1].
    """
    g_aa = _require_side(bounded_aa_m1, "upper", "bounded_aa_m1")
    g_vac = _require_side(bounded_vac_m1, "upper", "bounded_vac_m1")
    n_plus, n_minus = _xbasis_norms(mu)
    s_aa, s_vac = np.sqrt(g_aa), np.sqrt(g_vac)
    root = np.exp(mu / 2.0) * s_aa + np.exp(-mu / 2.0) * s_vac
    value = root * root / n_plus
    if include_remainder:
        e_mu = np.exp(mu)
        value += (n_minus / n_plus) * (e_mu * n_minus / 4.0 + e_mu * s_aa + s_vac)
    return _clamp01(value)


def xbasis_gain_lower_m0(
    bounded_aa_m0: BoundedValue,
    bounded_vac_m0: BoundedValue,
    mu: float,
    *,
    cross_term: str = "mixed",
    include_remainder: bool = True,
) -> float:
    """Lower bound on the virtual X-state gain at the constructive port.

    Quadratic part: (e^mu g_aa_low + e^(-mu) g_vac_low - cross) / n_plus with
    the cross term 2 sqrt(g_aa_up * g_vac_up) in mixed mode or 2 g_vac_up in
    vacuum mode.  The optional remainder tail subtracts
    (n_minus/n_plus)(e^mu sqrt(g_aa_up) + sqrt(g_vac_up)).  Negative values
    clamp to zero.
    """
    _check_choice("cross_term", cross_term, CROSS_TERM_MODES)
    lo_aa = _require_side(bounded_aa_m0, "lower", "bounded_aa_m0")
    lo_vac = _require_side(bounded_vac_m0, "lower", "bounded_vac_m0")
    up_aa = _require_side(bounded_aa_m0, "upper", "bounded_aa_m0")
    up_vac = _require_side(bounded_vac_m0, "upper", "bounded_vac_m0")
    n_plus, n_minus = _xbasis_norms(mu)
    cross = 2.0 * np.sqrt(up_aa * up_vac) if cross_term == "mixed" else 2.0 * up_vac
    e_mu = np.exp(mu)
    value = (e_mu * lo_aa + np.exp(-mu) * lo_vac - cross) / n_plus
    if include_remainder:
        value -= (n_minus / n_plus) * (e_mu * np.sqrt(up_aa) + np.sqrt(up_vac))
    return _clamp01(value)


def phase_error_expected_upper(
    gains: GainSet,
    xg_upper: float,
    xg_lower: float,
    mu: float,
) -> float:
    """Upper bound on the expected phase error rate.

    Combines the X-basis sandwich with the bit-state monitoring gains:
    [n_plus (xg_upper - xg_lower) + 2 (g_0z_m0 + g_1z_m0)] over
    2 (g_0z_m0 + g_0z_m1 + g_1z_m0 + g_1z_m1), clamped to [0, 1].
    """
    denom = 2.0 * (gains.mon_0z_m0 + gains.mon_0z_m1 + gains.mon_1z_m0 + gains.mon_1z_m1)
    if _any(denom == 0.0):
        raise DegenerateGainsError("all bit-state monitoring gains are zero, phase error undefined")
    n_plus, _ = _xbasis_norms(mu)
    numer = n_plus * (xg_upper - xg_lower) + 2.0 * (gains.mon_0z_m0 + gains.mon_1z_m0)
    return _clamp01(numer / denom)


def phase_error_observed_upper(
    ep_expected_upper: float,
    n_z: float,
    rounds: int,
    eps_2: float,
) -> float:
    """Upper bound on the observed phase error rate among sifted detections.

    The expected number of phase-error clicks scales with the sifted-click
    count the bound is applied to, and the statistical allowance is
    sqrt(n_z/2 ln(1/eps_2)); the result is their sum over n_z, capped at 1.
    rounds is only sanity-checked against n_z.
    """
    if _any(n_z <= 0):
        raise ZeroDivisionError("n_z is zero: no sifted detections to bound")
    if _any(n_z > rounds):
        raise ValueError(f"n_z = {n_z} exceeds rounds = {rounds}")
    n_p_upper = n_z * ep_expected_upper + delta_hoeffding(n_z, eps_2)
    return _min(1.0, n_p_upper / n_z)


def secure_key_length(
    n_z: float,
    ep_observed_upper: float,
    qber_value: float,
    sec: SecurityParams,
    *,
    ep_expected_upper: float = float("nan"),
) -> KeyRateResult:
    """Extractable key length of one block, with per-term accounting.

    key = n_z [1 - h(ep)] - f n_z h(qber) - log2(2/eps_cor) - 2 log2(5/eps_sec),
    floored at zero.  Aborts, in this order of precedence, when there are no
    sifted detections, when the QBER exceeds its threshold, when the
    phase-error bound reaches 0.5, or when no positive key remains.
    """
    threshold = sec.qber_abort_threshold
    correctness = math.log2(2.0 / sec.eps_cor)
    secrecy = 2.0 * math.log2(5.0 / sec.eps_sec)
    leak_ec = sec.f_ec * n_z * binary_entropy(qber_value)
    # An ep at or above 0.5 aborts before raw is read.
    h_ep = binary_entropy(_min(ep_observed_upper, 0.5))
    raw = n_z * (1.0 - h_ep) - leak_ec - correctness - secrecy
    # The code of the first abort cause that holds per point, 0 where none does.
    stops = (n_z <= 0, qber_value > threshold, ep_observed_upper >= 0.5, raw <= 0.0)
    # Without sifted detections (cause 1) the phase error is reported at its 0.5 cap.
    if np.ndim(raw) == 0:
        cause = next((code for code in (1, 2, 3, 4) if stops[code - 1]), 0)
        reason = _ABORT_REASONS[cause]
        ep_obs = 0.5 if cause == 1 else ep_observed_upper
        return KeyRateResult(
            float(qber_value), float(_min(ep_expected_upper, 0.5)), float(_min(ep_obs, 0.5)),
            0.0 if cause else float(raw), float(leak_ec), correctness, secrecy,
            bool(cause), reason and reason.format(qber_value, threshold),
        )
    cause = np.zeros(np.shape(raw), int)  # raw's shape is the whole result's
    for code in (4, 3, 2, 1):
        np.copyto(cause, code, where=stops[code - 1])
    shape, aborted, over = cause.shape, cause > 0, cause == 2
    spread = lambda f: f if np.shape(f) == shape else np.full(shape, f)
    reasons = _ABORT_REASONS[cause]
    if _any(over):
        qbers = np.broadcast_to(qber_value, shape)
        for i in zip(*np.nonzero(over)):
            reasons[i] = reasons[i].format(qbers[i], threshold)
    ep_obs = spread(np.minimum(ep_observed_upper, 0.5))
    ep_obs[cause == 1] = 0.5
    return KeyRateResult(
        spread(qber_value), spread(np.minimum(ep_expected_upper, 0.5)), ep_obs,
        np.where(aborted, 0.0, raw), spread(leak_ec), np.full(shape, correctness),
        np.full(shape, secrecy), aborted, reasons,
    )


def expected_sifted_clicks(params: SystemParams, duration_s: float = 1.0) -> float:
    """Model of the sifted data-line click count over a given duration.

    Raw rate: round rate times the probability of either bit state (what the
    decoys leave) times the chance of any data-line click in a bit round,
    1 - (1-p_d)^2 exp(-a).  The detector
    is non-paralyzable, so the registered rate saturates as
    raw / (1 + raw * dead_time).
    """
    if _any(duration_s <= 0):
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    a = _intensity(params)
    p_d = params.detectors.dark_count_prob
    p_click = -np.expm1(2.0 * np.log1p(-p_d) - a)
    p_signal = params.source.p_z0 + params.source.p_z1
    raw_rate = params.source.pulse_pair_rate * p_signal * p_click
    saturated = raw_rate / (1.0 + raw_rate * params.detectors.dead_time_s)
    return saturated * duration_s


def _finish_pipeline(gains: GainSet, counts: Mapping[str, float], qber_value: float, n_z: float,
                     rounds: int, params: SystemParams, analysis: AnalysisConfig) -> KeyRateResult:
    """Decoy bounds to key length in one pass; counts maps each decoy click
    tally and decoy emission field to its count.  An emission count that is not
    positive raises ValueError naming its count-log key."""
    sec = params.security
    # The six decoy bounds, as a gain BoundedValue per click tally.
    gain = {}
    for click, direction in _DECOY_SIDES.items():
        sent = CLICK_FIELDS[click][0]
        emitted = counts[sent]
        if _any(emitted <= 0):
            raise ValueError(f"no decoy emissions in {_LOG_NAMES[sent]}, the bounds on {click} "
                             "are undefined")
        b = bound_expected_count(counts[click], emitted, sec.eps_1, direction,
                                 provider=analysis.delta_provider)
        gain[click] = bound_gain(b, emitted)
    mu, include = params.source.mu, analysis.remainder_terms == "include"
    xg_up = xbasis_gain_upper_m1(gain["n_aa_m1"], gain["n_vac_m1"], mu, include_remainder=include)
    xg_lo = xbasis_gain_lower_m0(gain["n_aa_m0"], gain["n_vac_m0"], mu,
                                 cross_term=analysis.cross_term, include_remainder=include)
    ep_star = phase_error_expected_upper(gains, xg_up, xg_lo, mu)
    # A point without sifted detections aborts; bound it as if it had one.
    ep_obs = phase_error_observed_upper(ep_star, _where(n_z > 0, n_z, 1.0), rounds, sec.eps_2)
    return secure_key_length(n_z, ep_obs, qber_value, sec, ep_expected_upper=ep_star)


def evaluate_analytic_point(
    params: SystemParams,
    analysis: AnalysisConfig | None = None,
) -> KeyRateResult:
    """Run the full pipeline on closed-form gains and modeled counts.

    Decoy counts are taken at their expected values (emissions times gains)
    and the sifted-click count from the dead-time-saturated model, so the
    result is a deterministic function of the parameters.
    """
    analysis = analysis or AnalysisConfig()
    with raise_float_errors():
        gains = analytic_gains(params, m1_model=analysis.m1_model)
        qber_value = qber(gains)
        n_z = expected_sifted_clicks(params, params.block_duration_s())
        n_aa = params.rounds * params.source.p_decoy_alpha_alpha
        n_vac = params.rounds * params.source.p_decoy_vacuum
        counts = {"n_sent_alpha_alpha": n_aa, "n_sent_vac": n_vac}
        for click in _DECOY_SIDES:
            sent_name, gain = CLICK_FIELDS[click]
            counts[click] = counts[sent_name] * getattr(gains, gain)
        return _finish_pipeline(gains, counts, qber_value, n_z, params.rounds, params, analysis)


def evaluate_record(
    record: CountRecord,
    params: SystemParams,
    analysis: AnalysisConfig | None = None,
) -> KeyRateResult:
    """Run the full pipeline on observed counts from a session record.

    Decoy bounds and the sifted-click count come from the record.  The QBER
    comes from the record too when its per-bin fields are present, otherwise
    from the closed-form gains; the bit-state monitoring gains in the
    phase-error denominator are always the closed-form ones, since count logs
    do not resolve them.
    """
    analysis = analysis or AnalysisConfig()
    with raise_float_errors():
        gains = analytic_gains(params, m1_model=analysis.m1_model)
        per_bin = (record.n_0z_tau0, record.n_0z_tau1, record.n_1z_tau0, record.n_1z_tau1)
        if all(v is not None for v in per_bin) and sum(per_bin) > 0:
            qber_value = (record.n_0z_tau1 + record.n_1z_tau0) / sum(per_bin)
        else:
            qber_value = qber(gains)
        return _finish_pipeline(gains, vars(record), qber_value, float(record.n_z), record.rounds,
                                params, analysis)
