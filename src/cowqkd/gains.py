"""Closed-form click probabilities (gains) and the data-line bit error rate.

A gain is the probability that a named detector registers a click for a given
emitted state while the other detectors stay silent: the probability of its
rule in concentration.TALLY_RULES, the rules the simulator tallies by.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .concentration import TALLY_RULES, _rule_events
from .params import SystemParams, _any, _check_choice, channel_transmittance

__all__ = [
    "GainSet",
    "DegenerateGainsError",
    "qber",
    "analytic_gains",
]

M1_MODELS = ("optical_switch", "fifty_fifty")


class DegenerateGainsError(ValueError):
    """All gains vanish, so no rate can be formed."""


@dataclass(frozen=True)
class GainSet:
    """Click probabilities per emitted state, detector, and time bin.

    data_* fields are data-line gains for the two bit states resolved by time
    bin; mon_* fields are monitoring-line gains for the both-bins decoy, the
    vacuum decoy, and the two bit states.  A closed-form set holds every
    field; a set estimated from counts holds None where the record cannot
    resolve the gain.
    """

    data_0z_tau0: float | None
    data_0z_tau1: float | None
    data_1z_tau0: float | None
    data_1z_tau1: float | None
    mon_alpha_alpha_m0: float | None
    mon_alpha_alpha_m1: float | None
    mon_vac_m0: float | None
    mon_vac_m1: float | None
    mon_0z_m0: float | None
    mon_0z_m1: float | None
    mon_1z_m0: float | None
    mon_1z_m1: float | None

    def as_dict(self) -> dict[str, float]:
        """A new dict of the fields that hold a value, by name."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


def _intensity(params: SystemParams, *, monitoring: bool = False) -> float:
    """Mean photon number of the data line per occupied bin, or of the monitoring feed."""
    tap = 1.0 - params.receiver.t_b if monitoring else params.receiver.t_b
    eta = channel_transmittance(params.channel, params.detectors, monitoring=monitoring)
    return tap * params.source.mu * eta


#: The light at each of _GATES per state, in _SENT_FIELDS order, by the name of
#: its mean photon number in _lights; None where the state sends none.
_LIGHT = (("a", None, "s", "s"), (None, "a", "s", "s"), ("a", "a", "bright", "dark"), (None,) * 4)


def _lights(params: SystemParams, cos: float, dark_scale: float | None = None) -> dict:
    """The mean photon number of each light of _LIGHT, cos the phase's cosine: a
    in the data line's occupied bin; with b the monitoring feed, s = b/2 of a lone
    bit-state pulse at each port, and of the interfering both-bins decoy b (1 + cos)/2
    at the bright port and b (1 - cos)/2, or dark_scale * b as m1_model sets it, at the dark."""
    a, b = _intensity(params), _intensity(params, monitoring=True)
    dark = b * (1.0 - cos) / 2.0 if dark_scale is None else dark_scale * b
    return {None: 0.0, "a": a, "s": b / 2.0, "bright": b * (1.0 + cos) / 2.0, "dark": dark}


def _compile(state: int, events: str) -> tuple:
    """A tally rule's probability as (k, j, factors): p_d^k (1 - p_d)^j times the
    factors in written order, (P, x) a photon click 1 - exp(-x), (C, x) any click
    1 - (1 - p_d) exp(-x), (N, x) no photon exp(-x), x a light of _LIGHT.  Where the
    state sends no light C is D, as 1 - (1 - p_d) exp(-0) is not p_d to the bit."""
    k = j = 0
    factors = []
    for negated, kind, gate in _rule_events(events):
        light = _LIGHT[state][gate]
        kind = "D" if kind == "C" and light is None else kind
        if kind == "D" or kind == "C" and negated:
            k, j = k + (not negated), j + negated
        if kind != "D":
            factors.append(("N" if negated else kind, light))
    return k, j, tuple(factors)


#: Each GainSet field's compiled rule, the distinct factors and rules among them (with
#: factors as indices of _FACTORS), and the index of each field's rule in GainSet order.
_RULES = {field: _compile(state, events) for field, state, events in TALLY_RULES.values()}
_FACTORS = list(dict.fromkeys(factor for _, _, factors in _RULES.values() for factor in factors))
_DISTINCT = list(dict.fromkeys(_RULES.values()))
_PRODUCTS = [(k, j, [_FACTORS.index(factor) for factor in factors]) for k, j, factors in _DISTINCT]
_PRODUCT_OF = [_DISTINCT.index(_RULES[field.name]) for field in fields(GainSet)]


def analytic_gains(params: SystemParams, *, m1_model: str = "optical_switch") -> GainSet:
    """The closed-form gain set at one point, or over a grid: each gain is the probability
    of its TALLY_RULES rule under the light of _lights, where the both-bins decoy reaches the
    dark port through an unattenuated optical switch, 2b, or a 50:50 recombiner, b."""
    _check_choice("m1_model", m1_model, M1_MODELS)
    p_d = params.detectors.dark_count_prob
    q = 1.0 - p_d
    log_q = np.log1p(-p_d)  # 1 - q exp(-x) = -expm1(log_q - x), exact as x goes to 0
    light = _lights(params, np.cos(params.receiver.phase_shift), 2.0 if m1_model == "optical_switch" else 1.0)
    value = [np.exp(-light[x]) if kind == "N" else -np.expm1(log_q - light[x] if kind == "C" else -light[x])
             for kind, x in _FACTORS]
    products = []
    for k, j, factors in _PRODUCTS:
        gain = p_d**k * q**j
        for i in factors:
            gain = gain * value[i]
        products.append(gain)
    return GainSet(*[products[i] for i in _PRODUCT_OF])


def qber(gains: GainSet) -> float:
    """Data-line bit error rate: wrong-bin gains over all data-line gains."""
    wrong = gains.data_0z_tau1 + gains.data_1z_tau0
    total = wrong + gains.data_0z_tau0 + gains.data_1z_tau1
    if _any(total == 0.0):
        raise DegenerateGainsError("all data-line gains are zero, QBER undefined")
    return wrong / total
