"""Closed-form click probabilities (gains) and the data-line bit error rate.

A gain is the probability that a named detector registers a click for a given
emitted state while the other detectors stay silent.  The exclusivity
conventions are chosen so that the dark-count prefactors come out as exact
powers of (1 - p_d); the Monte-Carlo simulator tallies events under the same
conventions, which makes analytic and empirical gains directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .params import SystemParams, _any, _check_choice, channel_transmittance

__all__ = [
    "GainSet",
    "DegenerateGainsError",
    "qber",
    "analytic_gains",
]

# The both-bins decoy reaches the dark interferometer port either through an
# unattenuated optical switch (exponent doubled) or a 50:50 recombiner.
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


def analytic_gains(params: SystemParams, *, m1_model: str = "optical_switch") -> GainSet:
    """The closed-form gain set at one parameter point, or over a grid.

    With a the data line's occupied-bin mean photon number, b the monitoring
    feed and q = 1 - p_d: a data-line bin clicks, with every dark source
    silent, with q^3 [1 - exp(-a)] if the pulse is in it and p_d q^2 if not.
    The both-bins decoy interferes in the delay interferometer; its m0 port
    sees b (1 + cos phase)/2 photons, q^3 [1 - q exp(-b (1+cos phase)/2)]
    exp(-a), and its dark m1 port p_d q^3 exp(-2b) exp(-a) in optical_switch
    mode, exp(-b) in place of exp(-2b) in fifty_fifty mode.  Vacuum registers
    dark counts only, p_d q^3.  A lone bit-state pulse leaves two copies of
    b/2 photons in all at each port, q^3 [1 - q exp(-b/2)] exp(-a).
    """
    _check_choice("m1_model", m1_model, M1_MODELS)
    a, b = _intensity(params), _intensity(params, monitoring=True)
    p_d = params.detectors.dark_count_prob
    q = 1.0 - p_d
    log_q = np.log1p(-p_d)  # 1 - q exp(-x) = -expm1(log_q - x), exact as x goes to 0
    silent_data = np.exp(-a)
    right = q**3 * -np.expm1(-a)
    wrong = p_d * q**2
    bright = b * (1.0 + np.cos(params.receiver.phase_shift)) / 2.0
    factor = 2.0 if m1_model == "optical_switch" else 1.0
    vac = p_d * q**3
    signal = q**3 * -np.expm1(log_q - b / 2.0) * silent_data
    return GainSet(
        data_0z_tau0=right,
        data_0z_tau1=wrong,
        data_1z_tau0=wrong,
        data_1z_tau1=right,
        mon_alpha_alpha_m0=q**3 * -np.expm1(log_q - bright) * silent_data,
        mon_alpha_alpha_m1=p_d * q**3 * np.exp(-factor * b) * silent_data,
        mon_vac_m0=vac,
        mon_vac_m1=vac,
        mon_0z_m0=signal,
        mon_0z_m1=signal,
        mon_1z_m0=signal,
        mon_1z_m1=signal,
    )


def qber(gains: GainSet) -> float:
    """Data-line bit error rate: wrong-bin gains over all data-line gains."""
    wrong = gains.data_0z_tau1 + gains.data_1z_tau0
    total = wrong + gains.data_0z_tau0 + gains.data_1z_tau1
    if _any(total == 0.0):
        raise DegenerateGainsError("all data-line gains are zero, QBER undefined")
    return wrong / total
