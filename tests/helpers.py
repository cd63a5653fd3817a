"""Shared parameter builder, analysis modes and per-round draw for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from cowqkd import (
    AnalysisConfig,
    ChannelParams,
    DetectorParams,
    ReceiverParams,
    SecurityParams,
    SourceParams,
    SystemParams,
)
from cowqkd.concentration import DELTA_PROVIDERS
from cowqkd.finite_key import CROSS_TERM_MODES, REMAINDER_MODES
from cowqkd.gains import M1_MODELS
from cowqkd.simulator import _Batch, _event_probabilities

#: Every combination of the four analysis switches: 2 x 2 x 2 x 2 = 16 modes.
EVERY_ANALYSIS = [
    AnalysisConfig(*modes)
    for modes in itertools.product(DELTA_PROVIDERS, CROSS_TERM_MODES, REMAINDER_MODES, M1_MODELS)
]


def analysis_id(analysis: AnalysisConfig) -> str:
    return "-".join((analysis.delta_provider, analysis.cross_term, analysis.remainder_terms,
                     analysis.m1_model))


def make_params(
    *,
    length_km: float = 100.0,
    attenuation_db_per_km: float = 0.2,
    extra_loss_db: float = 0.0,
    efficiency: float = 0.1,
    dark_count_prob: float = 1.8e-6,
    dead_time_s: float = 50e-6,
    mu: float = 0.5,
    p_decoy_alpha_alpha: float = 0.01,
    p_decoy_vacuum: float = 0.01,
    pulse_pair_rate: float = 5.0e8,
    rounds: int = 500_000_000,
    t_b: float = 0.90,
    phase_shift: float | None = None,
    security: SecurityParams | None = None,
) -> SystemParams:
    receiver_kwargs = {"t_b": t_b}
    if phase_shift is not None:
        receiver_kwargs["phase_shift"] = phase_shift
    return SystemParams(
        source=SourceParams(
            mu=mu,
            pulse_pair_rate=pulse_pair_rate,
            p_decoy_alpha_alpha=p_decoy_alpha_alpha,
            p_decoy_vacuum=p_decoy_vacuum,
        ),
        channel=ChannelParams(
            length_km=length_km,
            attenuation_db_per_km=attenuation_db_per_km,
            extra_loss_db=extra_loss_db,
        ),
        detectors=DetectorParams(
            efficiency=efficiency,
            dark_count_prob=dark_count_prob,
            dead_time_s=dead_time_s,
        ),
        receiver=ReceiverParams(**receiver_kwargs),
        security=security or SecurityParams(),
        rounds=rounds,
    )


def per_round_draw(params: SystemParams, rounds: int, rng: np.random.Generator) -> _Batch:
    """A per_pair session drawn round by round and gate by gate, as a reference
    that shares no code with the joint law the simulator draws from.

    Each round's state comes from the four state probabilities and each of its
    eight events is its own Bernoulli of _event_probabilities.  The row is
    state * 256 + pattern, and the batch holds the rounds with some event.
    """
    src = params.source
    states = rng.choice(4, size=rounds, p=[src.p_z0, src.p_z1, src.p_decoy_alpha_alpha,
                                           src.p_decoy_vacuum])
    fired = rng.random((rounds, 8)) < _event_probabilities(params)[states]
    patterns = fired @ (1 << np.arange(8))
    events = np.flatnonzero(patterns)
    return _Batch(np.bincount(states, minlength=4), events,
                  (states[events] * 256 + patterns[events]).astype(np.int16))
