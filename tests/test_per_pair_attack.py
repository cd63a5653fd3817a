"""A per-pair measurement that reproduces every monitoring gain at a phase error of 0.5.

The measurement acts on the 4-dim span of the emitted pairs |alpha,0>,
|0,alpha>, |alpha,alpha> and |0,0>, alpha = sqrt(mu).  Its m0 and m1 outcomes
give the eight closed-form monitoring gains exactly, yet the virtual X-basis
state |+> clicks both ports equally.  So no bound read off these statistics
alone can certify a phase error below 0.5: every positive key the package
prints rests on a model of the per-pair statistics, not on them alone.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cowqkd import (
    BoundedValue,
    analytic_gains,
    phase_error_expected_upper,
    xbasis_gain_lower_m0,
    xbasis_gain_upper_m1,
)
from cowqkd.cli import build_params, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: The monitoring gains, each with the emitted pair it belongs to.
MONITORING = {
    "mon_0z_m0": ("a0", 0), "mon_0z_m1": ("a0", 1),
    "mon_1z_m0": ("0a", 0), "mon_1z_m1": ("0a", 1),
    "mon_alpha_alpha_m0": ("aa", 0), "mon_alpha_alpha_m1": ("aa", 1),
    "mon_vac_m0": ("00", 0), "mon_vac_m1": ("00", 1),
}


def params_at(length_km, mu):
    base = build_params(load_config(CONFIGS / "keyrate_eta20_dt30.cfg"))
    return dataclasses.replace(base, channel=dataclasses.replace(base.channel, length_km=length_km),
                               source=dataclasses.replace(base.source, mu=mu))


def attack(params):
    """The pairs' vectors, |+> among them, and the POVM elements M0 and M1.

    Coordinates come from the Cholesky factor of the pairs' Gram matrix.
    v- is the unit vector along |alpha,0> - |0,alpha>, and w the unit vector in
    span{|+>, |0,0>, |alpha,alpha>} orthogonal to |+> and |0,0>.  M0 adds
    light along w and v- to the vacuum gain; M1 adds it along v- and takes
    it away along w.
    """
    mu, g = params.source.mu, analytic_gains(params)
    gram = np.full((4, 4), np.exp(-mu / 2.0))
    gram[0, 1] = gram[1, 0] = gram[2, 3] = gram[3, 2] = np.exp(-mu)
    np.fill_diagonal(gram, 1.0)
    pairs = dict(zip(("a0", "0a", "aa", "00"), np.linalg.cholesky(gram)))
    pairs["+"] = (pairs["a0"] + pairs["0a"]) / np.linalg.norm(pairs["a0"] + pairs["0a"])
    minus = (pairs["a0"] - pairs["0a"]) / np.linalg.norm(pairs["a0"] - pairs["0a"])
    w = np.linalg.qr(np.column_stack([pairs["+"], pairs["00"], pairs["aa"]]))[0][:, 2]
    ww, mm = np.outer(w, w), np.outer(minus, minus)
    on_aa, on_a0 = (pairs["aa"] @ w) ** 2, (pairs["a0"] @ minus) ** 2
    m0 = ((g.mon_alpha_alpha_m0 - g.mon_vac_m0) / on_aa * ww
          + (g.mon_0z_m0 - g.mon_vac_m0) / on_a0 * mm + g.mon_vac_m0 * np.eye(4))
    m1 = ((g.mon_0z_m1 - g.mon_vac_m1) / on_a0 * mm + g.mon_vac_m1 * np.eye(4)
          - (g.mon_vac_m1 - g.mon_alpha_alpha_m1) / on_aa * ww)
    return pairs, m0, m1


# At mu = 0.1 and 0 km this M1 has an eigenvalue of -2.5e-6: that corner needs another construction.
GRID = pytest.mark.parametrize("length_km, mu", [(km, mu) for km in (0.0, 20.0, 80.0, 150.0)
                                                 for mu in (0.3, 0.5, 0.9)])


@GRID
def test_povm_elements_are_positive(length_km, mu):
    _, m0, m1 = attack(params_at(length_km, mu))
    # M1's smallest eigenvalue, 8.9e-8 at 0 km and mu = 0.3, is the grid's smallest.
    for element in (m0, m1, np.eye(4) - m0 - m1):
        assert np.linalg.eigvalsh(element).min() > 0.0


@GRID
def test_povm_reproduces_the_monitoring_gains(length_km, mu):
    params = params_at(length_km, mu)
    pairs, *elements = attack(params)
    gains = analytic_gains(params)
    for field, (pair, port) in MONITORING.items():
        v = pairs[pair]
        assert v @ elements[port] @ v == pytest.approx(getattr(gains, field), rel=1e-11), field


@GRID
def test_plus_state_clicks_both_ports_equally(length_km, mu):
    pairs, m0, m1 = attack(params_at(length_km, mu))
    plus = pairs["+"]
    clicks_m0, clicks_m1 = plus @ m0 @ plus, plus @ m1 @ plus
    assert clicks_m1 / (clicks_m0 + clicks_m1) == pytest.approx(0.5, rel=1e-12)


def test_drop_bounds_the_phase_error_below_the_attacks():
    # Documented behaviour, not a guarantee: with exact gains the drop sandwich
    # reads 0.30198 at 20 km where the measurement above gives 0.5.
    params = params_at(20.0, 0.5)
    gains = analytic_gains(params)

    def exact(value):
        return BoundedValue(observed=value, lower=value, upper=value, failure_prob=0.05)

    upper = xbasis_gain_upper_m1(exact(gains.mon_alpha_alpha_m1), exact(gains.mon_vac_m1), 0.5,
                                 include_remainder=False)
    lower = xbasis_gain_lower_m0(exact(gains.mon_alpha_alpha_m0), exact(gains.mon_vac_m0), 0.5,
                                 include_remainder=False)
    assert phase_error_expected_upper(gains, upper, lower, 0.5) == pytest.approx(0.30198, abs=5e-6)


def random_measurements(rng, n):
    """n random 4x4 elements 0 <= M <= I: a random orthogonal basis, with eigenvalues
    uniform in [0, 1] times one scale per element, 10^U(-6, 0)."""
    q = np.linalg.qr(rng.standard_normal((n, 4, 4)))[0]
    eigenvalues = rng.uniform(0.0, 1.0, (n, 4)) * 10.0 ** rng.uniform(-6.0, 0.0, (n, 1))
    return np.einsum("nij,nj,nkj->nik", q, eigenvalues, q)


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
def test_include_sandwich_bounds_every_random_measurement(mu):
    # Every outcome of every per-pair measurement acts on the pairs' span as some
    # 0 <= M <= I, so the sandwich must hold x = <+|M|+> between the bounds read
    # off g_aa = <aa|M|aa> and g_vac = <00|M|00> at their exact values.
    pairs, _, _ = attack(params_at(20.0, mu))
    m = random_measurements(np.random.default_rng(17), 20_000)
    g_aa, g_vac, x = (np.einsum("i,nij,j->n", pairs[k], m, pairs[k]) for k in ("aa", "00", "+"))

    def exact(gain):
        return BoundedValue(observed=gain, lower=gain, upper=gain, failure_prob=0.05)

    assert np.all(xbasis_gain_upper_m1(exact(g_aa), exact(g_vac), mu, include_remainder=True) >= x)
    for cross_term in ("mixed", "vacuum"):
        lower = xbasis_gain_lower_m0(exact(g_aa), exact(g_vac), mu, cross_term=cross_term,
                                     include_remainder=True)
        assert np.all(lower <= x), cross_term
    # The draws reach the bound: drop, which leaves the tails out, fails the upper side.
    dropped = xbasis_gain_upper_m1(exact(g_aa), exact(g_vac), mu, include_remainder=False)
    assert np.count_nonzero(dropped < x) > 100
