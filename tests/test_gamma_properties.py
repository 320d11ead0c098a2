"""Identities of the gamma-law solvers over random shapes k in [0.2, 1e3],
on linear and mm1 servers (hypothesis; skipped when it is absent).

- Scaling lam and every mu by s leaves the optimal rate shares gamma*/lam
  of the monopoly and of both best responses unchanged: linear delays are
  unchanged, and mm1 delays, so the price gaps, scale by 1/s, as the
  rival's price does with them.
- Server 2's gap mirrors server 1's: g2(x) = -g1(lam - x).
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qpk import (DelayModel, Gamma, SystemConfig, best_response, optimize_monopoly,  # noqa: E402
                 price_gap_1, price_gap_2)

shapes = st.floats(math.log(0.2), math.log(1e3)).map(math.exp)
delays = st.sampled_from(["linear", "mm1"])
scales = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
prices = st.floats(0.5, 3.0)


def _config(k, delays, s=1.0):
    """The ex1 (linear) or ex2 (mm1) servers with a Gamma(k, 2) law, lam
    and both mu scaled by s."""
    model = DelayModel.linear if delays == "linear" else DelayModel.mm1
    return SystemConfig(3.0 * s, model(3.3 * s), model(4.0 * s), Gamma(k, 2.0))


@settings(max_examples=15, deadline=None, database=None)
@given(shapes, delays, scales, prices)
def test_optimal_rate_shares_are_scale_invariant(k, delays, s, c):
    base, scaled = _config(k, delays), _config(k, delays, s)
    c_scaled = c / s if delays == "mm1" else c
    want = optimize_monopoly(base, c).gamma1_star / base.lam
    got = optimize_monopoly(scaled, c_scaled).gamma1_star / scaled.lam
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    for server in (1, 2):
        want = best_response(base, server, c).gamma_star / base.lam
        got = best_response(scaled, server, c_scaled).gamma_star / scaled.lam
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(shapes, delays, st.floats(0.01, 0.99))
def test_server_2_gap_mirrors_server_1(k, delays, u):
    cfg = _config(k, delays)
    lam, x = cfg.lam, u * cfg.lam
    # near the balanced loads the delay gap cancels, so the slack follows
    # the size of the curve
    scale = abs(price_gap_1(cfg, 0.01 * lam)) + abs(price_gap_1(cfg, 0.99 * lam))
    assert price_gap_2(cfg, x) == pytest.approx(-price_gap_1(cfg, lam - x),
                                                rel=1e-12, abs=1e-14 * scale)
