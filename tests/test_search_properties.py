"""The optimizers' per-branch search against the 4,096-point scan-and-refine
it replaced, kept here as a reference, on all four families, both delay
families, shapes and exponents below 1 and saturation mode (hypothesis;
skipped when it is absent).

The reference samples the revenue on a uniform grid of rates
(wardrop.Thresholds.scan), takes every grid peak and refines it in the
threshold between its grid neighbours; a peak whose neighbours straddle
gamma+ is the kink, or refined on the branch its slope points into. It
takes the revenue's slope as the search does, with (gamma1 delta)' in
closed form, so the two differ only in how they find the peaks.
"""

import math
import sys

import numpy as np
import pytest

from conftest import FIXTURES
from qpk import (DelayModel, Exponential, Gamma, Power, SystemConfig, Uniform, best_response,
                 check_symmetric_nash, optimize_monopoly, wardrop)
from qpk._solve import TIE_REL, bisect_decreasing
from qpk.errors import ConfigError, NoRootError
from qpk.models import P_MIN

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

GRID = 4096


def _revenue_slope(solves, c, high):
    """The revenue's slope in beta on one branch, as a value of (beta,
    gamma1, delta)."""
    dens, flow = solves.cfg.dist._density, solves._flow_slope
    rate = solves.lam if high else -solves.lam
    return lambda beta, gamma, delta: (beta * flow(gamma) + c) * (rate * dens(beta)) + gamma * delta


def _slope_at_gp(solves, c, high):
    return solves._recorded(high, _revenue_slope(solves, c, high))[0](solves.anchor(high)[1])


def _refine(solves, c, gaps, betas, xs, fs, i, a, b):
    gp = solves.gp
    high = bool(xs[b] > gp)
    if bool(xs[a] > gp) == high:
        lo, hi = sorted((float(betas[a]), float(betas[b])))
    elif _slope_at_gp(solves, c, False) > 0.0:
        lo, hi, high = solves.anchor(False)[1], float(betas[a]), False
    elif _slope_at_gp(solves, c, True) > 0.0:
        lo, hi = solves.anchor(True)[1], float(betas[b])
    else:
        gap = solves.anchor(False)[1] * solves._delta(gp)
        return gp, (gap + c) * gp, gap
    slope, seen = solves._recorded(high, _revenue_slope(solves, c, high))
    try:
        beta = bisect_decreasing(slope, lo, hi)
    except NoRootError:
        return float(xs[i]), float(fs[i]), float(gaps[i])
    beta, gamma = wardrop._read_root(seen, beta, 0.0)
    gap = beta * solves._delta(gamma)
    return gamma, (gap + c) * gamma, gap


def grid_local_maxima(cfg, c, lo, hi):
    """(best, peaks) as Thresholds.local_maxima returns them, from the
    4,096-point scan and the refinement of every grid peak."""
    solves = wardrop.Thresholds(cfg)
    xs, gaps, betas = solves.scan(lo, hi, GRID)
    fs = (gaps + c) * xs
    last = xs.size - 1
    peak = np.ones(xs.size, dtype=bool)
    peak[1:] &= fs[1:] > fs[:-1]
    peak[:-1] &= fs[:-1] >= fs[1:]
    peaks = []
    for i in np.flatnonzero(peak).tolist():
        found = _refine(solves, c, gaps, betas, xs, fs, i, max(i - 1, 0), min(i + 1, last))
        if not peaks or found[0] != peaks[-1][0]:
            peaks.append(found)
    best = peaks[0]
    for found in peaks[1:]:
        if found[1] > best[1] * (1.0 + TIE_REL) + TIE_REL:
            best = found
    return best, peaks


def _close(got, want, rel=1e-13):
    return abs(got - want) <= rel * abs(want)


def _slack(solves, c, x):
    """The relative slack of the position of a maximum at x: 1e-13, plus
    eps / k, where k = |R''(x)| x**2 / |R(x)| is the revenue's relative
    curvature there. A peak's position is a root of R', so R''s flatness
    scales the rounding of R' into it: k is near 1 at a well-conditioned
    peak (slack 1e-13) and far below at a nearly flat one, such as a law
    uniform from near 0 on saturated identical servers near price 2b / lam."""
    revenue = lambda g: (solves.g1(g) + c) * g
    h, r = 1e-4 * min(x, solves.lam - x), revenue(x)
    k = abs(revenue(x + h) - 2.0 * r + revenue(x - h)) * (x / h) ** 2 / abs(r)
    return 1e-13 + (sys.float_info.epsilon / k if k else math.inf)


def _assert_agree(got, want, lo, slack):
    """got (rate, price, revenue) is want's: the revenue within 1e-13
    relative, the rate and price within the slack of the maximum's
    position; a maximum at the floor lam * P_MIN is a range end, reported
    at exactly that rate, not read off a threshold."""
    assert _close(got[2], want[2]), (got, want)
    assert _close(got[0], want[0], slack) and _close(got[1], want[1], slack), (got, want, slack)
    assert (got[0] == lo) == (want[0] == lo), (got, want)


def _assert_same_peaks(solves, c, stationary, peaks, lo, hi):
    """Every grid peak is one of the stationary points, and any other lies
    within two grid spacings of gamma+, where the grid has too few samples
    to see it: gamma+ itself where the revenue falls away on both sides,
    or a maximum beside it, its revenue above the kink's and above that
    one spacing further out."""
    peaks = [x for x, _, _ in peaks]
    rest = list(stationary)
    for x0 in peaks:
        slack = _slack(solves, c, x0)
        match = [x for x in rest if _close(x, x0, slack) and (x == lo) == (x0 == lo)]
        assert match, (stationary, peaks)
        rest.remove(match[0])
    gp, spacing = solves.gp, (hi - lo) / (GRID - 1)
    revenue = lambda g: (solves.g1(g) + c) * g
    for x in rest:
        assert abs(x - gp) < 2.0 * spacing, (stationary, peaks)
        if x == gp:
            step = 1e-3 * spacing
            assert revenue(gp) > max(revenue(gp - step), revenue(gp + step)), (stationary, peaks)
        else:
            out = x - spacing if x < gp else x + spacing
            assert revenue(x) > max(revenue(gp), revenue(out)), (stationary, peaks)


@st.composite
def configs(draw):
    """Every family, with gamma k log-uniform on [0.2, 100] and power n on
    [0.2, 8]; linear or mm1 servers, or saturated mm1 ones."""
    family = draw(st.sampled_from(["uniform", "exponential", "gamma", "power"]))
    scale = draw(st.floats(0.5, 8.0))
    if family == "uniform":
        a = draw(st.floats(0.0, 3.0))
        law = Uniform(a, a + scale)
    elif family == "exponential":
        law = Exponential(scale)
    else:
        top = 100.0 if family == "gamma" else 8.0
        shape = math.exp(draw(st.floats(math.log(0.2), math.log(top))))
        law = Gamma(shape, scale) if family == "gamma" else Power(shape, scale)
    lam = draw(st.floats(0.5, 6.0))
    delays = draw(st.sampled_from(["linear", "mm1", "saturated"]))
    if delays == "linear":
        d1, d2 = (DelayModel.linear(lam * draw(st.floats(0.5, 3.0))) for _ in range(2))
    else:
        least = 1.0 if delays == "saturated" else 1.05
        r1 = least if delays == "saturated" else draw(st.floats(least, 3.0))
        r2 = draw(st.floats(max(least, r1 - 0.9), r1 + 0.9))
        d1, d2 = DelayModel.mm1(lam * r1), DelayModel.mm1(lam * r2)
        if draw(st.booleans()):
            d1, d2 = d2, d1
    try:
        return SystemConfig(lam, d1, d2, law, saturation_ok=delays == "saturated")
    except ConfigError:
        assume(False)


@settings(max_examples=300, deadline=None, database=None)
@given(cfg=configs(), server=st.sampled_from([1, 2]),
       price=st.floats(math.log(0.01), math.log(10.0)).map(math.exp))
def test_the_optimizers_find_the_maxima_of_the_4096_point_scan(cfg, server, price):
    own = cfg if server == 1 else cfg.swapped()
    solves, lo = wardrop.Thresholds(own), cfg.lam * P_MIN
    g, h, gap = grid_local_maxima(own, 0.0, lo, solves.gp)[0]
    res = optimize_monopoly(own, price)
    _assert_agree((res.gamma1_star, res.c1_star, res.rt_star),
                  (g, price + gap, price * cfg.lam + h), lo, _slack(solves, 0.0, g))
    hi = solves.root(-price, True)[0] * (1.0 - P_MIN)
    # a law uniform from 0 on saturated identical servers has the revenue
    # b - (2b / lam - price) * gamma up to gamma+: at price = 2b / lam every
    # rate there is a maximum. Near it (a power law of exponent 1 + 1e-10)
    # the revenue varies by less than TIE_REL there, rounding makes local
    # maxima that all tie, and no argument is the one to agree on.
    xs, gaps, _ = solves.scan(lo, min(hi, solves.gp), 64)
    low = (gaps + price) * xs
    assume(np.ptp(low) > TIE_REL * low.max())
    (g, r, gap), peaks = grid_local_maxima(own, price, lo, hi)
    br = best_response(cfg, server, price)
    _assert_agree((br.gamma_star, br.price_star, br.revenue_star), (g, price + gap, r), lo,
                  _slack(solves, price, g))
    _assert_same_peaks(solves, price, br.stationary_points, peaks, lo, hi)


@pytest.mark.parametrize("name", FIXTURES)
def test_the_optimizers_scan_nothing(name, request, monkeypatch):
    # the optimizers sample the slope at a few thresholds per branch; the
    # array scan is left to revenue_curve and the sweeps
    cfg = request.getfixturevalue(name)

    def scan(*args):
        raise AssertionError("an optimizer ran the array scan")
    monkeypatch.setattr(wardrop.Thresholds, "scan", scan)
    optimize_monopoly(cfg, 1.0)
    for server in (1, 2):
        best_response(cfg, server, 1.0)
    if cfg.identical_servers():
        check_symmetric_nash(cfg)


def _two_peaks(cfg, monkeypatch, low, high):
    """cfg's Thresholds with one interior peak on each branch, (rate,
    revenue) low and high, and every end falling away from its peak."""
    solves = wardrop.Thresholds(cfg)
    peaks = {False: [(*low, 0.0)], True: [(*high, 0.0)]}
    monkeypatch.setattr(solves, "_branch_maxima",
                        lambda c, upper, a, b: (peaks[upper], (False, False)))
    return solves


def test_local_maxima_returns_the_higher_peak(ex1_uniform, monkeypatch):
    solves = _two_peaks(ex1_uniform, monkeypatch, (0.3, 1.0), (2.0, 1.05))
    best, peaks = solves.local_maxima(0.0, 0.1, 2.5)
    assert best[0] == 2.0 and [x for x, _, _ in peaks] == [0.3, 2.0]


def test_local_maxima_ties_go_to_the_smaller_rate(ex1_uniform, monkeypatch):
    solves = _two_peaks(ex1_uniform, monkeypatch, (0.3, 1.0), (2.0, 1.0 + 1e-10))
    best, peaks = solves.local_maxima(0.0, 0.1, 2.5)
    assert best[0] == 0.3 and len(peaks) == 2
