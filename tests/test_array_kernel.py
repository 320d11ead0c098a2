"""The array kernel behind the grid scans, checked against the scalar path.

The scan's g1 must be the scalar g1 at every rate it samples, and each
scan must pick the sample that a point-by-point scan of the scalar
objective over the same rates picks. A gamma law's scan samples exact
(threshold, rate) pairs near the uniform grid, and must cover its range.
References: the scalar functions, and scipy.special for the incomplete
gamma (tests only; skipped when scipy is absent).
"""

import contextlib
import math
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from qpk import (DelayModel, Exponential, Gamma, Power, PriceVector, SystemConfig, Uniform,
                 balanced_load, best_response, optimize_monopoly, rate_cap_1,
                 rate_cap_2, revenue_curve, solve_equilibrium)
from qpk import _solve, _special, estimation, models, wardrop
from conftest import FIXTURES
from qpk._solve import (bisect_decreasing, derivative_root, grid_argmax, local_maxima_scan,
                        uniform_grid)
from qpk.models import P_MIN

RTOL = 1e-13
# a scan's ends take the scalar threshold, which the scalar inverse finds
# once |P(x) - p| < 1e-13 p: that leaves x up to a few 1e-15 relative off
GAMMA_RTOL = 1e-12
LAWS = [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0), Gamma(0.7, 1.5),
        Power(2.0, 4.0)]
SCAN_CONFIGS = ["ex1_uniform", "ex1_expo", "ex1_gamma", "ex2_uniform", "ex2_expo",
                "ex2_gamma", "ex3", "ex4", "sat_power"]


def _scalar(fn, xs):
    return np.array([fn(float(x)) for x in xs])


def _scan_points(k, p, low):
    """gamma_scan_points anchored at scalar inverses at the levels next to
    the branch end: the last low level, the first upper one, and the top."""
    n, edge = p.size, np.count_nonzero(low)

    def at(i):
        return float(p[i]), _special.gamma_p_inverse(k, float(p[i]))
    return _special.gamma_scan_points(
        k, p, low, (at(n - 1) if edge == n else at(edge - 1) if edge else None,
                    at(edge) if edge < n else None, at(n - 1)))


def _on_grid(f):
    """A scan (see grid_argmax) of the array objective f on the uniform grid."""
    def scan(lo, hi, n):
        xs = uniform_grid(lo, hi, n)
        return xs, f(xs)
    return scan


def _assert_matches(got, want):
    # near a zero crossing both sides carry the rounding of the delay gap's
    # cancellation, so the absolute slack follows the size of the curve
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    scale = np.max(np.abs(want[finite]))
    np.testing.assert_allclose(got[finite], want[finite], rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_quantile_array_matches_scalar(dist):
    # the scans' quantile array is the law's _scan_points hook: closed-form
    # laws return their quantiles at the very levels asked for, whatever
    # the branch mask
    if not isinstance(dist, Gamma):
        p = np.concatenate([[P_MIN, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - P_MIN],
                            np.linspace(0.01, 0.99, 99)])
        beta, share = dist._scan_points(p, p < 0.5, None)
        assert share is None
        np.testing.assert_allclose(beta, _scalar(lambda q: models.quantile(dist, q), p),
                                   rtol=RTOL, atol=0.0)
        return
    # a gamma law returns points near them and the shares of lam their
    # rates are, 1 - F up to gamma+ and F above, as the scalar cdf gives
    # them, in order and close to even; its last point is the scalar
    # quantile. Here on a full scan's levels (lam = 1, both clamps), with
    # gamma+ at either end and inside, so both tails of both branches run.
    g = uniform_grid(P_MIN, 1.0 - P_MIN, 4096)
    for gp in (P_MIN, 0.05, 0.4, 0.95, 1.0):
        low = g <= gp
        p = np.clip(np.where(low, 1.0 - g, g), P_MIN, 1.0 - P_MIN)
        # the anchors a scan gets: the scalar quantiles at gamma+ and the top
        at = [(q, models.quantile(dist, q)) for q in (min(1.0 - gp, 1.0 - P_MIN),
                                                     min(gp, 1.0 - P_MIN), float(p[-1]))]
        edge = np.count_nonzero(low)
        beta, share = dist._scan_points(
            p, low, (at[2] if edge == p.size else at[0] if edge else None,
                     at[1] if edge < p.size else None, at[2]))
        assert beta.shape == share.shape == p.shape
        level = _scalar(lambda b: models.cdf(dist, b), beta)
        np.testing.assert_allclose(share[~low], level[~low], rtol=1e-14, atol=0.0)
        # 1 - Q carries the rounding of a number near 1
        np.testing.assert_allclose(1.0 - share[low], level[low], rtol=1e-14, atol=1e-15)
        assert beta[-1] == dist._quantile(float(p[-1]))
        inner = np.concatenate(([g[0]], share[1:-1], [g[-1]]))
        assert np.all(np.diff(inner) > 0.0), gp
        assert np.diff(inner).max() <= 1.5 * (g[-1] - g[0]) / 4095, gp


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_des_sampler_is_the_array_quantile(dist):
    u = np.random.default_rng(3).random(2000)
    got = estimation._sample_sensitivities(dist, u)
    np.testing.assert_array_equal(got, _scalar(lambda q: models.quantile(dist, q), u))


def test_quantile_array_rejects_probabilities_outside_unit_interval():
    # the DES reference sampler is the array quantile that remains
    with pytest.raises(models.DomainError):
        estimation._sample_sensitivities(Exponential(1.0), np.array([0.5, 1.5]))


@pytest.mark.parametrize("family", ["linear", "mm1"])
def test_delay_formulas_match_the_checked_delay(family):
    # the unchecked formulas run the same + - * / as delay_eval on its
    # saturated domain, +inf at mu for mm1 included
    model = DelayModel(models.DelayFamily(family), 5.0)
    g = np.linspace(0.0, 5.0, 101)
    want = _scalar(lambda x: models.delay_eval(model, x, saturation=True), g)
    np.testing.assert_array_equal(models.delay_formula_array(model, g), want)
    np.testing.assert_array_equal(_scalar(models.delay_formula(model), g), want)


def _assert_is_scalar_g1(cfg, xs, got):
    """The scan's g1 is the scalar g1 at each rate it sampled.

    A closed-form law's scan runs the scalar arithmetic, to RTOL of the
    curve's size. A gamma law's scalar threshold solves F(beta) = p only
    to the inverse's stop, |F - p| < 1e-13 p, or for p > 0.5
    |(1 - F) - (1 - p)| < 1e-13 (1 - p), and p carries the rounding of the
    rate it is read off; through the density that level error is a
    threshold error, which the check allows on top of 1e-12 relative.
    """
    solves = wardrop.Thresholds(cfg)  # price_gap_1 and threshold_of_rate
    gp, beta1 = solves.gp, solves.beta1
    want = _scalar(solves.g1, xs)
    if not isinstance(cfg.dist, Gamma):
        _assert_matches(got, want)
        return
    lam = cfg.lam
    p = np.where(xs <= gp, (lam - xs) / lam, xs / lam)
    beta = _scalar(beta1, xs)
    density = _scalar(lambda b: models.density(cfg.dist, b), beta)
    delay_gap = (models.delay_formula_array(cfg.d2, lam - xs)
                 - models.delay_formula_array(cfg.d1, xs))
    stop = (1e-13 * np.minimum(p, 1.0 - p) + 4.0 * np.finfo(float).eps) / density * np.abs(delay_gap)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + stop)


def _scan_ranges(cfg):
    """The bracket of g1's root searches, the monopoly range and a best
    response's range past gamma+."""
    lam = cfg.lam
    return [wardrop.Thresholds(cfg).bracket, (lam * P_MIN, balanced_load(cfg)),
            (lam * P_MIN, rate_cap_1(cfg, 1.5) * (1.0 - P_MIN))]


@pytest.mark.parametrize("name", SCAN_CONFIGS + ["fig_threshold"])
def test_price_gaps_array_match_scalar(name, request):
    cfg = request.getfixturevalue(name)
    for own in (cfg, cfg.swapped()):
        for lo, hi in _scan_ranges(own):
            xs, got, _ = wardrop.Thresholds(own).scan(lo, hi, 301)
            _assert_is_scalar_g1(own, xs, got)


def test_scan_tie_takes_the_low_branch(fig_threshold):
    # the threshold jumps at gamma+ for non-identical servers; a scan that
    # ends or starts at the tie must take the low-rate branch there exactly
    # as the scalar function does
    cfg = fig_threshold
    gp, g_tie = balanced_load(cfg), wardrop.price_gap_1(cfg, balanced_load(cfg))
    xs, got, _ = wardrop.Thresholds(cfg).scan(cfg.lam * P_MIN, gp, 9)
    assert (xs[-1], got[-1]) == (gp, g_tie)
    xs, got, _ = wardrop.Thresholds(cfg).scan(gp, 2.5, 9)
    assert (xs[0], got[0]) == (gp, g_tie)


def test_price_gaps_array_at_bounded_endpoints(ex1_uniform):
    cfg = ex1_uniform
    for own, scalar in ((cfg, wardrop.price_gap_1), (cfg.swapped(), wardrop.price_gap_2)):
        xs, got, _ = wardrop.Thresholds(own).scan(0.0, cfg.lam, 5)
        ends = np.array([xs[0], xs[-1]])
        np.testing.assert_array_equal(ends, [0.0, cfg.lam])
        np.testing.assert_allclose([got[0], got[-1]], _scalar(lambda x: scalar(cfg, x), ends),
                                   rtol=RTOL, atol=0.0)


def test_price_gaps_array_at_unbounded_endpoints(ex1_expo):
    # an unbounded law's quantile is clamped short of its infinite top, so
    # the endpoint values come from the support, as in the scalar g1
    cfg = ex1_expo
    for own in (cfg, cfg.swapped()):
        assert (wardrop.price_gap_1(own, 0.0), wardrop.price_gap_1(own, cfg.lam)) == (np.inf, -np.inf)
        for lo, hi in ((0.0, cfg.lam), (0.0, 1.0), (1.0, cfg.lam)):
            _, got, _ = wardrop.Thresholds(own).scan(lo, hi, 5)
            assert (got[0], got[-1]) == (wardrop.price_gap_1(own, lo),
                                         wardrop.price_gap_1(own, hi))


def test_price_gap_array_rejects_rates_outside_domain(ex1_uniform):
    for lo, hi in ((1.0, 3.5), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(models.DomainError):
            wardrop.Thresholds(ex1_uniform).scan(lo, hi, 8)


@pytest.mark.parametrize("k", [0.7, 1.0, 1.7, 2.0, 3.1, 4.0])
def test_gamma_p_array_matches_scipy(k):
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([[0.0, k + 1.0], np.geomspace(1e-8, 60.0, 400)])
    lower, upper = _special.gamma_pq_array(k, x)
    np.testing.assert_allclose(lower, sp.gammainc(k, x), rtol=1e-13, atol=1e-15)
    # Q is relative down the upper tail, where 1 - P would be all rounding
    np.testing.assert_allclose(upper, sp.gammaincc(k, x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", [0.7, 1.0, 1.7, 2.0, 3.1, 4.0])
def test_gamma_p_inverse_matches_scipy(k):
    sp = pytest.importorskip("scipy.special")
    tail = np.geomspace(1e-12, 0.5, 200)
    p = np.concatenate([tail, 1.0 - tail, np.linspace(0.01, 0.99, 99)])
    x = _scalar(lambda q: _special.gamma_p_inverse(k, q), p)
    x_ref = sp.gammaincinv(k, p)
    # the inverse is accurate in probability: its error in x, weighed by
    # the density there, stays below the scalar's 1e-13 stopping rule
    pdf = np.exp((k - 1.0) * np.log(x_ref) - x_ref - math.lgamma(k))
    assert np.max(np.abs(x - x_ref) * pdf) < 2e-13
    np.testing.assert_allclose(sp.gammainc(k, x), p, rtol=0.0, atol=2e-13)


def test_gamma_p_inverses_are_relative_in_the_upper_tail():
    # above p = 0.5 the inverse solves Q(x) = 1 - p with a stop relative in
    # 1 - p; with a stop on P(x) - p, absolute there, Q was up to 6% off
    sp = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20261019)
    k = np.exp(rng.uniform(math.log(0.13), math.log(1e3), 300))
    q = np.exp(rng.uniform(math.log(1e-12), math.log(1e-3), 300))
    p = 1.0 - q
    x = np.array([_special.gamma_p_inverse(float(a), float(b)) for a, b in zip(k, p)])
    np.testing.assert_allclose(sp.gammaincc(k, x), 1.0 - p, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 2.0, 7.5, 30.0, 300.0, 3e3])
def test_gamma_q_is_relative_in_the_upper_tail(k):
    # down to 1e-300, where 1 - P would be all rounding, and through the
    # switch to the continued fraction at max(k, 1); the reference is
    # mpmath, as scipy's gammaincc is 2.6e-13 off at k = 300, x = 799
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    for x in np.concatenate([[max(k, 1.0), k + 1.0], k * np.geomspace(1e-3, 40.0, 120)]):
        want = mp.gammainc(k, float(x), mp.inf, regularized=True)
        if want > 1e-300:
            assert abs(_special.gamma_q(k, float(x)) / want - 1) < 2e-13, x


@pytest.mark.parametrize("k", [0.3, 0.7, 1.0, 2.0, 4.0, 10.0, 100.0])
def test_gamma_p_inverses_are_relative_in_the_lower_tail(k):
    # at k = 4, p = 1e-12 an absolute stop on |P(x) - p| left P 3.2% off
    sp = pytest.importorskip("scipy.special")
    p = np.geomspace(1e-12, 0.5, 200)
    x = _scalar(lambda q: _special.gamma_p_inverse(k, q), p)
    np.testing.assert_allclose(sp.gammainc(k, x), p, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [0.7, 1.0, 2.0, 3.8])
def test_gamma_array_functions_match_scalar(k):
    rng = np.random.default_rng(int(k * 10))
    x = rng.uniform(0.0, 4.0 * k + 6.0, 3000)
    np.testing.assert_allclose(_special.gamma_pq_array(k, x)[0],
                               _scalar(lambda v: _special.gamma_p(k, v), x),
                               rtol=RTOL, atol=1e-300)


def test_gamma_pq_array_p_is_the_scalar_up_to_its_front_factor():
    # the _special docstring's grid and figures: numpy's log and math's
    # differ in the last bit at some points, and k multiplies that
    # difference in the exponent of the front factor
    worst = {}
    for k in (0.2, 0.8, 2.0, 5.0, 30.0, 300.0):
        x = np.geomspace(0.2 * k, 3.0 * k, 4096)
        want = _scalar(lambda v: _special.gamma_p(k, v), x)
        rel = np.abs(_special.gamma_pq_array(k, x)[0] / want - 1.0)
        assert np.all(rel <= 2.0 * np.finfo(float).eps * (1.0 + k * np.abs(np.log(x))))
        worst[k] = rel.max()
    assert max(worst[k] for k in (0.2, 0.8, 2.0, 5.0, 30.0)) < 1e-15
    assert worst[300.0] < 1e-13


def test_gamma_array_functions_keep_shape_and_check_domain():
    x = np.full((3, 4), 0.25)
    assert all(v.shape == (3, 4) for v in _special.gamma_pq_array(2.0, x))
    assert all(v.shape == (0,) for v in _special.gamma_pq_array(2.0, np.array([])))
    with pytest.raises(ValueError):
        _special.gamma_pq_array(2.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        _special.gamma_pq_array(0.0, np.array([1.0]))


def _scalar_scan_index(f, xs):
    """The index the point-by-point scan of f over xs picks: the first
    strict maximum."""
    best, i_best = f(xs[0]), 0
    for i, x in enumerate(xs.tolist()):
        v = f(x)
        if v > best:
            best, i_best = v, i
    return i_best


def _scan(own, c):
    """The revenue scan of best_response at rival price c (c = 0 is the
    monopoly's h)."""
    def scan(lo, hi, n):
        xs, g, _ = wardrop.Thresholds(own).scan(lo, hi, n)
        return xs, (g + c) * xs
    return scan


@pytest.mark.parametrize("name", SCAN_CONFIGS)
def test_monopoly_scan_picks_the_scalar_grid_point(name, request):
    cfg = request.getfixturevalue(name)
    lo, gp, n = cfg.lam * P_MIN, balanced_load(cfg), 4096
    xs, _, i = grid_argmax(_scan(cfg, 0.0), lo, gp, n)
    if not isinstance(cfg.dist, Gamma):
        np.testing.assert_array_equal(xs, uniform_grid(lo, gp, n))
    assert i == _scalar_scan_index(lambda g: wardrop.price_gap_1(cfg, g) * g, xs)


@pytest.mark.parametrize("name", SCAN_CONFIGS)
@pytest.mark.parametrize("server", [1, 2])
def test_best_response_scan_picks_the_scalar_grid_point(name, server, request):
    cfg = request.getfixturevalue(name)
    c = 1.5
    if server == 1:
        cap, gap, own = rate_cap_1(cfg, c), wardrop.price_gap_1, cfg
    else:
        cap, gap, own = rate_cap_2(cfg, c), wardrop.price_gap_2, cfg.swapped()
    lo, hi, n = cfg.lam * P_MIN, cap * (1.0 - P_MIN), 4096
    xs, _, i = grid_argmax(_scan(own, c), lo, hi, n)
    if not isinstance(cfg.dist, Gamma):
        np.testing.assert_array_equal(xs, uniform_grid(lo, hi, n))
    assert i == _scalar_scan_index(lambda g: (gap(cfg, g) + c) * g, xs)


def _gamma_config(k, delays):
    """The ex1 (linear) or ex2 (mm1) servers with a Gamma(k, 2) law."""
    model = DelayModel.linear if delays == "linear" else DelayModel.mm1
    return SystemConfig(3.0, model(3.3), model(4.0), Gamma(k, 2.0))


@pytest.mark.parametrize("k", [0.05, 0.1, 0.2, 0.8, 2.0, 30.0, 1e3])
@pytest.mark.parametrize("delays", ["linear", "mm1"])
def test_gamma_scan_covers_its_range_on_exact_pairs(k, delays):
    # the monopoly range ends at gamma+; a best response's runs past it, so
    # its scan crosses the kink, where points that leave their branch drop.
    # At k = 0.05 and 0.1 the closed-form points leave gaps of up to 3
    # uniform spacings, which the scan's Halley steps close.
    cfg = _gamma_config(k, delays)
    lo, n = cfg.lam * P_MIN, 4096
    for hi in (balanced_load(cfg), rate_cap_1(cfg, 1.0) * (1.0 - P_MIN)):
        xs, got, _ = wardrop.Thresholds(cfg).scan(lo, hi, n)
        assert (xs[0], xs[-1]) == (lo, hi)
        spacing = np.diff(xs)
        assert np.all(spacing > 0.0)
        assert spacing.max() <= 1.5 * (hi - lo) / (n - 1)
        _assert_is_scalar_g1(cfg, xs, got)


@pytest.mark.parametrize("k", [1e-3, 0.05])
def test_small_gamma_shapes_scan_in_order(k):
    # below k ~ 0.1 neither start is good everywhere: points land off the
    # grid and out of its order, and are sorted. The scalar inverse, which
    # gives the ends and the refinement, is wrong there (ROADMAP item 1),
    # so only order, ends and finite results are checked.
    cfg = _gamma_config(k, "mm1")
    lo = cfg.lam * P_MIN
    for hi in (balanced_load(cfg), rate_cap_1(cfg, 1.0) * (1.0 - P_MIN)):
        xs, got, _ = wardrop.Thresholds(cfg).scan(lo, hi, 4096)
        assert (xs[0], xs[-1]) == (lo, hi)
        assert np.all(np.diff(xs) > 0.0) and np.all(np.isfinite(got))
    res = optimize_monopoly(cfg, 1.0)
    assert all(math.isfinite(v) for v in (res.gamma1_star, res.c1_star, res.rt_star))


def _all_floats(values):
    return all(type(v) is float for v in values)


def test_results_hold_python_floats(ex1_gamma):
    res = optimize_monopoly(ex1_gamma, 1.0)
    assert _all_floats([res.gamma1_star, res.c1_star, res.rt_star])
    for server in (1, 2):
        br = best_response(ex1_gamma, server, 1.0)
        assert _all_floats([br.given_price, br.gamma_star, br.price_star,
                            br.revenue_star, *br.stationary_points])
    assert _all_floats([v for point in revenue_curve(ex1_gamma, 1.0, 17) for v in point])


def test_grid_point_results_hold_python_floats(sat_power):
    # here revenue peaks at the grid floor lam * P_MIN, so the grid point
    # itself, not a root of the revenue's derivative, becomes the result
    res = optimize_monopoly(sat_power, 1.0)
    assert res.gamma1_star == sat_power.lam * P_MIN
    assert _all_floats([res.gamma1_star, res.c1_star, res.rt_star])
    br = best_response(sat_power, 1, 0.5)
    assert br.gamma_star == sat_power.lam * P_MIN
    assert _all_floats([br.gamma_star, br.price_star, br.revenue_star, *br.stationary_points])


def test_grid_argmax_ties_go_to_the_lowest_index():
    _, _, i = grid_argmax(_on_grid(lambda x: np.minimum(x, 0.5)), 0.0, 1.0, 11)
    assert i == 5


def _bumps(h1, h2):
    # narrow gaussian bumps of heights h1 at 0.3, a point of the 11-point
    # grid of [0, 1], and h2 at 0.75, between two of its points; the
    # objective serves as its own array and scalar form. Returns it and
    # its derivative.
    bumps = ((h1, 0.3), (h2, 0.75))
    f = lambda x: sum(h * np.exp(-((x - c) / 0.05) ** 2) for h, c in bumps)
    df = lambda x: sum(-800.0 * (x - c) * h * math.exp(-((x - c) / 0.05) ** 2)
                       for h, c in bumps)
    return f, df


def _refine(f, df):
    """local_maxima_scan's refine for a scalar objective f with derivative df."""
    def refine(xs, fs, i, a, b):
        x = derivative_root(df, float(xs[a]), float(xs[b]))
        return (float(xs[i]), float(fs[i])) if x is None else (x, f(x))
    return refine


def test_local_maxima_scan_returns_the_higher_refined_peak():
    # the best grid point is the bump at 0.3, but refined, the bump at
    # 0.75 is higher: the scan must refine both and return the latter
    f, df = _bumps(1.0, 1.05)
    assert grid_argmax(_on_grid(f), 0.0, 1.0, 11)[2] == 3
    (x, fx), peaks = local_maxima_scan(_on_grid(f), _refine(f, df), 0.0, 1.0, 11)
    assert len(peaks) == 2
    assert x == pytest.approx(0.75, abs=1e-8)
    assert fx == pytest.approx(1.05, rel=1e-12)


def test_local_maxima_scan_ties_go_to_the_smaller_argument():
    f, df = _bumps(1.0, 1.0 + 1e-10)
    (x, _), peaks = local_maxima_scan(_on_grid(f), _refine(f, df), 0.0, 1.0, 11)
    assert len(peaks) == 2
    assert x == pytest.approx(0.3, abs=1e-8)


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_price_gap_scan_ends_are_the_scalar_g1(dist):
    # a scan starts and ends exactly at the rates asked for, on both
    # branches, at the tie and at the domain's ends, for every law
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0), dist)
    gp = balanced_load(cfg)
    for lo, hi in ((0.0, 0.5), (0.5, gp), (gp, 2.5), (2.5, cfg.lam), (0.0, cfg.lam)):
        for n in (2, 17):
            xs, got, _ = wardrop.Thresholds(cfg).scan(lo, hi, n)
            assert (xs[0], xs[-1]) == (lo, hi)
            for x, g in ((lo, got[0]), (hi, got[-1])):
                assert g == pytest.approx(wardrop.price_gap_1(cfg, x), rel=GAMMA_RTOL, abs=1e-15)


def test_active_loop_freezes_each_element_where_it_stopped(monkeypatch):
    # element j stops after iteration stop[j]; 0 marks one that never stops
    rng = np.random.default_rng(7)
    n, max_iter = 197, 40
    stop = rng.integers(0, max_iter + 1, n)
    seen = []

    def step(i, stop, count, aux):
        seen.append(stop.copy())
        count += 1.0
        aux += 1.0
        return stop == i

    aux = np.zeros(n)
    count = _special._active_loop((stop,), (np.zeros(n), aux), max_iter, step)
    np.testing.assert_array_equal(count, np.where(stop == 0, max_iter, stop))
    # only the output is written back: the rest of the state keeps what the
    # steps before the first compaction did to it in place
    np.testing.assert_array_equal(aux, np.full(n, stop[stop > 0].min(), dtype=float))
    # exact compaction: iteration i steps only the elements still running
    assert len(seen) == max_iter
    for i, active in enumerate(seen, start=1):
        np.testing.assert_array_equal(active, stop[(stop == 0) | (stop >= i)])

    # with a hand-off, the elements still running when an iteration would
    # start with _HANDOFF or fewer go to finish once, which resumes there
    monkeypatch.setattr(_special, "_HANDOFF", 16)
    resume = next(i for i in range(1, max_iter + 1)
                  if np.count_nonzero((stop == 0) | (stop >= i)) <= 16)
    survivors = (stop == 0) | (stop >= resume)
    calls = []

    def finish(i, stop, count, aux):
        calls.append((i, stop.copy(), count.copy()))
        return -1.0 - stop

    count = _special._active_loop((stop,), (np.zeros(n), np.zeros(n)), max_iter, step,
                                  finish)
    assert [c[0] for c in calls] == [resume]
    np.testing.assert_array_equal(calls[0][1], stop[survivors])
    np.testing.assert_array_equal(calls[0][2], np.full(survivors.sum(), resume - 1.0))
    np.testing.assert_array_equal(count, np.where(survivors, -1.0 - stop, stop))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("k", np.geomspace(0.05, 2000.0, 9).tolist())
def test_gamma_scalar_handoff_keeps_every_bit(k, monkeypatch):
    # the hand-off runs the same + - * / in Python floats, so it must give
    # the bits of the all-numpy loops on any CPU, for P and Q, also where
    # the scans' Halley steps evaluate them
    rng = np.random.default_rng(11)
    lam, gp = 3.0, 1.3
    g = uniform_grid(lam * P_MIN, lam * (1.0 - P_MIN), 4096)
    # random levels are far from a scan's, so both Halley steps run there
    scans = [(rng.random(3000), np.arange(3000) < 1500),
             (np.array([1.0 - 1e-12]), np.array([True])),
             (np.where(g <= gp, lam - g, g) / lam, g <= gp)]
    xs = [k * rng.exponential(1.0, 3000), rng.uniform(0.0, 4.0 * k + 6.0, 3000)]

    def run():
        return ([v for p, low in scans for v in _scan_points(k, p, low)]
                + [v for x in xs for v in _special.gamma_pq_array(k, x)])
    handed_off = run()
    monkeypatch.setattr(_special, "_HANDOFF", 0)
    for got, want in zip(handed_off, run()):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name", FIXTURES)
def test_price_gap_array_is_the_scalar_g1_on_uniform_laws(name, request):
    # a uniform law's quantile and both delay curves are + - * / only, so
    # the array scan and the scalar g1 must agree to the bit on any CPU
    cfg = request.getfixturevalue(name)
    if not isinstance(cfg.dist, Uniform):
        cfg = replace(cfg, dist=Uniform(2.0, 6.0))
    for own in (cfg, cfg.swapped()):
        g1 = wardrop.Thresholds(own).g1
        lo = own.lam * P_MIN
        for hi in (balanced_load(own), rate_cap_1(own, 1.5) * (1.0 - P_MIN)):
            xs, got, _ = wardrop.Thresholds(own).scan(lo, hi, 4096)
            np.testing.assert_array_equal(_bits(xs), _bits(uniform_grid(lo, hi, 4096)))
            np.testing.assert_array_equal(_bits(got), _bits([g1(x) for x in xs.tolist()]))


def test_bisect_decreasing_stops_on_the_relative_tolerance_at_large_arguments():
    # at 1e8 adjacent doubles lie 1.5e-8 apart; the bracket must close to
    # a few ulps of the root, well before the iteration cap
    calls = []
    root = 1.00000123e8 + 0.123

    def f(x):
        calls.append(x)
        return math.atan(root - x)
    x = bisect_decreasing(f, 1e8, 1e8 + 2e4)
    assert abs(x - root) <= 4 * math.ulp(root)
    assert len(calls) < 20


def test_gamma_monopoly_scan_makes_no_per_point_quantile_calls(ex1_gamma, monkeypatch):
    # tooling guard: the scan must stay on the array path. A per-point
    # scan makes 4,128 scalar gamma_p_inverse calls here; the refinement on
    # the revenue's derivative and the reported price make about 8.
    calls = []
    scalar = _special.gamma_p_inverse

    def counted(k, p):
        calls.append(p)
        return scalar(k, p)
    monkeypatch.setattr(_special, "gamma_p_inverse", counted)
    balanced_load.cache_clear()
    optimize_monopoly(ex1_gamma, 1.0)
    assert 0 < len(calls) <= 200


def test_gamma_inverses_evaluate_p_few_times_per_quantile(ex1_gamma, monkeypatch):
    # cost guard: Halley steps from the Wilson-Hilferty start take about 3
    # evaluations of P per quantile here; a bracket expansion pass followed
    # by Newton steps took 10. The scan inverts nothing: it reads P and Q
    # once where its closed-form points land, and its spacing needs no
    # Halley step. On this config nothing else evaluates P.
    counts = dict.fromkeys(["gamma_p_inverse", "gamma_p", "gamma_pq_array"], 0)
    for name in counts:
        def counted(k, v, name=name, fn=getattr(_special, name)):
            counts[name] += np.size(v)
            return fn(k, v)
        monkeypatch.setattr(_special, name, counted)
    balanced_load.cache_clear()
    optimize_monopoly(ex1_gamma, 1.0)
    assert counts["gamma_p_inverse"] > 0
    assert counts["gamma_pq_array"] == 4096
    assert counts["gamma_p"] <= 4 * counts["gamma_p_inverse"]


@pytest.mark.parametrize("dist", [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0),
                                  Power(2.0, 4.0)], ids=lambda d: d.family)
def test_point_solves_invert_only_their_bracket_ends(ex1_uniform, dist, monkeypatch):
    # a point solve steps in the threshold, reading rates off the cdf or
    # the survival function, and inverts only the ends of its brackets:
    # once at gamma+ on its branch and once at level 1 - P_MIN (a bounded
    # law's bracket ends at its support's top), each once per call; a best
    # response also inverts its scan's top and gamma+ on the other branch.
    # Stepping in rate inverted once per step: on a gamma law that made 10
    # inversions per monopoly, 23-24 per best response and 12-16 per
    # equilibrium, nearly all inside root searches.
    calls, searching = [], []
    inverse = type(dist)._quantile

    def counted(self, p):
        if np.ndim(p) == 0:  # a scan's array of quantiles is not a solve's
            calls.append(bool(searching))
        return inverse(self, p)
    monkeypatch.setattr(type(dist), "_quantile", counted)
    for module in (wardrop, _solve):
        def search(*args, _search=module.bisect_decreasing, **kwargs):
            searching.append(None)
            try:
                return _search(*args, **kwargs)
            finally:
                searching.pop()
        monkeypatch.setattr(module, "bisect_decreasing", search)
    cfg, total = replace(ex1_uniform, dist=dist), 0
    for solve, most in ((lambda: optimize_monopoly(cfg, 1.0), 2),
                        (lambda: best_response(cfg, 1, 1.0), 6),
                        (lambda: best_response(cfg, 2, 1.0), 6),
                        *((lambda c=c: solve_equilibrium(cfg, PriceVector(*c)), 2)
                          for c in ((3.0, 1.0), (0.5, 2.0), (2.0, 1.0), (1.0, 1.5)))):
        calls.clear()
        balanced_load.cache_clear()
        solve()
        assert len(calls) <= most and not any(calls)
        total += len(calls)
    assert total > 0


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


@contextlib.contextmanager
def _wall_bound(seconds):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_gamma_inverses_finish_at_extreme_shapes_and_tails():
    # the iteration closes its own bracket from (0, inf); at every shape
    # and in both tails it must do so without overflow or a runaway x
    # the scans' closed-form points and Halley steps, which have no
    # bracket, must stay finite and positive there too
    ps = np.array([1.0 - 1e-12, 1.0 - 1e-6, 0.5, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12])
    low = np.arange(ps.size) < 3  # both tails on both branches
    with _wall_bound(20):
        for k in (1e-3, 0.01, 0.1, 1.0, 100.0, 1e4):
            for x in (_scan_points(k, ps, low)[0],
                      _scalar(lambda q: _special.gamma_p_inverse(k, q), ps)):
                assert np.all(np.isfinite(x) & (x > 0.0)), (k, x)
        # from a start near 1e21 the flat upper tail must be bisected, not
        # crept back along by Halley steps of about 2 (scipy: 5.1200250838)
        x = _special.gamma_p_inverse(1e-3, 1.0 - 1e-6)
        assert x == pytest.approx(5.1200250838, rel=1e-9)


def _scaled(s):
    return SystemConfig(s, DelayModel.linear(s), DelayModel.linear(2.0 * s), Uniform(0.0, 1.0))


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_large_rates_finish_and_scale():
    # with linear delays, scaling lam and both mu together leaves every
    # price and every rate share unchanged; at lam = 1e8 adjacent doubles
    # lie 1.5e-8 apart, so only a stop relative to the rate ends the solves
    small, big = _scaled(1.0), _scaled(1e8)
    with _wall_bound(20):
        start = time.perf_counter()
        res = optimize_monopoly(big, 0.0)
        elapsed = time.perf_counter() - start
        brs = [best_response(big, server, 0.5) for server in (1, 2)]
    assert elapsed < 2.0
    ref = optimize_monopoly(small, 0.0)
    assert res.gamma1_star / big.lam == pytest.approx(ref.gamma1_star, abs=1e-6)
    assert res.c1_star == pytest.approx(ref.c1_star, abs=1e-6)
    for server, br in zip((1, 2), brs):
        ref_br = best_response(small, server, 0.5)
        assert br.gamma_star / big.lam == pytest.approx(ref_br.gamma_star, abs=1e-6)
        assert br.price_star == pytest.approx(ref_br.price_star, abs=1e-6)
