"""The numerical kernel under the solvers: the incomplete gamma and its
inverse, the price-gap curves and the revenue curve, the root finder's
stop, the DES sampler, extreme shapes and large rates, and results held as
Python floats. References: scipy.special and mpmath for the incomplete
gamma (tests only; skipped when absent), g1 assembled from the public model
functions, and the checked scalar functions.
"""

import contextlib
import math
import signal
import time

import numpy as np
import pytest

from qpk import (DelayModel, Exponential, Gamma, Power, PriceVector, SystemConfig, Uniform,
                 balanced_load, best_response, optimize_monopoly, rate_cap_1, revenue_curve,
                 solve_equilibrium)
from qpk import _solve, _special, estimation, models, wardrop
from conftest import FIXTURES
from qpk._solve import bisect_decreasing, grid_argmax, uniform_grid
from qpk.models import P_MIN

RTOL = 1e-13
# a gamma threshold solves F(beta) = p only to the inverse's 1e-13 stop
GAMMA_RTOL = 1e-12
LAWS = [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0), Gamma(0.7, 1.5),
        Power(2.0, 4.0)]
SCAN_CONFIGS = ["ex1_uniform", "ex1_expo", "ex1_gamma", "ex2_uniform", "ex2_expo",
                "ex2_gamma", "ex3", "ex4", "sat_power"]


def _scalar(fn, xs):
    return np.array([fn(float(x)) for x in xs])


def _bits(xs):
    return [float(x).hex() for x in xs]


def _on_grid(f):
    """A scan (see grid_argmax) of the array objective f on the uniform grid."""
    def scan(lo, hi, n):
        xs = uniform_grid(lo, hi, n)
        return xs, f(xs)
    return scan


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
    # the unchecked formula runs the same + - * / as delay_eval on its
    # saturated domain, +inf at mu for mm1 included
    model = DelayModel(models.DelayFamily(family), 5.0)
    g = np.linspace(0.0, 5.0, 101)
    want = _scalar(lambda x: models.delay_eval(model, x, saturation=True), g)
    np.testing.assert_array_equal(_scalar(models.delay_formula(model), g), want)


def test_price_gaps_array_at_unbounded_endpoints(ex1_expo):
    # an unbounded law's quantile is clamped short of its infinite top, so
    # the endpoint values come from the support
    cfg = ex1_expo
    for own in (cfg, cfg.swapped()):
        ends = (wardrop.price_gap_1(own, 0.0), wardrop.price_gap_1(own, cfg.lam))
        assert ends == (np.inf, -np.inf)


def _defined_g1(cfg, x):
    """g1(x) as the paper defines it, from the public model functions: the
    threshold on x's branch (the law's quantile at level 1 - x/lam up to
    gamma+, x/lam above it, the support's top at 0 and lam) times the delay
    gap D2(lam - x) - D1(x). An mm1 server 2 is read off its slack
    (mu2 - lam) + x: mu2 - (lam - x) loses a small rate's digits when
    server 2 saturates, which no tolerance here would cover."""
    lam = cfg.lam
    if x in (0.0, lam):
        beta = cfg.dist.support[1]
    else:
        beta = models.quantile(cfg.dist, (lam - x) / lam if x <= balanced_load(cfg) else x / lam)
    if cfg.d2.family is models.DelayFamily.LINEAR:
        d2 = models.delay_eval(cfg.d2, lam - x, saturation=True)
    else:
        slack = (cfg.d2.mu - lam) + x
        d2 = math.inf if slack == 0.0 else 1.0 / slack
    return beta * (d2 - models.delay_eval(cfg.d1, x, saturation=True))


def _assert_matches(got, want):
    # near a zero crossing both sides carry the rounding of the delay gap's
    # cancellation, so the absolute slack follows the size of the curve
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite])
    scale = np.max(np.abs(want[finite]))
    np.testing.assert_allclose(got[finite], want[finite], rtol=RTOL, atol=RTOL * scale)


def _scan_ranges(cfg):
    """The grids the curves and searches span: the bracket of g1's root
    searches (the g1 sweep's), the monopoly range (the revenue curve's) and
    a best response's range past gamma+ (the r1-and-c1 sweep's)."""
    lam = cfg.lam
    return [wardrop.Thresholds(cfg).bracket, (lam * P_MIN, balanced_load(cfg)),
            (lam * P_MIN, rate_cap_1(cfg, 1.5) * (1.0 - P_MIN))]


@pytest.mark.parametrize("name", SCAN_CONFIGS + ["fig_threshold"])
def test_price_gaps_array_match_scalar(name, request):
    # g1 over each curve's grid, for server 1 and, on the swapped system,
    # server 2, is g1 assembled from the model's definitions
    cfg = request.getfixturevalue(name)
    for own in (cfg, cfg.swapped()):
        g1 = wardrop.Thresholds(own).g1
        for lo, hi in _scan_ranges(own):
            xs = uniform_grid(lo, hi, 301)
            _assert_matches([g1(x) for x in xs], [_defined_g1(own, x) for x in xs])


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_price_gap_scan_ends_are_the_scalar_g1(dist):
    # at a grid's ends, on both branches, at the tie gamma+ (which takes the
    # low-rate branch) and at the domain's ends, for every law, g1 is its
    # definition, and the grid starts and ends at exactly the rates asked for
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0), dist)
    gp, g1 = balanced_load(cfg), wardrop.Thresholds(cfg).g1
    for lo, hi in ((0.0, 0.5), (0.5, gp), (gp, 2.5), (2.5, cfg.lam), (0.0, cfg.lam)):
        for n in (2, 17):
            xs = uniform_grid(lo, hi, n)
            assert (len(xs), xs[0], xs[-1]) == (n, lo, hi)
            for x in (lo, hi):
                assert g1(x) == pytest.approx(_defined_g1(cfg, x), rel=GAMMA_RTOL, abs=1e-15)


def test_scan_tie_takes_the_low_branch(fig_threshold):
    # the threshold jumps at gamma+ for non-identical servers; the revenue
    # curve, which ends at the tie, and g1 there take the low-rate branch
    cfg, c2 = fig_threshold, 1.0
    gp, lam = balanced_load(cfg), cfg.lam
    low, high = (models.quantile(cfg.dist, p) for p in ((lam - gp) / lam, gp / lam))
    assert low != high
    g_tie = wardrop.price_gap_1(cfg, gp)
    assert g_tie == low * wardrop.delay_gap(cfg.d1, cfg.d2, lam)[0](gp)
    assert revenue_curve(cfg, c2, 9)[-1] == (gp, c2 * lam + g_tie * gp)


def test_price_gaps_array_at_bounded_endpoints(ex1_uniform):
    # a bounded law's threshold at rates 0 and lam is its support's top
    cfg = ex1_uniform
    for own, scalar in ((cfg, wardrop.price_gap_1), (cfg.swapped(), wardrop.price_gap_2)):
        for x in (0.0, cfg.lam):
            assert scalar(cfg, x) == pytest.approx(_defined_g1(own, x), rel=RTOL, abs=0.0)


def test_price_gap_array_rejects_rates_outside_domain(ex1_uniform):
    g1 = wardrop.Thresholds(ex1_uniform).g1
    for x in (3.5, -1.0, -1e-300, math.inf, math.nan):
        with pytest.raises(models.DomainError):
            g1(x)


@pytest.mark.parametrize("name", FIXTURES)
def test_price_gap_array_is_the_scalar_g1_on_uniform_laws(name, request):
    # a uniform law's quantile and both delay curves are + - * / only, so
    # the revenue curve's rows and g1 on the best response's range past
    # gamma+ must be g1's definition to the bit on any CPU
    cfg = request.getfixturevalue(name)
    if not isinstance(cfg.dist, Uniform):
        cfg = cfg._replace(dist=Uniform(2.0, 6.0))
    for own in (cfg, cfg.swapped()):
        lo, gp, c2 = own.lam * P_MIN, balanced_load(own), 1.5
        curve = revenue_curve(own, c2, 4096)
        xs = [g for g, _ in curve]
        assert _bits(xs) == _bits(uniform_grid(lo, gp, 4096))
        assert _bits(rt for _, rt in curve) == _bits(
            c2 * own.lam + _defined_g1(own, x) * x for x in xs)
        g1 = wardrop.Thresholds(own).g1
        xs = uniform_grid(lo, rate_cap_1(own, c2) * (1.0 - P_MIN), 4096)
        assert _bits(g1(x) for x in xs) == _bits(_defined_g1(own, x) for x in xs)


def _scalar_scan_index(f, xs):
    """The index the point-by-point scan of f over xs picks: the first
    strict maximum."""
    best, i_best = f(xs[0]), 0
    for i, x in enumerate(xs):
        v = f(x)
        if v > best:
            best, i_best = v, i
    return i_best


@pytest.mark.parametrize("name", SCAN_CONFIGS)
def test_monopoly_scan_picks_the_scalar_grid_point(name, request):
    # the revenue curve at c2 = 0 is the monopoly's objective on the uniform
    # grid: grid_argmax over its rows picks the sample a point-by-point scan
    # of price_gap_1(g) * g picks, and the optimizer earns at least as much
    cfg = request.getfixturevalue(name)
    lo, gp, n = cfg.lam * P_MIN, balanced_load(cfg), 4096
    curve = revenue_curve(cfg, 0.0, n)
    xs, rts = [g for g, _ in curve], [rt for _, rt in curve]
    assert xs == uniform_grid(lo, gp, n)
    _, _, i = grid_argmax(lambda lo, hi, n: (xs, rts), lo, gp, n)
    assert i == _scalar_scan_index(lambda g: wardrop.price_gap_1(cfg, g) * g, xs)
    assert optimize_monopoly(cfg, 0.0).rt_star >= rts[i] * (1.0 - 1e-12)


def _gamma_config(k, delays):
    """The ex1 (linear) or ex2 (mm1) servers with a Gamma(k, 2) law."""
    model = DelayModel.linear if delays == "linear" else DelayModel.mm1
    return SystemConfig(3.0, model(3.3), model(4.0), Gamma(k, 2.0))


@pytest.mark.parametrize("k", [0.05, 0.1, 0.2, 0.8, 2.0, 30.0, 1e3])
@pytest.mark.parametrize("delays", ["linear", "mm1"])
def test_gamma_scan_covers_its_range_on_exact_pairs(k, delays):
    # a gamma revenue curve is exactly n evenly spaced rates from lam * P_MIN
    # to gamma+, each row the exact (rate, revenue) pair of the scalar g1;
    # g1 on a best response's range past gamma+ crosses the kink and falls
    # strictly, on every shape, the small ones whose inverse is off
    # (ROADMAP item 1) included
    cfg, c2 = _gamma_config(k, delays), 1.0
    lo, gp, n = cfg.lam * P_MIN, balanced_load(cfg), 4096
    curve = revenue_curve(cfg, c2, n)
    xs = [g for g, _ in curve]
    assert (len(xs), xs[0], xs[-1]) == (n, lo, gp)
    spacing = np.diff(xs)
    assert np.all(spacing > 0.0)
    assert spacing.max() <= 1.5 * (gp - lo) / (n - 1)
    for g, rt in curve:
        assert rt == c2 * cfg.lam + wardrop.price_gap_1(cfg, g) * g
    g1 = wardrop.Thresholds(cfg).g1
    gaps = [g1(x) for x in uniform_grid(lo, rate_cap_1(cfg, c2) * (1.0 - P_MIN), 1025)]
    assert all(math.isfinite(v) for v in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("k, rtol_p, rtol_q", [
    *(pytest.param(k, 1e-13, 1e-13, id=repr(k)) for k in (0.7, 1.0, 1.7, 2.0, 3.1, 4.0)),
    # the _special docstring's large shapes: P within 9.3e-13 and Q within
    # 1.1e-12 at k = 1e4, where a series cut at 500 terms left P 6.8e-7 off
    *(pytest.param(k, 1e-12, 2e-12, id=repr(k)) for k in (5e3, 1e4))])
def test_gamma_p_array_matches_scipy(k, rtol_p, rtol_q):
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([[0.0, k + 1.0], np.geomspace(1e-8, 60.0, 400),
                        k + math.sqrt(k) * np.linspace(-5.0, 5.0, 41)])
    x = x[x >= 0.0]
    np.testing.assert_allclose(_scalar(lambda v: _special.gamma_p(k, v), x), sp.gammainc(k, x),
                               rtol=rtol_p, atol=1e-15)
    # Q is relative down the upper tail, where 1 - P would be all rounding
    np.testing.assert_allclose(_scalar(lambda v: _special.gamma_q(k, v), x), sp.gammaincc(k, x),
                               rtol=rtol_q, atol=0.0)


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


@pytest.mark.parametrize("k", [1e-3, 0.05])
def test_small_gamma_shapes_scan_in_order(k):
    # below k ~ 0.1 the scalar inverse is wrong (ROADMAP item 1), so only
    # the revenue curve's order, its ends and finite results are checked
    cfg = SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0), Gamma(k, 2.0))
    curve = revenue_curve(cfg, 1.0, 4096)
    xs = [g for g, _ in curve]
    assert (xs[0], xs[-1]) == (cfg.lam * P_MIN, balanced_load(cfg))
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(math.isfinite(rt) for _, rt in curve)
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
    # here revenue peaks at the floor lam * P_MIN, so that range end
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
    # cost guard: the optimizer samples a few thresholds placed in closed
    # form. A 4,096-point scan of g1 makes 4,128 scalar gamma_p_inverse
    # calls here; the refinement on the revenue's derivative and the
    # reported price make about 8.
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
    # by Newton steps took 10. The optimizer's search inverts nothing: on
    # its one branch, below gamma+, it reads Q once at each threshold it
    # samples or steps to. On this config nothing else evaluates P.
    counts = dict.fromkeys(["gamma_p_inverse", "gamma_p"], 0)
    for name in counts:
        def counted(k, v, name=name, fn=getattr(_special, name)):
            counts[name] += 1
            return fn(k, v)
        monkeypatch.setattr(_special, name, counted)
    balanced_load.cache_clear()
    optimize_monopoly(ex1_gamma, 1.0)
    assert counts["gamma_p_inverse"] > 0
    assert counts["gamma_p"] <= 4 * counts["gamma_p_inverse"]


@pytest.mark.parametrize("dist", [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0),
                                  Power(2.0, 4.0)], ids=lambda d: d.family)
def test_point_solves_invert_only_their_bracket_ends(ex1_uniform, dist, monkeypatch):
    # a point solve steps in the threshold, reading rates off the cdf or
    # the survival function, and inverts only the ends of its brackets:
    # once at gamma+ on its branch and once at level 1 - P_MIN (a bounded
    # law's bracket ends at its support's top), each once per call; a best
    # response also inverts its range's top and gamma+ on the other branch.
    # Stepping in rate inverted once per step: on a gamma law that made 10
    # inversions per monopoly, 23-24 per best response and 12-16 per
    # equilibrium, nearly all inside root searches.
    calls, searching, placing = [], [], []
    inverse, place = type(dist)._quantile, type(dist)._near_quantile

    def counted(self, p):
        # the thresholds an optimizer's search samples, placed at or near
        # quantiles, are not a solve's: a closed-form law places them at its
        # quantiles
        if not placing:
            calls.append(bool(searching))
        return inverse(self, p)

    def placed(self, p):
        placing.append(None)
        try:
            return place(self, p)
        finally:
            placing.pop()
    monkeypatch.setattr(type(dist), "_quantile", counted)
    monkeypatch.setattr(type(dist), "_near_quantile", placed)
    for module in (wardrop, _solve):
        def search(*args, _search=module.bisect_decreasing, **kwargs):
            searching.append(None)
            try:
                return _search(*args, **kwargs)
            finally:
                searching.pop()
        monkeypatch.setattr(module, "bisect_decreasing", search)
    cfg, total = ex1_uniform._replace(dist=dist), 0
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
    ps = np.array([1.0 - 1e-12, 1.0 - 1e-6, 0.5, 1e-12, 1e-6])
    with _wall_bound(20):
        for k in (1e-3, 0.01, 0.1, 1.0, 100.0, 1e4):
            x = _scalar(lambda q: _special.gamma_p_inverse(k, q), ps)
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
