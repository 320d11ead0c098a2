"""The array kernel behind the grid scans, checked against the scalar path.

Every array entry point must agree with its scalar counterpart point by
point, and each scan must pick the grid point that a point-by-point scan
of the scalar objective picks. References: the scalar functions, and
scipy.special for the incomplete gamma (tests only; skipped when scipy is
absent).
"""

import contextlib
import math
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from qpk import (DelayModel, Exponential, Gamma, Power, SystemConfig, Uniform,
                 balanced_load, best_response, optimize_monopoly, rate_cap_1,
                 rate_cap_2, revenue_curve)
from qpk import _special, estimation, models, wardrop
from conftest import FIXTURES
from qpk._solve import bisect_decreasing, grid_argmax, local_maxima_scan, uniform_grid
from qpk.models import P_MIN

RTOL = 1e-13
# the gamma inverses stop once |P(x) - p| < 1e-13 p; a last-bit difference
# between numpy's and math's exp or log can move that stop by a Halley
# iterate, which moves x by up to a few 1e-15 relative
GAMMA_RTOL = 1e-12
LAWS = [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0), Gamma(0.7, 1.5),
        Power(2.0, 4.0)]
SCAN_CONFIGS = ["ex1_uniform", "ex1_expo", "ex1_gamma", "ex2_uniform", "ex2_expo",
                "ex2_gamma", "ex3", "ex4", "sat_power"]


def _scalar(fn, xs):
    return np.array([fn(float(x)) for x in xs])


def _assert_matches(got, want):
    # near a zero crossing both sides carry the rounding of the delay gap's
    # cancellation, so the absolute slack follows the size of the curve
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    scale = np.max(np.abs(want[finite]))
    np.testing.assert_allclose(got[finite], want[finite], rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_quantile_array_matches_scalar(dist):
    p = np.concatenate([[0.0, 1e-13, P_MIN, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - P_MIN, 1.0],
                        np.linspace(0.0, 1.0, 257)])
    got = models.quantile_array(dist, p)
    want = _scalar(lambda q: models.quantile(dist, q), p)
    rtol = GAMMA_RTOL if isinstance(dist, Gamma) else RTOL
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    assert got.shape == p.shape


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_des_sampler_is_the_array_quantile(dist):
    u = np.random.default_rng(3).random(2000)
    got = estimation._sample_sensitivities(dist, u)
    want = _scalar(lambda q: models.quantile(dist, q), u)
    rtol = GAMMA_RTOL if isinstance(dist, Gamma) else RTOL
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def test_quantile_array_rejects_probabilities_outside_unit_interval():
    with pytest.raises(models.DomainError):
        models.quantile_array(Exponential(1.0), np.array([0.5, 1.5]))


@pytest.mark.parametrize("family", ["linear", "mm1"])
def test_delay_formulas_match_the_checked_delay(family):
    # the unchecked formulas run the same + - * / as delay_eval on its
    # saturated domain, +inf at mu for mm1 included
    model = DelayModel(models.DelayFamily(family), 5.0)
    g = np.linspace(0.0, 5.0, 101)
    want = _scalar(lambda x: models.delay_eval(model, x, saturation=True), g)
    np.testing.assert_array_equal(models.delay_formula_array(model, g), want)
    np.testing.assert_array_equal(_scalar(models.delay_formula(model), g), want)


def _rate_points(cfg):
    """Both branches of g1 and g2, their ties, grid-like interiors, and
    rates whose probability an unbounded law clamps."""
    lam, gp = cfg.lam, balanced_load(cfg)
    ties = [gp, lam - gp, np.nextafter(gp, 0.0), np.nextafter(gp, lam),
            np.nextafter(lam - gp, 0.0), np.nextafter(lam - gp, lam),
            lam * 1e-13, lam * (1.0 - 1e-13)]
    lo, hi = (0.0, lam) if cfg.dist.bounded and not cfg.saturation_ok \
        else (lam * P_MIN, lam * (1.0 - P_MIN))
    return np.concatenate([ties, np.linspace(lo, hi, 301)])


@pytest.mark.parametrize("name", SCAN_CONFIGS + ["fig_threshold"])
def test_price_gaps_array_match_scalar(name, request):
    cfg = request.getfixturevalue(name)
    xs = _rate_points(cfg)
    gp = balanced_load(cfg)
    assert np.any(xs < gp) and np.any(xs > gp)
    _assert_matches(wardrop.price_gap_1_array(cfg, xs),
                    _scalar(lambda x: wardrop.price_gap_1(cfg, x), xs))
    _assert_matches(wardrop.price_gap_1_array(cfg.swapped(), xs),
                    _scalar(lambda x: wardrop.price_gap_2(cfg, x), xs))


def test_price_gap_1_array_tie_takes_the_low_branch(fig_threshold):
    # the threshold jumps at gamma+ for non-identical servers; the tie must
    # take the low-rate branch exactly as the scalar function does
    cfg = fig_threshold
    gp = balanced_load(cfg)
    got = wardrop.price_gap_1_array(cfg, np.array([gp]))[0]
    assert got == wardrop.price_gap_1(cfg, gp)


def test_price_gaps_array_at_bounded_endpoints(ex1_uniform):
    cfg = ex1_uniform
    ends = np.array([0.0, cfg.lam])
    for own, scalar in ((cfg, wardrop.price_gap_1), (cfg.swapped(), wardrop.price_gap_2)):
        np.testing.assert_allclose(wardrop.price_gap_1_array(own, ends),
                                   _scalar(lambda x: scalar(cfg, x), ends), rtol=RTOL, atol=0.0)


def test_price_gaps_array_at_unbounded_endpoints(ex1_expo):
    # an unbounded law's quantile is clamped short of its infinite top, so
    # the endpoint values come from the support, as in the scalar g1
    cfg = ex1_expo
    for own in (cfg, cfg.swapped()):
        assert (wardrop.price_gap_1(own, 0.0), wardrop.price_gap_1(own, cfg.lam)) == (np.inf, -np.inf)
        for ends in ([0.0], [cfg.lam], [0.0, 1.0, cfg.lam]):
            got = wardrop.price_gap_1_array(own, np.array(ends))
            assert (got[0], got[-1]) == (wardrop.price_gap_1(own, ends[0]),
                                         wardrop.price_gap_1(own, ends[-1]))


def test_price_gap_array_rejects_rates_outside_domain(ex1_uniform):
    with pytest.raises(models.DomainError):
        wardrop.price_gap_1_array(ex1_uniform, np.array([1.0, 3.5]))


@pytest.mark.parametrize("k", [0.7, 1.0, 1.7, 2.0, 3.1, 4.0])
def test_gamma_p_array_matches_scipy(k):
    sp = pytest.importorskip("scipy.special")
    x = np.concatenate([[0.0, k + 1.0], np.geomspace(1e-8, 60.0, 400)])
    np.testing.assert_allclose(_special.gamma_p_array(k, x), sp.gammainc(k, x),
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("k", [0.7, 1.0, 1.7, 2.0, 3.1, 4.0])
def test_gamma_p_inverse_array_matches_scipy(k):
    sp = pytest.importorskip("scipy.special")
    tail = np.geomspace(1e-12, 0.5, 200)
    p = np.concatenate([tail, 1.0 - tail, np.linspace(0.01, 0.99, 99)])
    x = _special.gamma_p_inverse_array(k, p)
    x_ref = sp.gammaincinv(k, p)
    # the inverse is accurate in probability: its error in x, weighed by
    # the density there, stays below the scalar's 1e-13 stopping rule
    pdf = np.exp((k - 1.0) * np.log(x_ref) - x_ref - math.lgamma(k))
    assert np.max(np.abs(x - x_ref) * pdf) < 2e-13
    np.testing.assert_allclose(sp.gammainc(k, x), p, rtol=0.0, atol=2e-13)


@pytest.mark.parametrize("k", [0.3, 0.7, 1.0, 2.0, 4.0, 10.0, 100.0])
def test_gamma_p_inverses_are_relative_in_the_lower_tail(k):
    # at k = 4, p = 1e-12 an absolute stop on |P(x) - p| left P 3.2% off
    sp = pytest.importorskip("scipy.special")
    p = np.geomspace(1e-12, 0.5, 200)
    for x in (_special.gamma_p_inverse_array(k, p),
              _scalar(lambda q: _special.gamma_p_inverse(k, q), p)):
        np.testing.assert_allclose(sp.gammainc(k, x), p, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [0.7, 1.0, 2.0, 3.8])
def test_gamma_array_functions_match_scalar(k):
    rng = np.random.default_rng(int(k * 10))
    # more than one block, so the inverse runs block by block, and both tails
    tail = np.geomspace(1e-12, 0.5, 200)
    p = np.concatenate([rng.random(_special._BLOCK + 7), tail, 1.0 - tail])
    np.testing.assert_allclose(_special.gamma_p_inverse_array(k, p),
                               _scalar(lambda q: _special.gamma_p_inverse(k, q), p),
                               rtol=GAMMA_RTOL, atol=0.0)
    x = rng.uniform(0.0, 4.0 * k + 6.0, 3000)
    np.testing.assert_allclose(_special.gamma_p_array(k, x),
                               _scalar(lambda v: _special.gamma_p(k, v), x),
                               rtol=RTOL, atol=1e-300)


def test_gamma_array_functions_keep_shape_and_check_domain():
    p = np.full((3, 4), 0.25)
    assert _special.gamma_p_inverse_array(2.0, p).shape == (3, 4)
    assert _special.gamma_p_inverse_array(2.0, np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        _special.gamma_p_inverse_array(2.0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        _special.gamma_p_array(2.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        _special.gamma_p_array(0.0, np.array([1.0]))


def _scalar_scan_index(f, lo, hi, n):
    """The grid index the point-by-point scan picks: first strict maximum."""
    step = (hi - lo) / (n - 1)
    xs = [hi if i == n - 1 else lo + i * step for i in range(n)]
    best, i_best = f(xs[0]), 0
    for i in range(1, n):
        v = f(xs[i])
        if v > best:
            best, i_best = v, i
    return i_best


@pytest.mark.parametrize("name", SCAN_CONFIGS)
def test_monopoly_scan_picks_the_scalar_grid_point(name, request):
    cfg = request.getfixturevalue(name)
    lo, gp, n = cfg.lam * P_MIN, balanced_load(cfg), 4096
    _, _, i = grid_argmax(lambda g: wardrop.price_gap_1_array(cfg, g) * g, lo, gp, n)
    assert i == _scalar_scan_index(lambda g: wardrop.price_gap_1(cfg, g) * g, lo, gp, n)


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
    _, _, i = grid_argmax(lambda g: (wardrop.price_gap_1_array(own, g) + c) * g, lo, hi, n)
    assert i == _scalar_scan_index(lambda g: (gap(cfg, g) + c) * g, lo, hi, n)


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
    _, _, i = grid_argmax(lambda x: np.minimum(x, 0.5), 0.0, 1.0, 11)
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


def test_local_maxima_scan_returns_the_higher_refined_peak():
    # the best grid point is the bump at 0.3, but refined, the bump at
    # 0.75 is higher: the scan must refine both and return the latter
    f, df = _bumps(1.0, 1.05)
    assert grid_argmax(f, 0.0, 1.0, 11)[2] == 3
    (x, fx), peaks = local_maxima_scan(f, f, df, 0.0, 1.0, 11)
    assert len(peaks) == 2
    assert x == pytest.approx(0.75, abs=1e-8)
    assert fx == pytest.approx(1.05, rel=1e-12)


def test_local_maxima_scan_ties_go_to_the_smaller_argument():
    f, df = _bumps(1.0, 1.0 + 1e-10)
    (x, _), peaks = local_maxima_scan(f, f, df, 0.0, 1.0, 11)
    assert len(peaks) == 2
    assert x == pytest.approx(0.3, abs=1e-8)


@pytest.mark.parametrize("dist", LAWS, ids=repr)
def test_price_gap_array_takes_a_lone_rate(dist):
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0), dist)
    gp = balanced_load(cfg)
    for x in (0.0, 0.5, gp, 2.5, cfg.lam):
        got = wardrop.price_gap_1_array(cfg, x)
        assert np.ndim(got) == 0
        np.testing.assert_array_equal(
            _bits(got), _bits(wardrop.price_gap_1_array(cfg, np.array([x]))[0]))
        assert got == pytest.approx(wardrop.price_gap_1(cfg, x), rel=GAMMA_RTOL, abs=1e-15)


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
    # the bits of the all-numpy loops on any CPU
    rng = np.random.default_rng(11)
    lam, gp = 3.0, 1.3
    ps = [rng.random(3000), np.array([1.0 - 1e-12]),
          (lam - uniform_grid(lam * P_MIN, gp, 4096)) / lam,
          uniform_grid(gp, lam * (1.0 - P_MIN), 4096) / lam]
    xs = [k * rng.exponential(1.0, 3000), rng.uniform(0.0, 4.0 * k + 6.0, 3000)]

    def run():
        return ([_special.gamma_p_inverse_array(k, p) for p in ps]
                + [_special.gamma_p_array(k, x) for x in xs])
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
        g1 = wardrop.resolve(own)[2]
        lo = own.lam * P_MIN
        for hi in (balanced_load(own), rate_cap_1(own, 1.5) * (1.0 - P_MIN)):
            xs = uniform_grid(lo, hi, 4096)
            np.testing.assert_array_equal(_bits(wardrop.price_gap_1_array(own, xs)),
                                          _bits([g1(x) for x in xs.tolist()]))


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
    # by Newton steps took 8.4 on the array path and 10 on the scalar one.
    # On this config P is evaluated only inside the inverses.
    counts = dict.fromkeys(["gamma_p_inverse", "gamma_p", "gamma_p_inverse_array",
                            "gamma_p_array"], 0)
    for name in counts:
        def counted(k, v, name=name, fn=getattr(_special, name)):
            counts[name] += np.size(v)
            return fn(k, v)
        monkeypatch.setattr(_special, name, counted)
    balanced_load.cache_clear()
    optimize_monopoly(ex1_gamma, 1.0)
    assert counts["gamma_p_inverse"] > 0 and counts["gamma_p_inverse_array"] > 0
    assert counts["gamma_p_array"] <= 4 * counts["gamma_p_inverse_array"]
    assert counts["gamma_p"] <= 4 * counts["gamma_p_inverse"]


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
    ps = np.array([1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12])
    with _wall_bound(20):
        for k in (1e-3, 0.01, 0.1, 1.0, 100.0, 1e4):
            for x in (_special.gamma_p_inverse_array(k, ps),
                      _scalar(lambda q: _special.gamma_p_inverse(k, q), ps)):
                assert np.all(np.isfinite(x) & (x > 0.0)), (k, x)
        # from a start near 1e21 the flat upper tail must be bisected, not
        # crept back along by Halley steps of about 2 (scipy: 5.1200250838)
        for x in (_special.gamma_p_inverse_array(1e-3, np.array([1.0 - 1e-6]))[0],
                  _special.gamma_p_inverse(1e-3, 1.0 - 1e-6)):
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
