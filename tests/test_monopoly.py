"""Monopoly optimizer checks against the worked examples.

The dominance audits re-evaluate total revenue with a fully independent
vectorized implementation of the gap formula (closed-form quantiles,
including a bisection inverse for the gamma shape-2 CDF) on a fresh
100k-point grid that shares nothing with the search grid.
"""

import math

import numpy as np
import pytest

from qpk import (ConfigError, DelayModel, DomainError, SystemConfig, Uniform,
                 balanced_load, optimize_monopoly, price_gap_1, revenue_curve)


def _audit_rt(cfg, c2, grid):
    """Independent RT(gamma) on an array: c2*lam + beta(gamma)*dD(gamma)*gamma."""
    lam = cfg.lam
    p = (lam - grid) / lam
    dist = cfg.dist
    name = type(dist).__name__
    if name == "Uniform":
        beta = dist.a + (dist.b - dist.a) * p
    elif name == "Exponential":
        beta = -dist.tau * np.log1p(-p)
    elif name == "Gamma" and dist.k == 2.0:
        # invert 1 - e^-u (1 + u) = p by vectorized bisection, then scale
        lo = np.zeros_like(p)
        hi = np.full_like(p, 80.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = 1.0 - np.exp(-mid) * (1.0 + mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        beta = 0.5 * (lo + hi) * dist.theta
    else:
        raise NotImplementedError(name)
    if cfg.d1.family.value == "linear":
        dd = (lam - grid) / cfg.d2.mu - grid / cfg.d1.mu
    else:
        dd = 1.0 / (cfg.d2.mu - (lam - grid)) - 1.0 / (cfg.d1.mu - grid)
    return c2 * lam + beta * dd * grid


EX1_EXPECTED = {
    "uniform": (0.62, 3.106, 4.306),
    "expo": (0.44, 4.89, 4.712),
    "gamma": (0.51, 4.0, 4.532),
}
EX2_EXPECTED = {
    "uniform": (0.48, 2.72, 3.83),
    "expo": (0.33, 4.67, 4.21),
    "gamma": (0.38, 3.74, 4.04),
}


@pytest.mark.parametrize("name", ["uniform", "expo", "gamma"])
def test_example1_reproduction(name, request):
    cfg = request.getfixturevalue(f"ex1_{name}")
    g_star, c_star, rt_star = EX1_EXPECTED[name]
    res = optimize_monopoly(cfg, 1.0)
    assert res.gamma1_star == pytest.approx(g_star, abs=0.01)
    assert res.c1_star == pytest.approx(c_star, abs=0.05)
    assert res.rt_star == pytest.approx(rt_star, abs=0.01)


@pytest.mark.parametrize("name", ["uniform", "expo", "gamma"])
def test_example2_reproduction(name, request):
    cfg = request.getfixturevalue(f"ex2_{name}")
    g_star, c_star, rt_star = EX2_EXPECTED[name]
    res = optimize_monopoly(cfg, 1.0)
    assert res.gamma1_star == pytest.approx(g_star, abs=0.01)
    assert res.c1_star == pytest.approx(c_star, abs=0.05)
    assert res.rt_star == pytest.approx(rt_star, abs=0.01)


def test_result_invariants(ex1_uniform):
    res = optimize_monopoly(ex1_uniform, 1.0)
    gp = balanced_load(ex1_uniform)
    assert 0.0 < res.gamma1_star < gp
    assert res.c1_star > 1.0
    assert res.rt_star == pytest.approx(
        1.0 * 3.0 + (res.c1_star - 1.0) * res.gamma1_star, rel=1e-9)


@pytest.mark.parametrize("name", ["uniform", "expo", "gamma"])
def test_optimizer_dominates_audit_grid(name, request):
    cfg = request.getfixturevalue(f"ex1_{name}")
    res = optimize_monopoly(cfg, 1.0)
    gp = balanced_load(cfg)
    grid = np.linspace(1e-7, gp, 100_000)
    audit = _audit_rt(cfg, 1.0, grid)
    assert res.rt_star >= float(audit.max()) - 1e-9


def test_c2_shift_property(ex1_uniform):
    results = {c2: optimize_monopoly(ex1_uniform, c2) for c2 in (0.0, 1.0, 5.0)}
    g0 = results[0.0].gamma1_star
    for c2, res in results.items():
        assert res.gamma1_star == pytest.approx(g0, abs=1e-6)
        assert res.c1_star == pytest.approx(results[0.0].c1_star + c2, abs=1e-6)


def test_revenue_depends_on_higher_moments(ex1_uniform, ex1_expo, ex1_gamma):
    # the three laws share mean 4 but give pairwise distinct optima
    rts = [optimize_monopoly(cfg, 1.0).rt_star
           for cfg in (ex1_uniform, ex1_expo, ex1_gamma)]
    assert abs(rts[0] - rts[1]) > 0.05
    assert abs(rts[0] - rts[2]) > 0.05
    assert abs(rts[1] - rts[2]) > 0.05


@pytest.mark.parametrize("name", ["uniform", "expo"])
def test_first_order_condition_at_optimum(name, request):
    cfg = request.getfixturevalue(f"ex1_{name}")
    res = optimize_monopoly(cfg, 1.0)
    h = lambda g: price_gap_1(cfg, g) * g
    step = 1e-5
    left = (h(res.gamma1_star) - h(res.gamma1_star - step)) / step
    right = (h(res.gamma1_star + step) - h(res.gamma1_star)) / step
    assert left >= 0.0 >= right


def test_optimize_rejects_bad_inputs(ex1_uniform):
    with pytest.raises(DomainError):
        optimize_monopoly(ex1_uniform, -1.0)
    # an unstable system cannot be built, so it never reaches the solver
    with pytest.raises(ConfigError):
        SystemConfig(3.0, DelayModel.mm1(2.0), DelayModel.mm1(4.0), Uniform(2.0, 6.0))


@pytest.mark.parametrize("c2", [np.nan, np.inf, -1.0])
def test_optimize_rejects_nonfinite_and_negative_c2(ex1_uniform, c2):
    # unchecked, a nan c2 comes back as c1_star = nan
    with pytest.raises(DomainError, match="c2 must be"):
        optimize_monopoly(ex1_uniform, c2)


@pytest.mark.parametrize("c2", [np.nan, np.inf, -1.0])
def test_revenue_curve_rejects_nonfinite_and_negative_c2(ex1_uniform, c2):
    # unchecked, a nan c2 comes back as a curve of nan revenues
    with pytest.raises(DomainError, match="c2 must be"):
        revenue_curve(ex1_uniform, c2, 5)


def test_revenue_curve_shape(ex1_uniform):
    c2 = 1.0
    curve = revenue_curve(ex1_uniform, c2, 400)
    gammas = [g for g, _ in curve]
    rts = [rt for _, rt in curve]
    assert len(curve) == 400
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
    # endpoints: zero rate and balanced load both earn just c2 * lam
    assert rts[0] == pytest.approx(c2 * 3.0, abs=1e-6)
    assert rts[-1] == pytest.approx(c2 * 3.0, abs=1e-8)
    # peak within one grid cell of the known optimum
    peak_gamma = gammas[int(np.argmax(rts))]
    cell = gammas[1] - gammas[0]
    assert abs(peak_gamma - 0.62) <= cell + 0.01
    # n counts samples: a fractional n would silently shorten the last gap
    for n in (1, 4.5, 4.0, "4", math.nan):
        with pytest.raises(DomainError, match="n must be at least 2 and an integer"):
            revenue_curve(ex1_uniform, c2, n)
