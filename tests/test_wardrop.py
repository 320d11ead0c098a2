"""Equilibrium-core checks: balanced load, thresholds, price gaps, caps,
price-rate duality, and the equilibrium solver.

Derived expectations are evaluated inline from the defining formulas
(independent of the code paths under test); the sign-direction,
monotonicity, and no-regret properties run over seeded random configs.
"""

import math
import random

import numpy as np
import pytest

from qpk import (DelayModel, DomainError, Exponential, PriceVector, Regime,
                 SystemConfig, balanced_load, cdf, choke_price_1,
                 kernel_choice, price_gap_1, price_gap_1_deriv, price_gap_2,
                 price_gap_2_deriv, price_of_rate_1, price_of_rate_2,
                 quantile, rate_cap_1, rate_cap_2, revenue_rates,
                 solve_equilibrium, threshold_of_rate)
from qpk import duopoly, monopoly, wardrop
from conftest import FIXTURES, random_config


# --- balanced load -----------------------------------------------------------


def test_balanced_load_identical_servers_is_half(ex3):
    assert balanced_load(ex3) == 1.5


def test_balanced_load_example1_linear(ex1_uniform):
    # analytic: gamma/3.3 = (3-gamma)/4  =>  gamma = 9.9/7.3
    gp = balanced_load(ex1_uniform)
    assert gp == pytest.approx(9.9 / 7.3, abs=1e-9)
    assert abs(ex1_uniform.delay1(gp) - ex1_uniform.delay2(3.0 - gp)) < 1e-10


def test_balanced_load_example2_mm1(ex2_uniform):
    # analytic: 1/(3.3-gamma) = 1/(1+gamma)  =>  gamma = 1.15
    assert balanced_load(ex2_uniform) == pytest.approx(1.15, abs=1e-9)


def test_balanced_load_saturated(sat_power):
    assert balanced_load(sat_power) == 2.5


# --- threshold map -----------------------------------------------------------


def test_threshold_examples(ex1_uniform, sat_power):
    assert threshold_of_rate(ex1_uniform, 0.0) == 6.0
    assert threshold_of_rate(sat_power, 2.5) == pytest.approx(
        4.0 / math.sqrt(2.0), rel=1e-9)
    expo = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                        Exponential(4.0))
    assert threshold_of_rate(expo, 0.44) == pytest.approx(
        -4.0 * math.log(0.44 / 3.0), rel=1e-12)


def test_threshold_branches(ex1_uniform):
    gp = balanced_load(ex1_uniform)
    # low-rate branch decreasing, high-rate branch increasing
    assert threshold_of_rate(ex1_uniform, 0.2) > threshold_of_rate(ex1_uniform, 0.8)
    assert threshold_of_rate(ex1_uniform, gp + 0.2) < threshold_of_rate(
        ex1_uniform, gp + 0.8)
    with pytest.raises(DomainError):
        threshold_of_rate(ex1_uniform, -0.1)
    with pytest.raises(DomainError):
        threshold_of_rate(ex1_uniform, 3.1)


def test_threshold_jump_at_balanced_load(fig_threshold):
    # non-identical servers: the threshold map is discontinuous at gamma+
    gp = balanced_load(fig_threshold)
    left = threshold_of_rate(fig_threshold, gp)
    right = threshold_of_rate(fig_threshold, gp * (1 + 1e-9))
    assert abs(left - right) > 0.1


def test_threshold_continuous_for_identical_servers(ex3):
    gp = balanced_load(ex3)
    left = threshold_of_rate(ex3, gp - 1e-9)
    right = threshold_of_rate(ex3, gp + 1e-9)
    assert left == pytest.approx(right, abs=1e-6)


# --- price gaps ---------------------------------------------------------------


def test_price_gap_zero_at_balanced_load(ex1_uniform, ex2_expo):
    for cfg in (ex1_uniform, ex2_expo):
        gp = balanced_load(cfg)
        assert abs(price_gap_1(cfg, gp)) < 1e-9
        assert abs(price_gap_2(cfg, cfg.lam - gp)) < 1e-9


def test_price_gap_1_example1_values(ex1_uniform, ex1_expo):
    # inline oracle: beta * (D2(lam - g) - D1(g)) from the raw formulas
    beta = 2.0 + 4.0 * (2.38 / 3.0)
    dd = 2.38 / 4.0 - 0.62 / 3.3
    assert price_gap_1(ex1_uniform, 0.62) == pytest.approx(beta * dd, rel=1e-9)
    assert price_gap_1(ex1_uniform, 0.62) == pytest.approx(2.106, abs=5e-4)

    beta_e = -4.0 * math.log(0.44 / 3.0)
    dd_e = 2.56 / 4.0 - 0.44 / 3.3
    assert price_gap_1(ex1_expo, 0.44) == pytest.approx(beta_e * dd_e, rel=1e-9)
    assert price_gap_1(ex1_expo, 0.44) == pytest.approx(3.890, abs=5e-4)


def test_price_gap_sign_matches_balance(ex1_uniform):
    gp = balanced_load(ex1_uniform)
    assert price_gap_1(ex1_uniform, gp - 0.3) > 0.0
    assert price_gap_1(ex1_uniform, gp + 0.3) < 0.0


@pytest.mark.parametrize("fixture", ["ex1_uniform", "fig_threshold"])
def test_price_gap_strictly_decreasing_on_dense_grid(fixture, request):
    cfg = request.getfixturevalue(fixture)
    eps = 1e-4
    grid = np.linspace(eps, cfg.lam - eps, 10_000)
    g1 = [price_gap_1(cfg, float(g)) for g in grid]
    assert all(a > b for a, b in zip(g1, g1[1:]))
    g2 = [price_gap_2(cfg, float(g)) for g in grid]
    assert all(a > b for a, b in zip(g2, g2[1:]))


def test_price_gap_2_mirror_identity(ex1_uniform):
    # brute-force evaluation of the server-2 gap formula at gamma2 = 2.38:
    # beta1(0.62) * (D1(0.62) - D2(2.38)); equals -g1(0.62)
    beta = 2.0 + 4.0 * (2.38 / 3.0)
    want = beta * (0.62 / 3.3 - 2.38 / 4.0)
    assert price_gap_2(ex1_uniform, 2.38) == pytest.approx(want, rel=1e-9)
    assert price_gap_2(ex1_uniform, 2.38) == pytest.approx(
        -price_gap_1(ex1_uniform, 0.62), rel=1e-12)
    for g in np.linspace(0.05, 2.95, 59):
        assert price_gap_2(ex1_uniform, float(g)) == pytest.approx(
            -price_gap_1(ex1_uniform, float(3.0 - g)), rel=1e-9, abs=1e-12)


def test_server_2_functions_are_server_1_on_the_swapped_system(request):
    rng = random.Random(31)
    cfgs = [request.getfixturevalue(n) for n in FIXTURES] + [random_config(rng)
                                                             for _ in range(20)]
    for cfg in cfgs:
        sw = cfg.swapped()
        ties = [balanced_load(cfg), balanced_load(sw), cfg.lam - balanced_load(cfg)]
        inner = [float(g) for g in np.linspace(0.0, cfg.lam, 41)[1:-1]] + ties
        for g in [0.0, cfg.lam] + inner:
            assert price_gap_2(cfg, g) == price_gap_1(sw, g)
        for g in inner:
            assert price_gap_2_deriv(cfg, g) == price_gap_1_deriv(sw, g)
        for c in (0.0, 0.5, 2.0, 50.0):
            cap = rate_cap_2(cfg, c)
            assert cap == rate_cap_1(sw, c)
            for g in (0.3 * cap, 0.9 * cap):
                assert price_of_rate_2(cfg, c, g) == price_of_rate_1(sw, c, g)


def test_gap_derivatives_take_the_low_rate_branch_at_the_kink(fig_threshold):
    # for non-identical servers g_j has a kink at server j's balanced load;
    # there each derivative is the left-sided one, on the low-rate branch
    cfg = fig_threshold
    h = 1e-7 * cfg.lam
    for gap, deriv, x in ((price_gap_1, price_gap_1_deriv, balanced_load(cfg)),
                          (price_gap_2, price_gap_2_deriv, balanced_load(cfg.swapped()))):
        left = (gap(cfg, x) - gap(cfg, x - h)) / h
        right = (gap(cfg, x + h) - gap(cfg, x)) / h
        assert abs(left - right) > 0.1 * abs(left)
        assert deriv(cfg, x) == pytest.approx(left, rel=1e-5)


def test_price_gaps_agree_for_identical_servers(ex3):
    for g in np.linspace(0.0, 3.0, 101):
        assert abs(price_gap_1(ex3, float(g)) - price_gap_2(ex3, float(g))) < 1e-10


def test_price_gap_unbounded_endpoints(ex1_expo):
    assert price_gap_1(ex1_expo, 0.0) == math.inf
    assert price_gap_1(ex1_expo, 3.0) == -math.inf
    assert price_gap_2(ex1_expo, 0.0) == math.inf
    assert price_gap_2(ex1_expo, 3.0) == -math.inf


def test_price_gap_deriv_matches_finite_difference():
    rng = random.Random(7)
    h_rel = 1e-6
    for _ in range(25):
        cfg = random_config(rng)
        gp = balanced_load(cfg)
        h = h_rel * cfg.lam
        # stay clear of the branch kink so the central difference is valid
        for g in (0.35 * gp, 0.8 * gp, gp + 0.5 * (cfg.lam - gp)):
            fd = (price_gap_1(cfg, g + h) - price_gap_1(cfg, g - h)) / (2 * h)
            assert price_gap_1_deriv(cfg, g) == pytest.approx(fd, rel=2e-4)
            fd2 = (price_gap_2(cfg, g + h) - price_gap_2(cfg, g - h)) / (2 * h)
            assert price_gap_2_deriv(cfg, g) == pytest.approx(fd2, rel=2e-4)


# --- rate caps and price-of-rate ----------------------------------------------


def test_rate_cap_at_zero_price_is_balanced_load(ex1_uniform, ex1_expo):
    for cfg in (ex1_uniform, ex1_expo):
        assert rate_cap_1(cfg, 0.0) == pytest.approx(balanced_load(cfg), abs=1e-7)


def test_rate_cap_saturates_for_large_c2(ex1_uniform):
    # bounded law: c2 >= -g1(lam) = 6 * (D1(3) - D2(0)) = 6 * 3/3.3
    assert rate_cap_1(ex1_uniform, 6.0) == 3.0
    assert rate_cap_2(ex1_uniform, 6.0) == 3.0


def test_rate_cap_example1_root(ex1_uniform):
    # independent oracle: bisection on the inline gap formula for the
    # target g1(gamma) = -1 (high-rate branch: beta = 2 + 4 g / 3)
    def gap(g):
        return (2.0 + 4.0 * g / 3.0) * ((3.0 - g) / 4.0 - g / 3.3)
    lo, hi = balanced_load(ex1_uniform), 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > -1.0:
            lo = mid
        else:
            hi = mid
    want = 0.5 * (lo + hi)
    got = rate_cap_1(ex1_uniform, 1.0)
    assert got == pytest.approx(want, abs=1e-7)
    assert got == pytest.approx(1.77079, abs=1e-4)
    assert price_gap_1(ex1_uniform, got) == pytest.approx(-1.0, abs=1e-8)


def test_rate_cap_rejects_negative_price(ex1_uniform):
    with pytest.raises(DomainError):
        rate_cap_1(ex1_uniform, -0.5)


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
def test_price_inputs_reject_nonfinite_and_negative_prices(ex1_uniform, c):
    # unchecked, a nan rival price bisects to a meaningless cap
    for call in (lambda: rate_cap_1(ex1_uniform, c), lambda: rate_cap_2(ex1_uniform, c),
                 lambda: price_of_rate_1(ex1_uniform, c, 1.0),
                 lambda: price_of_rate_2(ex1_uniform, c, 1.0),
                 lambda: choke_price_1(ex1_uniform, c)):
        with pytest.raises(DomainError, match="rival price must be"):
            call()


def test_price_of_rate_examples(ex1_uniform, ex2_uniform):
    gp = balanced_load(ex1_uniform)
    assert price_of_rate_1(ex1_uniform, 1.0, gp) == pytest.approx(1.0, abs=1e-9)
    assert price_of_rate_1(ex1_uniform, 1.0, 0.62) == pytest.approx(3.106, abs=5e-4)
    assert price_of_rate_1(ex2_uniform, 1.0, 0.48) == pytest.approx(2.72, abs=5e-3)


def test_price_of_rate_boundary_conventions(ex1_uniform, ex1_expo):
    # bounded law: finite boundary prices by convention
    assert price_of_rate_1(ex1_uniform, 6.0, 0.0) == pytest.approx(
        6.0 + 6.0 * (3.0 / 4.0), rel=1e-12)
    with pytest.raises(DomainError):
        price_of_rate_1(ex1_expo, 1.0, 0.0)
    with pytest.raises(DomainError):
        price_of_rate_1(ex1_expo, 1.0, 3.0)
    with pytest.raises(DomainError):  # beyond the cap: price would go negative
        price_of_rate_1(ex1_uniform, 1.0, 2.5)


def test_price_of_rate_2_mirror(ex1_uniform):
    gp = balanced_load(ex1_uniform)
    assert price_of_rate_2(ex1_uniform, 2.0, 3.0 - gp) == pytest.approx(2.0, abs=1e-9)
    assert price_of_rate_2(ex1_uniform, 3.106, 3.0 - 0.62) == pytest.approx(
        1.0, abs=2e-3)


def test_server_2_errors_name_no_server_1_argument(ex1_uniform):
    with pytest.raises(DomainError, match=r"^rate must lie in \[0, 3\.0\], got 5\.0$"):
        price_gap_2(ex1_uniform, 5.0)
    with pytest.raises(DomainError, match=r"^rival price must be nonnegative, got -1$"):
        rate_cap_2(ex1_uniform, -1)


@pytest.mark.parametrize("name", FIXTURES)
def test_resolved_maps_are_the_point_functions(name, request):
    cfg = request.getfixturevalue(name)
    gp, beta1, g1, g1_slope = wardrop.resolve(cfg)
    assert gp == balanced_load(cfg)
    for g in (0.0, cfg.lam * 1e-12, 0.3 * gp, gp, 0.5 * (gp + cfg.lam), cfg.lam):
        assert beta1(g) == threshold_of_rate(cfg, g)
        assert g1(g) == price_gap_1(cfg, g)
        if 0.0 < g < cfg.lam:
            assert g1_slope(g) == (price_gap_1(cfg, g), price_gap_1_deriv(cfg, g))
    for g in (-1e-9, cfg.lam * (1.0 + 1e-9), math.nan):
        for f in (beta1, g1):
            with pytest.raises(DomainError, match="rate must lie in"):
                f(g)


def test_point_solves_resolve_the_config_once(ex1_uniform, monkeypatch):
    # one gamma+ lookup for the solve, none per g1 evaluation; the array
    # scans of the optimizers make the second
    calls = []
    lookup = wardrop.balanced_load

    def counted(cfg):
        calls.append(cfg)
        return lookup(cfg)
    for module in (wardrop, monopoly, duopoly):
        monkeypatch.setattr(module, "balanced_load", counted)
    for solve in (lambda: monopoly.optimize_monopoly(ex1_uniform, 1.0),
                  lambda: duopoly.best_response(ex1_uniform, 1, 1.0),
                  lambda: duopoly.best_response(ex1_uniform, 2, 1.0),
                  lambda: solve_equilibrium(ex1_uniform, PriceVector(2.0, 1.0)),
                  lambda: solve_equilibrium(ex1_uniform, PriceVector(1.0, 1.0))):
        calls.clear()
        solve()
        assert 1 <= len(calls) <= 2


def test_choke_price_bounded_only(ex1_uniform, ex1_expo):
    assert choke_price_1(ex1_uniform, 1.0) == pytest.approx(
        1.0 + 6.0 * (3.0 / 4.0), rel=1e-12)
    with pytest.raises(DomainError):
        choke_price_1(ex1_expo, 1.0)


# --- equilibrium solver ---------------------------------------------------------


def test_equal_prices_return_balanced_load(ex1_uniform, ex3):
    for cfg in (ex1_uniform, ex3):
        split = solve_equilibrium(cfg, PriceVector(2.0, 2.0))
        assert split.gamma1 == balanced_load(cfg)
        assert split.regime is Regime.HIGH_BETA_TO_SERVER_1
        assert split.beta1 == threshold_of_rate(cfg, split.gamma1)


def test_solve_example1_optimum_prices(ex1_uniform):
    split = solve_equilibrium(ex1_uniform, PriceVector(3.106, 1.0))
    assert split.gamma1 == pytest.approx(0.62, abs=0.005)
    assert split.gamma1 + split.gamma2 == 3.0


def test_solve_boundary_branches(ex1_uniform):
    # gap above g1(0) = 6 * D2(3) = 4.5 chokes server 1
    split = solve_equilibrium(ex1_uniform, PriceVector(10.0, 1.0))
    assert split.gamma1 == 0.0
    assert split.beta1 == 6.0
    # gap below g1(lam) = -6 * 3/3.3 starves server 2
    split = solve_equilibrium(ex1_uniform, PriceVector(0.0, 10.0))
    assert split.gamma1 == 3.0
    assert split.regime is Regime.HIGH_BETA_TO_SERVER_2


def test_solve_residual_tolerance(ex1_uniform, ex1_gamma):
    for cfg, pv in ((ex1_uniform, PriceVector(2.7, 1.1)),
                    (ex1_gamma, PriceVector(4.0, 1.0))):
        split = solve_equilibrium(cfg, pv)
        gap = pv.c1 - pv.c2
        assert abs(price_gap_1(cfg, split.gamma1) - gap) < 1e-10 * max(1.0, abs(gap))


def test_price_order_determines_split_side():
    rng = random.Random(20240817)
    for _ in range(500):
        cfg = random_config(rng)
        prices = PriceVector(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
        split = solve_equilibrium(cfg, prices)
        gp = balanced_load(cfg)
        if prices.c1 >= prices.c2:
            assert split.gamma1 <= gp + 1e-9 * cfg.lam
            assert split.regime is Regime.HIGH_BETA_TO_SERVER_1
        else:
            assert split.gamma1 > gp - 1e-9 * cfg.lam
            assert split.regime is Regime.HIGH_BETA_TO_SERVER_2


def test_price_rate_round_trip(ex1_uniform, ex1_expo):
    for cfg in (ex1_uniform, ex1_expo):
        c2 = 1.0
        cap = rate_cap_1(cfg, c2)
        for frac in np.linspace(0.05, 0.95, 19):
            gamma = float(frac) * cap
            c1 = price_of_rate_1(cfg, c2, gamma)
            split = solve_equilibrium(cfg, PriceVector(c1, c2))
            assert split.gamma1 == pytest.approx(gamma, abs=1e-6)


def test_wardrop_no_regret_sampled():
    rng = random.Random(99)
    for _ in range(20):
        cfg = random_config(rng)
        prices = PriceVector(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        split = solve_equilibrium(cfg, prices)
        a, b = cfg.dist.support
        if not (a < split.beta1 < b):
            continue
        d = {1: cfg.delay1(split.gamma1), 2: cfg.delay2(split.gamma2)}
        c = {1: prices.c1, 2: prices.c2}
        hi = quantile(cfg.dist, min(0.999999, cdf(cfg.dist, split.beta1) + 0.3))
        lo = quantile(cfg.dist, max(1e-6, cdf(cfg.dist, split.beta1) - 0.3))
        for beta in np.concatenate([
                np.linspace(lo, split.beta1 * (1 - 1e-9), 100),
                np.linspace(split.beta1 * (1 + 1e-9), hi, 100)]):
            beta = float(beta)
            chosen = kernel_choice(cfg, split, beta)
            other = 3 - chosen
            assert (c[chosen] + beta * d[chosen]
                    <= c[other] + beta * d[other] + 1e-8)


def test_rate_matches_tail_mass(ex1_uniform, ex1_gamma):
    # for c1 > c2 with an interior threshold: gamma1 = lam * (1 - F(beta1))
    for cfg, pv in ((ex1_uniform, PriceVector(3.0, 1.0)),
                    (ex1_gamma, PriceVector(3.5, 1.2))):
        split = solve_equilibrium(cfg, pv)
        assert split.gamma1 == pytest.approx(
            cfg.lam * (1.0 - cdf(cfg.dist, split.beta1)), abs=1e-8)


@pytest.mark.parametrize("name", ["ex1_gamma", "ex2_gamma"])
def test_gamma_splits_are_the_rates_of_their_thresholds(name, request):
    # an equilibrium on a gamma law reads its rate off its own threshold,
    # lam * (1 - F(beta1)) up to gamma+ and lam * F(beta1) above; a
    # threshold inverted from the rate with a stop absolute in 1 - p was
    # 9.3e-11 off at the rate 2.8e-4 on ex2 Gamma(2, 2)
    pytest.importorskip("mpmath")
    import reference_mp as ref
    cfg = request.getfixturevalue(name)
    rng = random.Random(20261019)
    prices = [PriceVector(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)) for _ in range(24)]
    prices.append(PriceVector(1.0 + price_gap_1(cfg, 2.8e-4), 1.0))
    gp = balanced_load(cfg)
    for pv in prices:
        split = solve_equilibrium(cfg, pv)
        level = ref.cdf(cfg.dist, ref.mp.mpf(split.beta1))
        want = cfg.lam * (1 - level if split.gamma1 <= gp else level)
        assert abs(want - split.gamma1) <= 1e-13 * split.gamma1, pv
    assert split.gamma1 == pytest.approx(2.8e-4, rel=1e-9)


def test_indifference_identity_at_interior_threshold():
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        cfg = random_config(rng)
        prices = PriceVector(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        split = solve_equilibrium(cfg, prices)
        a, b = cfg.dist.support
        if not (a < split.beta1 < b and 0.0 < split.gamma1 < cfg.lam):
            continue
        lhs = prices.c1 + split.beta1 * cfg.delay1(split.gamma1)
        rhs = prices.c2 + split.beta1 * cfg.delay2(split.gamma2)
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, abs(lhs)))
        checked += 1
    assert checked >= 10


# --- kernel and revenue ----------------------------------------------------------


def test_kernel_choice_examples(ex1_uniform):
    split = solve_equilibrium(ex1_uniform, PriceVector(3.106, 1.0))
    assert split.beta1 == pytest.approx(5.173, abs=2e-3)
    assert kernel_choice(ex1_uniform, split, 6.0) == 1
    assert kernel_choice(ex1_uniform, split, 5.5) == 1
    assert kernel_choice(ex1_uniform, split, 2.0) == 2
    assert kernel_choice(ex1_uniform, split, split.beta1) == 2  # bulk side
    with pytest.raises(DomainError):
        kernel_choice(ex1_uniform, split, 1.0)
    # mirrored regime
    split_lo = solve_equilibrium(ex1_uniform, PriceVector(1.0, 3.0))
    assert kernel_choice(ex1_uniform, split_lo, 6.0) == 2
    assert kernel_choice(ex1_uniform, split_lo, split_lo.beta1) == 1


def test_revenue_rates(ex1_uniform, ex2_expo):
    split = solve_equilibrium(ex1_uniform, PriceVector(2.0, 2.0))
    r1, r2, rt = revenue_rates(split, PriceVector(2.0, 2.0))
    assert rt == pytest.approx(6.0, rel=1e-12)
    assert r1 + r2 == rt

    split = solve_equilibrium(ex1_uniform, PriceVector(3.106, 1.0))
    _, _, rt = revenue_rates(split, PriceVector(3.106, 1.0))
    assert rt == pytest.approx(4.306, abs=2e-3)

    split = solve_equilibrium(ex2_expo, PriceVector(4.67, 1.0))
    _, _, rt = revenue_rates(split, PriceVector(4.67, 1.0))
    assert rt == pytest.approx(4.21, abs=5e-3)


def test_price_vector_rejects_nonfinite():
    with pytest.raises(DomainError):
        PriceVector(math.inf, 1.0)
    with pytest.raises(DomainError):
        PriceVector(1.0, math.nan)
