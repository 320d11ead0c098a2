"""Best-response and symmetric-Nash checks.

The closed-form candidate price for identical linear servers with mean-4
sensitivity laws is 1.5 * (4 ln 2) * 0.5 in the exponential case and 3 in
the uniform case; brute-force grids confirm the optimizer output.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from qpk import (DelayModel, DomainError, Exponential, NashVerdict,
                 PreconditionError, PriceVector, SystemConfig,
                 balanced_load, best_response, check_symmetric_nash,
                 nash_iterate, price_gap_1, price_gap_2, price_gap_1_deriv,
                 price_gap_2_deriv, rate_cap_1, rate_cap_2, symmetric_alpha)
from conftest import FIXTURES, random_config


# --- worked examples -----------------------------------------------------------


def test_example3_best_response_at_candidate(ex3):
    br = best_response(ex3, 1, 3.0)
    assert br.gamma_star == pytest.approx(1.5, abs=1e-6)
    assert br.price_star == pytest.approx(3.0, abs=1e-6)
    assert br.revenue_star == pytest.approx(4.5, abs=1e-6)


def test_example3_alpha_and_verdict(ex3):
    a1, a2 = symmetric_alpha(ex3)
    assert a1 == pytest.approx(3.0, abs=1e-9)
    assert a2 == pytest.approx(3.0, abs=1e-9)
    assert check_symmetric_nash(ex3) is NashVerdict.CONFIRMED


def test_example3_nash_iteration_converges(ex3):
    out = nash_iterate(ex3, PriceVector(1.0, 1.0), tol=1e-6, max_iter=50)
    assert out.converged
    assert out.prices.c1 == pytest.approx(3.0, abs=1e-4)
    assert out.prices.c2 == pytest.approx(3.0, abs=1e-4)
    assert out.symmetric_alpha == pytest.approx(3.0, abs=1e-9)


def test_example4_alpha_closed_form(ex4):
    # 1.5 * (-4 ln 0.5) * 0.5 = 3 ln 2
    a1, a2 = symmetric_alpha(ex4)
    assert a1 == pytest.approx(1.5 * (-4.0 * math.log(0.5)) * 0.5, abs=1e-9)
    assert a1 == pytest.approx(2.0794, abs=1e-3)
    assert a1 == a2


def test_example4_candidate_fails(ex4):
    a1, _ = symmetric_alpha(ex4)
    assert check_symmetric_nash(ex4) is NashVerdict.NECESSARY_ONLY_FAILED
    br = best_response(ex4, 1, a1)
    assert abs(br.gamma_star - 1.5) > 0.01 * 3.0
    # the deviation strictly beats playing the candidate rate
    assert br.revenue_star > a1 * 1.5 + 1e-3


def test_check_symmetric_nash_requires_identical_servers(ex1_uniform):
    with pytest.raises(PreconditionError):
        check_symmetric_nash(ex1_uniform)


# --- best response -----------------------------------------------------------------


def test_best_response_confirmed_by_brute_force(ex3, ex4):
    for cfg, price in ((ex3, 1.0), (ex4, 2.0)):
        br = best_response(cfg, 1, price)
        cap = rate_cap_1(cfg, price)
        grid = np.linspace(1e-6, cap * (1 - 1e-9), 20_000)
        brute = max((price_gap_1(cfg, float(g)) + price) * float(g) for g in grid)
        assert br.revenue_star >= brute - 1e-6
        assert br.price_star == pytest.approx(
            price_gap_1(cfg, br.gamma_star) + price, rel=1e-12)
        assert br.revenue_star == pytest.approx(br.price_star * br.gamma_star,
                                                rel=1e-12)


def test_best_response_zero_rival_price(ex1_uniform):
    br = best_response(ex1_uniform, 1, 0.0)
    gp = balanced_load(ex1_uniform)
    assert 0.0 < br.gamma_star < gp
    assert br.revenue_star > 0.0


def test_best_response_server2(ex1_uniform):
    br = best_response(ex1_uniform, 2, 1.0)
    cap = rate_cap_2(ex1_uniform, 1.0)
    assert 0.0 < br.gamma_star < cap
    assert br.price_star == pytest.approx(
        price_gap_2(ex1_uniform, br.gamma_star) + 1.0, rel=1e-12)
    grid = np.linspace(1e-6, cap * (1 - 1e-9), 20_000)
    brute = max((price_gap_2(ex1_uniform, float(g)) + 1.0) * float(g) for g in grid)
    assert br.revenue_star >= brute - 1e-6


def test_best_response_2_is_server_1_on_the_swapped_system(request):
    rng = random.Random(17)
    cfgs = [request.getfixturevalue(n) for n in FIXTURES] + [random_config(rng)
                                                             for _ in range(12)]
    for cfg in cfgs:
        for c in (0.5, 2.0):
            br = best_response(cfg, 2, c)
            assert br.server == 2
            assert dataclasses.replace(br, server=1) == best_response(cfg.swapped(), 1, c)


def test_best_response_input_checks(ex1_uniform):
    with pytest.raises(DomainError):
        best_response(ex1_uniform, 3, 1.0)
    with pytest.raises(DomainError):
        best_response(ex1_uniform, 1, -0.2)


@pytest.mark.parametrize("server", [1, 2])
@pytest.mark.parametrize("other", [math.nan, math.inf, -1.0])
def test_best_response_rejects_nonfinite_and_negative_rival_price(ex3, server, other):
    # unchecked, a nan rival price leaves the scan no candidate at all
    with pytest.raises(DomainError, match="other_price must be"):
        best_response(ex3, server, other)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tolerances_must_be_finite_and_positive(ex3, tol):
    # unchecked, a negative or nan tol turns ex3's confirmed equilibrium
    # into NECESSARY_ONLY_FAILED, and nash_iterate never converges on nan
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        check_symmetric_nash(ex3, tol=tol)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        nash_iterate(ex3, PriceVector(1.0, 1.0), tol=tol)


def test_stationary_points_contain_optimum(ex4):
    a1, _ = symmetric_alpha(ex4)
    br = best_response(ex4, 1, a1)
    assert any(abs(p - br.gamma_star) < 1e-6 for p in br.stationary_points)
    assert list(br.stationary_points) == sorted(br.stationary_points)


def test_a_kink_and_an_interior_peak_on_one_branch():
    # server 1's revenue rises to a peak at 0.3204, dips, and rises again
    # to the kink at gamma+ = 0.6918, where the upper branch falls away:
    # the slopes at the low branch's ends alone point at the kink, whose
    # revenue 0.98567 is below the interior peak's
    cfg = SystemConfig(1.0511562272150003, DelayModel.linear(2.203759939605426),
                       DelayModel.linear(1.1445338085505705), Exponential(3.452334604693649))
    br = best_response(cfg, 1, 1.4247026772431344)
    assert abs(br.gamma_star - 0.320446542138889) <= 1e-12 * cfg.lam
    assert br.revenue_star == pytest.approx(1.104472037399761, rel=1e-13)
    gp = balanced_load(cfg)
    assert gp == pytest.approx(0.6918, abs=1e-4)
    assert len(br.stationary_points) == 2
    assert br.stationary_points[0] == pytest.approx(0.320446542138889, rel=1e-12)
    assert br.stationary_points[1] == gp


def test_best_response_rate_is_interior():
    rng = random.Random(4242)
    for _ in range(50):
        cfg = random_config(rng)
        server = rng.choice((1, 2))
        gap_fn = price_gap_1 if server == 1 else price_gap_2
        # stay in the regime where the rate cap is interior: for bounded
        # laws the rival price must sit below -g_j(lam)
        ceiling = -gap_fn(cfg, cfg.lam)
        price = rng.uniform(0.0, min(4.0, 0.9 * ceiling) if math.isfinite(ceiling)
                            else 4.0)
        br = best_response(cfg, server, price)
        cap = rate_cap_1(cfg, price) if server == 1 else rate_cap_2(cfg, price)
        margin = 1e-6 * cfg.lam
        assert br.gamma_star > margin
        assert br.gamma_star < cap - margin


def test_stationarity_at_interior_optimum(ex3, ex1_expo):
    for cfg, price in ((ex3, 3.0), (ex1_expo, 1.0)):
        br = best_response(cfg, 1, price)
        r = lambda g: (price_gap_1(cfg, g) + price) * g
        h = 1e-6
        slope = (r(br.gamma_star + h) - r(br.gamma_star - h)) / (2 * h)
        assert abs(slope) < 1e-4 * max(1.0, br.revenue_star)


# --- alpha consistency ----------------------------------------------------------


def test_alpha_matches_finite_difference_identical():
    rng = random.Random(11)
    for _ in range(15):
        lam = rng.uniform(1.0, 5.0)
        if rng.random() < 0.5:
            d = DelayModel.linear(rng.uniform(0.5, 3.0) * lam)
        else:
            d = DelayModel.mm1(rng.uniform(1.2, 3.0) * lam)
        cfg = random_config(rng)
        cfg = SystemConfig(lam, d, d, cfg.dist)
        a1, a2 = symmetric_alpha(cfg)
        assert a1 == pytest.approx(a2, abs=1e-9 * max(1.0, abs(a1)))
        gp = balanced_load(cfg)
        h = 1e-6 * lam
        fd = (price_gap_1(cfg, gp + h) - price_gap_1(cfg, gp - h)) / (2 * h)
        assert -gp * fd == pytest.approx(a1, rel=1e-5)


def test_alpha_matches_one_sided_difference_nonidentical(ex1_uniform):
    # the gap derivative jumps at the balanced load here, so compare the
    # analytic value against a left-sided difference
    gp = balanced_load(ex1_uniform)
    h = 1e-7 * 3.0
    fd = (price_gap_1(ex1_uniform, gp) - price_gap_1(ex1_uniform, gp - h)) / h
    a1, _ = symmetric_alpha(ex1_uniform)
    assert a1 == pytest.approx(-gp * fd, rel=1e-4)
    assert a1 == pytest.approx(-gp * price_gap_1_deriv(ex1_uniform, gp), rel=1e-12)


def test_alpha2_is_taken_at_server_2s_own_balanced_load(ex1_uniform):
    # server 2's balanced load is lam - gamma+, where g2 vanishes; at
    # server 1's gamma+ it would read 3.432
    x = balanced_load(ex1_uniform.swapped())
    assert x == pytest.approx(3.0 - balanced_load(ex1_uniform), rel=1e-12)
    assert price_gap_2(ex1_uniform, x) == pytest.approx(0.0, abs=1e-12)
    _, a2 = symmetric_alpha(ex1_uniform)
    assert a2 == -x * price_gap_2_deriv(ex1_uniform, x)
    assert a2 == pytest.approx(3.4620174346201744, rel=1e-12)


# --- nash iteration ---------------------------------------------------------------


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, math.nan])
def test_nash_iterate_rejects_empty_budget(ex3, max_iter):
    # without one round there is no residual to report; a round count is an
    # integer, where range() would raise TypeError
    with pytest.raises(DomainError, match="max_iter"):
        nash_iterate(ex3, PriceVector(1.0, 2.0), tol=1e-6, max_iter=max_iter)


def test_nash_fixed_point_verification(ex3):
    tol = 1e-6
    out = nash_iterate(ex3, PriceVector(1.0, 1.0), tol=tol, max_iter=50)
    assert out.converged
    b1 = best_response(ex3, 1, out.prices.c2).price_star
    b2 = best_response(ex3, 2, out.prices.c1).price_star
    assert abs(b1 - out.prices.c1) <= 2 * tol
    assert abs(b2 - out.prices.c2) <= 2 * tol


def test_nash_symmetric_start_stays_symmetric(ex3):
    out = nash_iterate(ex3, PriceVector(2.0, 2.0), tol=1e-8, max_iter=50)
    assert abs(out.prices.c1 - out.prices.c2) < 1e-5


def test_nash_damping_validation(ex3):
    with pytest.raises(DomainError):
        nash_iterate(ex3, PriceVector(1.0, 1.0), damping=0.0)
    with pytest.raises(DomainError):
        nash_iterate(ex3, PriceVector(1.0, 1.0), tol=-1.0)
    damped = nash_iterate(ex3, PriceVector(1.0, 1.0), tol=1e-6, max_iter=80,
                          damping=0.5)
    assert damped.converged
    assert damped.prices.c1 == pytest.approx(3.0, abs=1e-4)


def test_exponential_symmetric_alpha_any_mean():
    # alpha = (lam/2) * tau ln(2) * 2/mu for identical linear servers
    lam, mu, tau = 3.0, 4.0, 6.0
    cfg = SystemConfig(lam, DelayModel.linear(mu), DelayModel.linear(mu),
                       Exponential(tau))
    want = (lam / 2.0) * (tau * math.log(2.0)) * (2.0 / mu)
    assert symmetric_alpha(cfg)[0] == pytest.approx(want, rel=1e-12)
