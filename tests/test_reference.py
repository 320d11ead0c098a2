"""The point solves against an independent mpmath reference (tests/reference_mp.py).

Every equilibrium rate and rate cap of test_exact_bits.py's rows, and
every interior optimum of the worked examples (the monopoly at c2 = 1 and
both best responses at a rival price of 1), lies within 1e-13 relative of
the reference's 40-digit value. sat_power's optima sit at the grid floor,
a boundary, and have no interior reference. The same holds for the
optima of gamma laws of shapes 0.2, 30 and 1000 on the ex1 and ex2
servers, whose searches sample thresholds near their quantiles. The
balanced load is within 4 eps relative on 1,000 seeded configs and where
its delay gap's constant cancels, and exactly lam/2 for identical servers.
log Gamma is within 8 eps of the reference, relative to max(1, |log Gamma|),
on 2,000 seeded shapes from 1e-3 to 1e4.
"""

import random

import pytest

pytest.importorskip("mpmath")

import reference_mp as ref  # noqa: E402
from conftest import FIXTURES  # noqa: E402
from qpk import (DelayModel, Gamma, PriceVector, SystemConfig, Uniform,  # noqa: E402
                 balanced_load, best_response, optimize_monopoly, solve_equilibrium)
from qpk._special import log_gamma  # noqa: E402
from qpk.wardrop import rate_cap_1, rate_cap_2  # noqa: E402

REL = 1e-13
EPS = 2.0 ** -52


def _close(got, want):
    return abs(ref.mp.mpf(got) - want) <= REL * abs(want)


@pytest.mark.parametrize("name", FIXTURES)
def test_rates_and_caps_match_the_reference(name, request):
    cfg = request.getfixturevalue(name)
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    assert _close(rate_cap_1(cfg, 1.0), s1.rate_cap(1.0))
    assert _close(rate_cap_2(cfg, 1.0), s2.rate_cap(1.0))
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        got = solve_equilibrium(cfg, PriceVector(c1, c2)).gamma1
        assert _close(got, s1.equilibrium_rate(c1, c2)), (c1, c2)


def _optima(cfg):
    """(got, want): the monopoly at c2 = 1 and both best responses at a
    rival price of 1, from qpk and from the reference."""
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    want = [s1.monopoly_argmax(), s1.best_response_argmax(1.0), s2.best_response_argmax(1.0)]
    got = [optimize_monopoly(cfg, 1.0).gamma1_star,
           best_response(cfg, 1, 1.0).gamma_star, best_response(cfg, 2, 1.0).gamma_star]
    return got, want


@pytest.mark.parametrize("name", FIXTURES)
def test_interior_optima_match_the_reference(name, request):
    got, want = _optima(request.getfixturevalue(name))
    if name == "sat_power":
        assert want == [None] * 3
        return
    for g, w in zip(got, want):
        assert _close(g, w)


@pytest.mark.parametrize("k", [0.2, 30.0, 1e3])
@pytest.mark.parametrize("delays", ["linear", "mm1"])
def test_gamma_optima_match_the_reference_at_other_shapes(k, delays):
    model = DelayModel.linear if delays == "linear" else DelayModel.mm1
    got, want = _optima(SystemConfig(3.0, model(3.3), model(4.0), Gamma(k, 2.0)))
    for g, w in zip(got, want):
        assert _close(g, w)


def _servers(rng, lam):
    """Two delay models at arrival rate lam: a linear pair whose service
    rates span four decades, so gamma+ takes every share from about 1e-4 to
    1 - 1e-4, or an mm1 or a mixed pair drawn as conftest.random_config
    draws its mm1 servers, which keeps the gap conditions."""
    kind = rng.choice(("linear", "mm1", "mixed"))
    if kind == "linear":
        return (DelayModel.linear(lam * 10 ** rng.uniform(-2, 2)),
                DelayModel.linear(lam * 10 ** rng.uniform(-2, 2)))
    r1 = rng.uniform(1.1, 3.0)
    mm1 = DelayModel.mm1(lam * r1)
    if kind == "mm1":
        return mm1, DelayModel.mm1(lam * rng.uniform(max(1.1, r1 - 0.9), min(3.0, r1 + 0.9)))
    # D(lam) of the linear server lies above D(0) = 1/mu of the mm1 server
    lin = DelayModel.linear(lam * mm1.mu * rng.uniform(0.1, 0.9))
    return (lin, mm1) if rng.random() < 0.5 else (mm1, lin)


def _assert_gp_within_4_eps(cfg):
    want = ref.System(cfg).gp
    assert abs(ref.mp.mpf(balanced_load(cfg)) - want) <= 4 * EPS * want, cfg
    return want / ref.mp.mpf(cfg.lam)


def test_balanced_load_is_relative_to_the_smaller_rate():
    # gamma+ is the closed-form root of the delay gap, relative to itself:
    # a bisection stopped at a width relative to lam was up to 4.2e-13 off
    # relative here, and one stopped relative to the smaller rate 6.9 eps
    rng = random.Random(20261020)
    for _ in range(1000):
        lam = 10 ** rng.uniform(-3, 3)
        _assert_gp_within_4_eps(SystemConfig(lam, *_servers(rng, lam), Uniform(1.0, 2.0)))


def test_balanced_load_keeps_its_digits_where_the_gap_cancels():
    # an mm1 server 1 with a linear server 2 of rate lam * mu1 * (1 - s):
    # the constant lam * mu1 - mu2 cancels, and gamma+ / lam falls to about
    # s (the bisection was 9e-7 off relative at 1.5e-10); two mm1 servers
    # with mu1 just above mu2 - lam, where gamma+ = (mu1 - mu2 + lam) / 2;
    # an mm1 server 1 with mu1 just above lam and a slow linear server 2,
    # where the discriminant b**2 - 4ac would cancel (up to 7,170 eps off)
    rng = random.Random(20261021)
    shares = []
    for _ in range(200):
        lam = 10 ** rng.uniform(-3, 3)
        mu1 = lam * rng.uniform(1.1, 3.0)
        lin = DelayModel.linear(lam * mu1 * (1.0 - 10 ** rng.uniform(-10, -1)))
        shares.append(_assert_gp_within_4_eps(
            SystemConfig(lam, DelayModel.mm1(mu1), lin, Uniform(1.0, 2.0))))
        mu2 = lam * rng.uniform(2.1, 4.0)
        mm1 = DelayModel.mm1((mu2 - lam) * (1.0 + 10 ** rng.uniform(-10, -1)))
        shares.append(_assert_gp_within_4_eps(
            SystemConfig(lam, mm1, DelayModel.mm1(mu2), Uniform(1.0, 2.0))))
        mu1 = lam * (1.0 + 10 ** rng.uniform(-6, -1))
        lin = DelayModel.linear(lam * mu1 * 10 ** rng.uniform(-8, -1))
        _assert_gp_within_4_eps(SystemConfig(lam, DelayModel.mm1(mu1), lin, Uniform(1.0, 2.0)))
    assert min(shares) < 1e-9


def test_identical_servers_balance_at_exactly_half():
    rng = random.Random(20261022)
    for _ in range(1000):
        lam = 10 ** rng.uniform(-9, 12)
        for model in (DelayModel.linear(lam * 10 ** rng.uniform(-2, 2)),
                      DelayModel.mm1(lam * (1.0 + 10 ** rng.uniform(-3, 2)))):
            assert balanced_load(SystemConfig(lam, model, model, Uniform(1.0, 2.0))) == lam / 2
    sat = DelayModel.mm1(2.0)
    assert balanced_load(SystemConfig(2.0, sat, sat, Uniform(1.0, 2.0), saturation_ok=True)) == 1.0


def test_log_gamma_is_within_8_eps():
    # math.lgamma reaches 4.6 eps on this sample; a Lanczos series (g = 7,
    # 9 terms) reaches 13.3 eps, and exceeds 8 eps on 12 of the shapes
    rng = random.Random(20261023)
    for _ in range(2000):
        k = 10 ** rng.uniform(-3, 4)
        want = ref.mp.loggamma(k)
        assert abs(ref.mp.mpf(log_gamma(k)) - want) <= 8 * EPS * max(1, abs(want)), k
