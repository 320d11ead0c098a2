"""The package's one root-finder, `_solve.bisect_decreasing` (Brent's
method), and what it costs the solves built on it."""

import math

import pytest

from conftest import FIXTURES
from qpk import (DelayModel, Exponential, Gamma, NoRootError, PriceVector, SystemConfig,
                 balanced_load, best_response, optimize_monopoly, solve_equilibrium)
from qpk import _solve, wardrop
from qpk._solve import bisect_decreasing


def _counting(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    return counted, calls


def test_no_sign_change_is_a_no_root_error():
    for lo, hi in ((1.0, 2.0), (-2.0, -1.0)):
        with pytest.raises(NoRootError, match="no sign change"):
            bisect_decreasing(lambda x: -x, lo, hi)
    with pytest.raises(NoRootError):
        bisect_decreasing(lambda x: x, -1.0, 1.0)  # rising, not falling


def test_an_endpoint_at_the_target_is_the_root():
    assert bisect_decreasing(lambda x: 3.0 - x, 3.0, 5.0, 0.0) == 3.0
    assert bisect_decreasing(lambda x: 3.0 - x, 0.0, 1.0, 2.0) == 1.0


@pytest.mark.parametrize("left, right", [(math.inf, -1.0), (1.0, -math.inf),
                                         (math.inf, -math.inf)])
def test_infinite_endpoint_values(left, right):
    # the gap of an unbounded law diverges at the ends of (0, lam)
    root = 0.3

    def f(x):
        if x == 0.0:
            return left
        if x == 1.0:
            return right
        return math.log((1.0 - x) / x) - math.log((1.0 - root) / root)
    f, calls = _counting(f)
    x = bisect_decreasing(f, 0.0, 1.0)
    assert abs(x - root) <= 4 * math.ulp(root)
    assert len(calls) < 30


def test_a_root_at_zero_stops():
    # near 0 a stop relative to the iterate alone might never come; the
    # search must still end, here where -x**3 underflows to an exact zero
    f, calls = _counting(lambda x: -x ** 3)
    x = bisect_decreasing(f, -1.0, 2.0)
    assert abs(x) < 1e-100
    assert len(calls) <= _solve._MAX_ITER


def test_the_target_shifts_the_root():
    x = bisect_decreasing(math.cos, 0.0, 3.0, 0.5)
    assert abs(x - math.pi / 3) <= 2 * math.ulp(math.pi / 3)


def _count_searches(monkeypatch, module) -> list:
    """The evaluation count of each root search made through module from
    here on."""
    counts = []

    def counted(f, lo, hi, target=0.0):
        f, calls = _counting(f)
        try:
            return bisect_decreasing(f, lo, hi, target)
        finally:
            counts.append(len(calls))
    monkeypatch.setattr(module, "bisect_decreasing", counted)
    return counts


@pytest.mark.parametrize("name", FIXTURES)
def test_interior_refinements_take_few_derivative_evaluations(name, request, monkeypatch):
    # each interior peak of the monopoly and of both best responses is
    # refined as a root of the revenue's derivative, bracketed by two of the
    # search's samples, whose values it already has; golden section took
    # 32 evaluations of the revenue for the same peak. Counted are the
    # evaluations beyond the bracket's ends. The rate caps search for
    # g1 = -1, not for a root at 0, and are not counted here. sat_power's
    # optima all sit at the floor lam * P_MIN, a range end, so it refines
    # nothing.
    cfg = request.getfixturevalue(name)
    counts = []

    def counted(f, lo, hi, target=0.0):
        f, calls = _counting(f)
        try:
            return bisect_decreasing(f, lo, hi, target)
        finally:
            if target == 0.0:
                counts.append(len([x for x in calls if x not in (lo, hi)]))
    monkeypatch.setattr(wardrop, "bisect_decreasing", counted)
    optimize_monopoly(cfg, 1.0)
    for server in (1, 2):
        best_response(cfg, server, 1.0)
    assert bool(counts) == (name != "sat_power")
    assert max(counts, default=0) <= 8


@pytest.mark.parametrize("name", FIXTURES)
def test_equilibria_take_few_gap_evaluations(name, request, monkeypatch):
    cfg = request.getfixturevalue(name)
    counts = _count_searches(monkeypatch, wardrop)
    for c1, c2 in ((3.0, 1.0), (0.5, 2.0), (2.0, 1.0), (1.0, 1.5)):
        solve_equilibrium(cfg, PriceVector(c1, c2))
    assert len(counts) == 4 and max(counts) <= 15


def test_a_best_response_at_the_kink_returns_the_balanced_load():
    # non-identical mm1 servers: server 2's revenue at rival price 6 peaks
    # at the kink of g2 at its own balanced load, where the derivative
    # jumps from positive to negative; the root-finder closes on the jump
    cfg = SystemConfig(1.2543, DelayModel.mm1(1.7480), DelayModel.mm1(2.4681),
                       Exponential(7.1936))
    gp = balanced_load(cfg.swapped())
    assert gp == pytest.approx(0.9872, rel=1e-12)
    br = best_response(cfg, 2, 6.0)
    assert abs(br.gamma_star - gp) <= 4 * math.ulp(gp)
    assert abs(br.price_star - 6.0) <= 4 * math.ulp(6.0)


def test_a_gamma_best_response_at_the_kink_returns_the_balanced_load():
    # the same servers with the same law written as a gamma of shape 1,
    # whose best response refines in the threshold: the neighbours of the
    # peak sample lie on either branch, and the refinement reads the
    # derivative's jump at gamma+ off both branches' thresholds there
    cfg = SystemConfig(1.2543, DelayModel.mm1(1.7480), DelayModel.mm1(2.4681),
                       Gamma(1.0, 7.1936))
    gp = balanced_load(cfg.swapped())
    br = best_response(cfg, 2, 6.0)
    assert abs(br.gamma_star - gp) <= 4 * math.ulp(gp)
    assert abs(br.price_star - 6.0) <= 4 * math.ulp(6.0)
