"""Monopoly revenue optimization with the competitor price fixed.

Total revenue is c2*lam + g1(gamma1)*gamma1, so the solver maximizes
h(gamma) = g1(gamma)*gamma over [0, gamma+], which is where any
revenue-improving rate must lie. That range is one branch of g1, and the
search runs in its threshold (wardrop.Thresholds.local_maxima): a few
samples of dh/dbeta, one root for each fall through 0, and the reported
price and revenue read off the root.
"""

from ._record import record
from ._solve import check_count, uniform_grid
from .models import P_MIN, SystemConfig
from .wardrop import Thresholds, check_price


class MonopolyResult(record("gamma1_star c1_star rt_star")):
    __slots__ = ()


def optimize_monopoly(cfg: SystemConfig, c2: float) -> MonopolyResult:
    """Revenue-maximizing rate and price for server 1 given fixed c2 >= 0.

    best_response's search on [lam * P_MIN, gamma+]: every local maximum,
    an interior one refined to a few ulps as the root of the revenue's
    derivative, or a range end the revenue falls away from, as at the
    floor lam * P_MIN, at exactly its rate. It assumes nothing about
    unimodality; equal-revenue ties go to the smaller rate, so results are
    deterministic.
    """
    check_price("c2", c2)
    solves = Thresholds(cfg)
    (g_star, h_star, gap), _ = solves.local_maxima(0.0, cfg.lam * P_MIN, solves.gp)
    return MonopolyResult(gamma1_star=g_star, c1_star=c2 + gap, rt_star=c2 * cfg.lam + h_star)


def revenue_curve(cfg: SystemConfig, c2: float, n: int) -> tuple:
    """(gamma1, RT) at n evenly spaced rates from lam * P_MIN to exactly
    gamma+, RT = c2*lam + g1(gamma1)*gamma1 as the solvers evaluate it.

    Plot-ready data for the revenue-vs-rate figure; RT(gamma+) = c2*lam
    since the price gap vanishes at the balanced load.
    """
    check_price("c2", c2)
    check_count("n", n, 2)
    solves = Thresholds(cfg)
    base, g1 = c2 * cfg.lam, solves.g1
    return tuple((g, base + g1(g) * g) for g in uniform_grid(cfg.lam * P_MIN, solves.gp, n))
