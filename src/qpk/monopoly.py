"""Monopoly revenue optimization with the competitor price fixed.

Total revenue is c2*lam + g1(gamma1)*gamma1, so the solver maximizes
h(gamma) = g1(gamma)*gamma over [0, gamma+], which is where any
revenue-improving rate must lie. That range is one branch of g1, and the
search runs in its threshold (wardrop.Thresholds.local_maxima): a few
samples of dh/dbeta, one root for each fall through 0, and the reported
price and revenue read off the root.
"""

from dataclasses import dataclass

from ._solve import check_count
from .models import P_MIN, SystemConfig
from .wardrop import Thresholds, check_price


@dataclass(frozen=True)
class MonopolyResult:
    gamma1_star: float
    c1_star: float
    rt_star: float


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
    """(gamma1, RT) samples on [lam * P_MIN, gamma+], from one array scan
    (wardrop.Thresholds.scan).

    Plot-ready data for the revenue-vs-rate figure; RT(gamma+) = c2*lam
    since the price gap vanishes at the balanced load. Closed-form laws give
    n evenly spaced samples; a gamma law's are the scan's exact points on
    the curve, at most n of them, each at the rate its threshold gives,
    with no gap over 1.5 uniform spacings from shape 0.2 up.
    """
    check_price("c2", c2)
    check_count("n", n, 2)
    solves = Thresholds(cfg)
    xs, g, _ = solves.scan(cfg.lam * P_MIN, solves.gp, n)
    rt = c2 * cfg.lam + g * xs
    return tuple(zip(xs.tolist(), rt.tolist()))
