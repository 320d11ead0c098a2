"""Monopoly revenue optimization with the competitor price fixed.

Total revenue is c2*lam + g1(gamma1)*gamma1, so the solver maximizes
h(gamma) = g1(gamma)*gamma over [0, gamma+], which is where any
revenue-improving rate must lie. The grid scan evaluates h on the whole
grid in one array pass (wardrop.Thresholds.scan); each grid peak is
refined in the threshold, as the root of dh/dbeta, and the reported price
and revenue are read off the root (wardrop.Thresholds.revenue_peaks).
"""

from dataclasses import dataclass

from ._solve import DEFAULT_GRID, MIN_GRID, check_count
from .models import P_MIN, SystemConfig
from .wardrop import Thresholds, check_price


@dataclass(frozen=True)
class MonopolyResult:
    gamma1_star: float
    c1_star: float
    rt_star: float


def optimize_monopoly(cfg: SystemConfig, c2: float,
                      grid_size: int = DEFAULT_GRID) -> MonopolyResult:
    """Revenue-maximizing rate and price for server 1 given fixed c2 >= 0.

    best_response's scan: a dense grid over [lam * P_MIN, gamma+], then
    every grid local maximum refined to a few ulps as the root of the
    revenue's derivative between its grid neighbours; where it keeps its
    sign there, as at the grid floor, the grid point stays. It assumes
    nothing about unimodality; equal-revenue ties go to the smaller rate,
    so results are deterministic.
    """
    check_price("c2", c2)
    check_count("grid_size", grid_size, MIN_GRID)
    solves = Thresholds(cfg)
    (g_star, h_star, gap), _ = solves.revenue_peaks(0.0, cfg.lam * P_MIN, solves.gp, grid_size)
    return MonopolyResult(gamma1_star=g_star, c1_star=c2 + gap, rt_star=c2 * cfg.lam + h_star)


def revenue_curve(cfg: SystemConfig, c2: float, n: int) -> tuple:
    """(gamma1, RT) samples on [lam * P_MIN, gamma+]: the optimizers' scan.

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
