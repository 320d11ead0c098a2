"""Monopoly revenue optimization with the competitor price fixed.

Works in rate space: total revenue is c2*lam + g1(gamma1)*gamma1, so the
solver maximizes h(gamma) = g1(gamma)*gamma over [0, gamma+], which is
where any revenue-improving rate must lie. The grid scan evaluates h on
the whole grid in one array pass (price_gap_1_array); each grid peak is
refined as a root of h' = g1 + gamma*g1', and the reported price read
off the scalar g1, both from wardrop.resolve; on a law with a numerical
quantile (gamma) the refinement and the price run in the threshold, by
wardrop.Thresholds.
"""

from dataclasses import dataclass

from ._solve import DEFAULT_GRID, check_grid_size, local_maxima_scan, root_refine
from .errors import DomainError
from .models import P_MIN, SystemConfig
from .wardrop import Thresholds, balanced_load, check_price, price_gap_1_array, resolve


@dataclass(frozen=True)
class MonopolyResult:
    gamma1_star: float
    c1_star: float
    rt_star: float


def optimize_monopoly(cfg: SystemConfig, c2: float,
                      grid_size: int = DEFAULT_GRID) -> MonopolyResult:
    """Revenue-maximizing rate and price for server 1 given fixed c2 >= 0.

    best_response's scan: a dense grid over [lam * P_MIN, gamma+], then
    every grid local maximum refined to a few ulps as the root of
    h'(gamma) = g1 + gamma*g1' between its grid neighbours; where h' keeps
    its sign there, as at the grid floor, the grid point stays. It assumes
    nothing about unimodality; equal-revenue ties go to the smaller rate,
    so results are deterministic.
    """
    check_price("c2", c2)
    check_grid_size(grid_size)
    if cfg.dist.numeric_quantile:
        solves = Thresholds(cfg)
        (g_star, h_star, gap), _ = solves.revenue_peaks(
            0.0, cfg.lam * P_MIN, solves.gp, grid_size)
        return MonopolyResult(gamma1_star=g_star, c1_star=c2 + gap,
                              rt_star=c2 * cfg.lam + h_star)

    gp, _, g1, g1_slope = resolve(cfg)

    def h_scan(lo, hi, n):
        xs, g, _ = price_gap_1_array(cfg, lo, hi, n)
        return xs, g * xs

    def dh(g):
        v, s = g1_slope(g)
        return v + g * s
    (g_star, h_star), _ = local_maxima_scan(h_scan, root_refine(lambda g: g1(g) * g, dh),
                                            cfg.lam * P_MIN, gp, grid_size)
    return MonopolyResult(
        gamma1_star=g_star,
        c1_star=c2 + g1(g_star),
        rt_star=c2 * cfg.lam + h_star,
    )


def revenue_curve(cfg: SystemConfig, c2: float, n: int) -> tuple:
    """(gamma1, RT) samples on [lam * P_MIN, gamma+]: the optimizers' scan.

    Plot-ready data for the revenue-vs-rate figure; RT(gamma+) = c2*lam
    since the price gap vanishes at the balanced load. Closed-form laws give
    n evenly spaced samples; a gamma law's are the scan's exact points on
    the curve, at most n of them, each at the rate its threshold gives,
    with no gap over 1.5 uniform spacings from shape 0.2 up.
    """
    check_price("c2", c2)
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    xs, g, _ = price_gap_1_array(cfg, cfg.lam * P_MIN, balanced_load(cfg), n)
    rt = c2 * cfg.lam + g * xs
    return tuple(zip(xs.tolist(), rt.tolist()))
