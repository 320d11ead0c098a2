"""Monopoly revenue optimization with the competitor price fixed.

Works in rate space: total revenue is c2*lam + g1(gamma1)*gamma1, so the
solver maximizes h(gamma) = g1(gamma)*gamma over [0, gamma+], which is
where any revenue-improving rate must lie. The grid scan evaluates h on
the whole grid in one array pass (price_gap_1_array); each grid peak is
refined as a root of h' = g1 + gamma*g1', and the reported price read
off the scalar g1, both from wardrop.resolve.
"""

from dataclasses import dataclass

from ._solve import DEFAULT_GRID, local_maxima_scan, uniform_grid
from .errors import DomainError
from .models import P_MIN, SystemConfig
from .wardrop import balanced_load, check_price, price_gap_1_array, resolve


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
    if grid_size < 64:
        raise DomainError(f"grid_size must be at least 64, got {grid_size}")

    gp, _, g1, g1_slope = resolve(cfg)

    def dh(g):
        v, s = g1_slope(g)
        return v + g * s
    (g_star, h_star), _ = local_maxima_scan(lambda g: price_gap_1_array(cfg, g) * g,
                                            lambda g: g1(g) * g, dh, cfg.lam * P_MIN, gp,
                                            grid_size)
    return MonopolyResult(
        gamma1_star=g_star,
        c1_star=c2 + g1(g_star),
        rt_star=c2 * cfg.lam + h_star,
    )


def revenue_curve(cfg: SystemConfig, c2: float, n: int) -> tuple:
    """n uniformly spaced (gamma1, RT) samples on [lam * P_MIN, gamma+].

    Plot-ready data for the revenue-vs-rate figure; RT(gamma+) = c2*lam
    since the price gap vanishes at the balanced load.
    """
    check_price("c2", c2)
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    xs = uniform_grid(cfg.lam * P_MIN, balanced_load(cfg), n)
    rt = c2 * cfg.lam + price_gap_1_array(cfg, xs) * xs
    return tuple(zip(xs.tolist(), rt.tolist()))
