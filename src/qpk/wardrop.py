"""Wardrop equilibrium core for the two-server system.

The central objects are the balanced load (the server-1 rate equalizing
the two mean delays), the threshold map from an equilibrium rate to the
sensitivity value splitting the customer population, and the price gap
g_j that induces a given equilibrium rate. Each server-2 function is its
server-1 twin on ``cfg.swapped()``. Everything downstream (monopoly and
duopoly optimization, estimation oracles) is built from these.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._solve import bisect_decreasing, uniform_grid
from .errors import DomainError, NoRootError
# perfbench/selftest.py checks that its tracer restores wardrop.quantile
from .models import (P_MIN, SystemConfig, delay_formula, delay_formula_array,
                     delay_slope, quantile)


class Regime(Enum):
    """Which server the high-sensitivity tail buys at equilibrium.

    Equal prices map to HIGH_BETA_TO_SERVER_1 under the single-threshold
    convention.
    """

    HIGH_BETA_TO_SERVER_1 = 1
    HIGH_BETA_TO_SERVER_2 = 2


@dataclass(frozen=True)
class PriceVector:
    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise DomainError(f"prices must be finite, got ({self.c1}, {self.c2})")

    @property
    def gap(self) -> float:
        return self.c1 - self.c2


@dataclass(frozen=True)
class EquilibriumSplit:
    """Equilibrium rates plus the threshold and regime describing the kernel.

    gamma2 is derived as lam - gamma1 so the rates always sum exactly.
    """

    gamma1: float
    lam: float
    beta1: float
    regime: Regime

    @property
    def gamma2(self) -> float:
        return self.lam - self.gamma1


@functools.lru_cache(maxsize=256)
def balanced_load(cfg: SystemConfig) -> float:
    """The rate gamma+ in (0, lam) with D1(gamma+) = D2(lam - gamma+).

    Bisection on the strictly increasing delay difference; the gap
    conditions every config meets guarantee the sign change, so this
    never fails. For identical servers the first midpoint lam/2 is exact.
    """
    d1, d2 = delay_formula(cfg.d1), delay_formula(cfg.d2)
    lo, hi = 0.0, cfg.lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = d1(mid) - d2(cfg.lam - mid)
        if diff == 0.0 or (hi - lo) < 4e-16 * cfg.lam:
            return mid
        if diff < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def resolve(cfg: SystemConfig) -> tuple:
    """(gamma+, beta1, g1, g1_slope) for a point solve: :func:`threshold_of_rate`,
    :func:`price_gap_1` and the pair (g1, g1') of :func:`price_gap_1_deriv`
    bound to cfg by one balanced_load lookup, with the law's quantile clamp
    and both delay curves decided once, not once per point. Past their one
    rate check, beta1 and g1 are plain arithmetic; g1_slope has no check,
    for rates already known to lie in (0, lam), and reads both values off
    one quantile."""
    lam, top = cfg.lam, cfg.dist.support[1]
    gp = balanced_load(cfg)
    inv, dens = cfg.dist._quantile, cfg.dist._density
    p_lo, p_hi = (0.0, 1.0) if cfg.dist.bounded else (P_MIN, 1.0 - P_MIN)
    d1, d2 = delay_formula(cfg.d1), delay_formula(cfg.d2)
    s1, s2 = delay_slope(cfg.d1), delay_slope(cfg.d2)

    def beta1(gamma1):
        if not 0.0 <= gamma1 <= lam:
            raise DomainError(f"rate must lie in [0, {lam}], got {gamma1}")
        p = (lam - gamma1) / lam if gamma1 <= gp else gamma1 / lam
        return inv(p_lo if p < p_lo else p_hi if p > p_hi else p)

    def g1(gamma1):
        beta = top if gamma1 == 0.0 or gamma1 == lam else beta1(gamma1)
        return beta * (d2(lam - gamma1) - d1(gamma1))

    def g1_slope(gamma1):
        # the branch containing gamma1, the left one at the kink gamma+;
        # the quantile's derivative is -+1/(lam f(beta))
        rest = lam - gamma1
        if gamma1 <= gp:
            p, sign = rest / lam, -1.0
        else:
            p, sign = gamma1 / lam, 1.0
        beta = inv(p_lo if p < p_lo else p_hi if p > p_hi else p)
        delta_d = d2(rest) - d1(gamma1)
        return beta * delta_d, (sign / (lam * dens(beta)) * delta_d
                                + beta * (-s2(rest) - s1(gamma1)))
    return gp, beta1, g1, g1_slope


def threshold_of_rate(cfg: SystemConfig, gamma1: float) -> float:
    """Threshold beta1 for a given equilibrium rate at server 1.

    Piecewise: F^{-1}((lam - gamma1)/lam) for gamma1 <= gamma+, else
    F^{-1}(gamma1/lam); the tie at gamma+ resolves to the first branch.
    The jump at gamma+ for non-identical servers is intentional and not
    smoothed.
    """
    return resolve(cfg)[1](gamma1)


def price_gap_1(cfg: SystemConfig, gamma1: float) -> float:
    """g1(gamma1): the price difference c1 - c2 inducing rate gamma1.

    Strictly decreasing, zero at the balanced load. At the domain
    endpoints an unbounded sensitivity law yields +/-inf.
    """
    return resolve(cfg)[2](gamma1)


def price_gap_1_array(cfg: SystemConfig, lo: float, hi: float, n: int) -> tuple:
    """(rates, g1 at them) at up to n increasing rates from exactly lo to
    exactly hi, in one array pass: the grid scan of the optimizers.

    Each rate of the n-point uniform grid maps to its level as in
    :func:`threshold_of_rate`, and the law's ``_scan_points`` returns a
    threshold at or near each level's quantile. A closed-form law's
    thresholds are the quantiles: its scan is the grid. Otherwise each
    point takes the rate its threshold gives, lam * (1 - F) up to gamma+
    and lam * F above, and drops if that leaves (lo, hi) or its branch;
    the ends take the scalar threshold, as point solves do.
    """
    lam, dist = cfg.lam, cfg.dist
    if not 0.0 <= lo < hi <= lam:  # NaN fails the check
        raise DomainError(f"rates must satisfy 0 <= lo < hi <= {lam}, got [{lo}, {hi}]")
    gp = balanced_load(cfg)
    g = uniform_grid(lo, hi, n)
    low = g <= gp
    p = (lam - g) / lam if hi <= gp else np.where(low, (lam - g) / lam, g / lam)
    if not dist.bounded:
        np.clip(p, P_MIN, 1.0 - P_MIN, out=p)
    beta, share = dist._scan_points(p, low)
    if share is not None:  # the thresholds are near the quantiles, not on them
        g = lam * share
        keep = (g > lo) & (g < hi) & ((g <= gp) == low)
        keep[[0, -1]] = True
        g[[0, -1]] = lo, hi
        beta[0] = resolve(cfg)[1](lo)  # the hook's last threshold is beta1(hi)
        g, first = np.unique(g[keep], return_index=True)
        beta = beta[keep][first]
    if g[0] == 0.0 or g[-1] == lam:
        beta[(g == 0.0) | (g == lam)] = dist.support[1]
    beta *= delay_formula_array(cfg.d2, lam - g) - delay_formula_array(cfg.d1, g)
    return g, beta


def price_gap_2(cfg: SystemConfig, gamma2: float) -> float:
    """g2(gamma2): the gap c2 - c1 inducing rate gamma2 at server 2.

    This is g1 on the swapped system rather than the mirror -g1(lam - x),
    whose rounding in lam - (lam - x) would move the last digits.
    """
    return price_gap_1(cfg.swapped(), gamma2)


def price_gap_1_deriv(cfg: SystemConfig, gamma1: float) -> float:
    """Analytic derivative of g1 on (0, lam).

    Uses the branch containing gamma1 (ties at gamma+ take the left
    branch), so at the balanced load this is the one-sided derivative of
    the low-rate branch. The quantile derivative is 1/(lam f(beta)).
    """
    if not 0.0 < gamma1 < cfg.lam:
        raise DomainError(f"rate must lie in (0, {cfg.lam}), got {gamma1}")
    return resolve(cfg)[3](gamma1)[1]


def price_gap_2_deriv(cfg: SystemConfig, gamma2: float) -> float:
    """Analytic derivative of g2 on (0, lam): g1's on the swapped system."""
    return price_gap_1_deriv(cfg.swapped(), gamma2)


def _root_bracket(cfg: SystemConfig) -> tuple:
    """Bracket for root searches on g1/g2; endpoints shrink inward for
    unbounded laws, where the gaps diverge."""
    if cfg.dist.bounded and not cfg.saturation_ok:
        return 0.0, cfg.lam
    return cfg.lam * P_MIN, cfg.lam * (1.0 - P_MIN)


def check_price(name: str, c: float) -> None:
    """DomainError unless the price c is finite and nonnegative."""
    if not (math.isfinite(c) and c >= 0.0):
        raise DomainError(f"{name} must be {'nonnegative' if c < 0.0 else 'finite'}, got {c}")


def rate_cap_with_gap(cfg: SystemConfig, c2: float) -> tuple:
    """(rate_cap_1(cfg, c2), g1, g1_slope): the cap and the bound maps of
    :func:`resolve` it was found on."""
    check_price("rival price", c2)
    _, _, g1, g1_slope = resolve(cfg)
    lo, hi = _root_bracket(cfg)
    try:
        return bisect_decreasing(g1, lo, hi, -c2), g1, g1_slope
    except NoRootError:  # g1 stays above -c2 up to the bracket's top
        return hi, g1, g1_slope


def rate_cap_1(cfg: SystemConfig, c2: float) -> float:
    """Largest equilibrium rate server 1 can attract given c2 >= 0.

    Returns lam when c2 >= -g1(lam) (only possible for a bounded law),
    otherwise the unique root of g1(gamma) = -c2, which is >= gamma+.
    """
    return rate_cap_with_gap(cfg, c2)[0]


def rate_cap_2(cfg: SystemConfig, c1: float) -> float:
    """Largest equilibrium rate server 2 can attract given c1 >= 0."""
    return rate_cap_1(cfg.swapped(), c1)


def price_of_rate_1(cfg: SystemConfig, c2: float, gamma1: float) -> float:
    """Admission price c1 = c2 + g1(gamma1) inducing rate gamma1.

    Defined on [0, rate_cap_1(cfg, c2)] with the boundary conventions
    c1(0) = c2 + g1(0) and c1(lam) = c2 + g1(lam) for bounded laws; for
    unbounded laws the endpoints are a DomainError (the price diverges).
    """
    if gamma1 in (0.0, cfg.lam) and not cfg.dist.bounded:
        raise DomainError(
            f"price diverges at rate {gamma1} for an unbounded sensitivity law")
    cap, g1, _ = rate_cap_with_gap(cfg, c2)
    if not 0.0 <= gamma1 <= cap * (1.0 + 1e-12):
        raise DomainError(
            f"rate {gamma1} exceeds the rate cap {cap} (price would be negative)")
    return c2 + g1(gamma1)


def price_of_rate_2(cfg: SystemConfig, c1: float, gamma2: float) -> float:
    """Admission price c2 = c1 + g2(gamma2) inducing rate gamma2 at server 2."""
    return price_of_rate_1(cfg.swapped(), c1, gamma2)


def choke_price_1(cfg: SystemConfig, c2: float) -> float:
    """Smallest c1 with zero equilibrium rate at server 1.

    Only bounded sensitivity laws have one; unbounded laws never choke
    server 1 at any finite price, which is a DomainError here.
    """
    if not cfg.dist.bounded:
        raise DomainError("no finite choke price for an unbounded sensitivity law")
    check_price("rival price", c2)
    return c2 + price_gap_1(cfg, 0.0)


def solve_equilibrium(cfg: SystemConfig, prices: PriceVector) -> EquilibriumSplit:
    """Unique equilibrium split for a finite price pair.

    With gap = c1 - c2: rates hit the boundary when the gap escapes
    [g1(lam), g1(0)] (bounded laws only); equal prices return the
    balanced load under the single-threshold convention; otherwise the
    unique interior root of g1(gamma) = gap, located by
    :func:`~qpk._solve.bisect_decreasing` to a few ulps.
    """
    gap = prices.gap
    regime = (Regime.HIGH_BETA_TO_SERVER_1 if gap >= 0.0
              else Regime.HIGH_BETA_TO_SERVER_2)
    gp, beta1, g1, _ = resolve(cfg)
    if gap == 0.0:
        return EquilibriumSplit(gp, cfg.lam, beta1(gp), regime)
    lo, hi = _root_bracket(cfg)
    try:
        gamma1 = bisect_decreasing(g1, lo, hi, gap)
    except NoRootError:
        # the gap escapes g1's range on the bracket: the rate is a boundary
        # for a bounded law, and otherwise sits in the sub-P_MIN
        # probability tail, clamped to the bracket's end
        gamma1 = lo if gap > 0.0 else hi
    if gamma1 == 0.0 or gamma1 == cfg.lam:
        return EquilibriumSplit(gamma1, cfg.lam, cfg.dist.support[1], regime)
    return EquilibriumSplit(gamma1, cfg.lam, beta1(gamma1), regime)


def kernel_choice(cfg: SystemConfig, split: EquilibriumSplit, beta: float) -> int:
    """Server (1 or 2) chosen by a customer with sensitivity beta.

    High-sensitivity customers (beta above the threshold) buy the
    lower-delay, higher-price server; ties at the threshold join the bulk
    side, matching the closed/open threshold intervals.
    """
    a, b = cfg.dist.support
    if not a <= beta <= b:
        raise DomainError(f"beta={beta} lies outside the support [{a}, {b}]")
    if split.regime is Regime.HIGH_BETA_TO_SERVER_2:
        return 2 if beta > split.beta1 else 1
    return 1 if beta > split.beta1 else 2


def revenue_rates(split: EquilibriumSplit, prices: PriceVector) -> tuple:
    """Per-server and total revenue rates (R1, R2, RT) at a split."""
    r1 = prices.c1 * split.gamma1
    r2 = prices.c2 * split.gamma2
    return r1, r2, r1 + r2
