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

from ._solve import bisect_decreasing, derivative_root, local_maxima_scan, uniform_grid
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


class Thresholds:
    """Point solves in threshold space for a law with ``numeric_quantile``
    (gamma), bound for one public call by one balanced_load lookup.

    By the paper's equivalent formulation the rate is lam * (1 - F(beta))
    up to gamma+ and lam * F(beta) above it, so a search steps in beta, at
    one cdf (and, to refine a peak, one density) per step and no quantile,
    and reads its rate off its own threshold. Each branch runs from its
    threshold at gamma+ to the threshold at level 1 - P_MIN:
    :meth:`threshold` inverts each level once per call, and the scan
    (:func:`price_gap_1_array`) takes the same ends as anchors.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg, self.lam, self.gp = cfg, cfg.lam, balanced_load(cfg)
        self._clamp = (0.0, 1.0) if cfg.dist.bounded else (P_MIN, 1.0 - P_MIN)
        self._d1, self._d2 = delay_formula(cfg.d1), delay_formula(cfg.d2)
        self._s1, self._s2 = delay_slope(cfg.d1), delay_slope(cfg.d2)
        self._found = {}

    def threshold(self, p: float) -> float:
        """The law's quantile at the level p, clamped as the rate-space
        maps clamp it; each level is inverted once per call."""
        lo, hi = self._clamp
        p = float(p)
        p = lo if p < lo else hi if p > hi else p
        beta = self._found.get(p)
        if beta is None:
            beta = self._found[p] = self.cfg.dist._quantile(p)
        return beta

    def anchor(self, high: bool) -> tuple:
        """(level, threshold) of a branch's end at gamma+: up to it (high
        False) or above it."""
        lam, gp = self.lam, self.gp
        p = gp / lam if high else (lam - gp) / lam
        return p, self.threshold(p)

    def anchors(self, p, low) -> tuple:
        """The anchors of a scan at the levels p (see the ``_scan_points``
        hook): the low branch's end at gamma+, or the top if every level is
        low; the upper branch's start at gamma+; the top, the last level.
        None stands for a branch with no levels."""
        n, edge = p.size, int(np.count_nonzero(low))
        top = (float(p[-1]), self.threshold(p[-1]))
        return (top if edge == n else self.anchor(False) if edge else None,
                self.anchor(True) if edge < n else None, top)

    def _on_branch(self, high: bool):
        """The map beta -> (gamma1, delta) on one branch: the rate a threshold
        gives, lam * F(beta) above gamma+ or lam * (1 - F(beta)) up to it, and
        the delay gap D2(lam - gamma1) - D1(gamma1) there."""
        lam, d1, d2 = self.lam, self._d1, self._d2
        share = self.cfg.dist._cdf if high else self.cfg.dist._sf

        def at(beta):
            gamma = lam * share(beta)
            return gamma, d2(lam - gamma) - d1(gamma)
        return at

    def root(self, target: float, high: bool) -> tuple:
        """(gamma1, beta1) with g1(gamma1) = target, above gamma+ (high) or up
        to it. Where the target escapes g1's range on the branch, the rate is
        the end it lies beyond: lam * P_MIN or lam * (1 - P_MIN), in the
        sub-P_MIN probability tail, or gamma+."""
        lam, gp = self.lam, self.gp
        end, top = self.anchor(high)[1], self.threshold(1.0 - P_MIN)
        sign = 1.0 if high else -1.0  # g1 falls in beta above gamma+, rises below
        gap, seen = self._recorded(high, lambda beta, gamma, delta: sign * beta * delta)
        try:
            beta = bisect_decreasing(gap, end, top, sign * target)
        except NoRootError:
            if gap(top) > sign * target:
                return (lam * (1.0 - P_MIN) if high else lam * P_MIN), top
            return gp, end
        beta, gamma = _read_root(seen, beta, sign * target)
        return gamma, beta

    def revenue_peaks(self, c: float, lo: float, hi: float, n: int) -> tuple:
        """:func:`~qpk._solve.local_maxima_scan` of the revenue
        (g1(gamma) + c) * gamma over [lo, hi] on the scan of
        :func:`price_gap_1_array`: (best, peaks) of (gamma, revenue,
        g1(gamma)) tuples. Each peak is refined in beta between its
        neighbouring samples' thresholds, and its revenue and g1 are read
        off the root."""
        samples = []

        def scan(lo, hi, n):
            g, gap, beta = price_gap_1_array(self.cfg, lo, hi, n, self)
            samples[:] = gap, beta
            return g, (gap + c) * g

        def refine(xs, fs, i, a, b):
            return self._refine(c, *samples, xs, fs, i, a, b)
        return local_maxima_scan(scan, refine, lo, hi, n)

    def _recorded(self, high: bool, value) -> tuple:
        """(f, seen): f(beta) = value(beta, gamma1, delta) with (gamma1, delta)
        the threshold's rate and delay gap on one branch, and the list of
        (beta, gamma1, f(beta)) it has evaluated."""
        at, seen = self._on_branch(high), []

        def f(beta):
            gamma, delta = at(beta)
            v = value(beta, gamma, delta)
            seen.append((beta, gamma, v))
            return v
        return f, seen

    def _revenue_slope(self, c: float, high: bool):
        """The revenue's derivative in beta on one branch, as a value of
        (beta, gamma1, delta): h'(gamma1) dgamma1/dbeta with
        h' = g1 + c + gamma1 g1' and dgamma1/dbeta = +-lam f(beta), one density
        on top of the rate's cdf; it falls through 0 at a peak on either
        branch."""
        lam, dens, s1, s2 = self.lam, self.cfg.dist._density, self._s1, self._s2
        rate = lam if high else -lam

        def slope(beta, gamma, delta):
            rest = lam - gamma
            h = beta * delta + c - gamma * beta * (s2(rest) + s1(gamma))
            return h * rate * dens(beta) + gamma * delta
        return slope

    def _revenue_slope_at_gp(self, c: float, high: bool) -> float:
        """:meth:`_revenue_slope` at a branch's threshold at gamma+."""
        beta = self.anchor(high)[1]
        return self._revenue_slope(c, high)(beta, *self._on_branch(high)(beta))

    def _refine(self, c, gaps, betas, xs, fs, i, a, b):
        gp = self.gp
        high = bool(xs[b] > gp)
        if bool(xs[a] > gp) == high:
            lo, hi = sorted((float(betas[a]), float(betas[b])))
        elif self._revenue_slope_at_gp(c, False) > 0.0:
            # h' < 0 just below gamma+: the root lies on the low branch
            lo, hi, high = self.anchor(False)[1], float(betas[a]), False
        elif self._revenue_slope_at_gp(c, True) > 0.0:
            lo, hi = self.anchor(True)[1], float(betas[b])  # h' > 0 just above
        else:  # h' falls from + to - across the kink: the peak is gamma+
            gap = self.anchor(False)[1] * (self._d2(self.lam - gp) - self._d1(gp))
            return gp, (gap + c) * gp, gap
        slope, seen = self._recorded(high, self._revenue_slope(c, high))
        beta = derivative_root(slope, lo, hi)
        if beta is None:
            return float(xs[i]), float(fs[i]), float(gaps[i])
        beta, gamma = _read_root(seen, beta, 0.0)
        gap = beta * (self._d2(self.lam - gamma) - self._d1(gamma))
        return gamma, (gap + c) * gamma, gap


def _read_root(seen: list, b: float, target: float) -> tuple:
    """(beta, gamma1) at the root of a threshold-space search that returned
    b, with ``seen`` the (beta, gamma1, value) of its evaluations: read off
    linearly between b and the nearest threshold evaluated on the root's
    other side. The search stops within a few ulps of beta, which can span
    several ulps of the rate; this resolves the rate below them, as a
    search in rate would."""
    fb, gb = next((v - target, g) for x, g, v in seen if x == b)
    across = [(abs(x - b), x, g, v - target) for x, g, v in seen
              if (v - target > 0.0) != (fb > 0.0)]
    if fb == 0.0 or not across:
        return b, gb
    _, c, gc, fc = min(across)
    t = fb / (fb - fc)
    return b + t * (c - b), gb + t * (gc - gb)


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


def price_gap_1_array(cfg: SystemConfig, lo: float, hi: float, n: int,
                      solves: Thresholds = None) -> tuple:
    """(rates, g1 at them, thresholds at them) at up to n increasing rates
    from exactly lo to exactly hi, in one array pass: the grid scan of the
    optimizers.

    Each rate of the n-point uniform grid maps to its level as in
    :func:`threshold_of_rate`, and the law's ``_scan_points`` returns a
    threshold at or near each level's quantile. A closed-form law's
    thresholds are the quantiles: its scan is the grid. Otherwise each
    point takes the rate its threshold gives, lam * (1 - F) up to gamma+
    and lam * F above, and drops if that leaves (lo, hi) or its branch;
    the ends take the scalar threshold, as point solves do. Such a law
    (``numeric_quantile``) gets its anchors from ``solves``, the call's
    :class:`Thresholds` (a new one if None), so that a scan and the point
    solves of one call invert each level once.
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
    if not dist.numeric_quantile:
        beta = dist._scan_points(p, low, None)[0]
    else:  # the thresholds are near the quantiles, not on them
        solves = solves or Thresholds(cfg)
        beta, share = dist._scan_points(p, low, solves.anchors(p, low))
        g = lam * share
        keep = (g > lo) & (g < hi) & ((g <= gp) == low)
        keep[[0, -1]] = True
        g[[0, -1]] = lo, hi
        beta[[0, -1]] = solves.threshold(p[0]), solves.threshold(p[-1])
        g, first = np.unique(g[keep], return_index=True)
        beta = beta[keep][first]
    if g[0] == 0.0 or g[-1] == lam:
        beta[(g == 0.0) | (g == lam)] = dist.support[1]
    gap = delay_formula_array(cfg.d2, lam - g) - delay_formula_array(cfg.d1, g)
    gap *= beta
    return g, gap, beta


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
    if cfg.dist.numeric_quantile:
        return Thresholds(cfg).root(-c2, True)[0], g1, g1_slope
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
    unique interior root of g1(gamma) = gap on the branch the gap's sign
    picks, located by :func:`~qpk._solve.bisect_decreasing` to a few ulps
    (in the threshold, by :class:`Thresholds`, for a law with
    ``numeric_quantile``).
    """
    gap = prices.gap
    regime = (Regime.HIGH_BETA_TO_SERVER_1 if gap >= 0.0
              else Regime.HIGH_BETA_TO_SERVER_2)
    if gap != 0.0 and cfg.dist.numeric_quantile:
        gamma1, beta1 = Thresholds(cfg).root(gap, gap < 0.0)
        return EquilibriumSplit(gamma1, cfg.lam, beta1, regime)
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
