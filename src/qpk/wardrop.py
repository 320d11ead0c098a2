"""Wardrop equilibrium core for the two-server system.

The central objects are the balanced load (the server-1 rate equalizing
the two mean delays), the threshold map from an equilibrium rate to the
sensitivity value splitting the customer population, and the price gap
g_j that induces a given equilibrium rate. Each server-2 function is its
server-1 twin on ``cfg.swapped()``. Everything downstream (monopoly and
duopoly optimization, estimation oracles) is built from these.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from ._record import record
from ._solve import TIE_REL, bisect_decreasing
from .errors import DomainError, NoRootError
# perfbench/selftest.py checks that its tracer restores wardrop.quantile
from .models import (P_MIN, DelayFamily, DelayModel, SystemConfig, delay_formula, delay_slope,
                     quantile)

#: Thresholds between a branch's ends at which :meth:`Thresholds.local_maxima`
#: samples the revenue's slope.
BRANCH_SAMPLES = 8


class Regime(Enum):
    """Which server the high-sensitivity tail buys at equilibrium.

    Equal prices map to HIGH_BETA_TO_SERVER_1 under the single-threshold
    convention.
    """

    HIGH_BETA_TO_SERVER_1 = 1
    HIGH_BETA_TO_SERVER_2 = 2


class PriceVector(record("c1 c2")):
    __slots__ = ()

    def __new__(cls, c1: float, c2: float):
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise DomainError(f"prices must be finite, got ({c1}, {c2})")
        return super().__new__(cls, c1, c2)

    @property
    def gap(self) -> float:
        return self.c1 - self.c2


class EquilibriumSplit(record("gamma1 lam beta1 regime")):
    """Equilibrium rates plus the threshold and regime describing the kernel.

    gamma2 is derived as lam - gamma1 so the rates always sum exactly.
    """

    __slots__ = ()

    @property
    def gamma2(self) -> float:
        return self.lam - self.gamma1


@functools.lru_cache(maxsize=256)
def balanced_load(cfg: SystemConfig) -> float:
    """The rate gamma+ in (0, lam) with D1(gamma+) = D2(lam - gamma+):
    :func:`delay_gap_root` at 0, exactly lam/2 for identical servers."""
    return delay_gap_root(cfg.d1, cfg.d2, cfg.lam, 0.0)


def _exact_product(x: float, y: float) -> list:
    """[p, e] with p + e = x * y exactly: Dekker's two-product (Dekker 1971,
    Numer. Math. 18:224-242) on Veltkamp's split into 26-bit halves."""
    cx, cy = 134217729.0 * x, 134217729.0 * y  # 2**27 + 1
    xh, yh, p = cx - (cx - x), cy - (cy - y), x * y
    xl, yl = x - xh, y - yh
    return [p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl]


def delay_gap_root(d1: DelayModel, d2: DelayModel, lam: float, t: float) -> float:
    """The server-1 rate g where the falling delay gap D2(lam - g) - D1(g) is t.

    With each delay N/M, N and M linear in g (g/mu1, (lam - g)/mu2 linear;
    1/(mu1 - g), 1/((mu2 - lam) + g) mm1), g is where a g**2 + b g + c =
    N2 M1 - N1 M2 - t M1 M2 falls: 2c/(sqrt(disc) - b), or -(b + sqrt(disc))/2a
    where b > 0, with disc = p**2 + 4r and r >= 0, so that it does not cancel.
    c is exact (Dekker's products of the inputs, lam and mu2 apart, fsum-ed)
    and the quotient takes its rounding back: identical servers give lam/2."""
    mu1, mu2, tm, fsum = d1.mu, d2.mu, t * d1.mu, math.fsum
    if d1.family is DelayFamily.LINEAR and d2.family is DelayFamily.LINEAR:
        a, b, p, r, c = 0.0, -(mu1 + mu2), mu1 + mu2, 0.0, [(lam, mu1), (-tm, mu2)]
    elif d1.family is DelayFamily.LINEAR:
        a, b, p, r = -1.0, fsum((lam, -mu2, -tm)), fsum((lam, -mu2, tm)), mu1
        c = [(1.0, mu1), (tm, lam), (-tm, mu2)]
    elif d2.family is DelayFamily.LINEAR:
        a, b, p, r = 1.0, fsum((-lam, -mu1, t * mu2)), fsum((lam, -mu1, -t * mu2)), mu2
        c = [(lam, mu1), (-1.0, mu2), (-tm, mu2)]
    else:
        a, b, p, r = t, -2.0 - t * fsum((lam, mu1, -mu2)), t * fsum((mu1, mu2, -lam)), 1.0
        c = [(1.0, mu1), (-1.0, mu2), (1.0, lam), (tm, lam), (-tm, mu2)]
    sqrt_disc = math.sqrt(p * p + 4.0 * r)
    if b > 0.0:
        return -(b + sqrt_disc) / (2.0 * a)
    den, terms = 0.5 * (sqrt_disc - b), [v for x, y in c for v in _exact_product(x, y)]
    g = fsum(terms) / den
    return g + fsum(terms + _exact_product(-g, den)) / den


def delay_gap(d1: DelayModel, d2: DelayModel, lam: float) -> tuple:
    """(delta, delta_slope, flow_slope): the delay gap
    D2(lam - gamma1) - D1(gamma1) as a map of the server-1 rate, its
    derivative, and the derivative of gamma1 * delta, plain arithmetic for
    rates in [0, lam]. An mm1 server 2 is read off its slack
    s = (mu2 - lam) + gamma1, which keeps a small s's digits, and
    flow_slope takes its term as (mu2 - lam) / s**2, where
    delta + gamma1 delta_slope would cancel 1/s against gamma1 / s**2."""
    mu2, d1, s1 = d2.mu, delay_formula(d1), delay_slope(d1)
    if d2.family is DelayFamily.LINEAR:
        return ((lambda g: (lam - g) / mu2 - d1(g)), (lambda g: -1.0 / mu2 - s1(g)),
                (lambda g: (lam - 2.0 * g) / mu2 - d1(g) - g * s1(g)))
    slack = mu2 - lam  # slack + g is 0 only where server 2 saturates
    return ((lambda g: (math.inf if slack + g == 0.0 else 1.0 / (slack + g)) - d1(g)),
            (lambda g: (-math.inf if slack + g == 0.0 else -1.0 / (slack + g) ** 2) - s1(g)),
            (lambda g: slack / (slack + g) ** 2 - d1(g) - g * s1(g)))


class Thresholds:
    """g1 bound to one config for one public call by one balanced_load
    lookup: its rate-space maps (for curves) and its point solves
    (equilibria, rate caps and the optimizers' local maxima).

    By the paper's equivalent formulation the rate is lam * (1 - F(beta))
    up to gamma+ and lam * F(beta) above it, so a point solve steps in beta,
    at one cdf or survival function (and, for the revenue's slope, one
    density) per step and no quantile, and reads its rate off its own
    threshold. Each branch runs from its threshold at gamma+ to the
    threshold at level 1 - P_MIN, or to a bounded law's support end outside
    saturation mode: :meth:`threshold` inverts each level once per call.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg, self.lam, self.gp = cfg, cfg.lam, balanced_load(cfg)
        self._delta, self._delta_slope, self._flow_slope = delay_gap(cfg.d1, cfg.d2, cfg.lam)
        self._levels, self._found = cfg.dist.levels, {}

    def beta1(self, gamma1: float) -> float:
        """:func:`threshold_of_rate` at gamma1."""
        lam, (lo, hi) = self.lam, self._levels
        if not 0.0 <= gamma1 <= lam:  # NaN fails the check
            raise DomainError(f"rate must lie in [0, {lam}], got {gamma1}")
        p = self._level(gamma1, gamma1 > self.gp)
        return self.cfg.dist._quantile(lo if p < lo else hi if p > hi else p)

    def g1(self, gamma1: float) -> float:
        """:func:`price_gap_1` at gamma1: past beta1's rate check, plain
        arithmetic, with the support's top as the threshold at 0 and lam."""
        top = gamma1 == 0.0 or gamma1 == self.lam
        return (self.cfg.dist.support[1] if top else self.beta1(gamma1)) * self._delta(gamma1)

    def g1_slope(self, gamma1: float) -> tuple:
        """(g1, g1') at gamma1 in (0, lam) off one quantile, on the branch of
        gamma1, the left one at the kink gamma+: F^-1' is -+1/(lam f(beta))."""
        beta, d = self.beta1(gamma1), self._delta(gamma1)
        sign = -1.0 if gamma1 <= self.gp else 1.0
        return beta * d, (sign / (self.lam * self.cfg.dist._density(beta)) * d
                          + beta * self._delta_slope(gamma1))

    @property
    def bracket(self) -> tuple:
        """The rates g1's root searches span: [0, lam], shrunk inward where
        the gaps diverge (an unbounded law, or saturation mode)."""
        if self.cfg.dist.bounded and not self.cfg.saturation_ok:
            return 0.0, self.lam
        return self.lam * P_MIN, self.lam * (1.0 - P_MIN)

    def threshold(self, p: float) -> float:
        """The law's quantile at the level p, clamped as the rate-space
        maps clamp it; each level is inverted once per call."""
        lo, hi = self._levels
        p = lo if p < lo else hi if p > hi else p
        beta = self._found.get(p)
        if beta is None:
            beta = self._found[p] = self.cfg.dist._quantile(p)
        return beta

    def anchor(self, high: bool) -> tuple:
        """(level, threshold) of a branch's end at gamma+: up to it (high
        False) or above it."""
        p = self._level(self.gp, high)
        return p, self.threshold(p)

    def root(self, target: float, high: bool) -> tuple:
        """(gamma1, beta1) with g1(gamma1) = target, above gamma+ (high) or up
        to it. Where the target escapes g1's range on the branch, the rate is
        the end it lies beyond: gamma+, or the end of :attr:`bracket`, 0 or
        lam for a bounded law outside saturation mode, otherwise lam * P_MIN
        or lam * (1 - P_MIN), in the sub-P_MIN probability tail."""
        lo, hi = self.bracket
        end = self.anchor(high)[1]
        top = self.cfg.dist.support[1] if hi == self.lam else self.threshold(1.0 - P_MIN)
        sign = 1.0 if high else -1.0  # g1 falls in beta above gamma+, rises below
        gap, seen = self._recorded(high, lambda beta, gamma, delta: sign * beta * delta)
        try:
            beta = bisect_decreasing(gap, end, top, sign * target)
        except NoRootError:
            if gap(top) > sign * target:
                return (hi if high else lo), top
            return self.gp, end
        beta, gamma = _read_root(seen, beta, sign * target)
        return gamma, beta

    def local_maxima(self, c: float, lo: float, hi: float) -> tuple:
        """(best, peaks): every local maximum of the revenue
        (g1(gamma) + c) * gamma on [lo, hi] as a (gamma, revenue, g1(gamma))
        tuple, peaks ascending in gamma, best the largest, where revenues
        within TIE_REL tie and go to the smaller rate. No branch is taken to
        be unimodal (:meth:`_branch_maxima`). An end of [lo, hi] is a maximum
        at exactly its rate where the revenue falls away from it; gamma+
        inside it, the kink of g1, where it falls away on both sides.
        """
        top = min(hi, self.gp)
        peaks, (at_lo, at_top) = self._branch_maxima(c, False, lo, top)
        ends = [(lo, False, at_lo), (top, False, at_top)]
        if hi > top:
            above, (at_gp, at_hi) = self._branch_maxima(c, True, top, hi)
            peaks += above
            ends[1:] = [(top, False, at_top and at_gp), (hi, True, at_hi)]
        for rate, high, falls in ends:
            if falls:
                gap = self.threshold(self._level(rate, high)) * self._delta(rate)
                peaks.append((rate, (gap + c) * rate, gap))
        peaks.sort()
        best = peaks[0]
        for found in peaks[1:]:
            if found[1] > best[1] * (1.0 + TIE_REL) + TIE_REL:
                best = found
        return best, peaks

    def _level(self, gamma1: float, high: bool) -> float:
        """The level of the rate gamma1 on one branch: gamma1 / lam above
        gamma+ (high), 1 - gamma1 / lam up to it."""
        return gamma1 / self.lam if high else (self.lam - gamma1) / self.lam

    def _branch_maxima(self, c: float, high: bool, a: float, b: float) -> tuple:
        """(peaks, (at_a, at_b)) on one branch's rates [a, b]: the revenue's
        interior local maxima, and whether it falls away from a and from b.

        The revenue's slope in beta is sampled at the ends' thresholds and at
        BRANCH_SAMPLES between them, placed by the law's ``_near_quantile``
        near evenly spaced rates (each sample's rate is read off its own
        threshold; one off the branch drops). Where :func:`_turn` finds that
        the slope may change sign unseen between two samples, one more is
        taken there, and each half is looked at once more. Every fall of the
        slope through 0 between samples is refined by one root search.
        """
        lam, dist, flow, delta_of = self.lam, self.cfg.dist, self._flow_slope, self._delta
        share, rate = (dist._cdf, lam) if high else (dist._sf, -lam)
        level = lambda g: self._level(g, high)
        lo, hi = sorted((self.threshold(level(a)), self.threshold(level(b))))
        step = (b - a) / (BRANCH_SAMPLES + 1)
        inner = sorted(dist._near_quantile(level(a + i * step))
                       for i in range(1, BRANCH_SAMPLES + 1))
        seen = []

        def sample(x):
            # (beta, slope in beta, rate, revenue, slope in rate): the slope is
            # (beta (gamma1 delta)' + c) dgamma1/dbeta + gamma1 delta, with
            # dgamma1/dbeta = +-lam f(beta)
            gamma = lam * share(x)
            delta = delta_of(gamma)
            d = rate * dist._density(x)
            v = (x * flow(gamma) + c) * d + gamma * delta
            seen.append((x, gamma, v))
            h = v / d if d else math.copysign(math.inf, v * rate)
            return x, v, gamma, (x * delta + c) * gamma, h

        pts = [sample(x) for x in (lo, *(x for x in inner if lo < x < hi), hi)]
        todo = [(i, 2) for i in range(len(pts) - 1)]
        while todo:  # from the top index down, so an insertion moves no index left to do
            i, looks = todo.pop()
            (x0, s0, g0, *_), (x1, s1, g1, *_) = pts[i], pts[i + 1]
            turn = _turn(pts, i) if (s0 > 0.0) == (s1 > 0.0) else None
            if turn is not None:  # its threshold, linear between the two samples'
                pts.insert(i + 1, sample(x0 + (turn - g0) / (g1 - g0) * (x1 - x0)))
                if looks > 1:
                    todo += [(i, 1), (i + 1, 1)]
        peaks = []
        for (x0, s0, *_), (x1, s1, *_) in zip(pts, pts[1:]):
            if s0 > 0.0 >= s1:
                # the bracket's ends are samples: their slopes are known
                x = bisect_decreasing(lambda x: s0 if x == x0 else s1 if x == x1 else sample(x)[1],
                                      x0, x1)
                beta, gamma = _read_root(seen, x, 0.0)
                gap = beta * delta_of(gamma)
                peaks.append((gamma, (gap + c) * gamma, gap))
        # the low branch's rate falls as beta rises
        small, large = pts[0][1] <= 0.0, pts[-1][1] > 0.0
        return peaks, ((small, large) if high else (large, small))

    def _recorded(self, high: bool, value) -> tuple:
        """(f, seen): f(beta) = value(beta, gamma1, delta) with gamma1 the rate
        the threshold gives on one branch, lam * F(beta) above gamma+ or
        lam * (1 - F(beta)) up to it, and delta the delay gap there; seen is
        the list of (beta, gamma1, f(beta)) it has evaluated."""
        lam, delta, seen = self.lam, self._delta, []
        share = self.cfg.dist._cdf if high else self.cfg.dist._sf

        def f(beta):
            gamma = lam * share(beta)
            v = value(beta, gamma, delta(gamma))
            seen.append((beta, gamma, v))
            return v
        return f, seen


def _turn(pts: list, i: int):
    """A rate between samples i and i + 1 (each (beta, slope in beta, rate,
    revenue, slope in rate)), whose slopes share a sign, where the slope in
    rate may change sign unseen, or None: where the slope of the cubic
    through their revenues and slopes does, or the parabola through three
    slopes whose middle one comes closest to 0."""
    _, _, g0, r0, h0 = pts[i]
    _, _, g1, r1, h1 = pts[i + 1]
    w, up = g1 - g0, h0 > 0.0
    q0, q1 = h0 * w, h1 * w  # the cubic's slope in t = (gamma - g0) / w at 0 and 1
    k = 6.0 * (r1 - r0) - 3.0 * (q0 + q1)
    t = 0.5 + (q1 - q0) / (2.0 * k) if k else 0.0
    if 0.0 < t < 1.0 and (q0 + t * (q1 - q0 + k * (1.0 - t)) > 0.0) != (q0 > 0.0):
        return g0 + t * w
    for m in (i, i + 1):
        if 0 < m < len(pts) - 1:
            ha, hb, hc = pts[m - 1][4], pts[m][4], pts[m + 1][4]
            if up == (ha > 0.0) == (hc > 0.0) == (hb < ha) == (hb < hc):
                ga, gb, gc = pts[m - 1][2], pts[m][2], pts[m + 1][2]
                ab = (hb - ha) / (gb - ga) if gb != ga else 0.0
                abc = ((hc - hb) / (gc - gb) - ab) / (gc - ga) if gc != gb else 0.0
                if not abc:
                    continue
                x = 0.5 * (ga + gb) - ab / (2.0 * abc)
                at_x = ha + (x - ga) * (ab + abc * (x - gb))
                if min(g0, g1) < x < max(g0, g1) and (at_x > 0.0) != up:
                    return x
    return None


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
    return Thresholds(cfg).beta1(gamma1)


def price_gap_1(cfg: SystemConfig, gamma1: float) -> float:
    """g1(gamma1): the price difference c1 - c2 inducing rate gamma1.

    Strictly decreasing, zero at the balanced load. At the domain
    endpoints an unbounded sensitivity law yields +/-inf.
    """
    return Thresholds(cfg).g1(gamma1)


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
    return Thresholds(cfg).g1_slope(gamma1)[1]


def price_gap_2_deriv(cfg: SystemConfig, gamma2: float) -> float:
    """Analytic derivative of g2 on (0, lam): g1's on the swapped system."""
    return price_gap_1_deriv(cfg.swapped(), gamma2)


def check_price(name: str, c: float) -> None:
    """DomainError unless the price c is finite and nonnegative."""
    if not (math.isfinite(c) and c >= 0.0):
        raise DomainError(f"{name} must be {'nonnegative' if c < 0.0 else 'finite'}, got {c}")


def rate_cap_1(cfg: SystemConfig, c2: float) -> float:
    """Largest equilibrium rate server 1 can attract given c2 >= 0.

    Returns lam when c2 >= -g1(lam) (only possible for a bounded law),
    otherwise the unique root of g1(gamma) = -c2, which is >= gamma+.
    """
    check_price("rival price", c2)
    return Thresholds(cfg).root(-c2, True)[0]


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
    check_price("rival price", c2)
    solves = Thresholds(cfg)
    cap = solves.root(-c2, True)[0]
    if not 0.0 <= gamma1 <= cap * (1.0 + 1e-12):
        raise DomainError(
            f"rate {gamma1} exceeds the rate cap {cap} (price would be negative)")
    return c2 + solves.g1(gamma1)


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
    picks, located in the threshold by :meth:`Thresholds.root` to a few ulps.
    """
    gap = prices.gap
    regime = (Regime.HIGH_BETA_TO_SERVER_1 if gap >= 0.0
              else Regime.HIGH_BETA_TO_SERVER_2)
    solves = Thresholds(cfg)
    if gap == 0.0:
        return EquilibriumSplit(solves.gp, cfg.lam, solves.anchor(False)[1], regime)
    gamma1, beta1 = solves.root(gap, gap < 0.0)
    return EquilibriumSplit(gamma1, cfg.lam, beta1, regime)


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
