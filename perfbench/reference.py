"""Independent reference math for the benchmark's correctness checks.

Everything here is written from the model's definitions with the standard
library only, and never calls into ``qpk``: the checks compare the
package's answers against these formulas, so a defect in the package
cannot also hide in its own check. Configs are read through their public
fields (``lam``, ``d1``/``d2`` with ``family``/``mu``, and the law's
parameters).
"""

import math

_EPS = 1e-16


def _gamma_cdf(k: float, x: float) -> float:
    """Regularized lower incomplete gamma P(k, x): series below k + 1,
    Lentz continued fraction for the upper tail above, with math.lgamma."""
    if x <= 0.0:
        return 0.0
    log_front = -x + k * math.log(x) - math.lgamma(k)
    if x < k + 1.0:
        n, term = k, 1.0 / k
        total = term
        while abs(term) > abs(total) * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return total * math.exp(log_front)
    tiny = 1e-300
    b = x + 1.0 - k
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return 1.0 - h * math.exp(log_front)


def family(dist) -> str:
    return type(dist).__name__.lower()


def cdf(dist, x: float) -> float:
    fam = family(dist)
    if fam == "uniform":
        return min(1.0, max(0.0, (x - dist.a) / (dist.b - dist.a)))
    if fam == "exponential":
        return -math.expm1(-x / dist.tau) if x > 0.0 else 0.0
    if fam == "power":
        return min(1.0, (x / dist.b) ** dist.n) if x > 0.0 else 0.0
    if fam == "gamma":
        return _gamma_cdf(dist.k, x / dist.theta)
    raise ValueError(f"unknown law {dist!r}")


def upper(dist) -> float:
    """Upper end of the support, or a point beyond all but 1e-12 of the mass."""
    fam = family(dist)
    if fam in ("uniform", "power"):
        return dist.b
    x = 1.0
    while cdf(dist, x) < 1.0 - 1e-12:
        x *= 2.0
    return x


def quantile(dist, p: float) -> float:
    fam = family(dist)
    if fam == "uniform":
        return dist.a + p * (dist.b - dist.a)
    if fam == "exponential":
        return -dist.tau * math.log1p(-p)
    if fam == "power":
        return dist.b * p ** (1.0 / dist.n)
    lo, hi = 0.0, upper(dist)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(dist, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def delay(model, gamma: float) -> float:
    if model.family.value == "linear":
        return gamma / model.mu
    return math.inf if gamma >= model.mu else 1.0 / (model.mu - gamma)


def balanced(cfg) -> float:
    """The rate gamma+ equalizing the two delays, in closed form."""
    m1, m2 = cfg.d1.mu, cfg.d2.mu
    if cfg.d1.family.value == "linear" and cfg.d2.family.value == "linear":
        return cfg.lam * m1 / (m1 + m2)
    if cfg.d1.family.value == "mm1" and cfg.d2.family.value == "mm1":
        return 0.5 * (cfg.lam + m1 - m2)
    raise ValueError("reference math covers matching delay families only")


def delay_gap(cfg, gamma1: float) -> float:
    return delay(cfg.d2, cfg.lam - gamma1) - delay(cfg.d1, gamma1)


def gap1(cfg, gamma1: float) -> float:
    """Price gap c1 - c2 that makes gamma1 the server-1 equilibrium rate."""
    p = ((cfg.lam - gamma1) / cfg.lam if gamma1 <= balanced(cfg)
         else gamma1 / cfg.lam)
    return quantile(cfg.dist, p) * delay_gap(cfg, gamma1)


def gap(cfg, server: int, rate: float) -> float:
    """Own price minus rival price that gives ``server`` the rate ``rate``;
    server 2 is the mirror g2(x) = -g1(lam - x)."""
    return gap1(cfg, rate) if server == 1 else -gap1(cfg, cfg.lam - rate)


def rate1_at(cfg, c1: float, c2: float) -> float:
    """Server-1 equilibrium rate at prices (c1, c2), by bisection on g1."""
    target = c1 - c2
    lo, hi = 0.0, cfg.lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap1(cfg, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * cfg.lam:
            break
    return 0.5 * (lo + hi)


def rate_at(cfg, server: int, own: float, other: float) -> float:
    if server == 1:
        return rate1_at(cfg, own, other)
    return cfg.lam - rate1_at(cfg, other, own)


def best_revenue_on_grid(cfg, server: int, other: float, n: int = 129,
                         low_branch_only: bool = False) -> float:
    """Largest (g_s(rate) + other) * rate over a coarse grid of thresholds.

    Each threshold beta is turned into rates with the cdf alone: the low
    branch gives server 1 the rate lam * (1 - F(beta)) and the high branch
    lam * F(beta); each is kept only on its own side of gamma+.
    """
    lam, gp = cfg.lam, balanced(cfg)
    lo = cfg.dist.a if family(cfg.dist) == "uniform" else 0.0
    hi = upper(cfg.dist)
    best = -math.inf
    for j in range(1, n + 1):
        beta = lo + (hi - lo) * j / (n + 1)
        f = cdf(cfg.dist, beta)
        rates = [lam * (1.0 - f)] if low_branch_only else [lam * (1.0 - f), lam * f]
        for branch, g1_rate in enumerate(rates):
            on_low = g1_rate <= gp
            if not 0.0 < g1_rate < lam or on_low != (branch == 0):
                continue
            g1 = beta * delay_gap(cfg, g1_rate)
            if server == 1:
                rev = (g1 + other) * g1_rate
            else:
                rev = (-g1 + other) * (lam - g1_rate)
            best = max(best, rev)
    return best

