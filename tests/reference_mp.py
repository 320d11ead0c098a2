"""An independent reference for the Wardrop kernel and the optimizers, in
mpmath at 40 digits (tests only).

Written from the model's definitions, with no qpk numerics: the delay
curves D(gamma), the law's cdf, density and quantile, the balanced load
gamma+ with D1(gamma+) = D2(lam - gamma+), the price gap
g1(gamma) = F^{-1}(p) * (D2(lam - gamma) - D1(gamma)) with p = (lam - gamma)/lam
below gamma+ and gamma/lam above it, the equilibrium rate and the rate
cap as roots of g1, and the revenue argmax as the root of the revenue's
derivative. Every root is found by the Illinois variant of regula falsi
on a bracket (Dowell & Jarratt 1971, BIT 11:168-174). A config is read
through its public fields only: lam, d1/d2 (family, mu) and the law's
family and parameters.
"""

import mpmath

mp = mpmath.mp.clone()
mp.dps = 40
_TOL = mp.mpf(10) ** -36


def root(f, a, b):
    """A root of f on the bracket [a, b], where f(a) and f(b) differ in
    sign; None when they do not."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        return None
    side, c_prev = 0, None
    for _ in range(400):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if fc == 0 or (c_prev is not None and abs(c - c_prev) <= _TOL * abs(c)):
            return c
        c_prev = c
        if (fc > 0) == (fb > 0):
            b, fb = c, fc
            if side == -1:
                fa /= 2
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb /= 2
            side = 1
    return c


# --- delays and laws ---------------------------------------------------------

def delay(model, g):
    mu = mp.mpf(model.mu)
    return g / mu if model.family.value == "linear" else 1 / (mu - g)


def delay_prime(model, g):
    mu = mp.mpf(model.mu)
    return 1 / mu if model.family.value == "linear" else 1 / (mu - g) ** 2


def _params(dist):
    return [mp.mpf(getattr(dist, name)) for name in dist.param_names()]


def cdf(dist, x):
    if dist.family == "uniform":
        a, b = _params(dist)
        return (x - a) / (b - a)
    if dist.family == "exponential":
        (tau,) = _params(dist)
        return 1 - mp.exp(-x / tau)
    if dist.family == "gamma":
        k, theta = _params(dist)
        return mp.gammainc(k, 0, x / theta, regularized=True)
    n, b = _params(dist)
    return (x / b) ** n


def density(dist, x):
    if dist.family == "uniform":
        a, b = _params(dist)
        return 1 / (b - a)
    if dist.family == "exponential":
        (tau,) = _params(dist)
        return mp.exp(-x / tau) / tau
    if dist.family == "gamma":
        k, theta = _params(dist)
        return x ** (k - 1) * mp.exp(-x / theta) / (mp.gamma(k) * theta ** k)
    n, b = _params(dist)
    return n * x ** (n - 1) / b ** n


def quantile(dist, p):
    if dist.family == "uniform":
        a, b = _params(dist)
        return a + p * (b - a)
    if dist.family == "exponential":
        (tau,) = _params(dist)
        return -tau * mp.log(1 - p)
    if dist.family == "power":
        n, b = _params(dist)
        return b * p ** (1 / n)
    k, theta = _params(dist)
    hi = k * theta
    while cdf(dist, hi) < p:
        hi *= 2
    return root(lambda x: cdf(dist, x) - p, mp.zero, hi)


# --- the Wardrop kernel ---------------------------------------------------------

class System:
    """A config's servers and law, with its balanced load gamma+."""

    def __init__(self, cfg, swap=False):
        self.lam = mp.mpf(cfg.lam)
        self.d1, self.d2 = (cfg.d2, cfg.d1) if swap else (cfg.d1, cfg.d2)
        self.dist = cfg.dist
        # a bounded law's rates reach 0 and lam, where its gap is finite
        # unless a saturated delay diverges there
        if cfg.dist.family in ("uniform", "power") and not cfg.saturation_ok:
            self.ends = (mp.zero, self.lam)
        else:
            tiny = self.lam * mp.mpf(10) ** -30
            self.ends = (tiny, self.lam - tiny)
        self.gp = root(lambda g: delay(self.d2, self.lam - g) - delay(self.d1, g), *self.ends)

    def _branch(self, g):
        # (p, dp/dgamma) of the threshold's level; the tie at gamma+ takes
        # the low-rate branch
        if g <= self.gp:
            return (self.lam - g) / self.lam, -1 / self.lam
        return g / self.lam, 1 / self.lam

    def delay_gap(self, g):
        return delay(self.d2, self.lam - g) - delay(self.d1, g)

    def g1(self, g):
        return quantile(self.dist, self._branch(g)[0]) * self.delay_gap(g)

    def g1_prime(self, g):
        p, dp = self._branch(g)
        beta = quantile(self.dist, p)
        d_gap = -delay_prime(self.d2, self.lam - g) - delay_prime(self.d1, g)
        return dp / density(self.dist, beta) * self.delay_gap(g) + beta * d_gap

    def _rate(self, target, lo, hi):
        # the root of g1 = target on [lo, hi], or the end g1 stays on the
        # far side of
        found = root(lambda g: self.g1(g) - target, lo, hi)
        if found is not None:
            return found
        return lo if self.g1(lo) < target else hi

    def equilibrium_rate(self, c1, c2):
        """The server-1 rate gamma1 at prices (c1, c2)."""
        gap = mp.mpf(c1) - mp.mpf(c2)
        if gap == 0:
            return self.gp
        lo, hi = self.ends
        return self._rate(gap, lo, self.gp) if gap > 0 else self._rate(gap, self.gp, hi)

    def rate_cap(self, c2):
        """The largest server-1 rate at rival price c2: the root of
        g1 = -c2, or lam where g1 stays above it."""
        return self._rate(-mp.mpf(c2), self.gp, self.ends[1])

    def argmax(self, c, top, n=48):
        """The rate maximizing (g1(gamma) + c) * gamma on (0, top], as the
        root of its derivative g1 + c + gamma * g1' next to the best of n
        grid points; None when the derivative keeps its sign there, so that
        the maximum is not interior."""
        c = mp.mpf(c)
        xs = [top * (i + mp.mpf(0.5)) / n for i in range(n)]
        i = max(range(n), key=lambda j: (self.g1(xs[j]) + c) * xs[j])
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
        if i == n - 1:
            hi = top
        return root(lambda g: self.g1(g) + c + g * self.g1_prime(g), lo, hi)

    def monopoly_argmax(self):
        """Server 1's revenue-optimal rate, whatever the rival's price."""
        return self.argmax(0, self.gp)

    def best_response_argmax(self, other_price):
        """Server 1's best-response rate to the rival price."""
        return self.argmax(other_price, self.rate_cap(other_price))


# --- discrete classes -----------------------------------------------------------

def discrete_equilibrium_rate(classes, d1, d2, c1, c2):
    """The server-1 rate at prices (c1, c2) when the customers are
    (beta, rate) point masses and lam is the sum of the rates.

    A class prefers server 1 iff beta * (D2(lam - g) - D1(g)) > c1 - c2,
    which holds for g below its exit rate: the root of that inequality's
    two sides on [0, lam], or 0 or lam when they do not cross there. With
    the exit rates e_j in decreasing order and S_j the sum of the first j
    class rates, the demand at g exceeds g exactly when g < min(e_j, S_j)
    for some j, so the fixed point is the largest of those minima."""
    lam = mp.fsum(mp.mpf(r) for _, r in classes)
    price_gap = mp.mpf(c1) - mp.mpf(c2)
    exits = []
    for b, r in classes:
        def excess(g, b=mp.mpf(b)):
            return b * (delay(d2, lam - g) - delay(d1, g)) - price_gap
        if excess(mp.zero) <= 0:
            exit_rate = mp.zero
        elif excess(lam) > 0:
            exit_rate = lam
        else:
            exit_rate = root(excess, mp.zero, lam)
        exits.append((exit_rate, mp.mpf(r)))
    rate, total = mp.zero, mp.zero
    for exit_rate, r in sorted(exits, reverse=True):
        total += r
        rate = max(rate, min(exit_rate, total))
    return rate
