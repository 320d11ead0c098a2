"""Gamma special functions implemented in-repo, on ``math.lgamma`` for log Gamma.

The regularized lower incomplete gamma uses the power series for x < k + 1
and a modified Lentz continued fraction for the upper tail otherwise,
run without Lentz's zero guards, which cannot fire there (``_contfrac``).
``gamma_q`` takes the fraction from max(k, 1) up, so that Q keeps its
relative accuracy wherever 1 - P would cancel. From k = 100 up the front
factor x**k e**-x / Gamma(k) takes Stirling's series for log Gamma, whose
direct form lost up to 2e-12 to rounding at k ~ 1e3. The inverse takes
bracketed Halley steps from the Wilson-Hilferty start: P''/P' =
(k - 1)/x - 1 is closed-form, so the third-order step costs no more
evaluations of P than a Newton step (Numerical Recipes 3rd ed., section
6.2.1).

Accuracy, measured against scipy.special: ``gamma_p`` is within 7e-15
relative in the lower tail for k in [1e-3, 0.1]. Within 5 standard
deviations of the mean it is within 2.6e-13 relative for k = 1e3 and
3e3, 4e-13 at k = 5e3 and 9.3e-13 at k = 1e4, and ``gamma_q`` within
3.3e-13, 5.4e-13 and 1.1e-12 there.
The inverse stops once |P(x) - p| < 1e-13 p, or for p > 0.5 once
|Q(x) - q| < 1e-13 q with q = 1 - p, so both tails are relative: over
300 pairs with k in [0.13, 1e3] and q in [1e-12, 1e-3], Q is within
2.6e-13 of q. That stop has two limits:
- below k ~ 0.1 the start is too poor for it (DiDonato & Morris 1986,
  ACM TOMS 12:377): at k = 1e-3, p = 0.5 it returns x with P(x) = 0.787;
- it inherits ``gamma_p``'s error at large k.
"""

from __future__ import annotations

import math

_EPS = 1e-16
#: from this shape up the incomplete gamma's front factor takes Stirling's
#: series for log Gamma(k); _STIRLING holds its coefficients, highest first
_STIRLING_K = 100.0
_STIRLING = (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_TINY = 1e-300
_MAX_ITER = 500
#: from this shape up the power series' budget, 12 sqrt(k) terms, is over _MAX_ITER
_LONG_SERIES_K = (_MAX_ITER / 12.0) ** 2


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (``math.lgamma``)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _series(k: float, x: float) -> float:
    """P(k, x) over its front factor by the power series, which converges
    fastest for x < k + 1. Near x = k its terms fall off only over some
    sqrt(k) of them, so the budget is max(_MAX_ITER, 12 sqrt(k)) terms: at
    k = 1e4 a fixed 500 left P up to 6.8e-7 off."""
    ap, total = k, 1.0 / k
    term = total
    for _ in range(_MAX_ITER if k < _LONG_SERIES_K else math.ceil(12.0 * math.sqrt(k))):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _contfrac(k: float, x: float) -> float:
    """Q(k, x) = 1 - P(k, x) over its front factor by the continued
    fraction (modified Lentz).

    Lentz guards D_i = b_i + a_i / D_(i-1) and c_i = b_i + a_i / c_(i-1)
    against zero; here neither can come near it. Callers pass x >= k, and
    b_i = x + 1 - k + 2i, while a_i = -i (i - k) is negative only where
    i > k, with |a_i| = i (i - k) <= i (x - k + i). By induction
    D_i >= x + 1 - k + i >= 1 + i and c_i >= x - k + i + 1 >= 1 + i (for
    x >= k + 1, where :func:`gamma_p` takes the fraction, >= 2 + i), so the
    fraction runs without the guards and rounds as it did with them.
    """
    b = x + 1.0 - k
    c, h = 1.0 / _TINY, 1.0 / b
    d = h
    for i in range(1, _MAX_ITER):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _log_front(k: float, x: float) -> float:
    """log(x**k e**-x / Gamma(k)), for x > 0: below _STIRLING_K as written;
    from it up as k log(x/k) + (k - x) + 0.5 log(k / (2 pi)) - R(k), with
    R the Stirling series of log Gamma, so that no term of the size of
    log Gamma(k) cancels and the rounding does not grow with log Gamma."""
    if k < _STIRLING_K:
        return -x + k * math.log(x) - log_gamma(k)
    return k * math.log(x / k) + (k - x) + _stirling_rest(k)


def _stirling_rest(k: float) -> float:
    """0.5 log(k / (2 pi)) - R(k), R(k) = log Gamma(k) - (k - 1/2) log k + k
    - 0.5 log(2 pi) by five terms of its series, under 1e-20 for k >= 100."""
    r = 1.0 / (k * k)
    series = 0.0
    for c in _STIRLING:
        series = series * r + c
    return 0.5 * math.log(k / (2.0 * math.pi)) - series / k


def _tail(k: float, x: float, name: str, switch: float) -> tuple:
    """(lower, v): v = P(k, x) by the series below the switch (lower is
    True), Q(k, x) by the continued fraction from it up; x >= k + 1 is
    always past the switch."""
    if k <= 0.0:
        raise ValueError(f"{name} requires k > 0, got {k}")
    if x < 0.0:
        raise ValueError(f"{name} requires x >= 0, got {x}")
    if x == 0.0:
        return True, 0.0
    front = math.exp(_log_front(k, x))
    if x < switch:
        return True, _series(k, x) * front
    return False, _contfrac(k, x) * front


def gamma_p(k: float, x: float) -> float:
    """Regularized lower incomplete gamma P(k, x) for k > 0, x >= 0."""
    lower, v = _tail(k, x, "gamma_p", k + 1.0)
    return v if lower else 1.0 - v


def gamma_q(k: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(k, x) = 1 - P(k, x) for k > 0,
    x >= 0. It is the continued fraction of :func:`gamma_p` from max(k, 1)
    up, where P is over one half (the fraction takes at most 200 steps
    there for k up to 1e4), so Q keeps its relative accuracy down the upper
    tail and 1 - P, below, cancels no more than a bit."""
    lower, v = _tail(k, x, "gamma_q", max(k, 1.0))
    return 1.0 - v if lower else v


def gamma_p_inverse(k: float, p: float) -> float:
    """Solve P(k, x) = p for x, stopping once |P(x) - p| < 1e-13 * p, or,
    for p > 0.5, once |Q(x) - q| < 1e-13 * q with q = 1 - p; the module
    docstring gives where that stop is not reached.

    Halley iteration seeded by the Wilson-Hilferty normal approximation.
    The bracket starts as (0, inf) and the sign of P(x) - p, read as
    q - Q(x) above p = 0.5, closes it. A step that leaves the bracket, is
    not finite, or is not under half the step before it gives way to 2x
    while the bracket is open above, and to bisection once it is closed.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"gamma_p_inverse requires 0 < p < 1, got {p}")
    q = 1.0 - p  # exact for p > 0.5
    upper = p > 0.5

    # Wilson-Hilferty start: x ~ k * (1 - 1/(9k) + z*sqrt(1/(9k)))^3
    z = _normal_quantile(p)
    t = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    x = k * t * t * t if t > 0.0 else k * math.exp((z - 3.0) / math.sqrt(k))
    x = max(x, 1e-300)

    log_gamma_k = log_gamma(k)
    lo, hi, step = 0.0, math.inf, math.inf
    for _ in range(200):
        f = q - gamma_q(k, x) if upper else gamma_p(k, x) - p
        if abs(f) < 1e-13 * (q if upper else p):
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        dens = math.exp((k - 1.0) * math.log(x) - x - log_gamma_k)
        u = f / dens if dens > 0.0 else math.nan
        denom = 1.0 - 0.5 * u * ((k - 1.0) / x - 1.0)
        x_new = x - u / denom if denom != 0.0 else math.nan
        if not (lo < x_new < hi and abs(x_new - x) < 0.5 * step):
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        step = abs(x_new - x)
        if x_new > 1e300:
            raise ArithmeticError("gamma_p_inverse found no bracket below 1e300")
        if hi - lo < 1e-15 * hi:
            return x_new
        x = x_new
    return x


def gamma_start(k: float, p: float) -> float:
    """A start near the solution of P(k, x) = p, p in (0, 1), in closed
    form: the small-x lower bound (p * Gamma(k + 1))**(1/k) (DiDonato &
    Morris 1986), or the Wilson-Hilferty start k * t**3 where t > 0 and
    that is larger."""
    t = 1.0 - 1.0 / (9.0 * k) + _normal_quantile(p) * math.sqrt(1.0 / (9.0 * k))
    small = math.exp((math.log(p) + log_gamma(k + 1.0)) / k)
    return max(k * t * t * t if t > 0.0 else 0.0, small, 1e-300)


_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
_NQ_P_LOW = 0.02425


def _normal_tail(q):
    """Acklam's tail rational in q = sqrt(-2 log p)."""
    c, d = _NQ_C, _NQ_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _normal_central(q):
    """Acklam's central rational in q = p - 0.5."""
    a, b = _NQ_A, _NQ_B
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _normal_quantile(p: float) -> float:
    """Standard normal quantile (Acklam's rational approximation)."""
    if p < _NQ_P_LOW:
        return _normal_tail(math.sqrt(-2.0 * math.log(p)))
    if p > 1.0 - _NQ_P_LOW:
        return -_normal_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    return _normal_central(p - 0.5)
