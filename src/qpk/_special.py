"""Gamma special functions implemented in-repo.

Log-gamma uses the Lanczos approximation (g = 7, 9 coefficients); the
regularized lower incomplete gamma uses the power series for x < k + 1
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
relative in the lower tail for k in [1e-3, 0.1], but off by up to 3.3e-8
relative for k in [1e3, 1e4] within 5 standard deviations of the mean.
The inverse stops once |P(x) - p| < 1e-13 p, or for p > 0.5 once
|Q(x) - q| < 1e-13 q with q = 1 - p, so both tails are relative: over
300 pairs with k in [0.13, 1e3] and q in [1e-12, 1e-3], Q is within
2.6e-13 of q. That stop has two limits:
- below k ~ 0.1 the start is too poor for it (DiDonato & Morris 1986,
  ACM TOMS 12:377): at k = 1e-3, p = 0.5 it returns x with P(x) = 0.787;
- it inherits ``gamma_p``'s error at large k.

``gamma_pq_array`` runs the same algorithm elementwise over a numpy
array for one k, for P and Q: whole-grid scans call it once, not once per
point. In each iteration where elements meet their stopping rule, their
values are written back and the arrays are compacted to the rest, so
every element runs the recurrence and the stopping rule of its scalar
counterpart. Once _HANDOFF or fewer elements of a series or continued
fraction are left, they finish in the scalar recurrences that
``gamma_p`` runs: these use only + - * / and comparisons, which round in
Python floats as in numpy float64, so the bits stay those of the array
loop. The exp/log front factor stays in numpy over the whole array, and
numpy's exp and log can differ from math's in the last bit, so the array
values are the scalar ones only up to rounding. A last-bit difference in
log x enters the exponent k log x - x - log Gamma(k + 1) multiplied by k,
so P differs from ``gamma_p`` by up to about 2 eps (1 + k |log x|)
relative: over k in {0.2, 0.8, 2, 5, 30, 300} and 4,096 points geometric
in [0.2k, 3k] each, 831 of 24,576 values differ, by up to 7.8e-16 for
k <= 30 and 5.7e-14 at k = 300 (x = 161.7). Grid scans need no array
inverse: ``gamma_scan_points`` places its points in closed form and reads
P and Q once where they land.
"""

import math

import numpy as np

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_EPS = 1e-16
#: from this shape up the incomplete gamma's front factor takes Stirling's
#: series for log Gamma(k); _STIRLING holds its coefficients, highest first
_STIRLING_K = 100.0
_STIRLING = (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_TINY = 1e-300
_MAX_ITER = 500
_HANDOFF = 16  # at this many active elements or fewer, the array loops go scalar
#: a gamma scan's Halley steps run while its largest gap between rates is
#: over this many uniform spacings
_SCAN_GAP = 1.5


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(acc)


def _series(k: float, x: float, i: int, ap: float, total: float, term: float) -> float:
    """P(k, x) over its front factor by the power series, which converges
    fastest for x < k + 1, resumed at iteration i from (ap, total, term);
    a fresh start is i = 1, ap = k, total = term = 1/k."""
    for _ in range(i, _MAX_ITER + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _contfrac(k: float, i: int, h: float, b: float, c: float, d: float) -> float:
    """Q(k, x) = 1 - P(k, x) over its front factor by the continued
    fraction (modified Lentz), resumed at iteration i from (h, b, c, d);
    a fresh start is i = 1, b = x + 1 - k, c = 1/_TINY, h = d = 1/b.

    Lentz guards D_i = b_i + a_i / D_(i-1) and c_i = b_i + a_i / c_(i-1)
    against zero; here neither can come near it. Callers pass x >= k, and
    b_i = x + 1 - k + 2i, while a_i = -i (i - k) is negative only where
    i > k, with |a_i| = i (i - k) <= i (x - k + i). By induction
    D_i >= x + 1 - k + i >= 1 + i and c_i >= x - k + i + 1 >= 1 + i (for
    x >= k + 1, where :func:`gamma_p` takes the fraction, >= 2 + i), so the
    fraction runs without the guards and rounds as it did with them.
    """
    for i in range(i, _MAX_ITER):
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
        return True, _series(k, x, 1, k, 1.0 / k, 1.0 / k) * front
    b = x + 1.0 - k
    return False, _contfrac(k, 1, 1.0 / b, b, 1.0 / _TINY, 1.0 / b) * front


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


def _active_loop(inputs, state, max_iter, step, finish=None):
    """Iterate ``step`` on the elements that have not yet stopped, and
    return the output array ``state[0]``.

    ``inputs`` and ``state`` are tuples of equal-length arrays: the step
    only reads the inputs, and the loop updates the state arrays, which
    the caller owns. ``step(i, *inputs, *state)`` gets the active
    elements, advances their state by iteration i in place, and returns a
    boolean mask of those that stop after it. In each iteration where any
    stop, their outputs are written back to ``state[0]`` and the
    survivors' inputs and state go on as compacted copies. With
    ``finish``, once _HANDOFF or fewer elements are active, the loop calls
    ``finish(i, *inputs, *state)`` once on them, with i the iteration to
    resume at (max_iter + 1 if none is left), and writes back the outputs
    it returns. On return every output holds its value from the iteration
    where it stopped, or from ``max_iter``.
    """
    out, ins, active = state[0], inputs, state
    idx = np.arange(out.size)  # positions of the active elements
    least = 0 if finish is None else _HANDOFF
    i = 0
    while idx.size > least and i < max_iter:
        i += 1
        done = step(i, *ins, *active)
        if done.any():
            out[idx[done]] = active[0][done]
            keep = ~done
            idx = idx[keep]
            ins = tuple(s[keep] for s in ins)
            active = tuple(s[keep] for s in active)
    if idx.size:
        out[idx] = active[0] if finish is None else finish(i + 1, *ins, *active)
    return out


def _front_factor(k: float, x: np.ndarray) -> np.ndarray:
    """exp(:func:`_log_front`) elementwise."""
    if k < _STIRLING_K:
        return np.exp(-x + k * np.log(x) - log_gamma(k))
    return np.exp(k * np.log(x / k) + (k - x) + _stirling_rest(k))


def _gamma_p_series_array(k: float, x: np.ndarray) -> np.ndarray:
    """The series of :func:`gamma_p` elementwise, times the front factor."""
    ap = k

    def step(i, x, total, term):
        nonlocal ap
        ap += 1.0
        term *= x / ap
        total += term
        return term < total * _EPS  # x > 0 here, so both are positive

    def finish(i, x, total, term):
        return [_series(k, v, i, ap, s, t)
                for v, s, t in zip(x.tolist(), total.tolist(), term.tolist())]

    term = np.full(x.shape, 1.0 / k)
    total = _active_loop((x,), (term.copy(), term), _MAX_ITER, step, finish)
    return total * _front_factor(k, x)


def _gamma_q_contfrac_array(k: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of :func:`gamma_p` elementwise, times the front factor."""
    def step(i, h, b, c, d):  # unguarded, as in _contfrac
        an = -i * (i - k)
        b += 2.0
        d *= an
        d += b
        np.divide(1.0, d, out=d)
        np.divide(an, c, out=c)
        c += b
        delta = d * c
        h *= delta
        delta -= 1.0
        return np.abs(delta, out=delta) < _EPS

    def finish(i, *state):
        return [_contfrac(k, i, *row) for row in zip(*(s.tolist() for s in state))]

    b = x + 1.0 - k
    d = 1.0 / b
    c = np.full(x.shape, 1.0 / _TINY)
    h = _active_loop((), (d.copy(), b, c, d), _MAX_ITER - 1, step, finish)
    return h * _front_factor(k, x)


def gamma_pq_array(k: float, x) -> tuple:
    """(P(k, x), Q(k, x)) elementwise over an array x >= 0, for one k > 0:
    the series of :func:`gamma_p` gives P below k + 1, its continued
    fraction gives Q above, so Q keeps its relative accuracy in the upper
    tail, and each is 1 minus the other elsewhere."""
    if k <= 0.0:
        raise ValueError(f"gamma_p requires k > 0, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gamma_p requires x >= 0")
    lower, upper = np.zeros(x.shape), np.ones(x.shape)
    series, tail = (x > 0.0) & (x < k + 1.0), x >= k + 1.0
    lower[series] = _gamma_p_series_array(k, x[series])
    upper[tail] = _gamma_q_contfrac_array(k, x[tail])
    return np.where(tail, 1.0 - upper, lower), np.where(series, 1.0 - lower, upper)


def _scan_start(k: float, p: np.ndarray) -> tuple:
    """(x, z): the closed-form start of :func:`gamma_scan_points` at the
    levels p, and their normal quantiles z."""
    z = _normal_quantile_array(p)
    t = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    small = np.exp((np.log(p) + log_gamma(k + 1.0)) / k)
    return np.maximum(np.where(t > 0.0, np.maximum(k * t * t * t, small), small), 1e-300), z


def gamma_start(k: float, p: float) -> float:
    """:func:`_scan_start`'s x at one level p in (0, 1), in plain floats."""
    t = 1.0 - 1.0 / (9.0 * k) + _normal_quantile(p) * math.sqrt(1.0 / (9.0 * k))
    small = math.exp((math.log(p) + log_gamma(k + 1.0)) / k)
    return max(k * t * t * t if t > 0.0 else 0.0, small, 1e-300)


def gamma_scan_points(k: float, p: np.ndarray, low: np.ndarray, anchors: tuple) -> tuple:
    """(x, share) at the levels p in (0, 1) of a grid scan uniform in rate,
    for one k: points x near the solutions of P(k, x) = p, and each one's
    rate as a share of the total, Q(k, x) where ``low`` (the first points,
    rated lam * (1 - F)) and P(k, x) elsewhere.

    ``anchors`` holds three (level, x) pairs, each x the scalar inverse at
    its level: the low branch's end next to gamma+ (or the top, if every
    point is low), the upper branch's start at gamma+, and the top, which
    is the last level of p and becomes the scan's last point. A pair for a
    branch with no points may be None.

    The start is the small-x lower bound (p * Gamma(k + 1))**(1/k)
    (DiDonato & Morris 1986), or the Wilson-Hilferty start k * t**3 where
    t > 0 and that is larger. Its error in log x at the anchors is taken
    off: held over the low branch, linear in the normal quantile of p over
    the upper one, so no point crosses a branch end; an anchor whose x
    misses its level corrects nothing. While the largest gap between
    rates, the ends at their targets, exceeds _SCAN_GAP uniform spacings,
    at most twice, every point takes a Halley step (kept if finite and
    positive) and is read again.
    """
    n, edge = p.size, np.count_nonzero(low)
    x, z = _scan_start(k, p)
    start, z_at = _scan_start(k, np.array([a[0] if a else 0.5 for a in anchors]))
    e_low, e_high, e_top = (
        math.log(a[1] / s) if a and abs(gamma_p(k, a[1]) - a[0]) < 1e-12 else 0.0
        for a, s in zip(anchors, start.tolist()))
    if edge < n:
        span = z_at[2] - z_at[1]
        w = (z[edge:] - z_at[1]) / span if span != 0.0 else 0.0
        x[edge:] *= np.exp(e_high + w * (e_top - e_high))
    if edge:
        x[:edge] *= math.exp(e_low)
    np.maximum(x, 1e-300, out=x)
    ends = np.where(low[[0, -1]], 1.0 - p[[0, -1]], p[[0, -1]])
    widest = _SCAN_GAP * (ends[1] - ends[0]) / max(n - 1, 1)
    log_gamma_k = log_gamma(k)
    for step in range(3):
        lower, upper = gamma_pq_array(k, x)
        share = np.where(low, upper, lower)
        if step == 2 or np.abs(np.diff(np.concatenate(
                (ends[:1], share[1:-1], ends[1:])))).max() <= widest:
            x[-1], share[-1] = anchors[2][1], ends[1]
            return x, share
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = (lower - p) / np.exp((k - 1.0) * np.log(x) - x - log_gamma_k)
            halley = x - u / (1.0 - 0.5 * u * ((k - 1.0) / x - 1.0))
        x = np.where(np.isfinite(halley) & (halley > 0.0), halley, x)


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
    """Acklam's tail rational in q = sqrt(-2 log p); float or array."""
    c, d = _NQ_C, _NQ_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _normal_central(q):
    """Acklam's central rational in q = p - 0.5; float or array."""
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


def _normal_quantile_array(p: np.ndarray) -> np.ndarray:
    """_normal_quantile elementwise, with the same three regions."""
    out = np.empty_like(p)
    low = p < _NQ_P_LOW
    high = p > 1.0 - _NQ_P_LOW
    mid = ~(low | high)
    out[low] = _normal_tail(np.sqrt(-2.0 * np.log(p[low])))
    out[high] = -_normal_tail(np.sqrt(-2.0 * np.log(1.0 - p[high])))
    out[mid] = _normal_central(p[mid] - 0.5)
    return out
