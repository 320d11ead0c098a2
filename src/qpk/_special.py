"""Gamma special functions implemented in-repo.

Log-gamma uses the Lanczos approximation (g = 7, 9 coefficients); the
regularized lower incomplete gamma uses the power series for x < k + 1
and a modified Lentz continued fraction for the upper tail otherwise.
Double-precision accurate to ~1e-14 relative on the parameter ranges the
sensitivity distributions use.

``gamma_p_array`` and ``gamma_p_inverse_array`` run the same algorithms
elementwise over a numpy array for one shape k: whole-grid scans and
sampling call them once instead of once per point. In each iteration
where elements meet their stopping rule, their values are written back
and the arrays are compacted to the rest, so every element takes the
iterates and the stopping point its scalar counterpart would.
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
_TINY = 1e-300
_MAX_ITER = 500
_BLOCK = 4096


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


def _gamma_p_series(k: float, x: float) -> float:
    """Series expansion of P(k, x); converges fastest for x < k + 1."""
    ap = k
    term = 1.0 / k
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + k * math.log(x) - log_gamma(k))

def _gamma_q_contfrac(k: float, x: float) -> float:
    """Continued fraction for Q(k, x) = 1 - P(k, x), modified Lentz."""
    b = x + 1.0 - k
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + k * math.log(x) - log_gamma(k))


def gamma_p(k: float, x: float) -> float:
    """Regularized lower incomplete gamma P(k, x) for k > 0, x >= 0."""
    if k <= 0.0:
        raise ValueError(f"gamma_p requires k > 0, got {k}")
    if x < 0.0:
        raise ValueError(f"gamma_p requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < k + 1.0:
        return _gamma_p_series(k, x)
    return 1.0 - _gamma_q_contfrac(k, x)


def gamma_p_inverse(k: float, p: float) -> float:
    """Solve P(k, x) = p for x, accurate to 1e-10 in probability.

    Bracketed Newton iteration seeded by the Wilson-Hilferty normal
    approximation, with bisection as the safeguard.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"gamma_p_inverse requires 0 < p < 1, got {p}")

    # Wilson-Hilferty start: x ~ k * (1 - 1/(9k) + z*sqrt(1/(9k)))^3
    z = _normal_quantile(p)
    t = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    x = k * t * t * t if t > 0.0 else k * math.exp((z - 3.0) / math.sqrt(k))
    x = max(x, 1e-300)

    lo, hi = 0.0, x
    while gamma_p(k, hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("gamma_p_inverse bracket expansion failed")

    log_gamma_k = log_gamma(k)
    x = min(max(x, lo + 0.25 * (hi - lo)), hi) if hi > lo else hi
    for _ in range(200):
        f = gamma_p(k, x) - p
        if abs(f) < 1e-13:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        dens = math.exp((k - 1.0) * math.log(x) - x - log_gamma_k)
        step_ok = dens > 0.0 and math.isfinite(dens)
        x_new = x - f / dens if step_ok else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * hi:
            return x_new
        x = x_new
    return x


def _active_loop(inputs, state, max_iter, step):
    """Iterate ``step`` on the elements that have not yet stopped.

    ``inputs`` and ``state`` are tuples of equal-length arrays: the step
    only reads the inputs, and the loop updates the state arrays, which
    the caller owns. ``step(i, *inputs, *state)`` gets the active
    elements, advances their state by iteration i in place, and returns a
    boolean mask of those that stop after it. In each iteration where any
    stop, their state is written back to the caller's arrays and the
    survivors' inputs and state go on as compacted copies. On return every
    state element holds its value from the iteration where it stopped, or
    from ``max_iter``.
    """
    ins, active = inputs, state
    idx = np.arange(state[0].size)  # positions of the active elements
    for i in range(1, max_iter + 1):
        if idx.size == 0:
            break
        done = step(i, *ins, *active)
        if not done.any():
            continue
        for a, s in zip(state, active):
            a[idx[done]] = s[done]
        keep = ~done
        idx = idx[keep]
        ins = tuple(s[keep] for s in ins)
        active = tuple(s[keep] for s in active)
    for a, s in zip(state, active):
        a[idx] = s
    return state


def _front_factor(k: float, x: np.ndarray) -> np.ndarray:
    return np.exp(-x + k * np.log(x) - log_gamma(k))


def _gamma_p_series_array(k: float, x: np.ndarray) -> np.ndarray:
    """_gamma_p_series elementwise."""
    ap = k

    def step(i, x, term, total):
        nonlocal ap
        ap += 1.0
        term *= x / ap
        total += term
        return term < total * _EPS  # x > 0 here, so both are positive

    term = np.full(x.shape, 1.0 / k)
    _, total = _active_loop((x,), (term, term.copy()), _MAX_ITER, step)
    return total * _front_factor(k, x)


def _gamma_q_contfrac_array(k: float, x: np.ndarray) -> np.ndarray:
    """_gamma_q_contfrac elementwise."""
    def step(i, b, c, d, h):
        an = -i * (i - k)
        b += 2.0
        d *= an
        d += b
        d[np.abs(d) < _TINY] = _TINY
        c[:] = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        np.divide(1.0, d, out=d)
        delta = d * c
        h *= delta
        return np.abs(delta - 1.0) < _EPS

    b = x + 1.0 - k
    d = 1.0 / b
    c = np.full(x.shape, 1.0 / _TINY)
    h = _active_loop((), (b, c, d, d.copy()), _MAX_ITER - 1, step)[3]
    return h * _front_factor(k, x)


def gamma_p_array(k: float, x) -> np.ndarray:
    """gamma_p elementwise over an array x >= 0, for one shape k > 0."""
    if k <= 0.0:
        raise ValueError(f"gamma_p requires k > 0, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gamma_p requires x >= 0")
    out = np.zeros(x.shape)
    series = (x > 0.0) & (x < k + 1.0)
    upper = x >= k + 1.0
    out[series] = _gamma_p_series_array(k, x[series])
    out[upper] = 1.0 - _gamma_q_contfrac_array(k, x[upper])
    return out


def _wilson_hilferty_array(k: float, p: np.ndarray) -> np.ndarray:
    """gamma_p_inverse's starting point, elementwise."""
    z = _normal_quantile_array(p)
    t = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    with np.errstate(over="ignore"):
        x = np.where(t > 0.0, k * t * t * t, k * np.exp((z - 3.0) / math.sqrt(k)))
    return np.maximum(x, 1e-300)


def gamma_p_inverse_array(k: float, p) -> np.ndarray:
    """gamma_p_inverse elementwise over an array p in (0, 1), for one k.

    The same Wilson-Hilferty start, bracket expansion and safeguarded
    Newton iteration, so each element lands where the scalar call would.
    The iteration holds about 16 arrays of its input's size, so it runs
    on at most _BLOCK elements at a time.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("gamma_p_inverse requires 0 < p < 1")
    flat = p.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        out[start:start + _BLOCK] = _gamma_p_inverse_block(k, flat[start:start + _BLOCK])
    return out.reshape(p.shape)


def _gamma_p_inverse_block(k: float, p: np.ndarray) -> np.ndarray:
    def expand(i, p, lo, hi):
        below = gamma_p_array(k, hi) < p
        lo[below] = hi[below]
        hi[below] *= 2.0
        if np.any(hi > 1e300):
            raise ArithmeticError("gamma_p_inverse bracket expansion failed")
        return ~below

    x = _wilson_hilferty_array(k, p)
    lo, hi = _active_loop((p,), (np.zeros(p.shape), x.copy()), 2048, expand)

    log_gamma_k = log_gamma(k)

    def newton(i, p, x, lo, hi):
        f = gamma_p_array(k, x) - p
        converged = np.abs(f) < 1e-13
        above = f > 0.0
        hi[above] = x[above]
        lo[~above] = x[~above]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dens = np.exp((k - 1.0) * np.log(x) - x - log_gamma_k)
            step_ok = (dens > 0.0) & np.isfinite(dens)
            x_new = np.where(step_ok, x - f / dens, 0.5 * (lo + hi))
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        x[~converged] = x_new[~converged]
        return converged | (hi - lo < 1e-15 * hi)

    # hi > lo always holds here, as hi starts at x >= 1e-300 > lo = 0
    x = np.minimum(np.maximum(x, lo + 0.25 * (hi - lo)), hi)
    return _active_loop((p,), (x, lo, hi), 200, newton)[0]


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
