"""The package's one bracketed root-finder, and the uniform grid of the
curves.

Every optimum is found as a root of the objective's derivative
(``wardrop.Thresholds.local_maxima``), so there is no separate maximizer.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import DomainError, NoRootError

_EPS = sys.float_info.epsilon
# a guard only: a bracket of [-1, 1] closes on a root at 0 in about 1,100 steps
_MAX_ITER = 5000

#: Relative value slack under which two local maxima of the revenue count
#: as tied (``wardrop.Thresholds.local_maxima``); ties go to the smaller rate.
TIE_REL = 1e-9


def bisect_decreasing(f, lo: float, hi: float, target: float = 0.0) -> float:
    """Root of f(x) = target for f falling through the target on [lo, hi].

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse-quadratic or secant steps, and a
    bisection step whenever those would not shrink the bracket fast
    enough. Stops at an exact zero, or once the bracket around the
    iterate is within about 2 ulps of it (plus the smallest normal
    double, so that a root at 0 stops too). Endpoint values may be
    +/-inf. Raises NoRootError when the bracket does not straddle the
    target.
    """
    a, b = lo, hi
    fa, fb = f(a) - target, f(b) - target
    if fa < 0.0 or fb > 0.0:
        raise NoRootError(
            f"no sign change in [{lo}, {hi}] for target {target}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):  # b is always the best iterate, c across the root
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = _EPS * abs(b) + sys.float_info.min
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or not abs(fa) > abs(fb) or math.isinf(fa):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b) - target
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


def uniform_grid(lo: float, hi: float, n: int) -> list:
    """n uniformly spaced points from lo to exactly hi."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def check_count(name: str, value, least: int) -> None:
    """DomainError unless a count (grid points, samples, rounds, steps) is
    an integer, at least ``least``; a float such as 2.5 or nan is not."""
    try:
        if operator.index(value) >= least:
            return
    except TypeError:
        pass
    raise DomainError(f"{name} must be at least {least} and an integer, got {value}")


# no solver scans for its optimum any more; perfbench's tracer still wraps
# this name, so it stays with the tracer's span
def grid_argmax(scan, lo: float, hi: float, n: int):
    """Sample an objective over [lo, hi] in one pass and take the best sample.

    scan(lo, hi, n) samples at up to n points and returns (xs, fs): the
    points it sampled, increasing from exactly lo to exactly hi, and the
    objective's values there. Returns (xs, fs, i_best), with the
    lowest-index tie-break so results are deterministic.
    """
    if n < 2:
        raise ValueError("grid_argmax needs n >= 2")
    xs, fs = scan(lo, hi, n)
    return xs, fs, max(range(len(fs)), key=fs.__getitem__)


# perfbench's tracer still wraps this name; it goes with the tracer's span
golden_max = bisect_decreasing
