"""Root finding and one-dimensional maximization helpers.

Grid scans take an array objective and evaluate the whole grid in one
call; root finding and golden-section refinement take scalar functions.
"""

import math
import sys

import numpy as np

from .errors import NoRootError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = sys.float_info.epsilon
_GOLDEN_MAX_ITER = 200
_GOLDEN_ARGUMENT = 1e-9

#: points of the grid scans in optimize_monopoly and best_response
DEFAULT_GRID = 4096

# bisection tolerances; they leave ~4 digits of headroom over the 2-3
# decimals the reproduced tables report
_BISECT_RESIDUAL = 1e-10
_BISECT_ARGUMENT = 1e-12
_BISECT_MAX_ITER = 200


def bisect_decreasing(f, lo: float, hi: float, target: float = 0.0) -> float:
    """Root of f(x) = target for f strictly decreasing on [lo, hi].

    Stops once |f(x) - target| < 1e-10 * max(1, |target|), the bracket is
    narrower than 1e-12, or after 200 halvings. Endpoint values may be
    +/-inf. Raises NoRootError when the bracket does not straddle the
    target.
    """
    f_lo = f(lo) - target
    if f_lo == 0.0:
        return lo
    f_hi = f(hi) - target
    if f_hi == 0.0:
        return hi
    if f_lo < 0.0 or f_hi > 0.0:
        raise NoRootError(
            f"no sign change in [{lo}, {hi}] for target {target}")
    scale = max(1.0, abs(target))
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = f(mid) - target
        if abs(val) < _BISECT_RESIDUAL * scale or (hi - lo) < _BISECT_ARGUMENT:
            return mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _arg_tol(lo: float, hi: float) -> float:
    """Effective argument tolerance on [lo, hi]: 1e-9, widened to a few
    ulps of the bracket's magnitude so that large rates still converge."""
    return max(_GOLDEN_ARGUMENT, 4.0 * _EPS * max(abs(lo), abs(hi)))


def golden_max(f, lo: float, hi: float):
    """Golden-section maximization of the scalar function f on [lo, hi].

    Returns (x, f(x)). Assumes a single interior maximum on the bracket;
    callers provide brackets from a prior grid scan. Stops once the
    bracket is no wider than :func:`_arg_tol`, or after _GOLDEN_MAX_ITER
    steps, which shrink a bracket by a factor of 1e41.
    """
    tol = _arg_tol(lo, hi)
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if (b - a) <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniformly spaced points from lo to exactly hi."""
    xs = lo + np.arange(n) * ((hi - lo) / (n - 1))
    xs[-1] = hi
    return xs


def grid_argmax(f, lo: float, hi: float, n: int):
    """Scan f on an n-point uniform grid of [lo, hi].

    f is an array objective: it takes the whole grid as one numpy array
    and returns the array of values. Returns (xs, fs, i_best), two arrays
    and an int, with the lowest-index tie-break so results are
    deterministic.
    """
    if n < 2:
        raise ValueError("grid_argmax needs n >= 2")
    xs = uniform_grid(lo, hi, n)
    fs = np.asarray(f(xs), dtype=float)
    return xs, fs, int(np.argmax(fs))


def refine_peak(f, xs, fs, i: int):
    """Refine grid point i of a scan (xs, fs) by golden section on f over
    the bracket of its grid neighbours; the grid point itself is kept when
    it is strictly better. Returns (x, f(x), tol), floats, where tol is
    the argument tolerance the refinement closed to (see :func:`_arg_tol`).
    """
    b_lo = float(xs[max(i - 1, 0)])
    b_hi = float(xs[min(i + 1, len(xs) - 1)])
    x, fx = golden_max(f, b_lo, b_hi)
    if fs[i] > fx:
        x, fx = float(xs[i]), float(fs[i])
    return x, fx, _arg_tol(b_lo, b_hi)


def local_maxima_scan(f_grid, f, lo: float, hi: float, n: int):
    """All interior local maxima of f on [lo, hi], each refined by
    :func:`refine_peak`.

    f_grid is the array form of f, used for the grid scan (see
    :func:`grid_argmax`); f is the scalar form, used for refinement.
    Returns a list of (x, f(x)) sorted by x; grid endpoints count as local
    maxima when the function falls away from them.
    """
    xs, fs, _ = grid_argmax(f_grid, lo, hi, n)
    peak = np.ones(n, dtype=bool)
    peak[1:] &= fs[1:] > fs[:-1]
    peak[:-1] &= fs[:-1] >= fs[1:]
    out = []
    for i in np.flatnonzero(peak).tolist():
        x_ref, f_ref, tol = refine_peak(f, xs, fs, i)
        if out and abs(x_ref - out[-1][0]) < 10.0 * tol:
            if f_ref > out[-1][1]:
                out[-1] = (x_ref, f_ref)
            continue
        out.append((x_ref, f_ref))
    return out
