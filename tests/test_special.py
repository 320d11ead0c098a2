"""Checks for the in-repo gamma special functions.

Oracles: math.lgamma for log-gamma, numpy trapezoid quadrature of the
gamma density for the regularized incomplete gamma, and brute-force
bisection on the quadrature CDF for the inverse. log Gamma is also
checked against mpmath in test_reference.py.
"""

import math

import numpy as np
import pytest

from qpk._special import gamma_p, gamma_p_inverse, log_gamma


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 42.5, 171.0])
def test_log_gamma_matches_stdlib(x):
    assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def _quadrature_cdf(k, xs):
    # trapezoid integration after x = t^2, which removes the k < 1
    # endpoint singularity: integrand is 2 t^(2k-1) e^(-t^2) / Gamma(k)
    t_hi = math.sqrt(max(xs.max(), 4 * k + 30.0))
    t = np.linspace(0.0, t_hi, 400_001)
    with np.errstate(divide="ignore"):
        integrand = np.where(
            t > 0.0, 2.0 * np.exp((2.0 * k - 1.0) * np.log(np.maximum(t, 1e-300))
                                  - t * t - math.lgamma(k)), 0.0)
    if 2.0 * k - 1.0 == 0.0:
        integrand[0] = 2.0 / math.gamma(k)
    cdf = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1])
                                           * 0.5 * np.diff(t))])
    return np.interp(np.sqrt(xs), t, cdf)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5, 8.0])
def test_gamma_p_matches_quadrature(k):
    xs = np.array([0.05, 0.3, 0.9, k, k + 1.0, 2.0 * k + 3.0])
    expected = _quadrature_cdf(k, xs)
    for x, want in zip(xs, expected):
        assert gamma_p(k, float(x)) == pytest.approx(want, abs=5e-8)


def test_gamma_p_special_values():
    # k=1 is the unit exponential; k=2 has the closed form 1-(1+x)e^-x
    for x in (0.1, 1.0, 2.5, 7.0):
        assert gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12)
        assert gamma_p(2.0, x) == pytest.approx(1.0 - (1.0 + x) * math.exp(-x), rel=1e-11)
    assert gamma_p(3.0, 0.0) == 0.0


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5, 8.0])
@pytest.mark.parametrize("p", [1e-8, 1e-3, 0.25, 0.5, 0.9, 0.999, 1 - 1e-9])
def test_gamma_p_inverse_round_trip(k, p):
    x = gamma_p_inverse(k, p)
    assert gamma_p(k, x) == pytest.approx(p, abs=1e-10)


def test_gamma_p_inverse_against_bisection_oracle():
    # independent inversion: plain bisection on the quadrature CDF
    k, p = 2.0, 0.83
    lo, hi = 0.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(_quadrature_cdf(k, np.array([mid]))[0]) < p:
            lo = mid
        else:
            hi = mid
    assert gamma_p_inverse(k, p) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_gamma_p_inverse_rejects_edges():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gamma_p_inverse(2.0, p)
