"""The survival hooks ``_sf`` = 1 - F of every family, against ``_cdf`` and
mpmath (hypothesis; skipped when it or mpmath is absent).

Point solves read a rate up to the balanced load as lam * _sf(beta), so
a small survival probability must keep its relative accuracy: near a
bounded law's top, where 1 - F would cancel, and in an exponential tail.
"""

import math
import sys

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st  # noqa: E402
from reference_mp import mp  # noqa: E402

from qpk import Exponential, Gamma, Power, Uniform  # noqa: E402

EPS = sys.float_info.epsilon


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# bounded laws whose support reaches at least 1 below its top
uniforms = st.builds(lambda a, w: Uniform(a, a + w), st.floats(0.0, 3.0), st.floats(1.0, 6.0))
powers = st.builds(Power, st.floats(0.5, 3.0), st.floats(1.0, 8.0, exclude_min=True))
laws = st.one_of(uniforms, powers, st.builds(Exponential, _log_uniform(0.1, 10.0)),
                 st.builds(Gamma, _log_uniform(0.2, 1e3), _log_uniform(0.5, 3.0)))
# a level's distance from 0 or 1, out to the solves' clamp P_MIN
tails = _log_uniform(1e-12, 0.5)


def _sum_allowance(dist, x):
    """2 eps; a gamma law's P and Q each carry the rounding of their front
    factor's exponent -z + k log z - log Gamma(k), z = x / theta, which
    is several ulps away from k ~ 1 (up to 882 eps at k near 1e3)."""
    if not isinstance(dist, Gamma):
        return 2.0 * EPS
    z = x / dist.theta
    return 4.0 * EPS * (1.0 + z + dist.k * abs(math.log(z)) + abs(math.lgamma(dist.k)))


@settings(max_examples=300, deadline=None)
@given(laws, tails, st.booleans())
def test_sf_and_cdf_sum_to_one(dist, tail, upper):
    x = dist._quantile(1.0 - tail if upper else tail)
    assert abs(dist._sf(x) + dist._cdf(x) - 1.0) <= _sum_allowance(dist, x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(uniforms, powers), _log_uniform(1e-12, 1.0))
def test_bounded_sf_keeps_its_digits_near_the_top(dist, below):
    # b - x is exact there; 1 - (x/b)**n would lose all but a few digits
    x = dist.b - below
    if isinstance(dist, Uniform):
        want = (mp.mpf(dist.b) - x) / (mp.mpf(dist.b) - dist.a)
    else:
        want = 1 - (mp.mpf(x) / dist.b) ** dist.n
    assert abs(dist._sf(x) - want) <= 1e-15 * want


@settings(max_examples=300, deadline=None)
@given(_log_uniform(0.1, 10.0), st.floats(0.0, -math.log(1e-12)))
def test_exponential_sf_is_relative_out_to_the_clamp(tau, t):
    # the one rounding of x / tau, which exp scales by x / tau
    x = tau * t
    want = mp.exp(-mp.mpf(x) / tau)
    assert abs(Exponential(tau)._sf(x) - want) <= 2.0 * EPS * (1.0 + x / tau) * want
