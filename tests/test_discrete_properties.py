"""Properties of the discrete-class equilibrium over 1-4 classes, linear or
mm1 delays on each server and both signs of the price gap (hypothesis;
skipped when it is absent).

- At the returned rate every class sits wholly on the server it prefers,
  and only an indifferent class splits: the rate lies between the sum of
  the rates preferring server 1 and lam less the sum of those preferring
  server 2. A class counts as indifferent when its preference margin
  beta * gap - (c1 - c2) is within the rounding of the gap's evaluation
  and of a few ulps of the rate. Two classes are indifferent together
  only where their exit rates fall within that rounding of each other.
- With no class indifferent the rate is a plateau: the float sum of the
  rates of the classes on server 1, added in the order they leave it.
- Every rate is within 4 eps * lam of the 40-digit fixed point of
  tests/reference_mp.py.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qpk import DelayModel, discrete_class_oracle  # noqa: E402
from qpk.models import delay_formula, delay_slope  # noqa: E402
from qpk.wardrop import delay_gap  # noqa: E402

EPS = 2.0 ** -52

rates = st.floats(0.05, 3.0)
class_lists = st.lists(st.tuples(st.floats(0.1, 40.0), rates), min_size=1, max_size=4,
                       unique_by=lambda c: c[0])
servers = st.tuples(st.sampled_from(["linear", "mm1"]), st.floats(0.3, 5.0),
                    st.floats(1.05, 4.0))
price_shares = st.one_of(st.floats(-1.2, 1.2), st.sampled_from([-1.0, 0.0, 1.0]))


def _model(server, lam):
    """A linear server of rate mu, or an mm1 server of rate lam * factor."""
    family, mu, factor = server
    return DelayModel.linear(mu) if family == "linear" else DelayModel.mm1(lam * factor)


def _system(classes, s1, s2, share):
    lam = sum(r for _, r in classes)
    d1, d2 = _model(s1, lam), _model(s2, lam)
    oracle = discrete_class_oracle(classes, d1, d2)
    gap = delay_gap(d1, d2, oracle.lam)[0]
    spread = max(b for b, _ in classes) * max(abs(gap(0.0)), abs(gap(oracle.lam)))
    return oracle, d1, d2, share * spread


@settings(max_examples=300, deadline=None, database=None)
@given(class_lists, servers, servers, price_shares)
def test_every_class_is_on_its_preferred_server_but_one(classes, s1, s2, share):
    oracle, d1, d2, c1 = _system(classes, s1, s2, share)
    g = oracle.measure(c1, 0.0).gamma1
    lam = oracle.lam
    assert 0.0 <= g <= lam
    gap = delay_gap(d1, d2, lam)[0](g)
    delays = delay_formula(d1)(g) + delay_formula(d2)(lam - g)
    slopes = delay_slope(d1)(g) + delay_slope(d2)(lam - g)
    walk = oracle.classes if c1 >= 0.0 else oracle.classes[::-1]
    on_1, on_2, free = [], [], []
    for b, r in walk:
        margin = b * gap - c1
        tol = 8.0 * EPS * (abs(c1) + b * delays + b * slopes * lam)
        (on_1 if margin > tol else on_2 if margin < -tol else free).append((b, r))
    below = math.fsum(r for _, r in on_1)
    above = lam - math.fsum(r for _, r in on_2)
    assert below - 4.0 * EPS * lam <= g <= above + 4.0 * EPS * lam
    if not free:
        plateau = 0.0
        for _, r in on_1:  # in walk order, one rounding per class
            plateau += r
        assert g == (lam if len(on_1) == len(walk) else min(plateau, lam))


@settings(max_examples=100, deadline=None, database=None)
@given(class_lists, servers, servers, price_shares)
def test_rates_match_the_reference_fixed_point(classes, s1, s2, share):
    pytest.importorskip("mpmath")
    import reference_mp
    oracle, d1, d2, c1 = _system(classes, s1, s2, share)
    got = oracle.measure(c1, 0.0).gamma1
    want = reference_mp.discrete_equilibrium_rate(classes, d1, d2, c1, 0.0)
    assert float(abs(got - want)) <= 4.0 * EPS * oracle.lam
