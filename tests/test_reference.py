"""The point solves against an independent mpmath reference (tests/reference_mp.py).

Every equilibrium rate and rate cap of test_exact_bits.py's rows, and
every interior optimum of the worked examples (the monopoly at c2 = 1 and
both best responses at a rival price of 1), lies within 1e-13 relative of
the reference's 40-digit value. sat_power's optima sit at the grid floor,
a boundary, and have no interior reference.
"""

import pytest

pytest.importorskip("mpmath")

import reference_mp as ref  # noqa: E402
from conftest import FIXTURES  # noqa: E402
from qpk import PriceVector, best_response, optimize_monopoly, solve_equilibrium  # noqa: E402
from qpk.wardrop import rate_cap_1, rate_cap_2  # noqa: E402

REL = 1e-13


def _close(got, want):
    return abs(ref.mp.mpf(got) - want) <= REL * abs(want)


@pytest.mark.parametrize("name", FIXTURES)
def test_rates_and_caps_match_the_reference(name, request):
    cfg = request.getfixturevalue(name)
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    assert _close(rate_cap_1(cfg, 1.0), s1.rate_cap(1.0))
    assert _close(rate_cap_2(cfg, 1.0), s2.rate_cap(1.0))
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        got = solve_equilibrium(cfg, PriceVector(c1, c2)).gamma1
        assert _close(got, s1.equilibrium_rate(c1, c2)), (c1, c2)


@pytest.mark.parametrize("name", FIXTURES)
def test_interior_optima_match_the_reference(name, request):
    cfg = request.getfixturevalue(name)
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    want = [s1.monopoly_argmax(), s1.best_response_argmax(1.0), s2.best_response_argmax(1.0)]
    got = [optimize_monopoly(cfg, 1.0).gamma1_star,
           best_response(cfg, 1, 1.0).gamma_star, best_response(cfg, 2, 1.0).gamma_star]
    if name == "sat_power":
        assert want == [None] * 3
        return
    for g, w in zip(got, want):
        assert _close(g, w)
