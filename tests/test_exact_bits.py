"""Exact output bits of the point solvers on every worked example.

Each fixture's row is the float.hex of, in order: balanced_load;
rate_cap_1 and rate_cap_2 at a rival price of 1; (gamma1, beta1) of
solve_equilibrium at prices (1, 1), (3, 1) and (0.5, 2); gamma1*, c1* and
RT* of optimize_monopoly at c2 = 1; then, for server 1 and server 2,
gamma*, price*, revenue* and the stationary points of best_response
against a rival price of 1. A change meant to leave the arithmetic alone
must leave every bit here alone; the CLI output tests pin the same
property for the uniform laws only.
"""

import pytest

from conftest import FIXTURES
from qpk import best_response, optimize_monopoly, solve_equilibrium
from qpk.models import P_MIN
from qpk.wardrop import PriceVector, balanced_load, rate_cap_1, rate_cap_2

PINNED = {
    'ex1_uniform': (
        '0x1.5b2d96cb65b2cp+0', '0x1.c552b0af82d2ep+0', '0x1.039c79df44068p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.0c46231188c46p+2', '0x1.4d851735e668cp-1',
        '0x1.4869d1770443ep+2', '0x1.f248388e5ea4ap+0', '0x1.261812da1f8c3p+2',
        '0x1.3d131e84cdcd8p-1', '0x1.8de6b21bd8d9ep+1', '0x1.1392b4b630192p+2',
        '0x1.9a45229f3e044p-1', '0x1.41b2c216364a1p+1', '0x1.01c795c3de55bp+1',
        '0x1.9a45229f3e044p-1', '0x1.d62160d1a2778p-1', '0x1.754d41e9bf1bfp+1',
        '0x1.56c64193a6d94p+1', '0x1.d62160d1a2778p-1',
    ),
    'ex1_expo': (
        '0x1.5b2d96cb65b2cp+0', '0x1.d5987155ec506p+0', '0x1.052c7856a1c22p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.9680dc5ba9befp+1', '0x1.717a0d2b83145p-1',
        '0x1.6cc2e879ed326p+2', '0x1.fba5de9adde22p+0', '0x1.14ede3876b0b4p+2',
        '0x1.c201930f52fdcp-2', '0x1.394a65a33e4eap+2', '0x1.2d8d93c9ff6ccp+2',
        '0x1.289eb61df672ep-1', '0x1.e9b8a3046d663p+1', '0x1.1bb68c6a283e4p+1',
        '0x1.289eb61df672ep-1', '0x1.49ad07cb854a8p-1', '0x1.19d8d0bc961eap+2',
        '0x1.6af6245c6bc12p+1', '0x1.49ad07cb854a8p-1',
    ),
    'ex1_gamma': (
        '0x1.5b2d96cb65b2cp+0', '0x1.cd72e22a44e19p+0', '0x1.03fb5d97da643p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.d6272b680adb8p+1', '0x1.68fab90534989p-1',
        '0x1.6376ca6eadc29p+2', '0x1.f66c5176614c0p+0', '0x1.1e3fd70eefe89p+2',
        '0x1.0290d8bba577dp-1', '0x1.022325f0949d7p+2', '0x1.220aa22ee122cp+2',
        '0x1.59a0f715af718p-1', '0x1.9178a0837d0c4p+1', '0x1.0f03ff99754d9p+1',
        '0x1.59a0f715af718p-1', '0x1.878f9c7927751p-1', '0x1.cbc7553f13753p+1',
        '0x1.5f9fb049827dap+1', '0x1.878f9c7927751p-1',
    ),
    'ex2_uniform': (
        '0x1.2666666666666p+0', '0x1.aa7defe8d6478p+0', '0x1.24ee1a68d61f9p+1',
        '0x1.2666666666666p+0', '0x1.1dddddddddddep+2', '0x1.9ebfbed65ba64p-2',
        '0x1.5d70056e23078p+2', '0x1.d883eb72b7b3ep+0', '0x1.1d814e7b92915p+2',
        '0x1.ef1518d6b13d8p-2', '0x1.5ab321ee82d5cp+1', '0x1.e9bc99218af8cp+1',
        '0x1.736ba6302e832p-1', '0x1.f646bb604d75cp+0', '0x1.6c5ddb96a3c3dp+0',
        '0x1.736ba6302e832p-1', '0x1.677d478244fefp-1', '0x1.212044e548b10p+2',
        '0x1.9601be22404fdp+1', '0x1.677d478244fefp-1',
    ),
    'ex2_expo': (
        '0x1.2666666666666p+0', '0x1.c146a3e22bb3cp+0', '0x1.203560e41243bp+1',
        '0x1.2666666666666p+0', '0x1.eaee6ebe2c49bp+1', '0x1.11ccc25876d2bp-1',
        '0x1.b97b6d17afcd7p+2', '0x1.e789e00552ca1p+0', '0x1.01e1ebe660797p+2',
        '0x1.54f5c3dc457abp-2', '0x1.2884b1efafb3cp+2', '0x1.0d6bdd4d711aep+2',
        '0x1.f0056a1609f6bp-2', '0x1.a95de153451c7p+1', '0x1.9c1771d61d39cp+0',
        '0x1.f0056a1609f6bp-2', '0x1.28e7da4e3d9eep+0', '0x1.468217e232c12p-2',
        '0x1.a1b2bfd537b9ap+3', '0x1.0a5ef203888b2p+2', '0x1.468217e232c12p-2',
    ),
    'ex2_gamma': (
        '0x1.2666666666666p+0', '0x1.b647e71221319p+0', '0x1.215a378eed773p+1',
        '0x1.2666666666666p+0', '0x1.0af4c51643c2fp+2', '0x1.0043650f3b144p-1',
        '0x1.9dee8345e7e3cp+2', '0x1.e00db71c7d4f3p+0', '0x1.0f249ccbb07c3p+2',
        '0x1.873bf905454c0p-2', '0x1.dd58fa2a067c8p+1', '0x1.02bc97ad52870p+2',
        '0x1.2ba2c18018f13p-1', '0x1.4b6d16cfa31dep+1', '0x1.83eb1f3007f19p+0',
        '0x1.2ba2c18018f13p-1', '0x1.ac82f87c0f611p-2', '0x1.16d57ec290530p+3',
        '0x1.d2bb96fd9b0e3p+1', '0x1.ac82f87c0f611p-2',
    ),
    'ex3': (
        '0x1.8000000000000p+0', '0x1.efbdeb14f4edap+0', '0x1.efbdeb14f4edap+0',
        '0x1.8000000000000p+0', '0x1.0000000000000p+2', '0x1.6adc51bab85ecp-1',
        '0x1.4385f260e1459p+2', '0x1.0f876ccdf6cd9p+1', '0x1.3504f333f9de6p+2',
        '0x1.5ab00ac5a0e2cp-1', '0x1.8c6ffc68ca5f2p+1', '0x1.1ae1fcdbb1133p+2',
        '0x1.c3910c8d016b0p-1', '0x1.3ecfa67baa31bp+1', '0x1.192e3ac53f68cp+1',
        '0x1.c3910c8d016b0p-1', '0x1.c3910c8d016b0p-1', '0x1.3ecfa67baa31bp+1',
        '0x1.192e3ac53f68cp+1', '0x1.c3910c8d016b0p-1',
    ),
    'ex4': (
        '0x1.8000000000000p+0', '0x1.f7e84dd7ca370p+0', '0x1.f7e84dd7ca370p+0',
        '0x1.8000000000000p+0', '0x1.62e42fefa39efp+1', '0x1.88a4a9d98d965p-1',
        '0x1.5d316f3794777p+2', '0x1.0eaafaceac250p+1', '0x1.3866e474da09cp+2',
        '0x1.e3658de47ca6ap-2', '0x1.3350bbde85442p+2', '0x1.32dc760ae5852p+2',
        '0x1.437e96aa11687p-1', '0x1.da371e71f07f2p+1', '0x1.2b9f04d1099a7p+1',
        '0x1.437e96aa11687p-1', '0x1.437e96aa11687p-1', '0x1.da371e71f07f2p+1',
        '0x1.2b9f04d1099a7p+1', '0x1.437e96aa11687p-1',
    ),
    'sat_power': (
        '0x1.4000000000000p+1', '0x1.ac4193c713e79p+1', '0x1.ac4193c713e79p+1',
        '0x1.4000000000000p+1', '0x1.6a09e667f3bcdp+1', '0x1.322d2c70dda2cp+0',
        '0x1.be960484230f8p+1', '0x1.cdde1796d5b02p+1', '0x1.b2f30961f3f77p+1',
        '0x1.5fd7fe1796495p-38', '0x1.74876e7fff99ap+39', '0x1.1fffffffff2cep+3',
        '0x1.5fd7fe1796495p-38', '0x1.74876e7fff99ap+39', '0x1.ffffffffff734p+1',
        '0x1.5fd7fe1796495p-38', '0x1.5fd7fe1796495p-38', '0x1.74876e7fff99ap+39',
        '0x1.ffffffffff734p+1', '0x1.5fd7fe1796495p-38',
    ),
    'fig_threshold': (
        '0x1.5b2d96cb65b2cp+0', '0x1.7cf45a25fd9c0p+0', '0x1.bf52c7af7f1f9p+0',
        '0x1.5b2d96cb65b2cp+0', '0x1.fc211372942ebp+3', '0x1.2a3d5e5c7601fp+0',
        '0x1.2eaf7bdd9fb20p+4', '0x1.8b363aeba6171p+0', '0x1.ce942d568eefcp+3',
        '0x1.c201930f52fdcp-2', '0x1.479cff0c0de24p+4', '0x1.71e1f178fe8fep+3',
        '0x1.da69265813043p-2', '0x1.372abec191104p+4', '0x1.20527a2b050e1p+3',
        '0x1.da69265813043p-2', '0x1.0dbd04070d160p-1', '0x1.67da905405a3ap+4',
        '0x1.7b2a5bae2b956p+3', '0x1.0dbd04070d160p-1',
    ),
}


def _outputs(cfg) -> list:
    vals = [balanced_load(cfg), rate_cap_1(cfg, 1.0), rate_cap_2(cfg, 1.0)]
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        split = solve_equilibrium(cfg, PriceVector(c1, c2))
        vals += [split.gamma1, split.beta1]
    res = optimize_monopoly(cfg, 1.0)
    vals += [res.gamma1_star, res.c1_star, res.rt_star]
    for server in (1, 2):
        br = best_response(cfg, server, 1.0)
        vals += [br.gamma_star, br.price_star, br.revenue_star, *br.stationary_points]
    return [float(v).hex() for v in vals]


@pytest.mark.parametrize("name", FIXTURES)
def test_point_solves_keep_their_bits(name, request):
    balanced_load.cache_clear()
    assert _outputs(request.getfixturevalue(name)) == list(PINNED[name])


def _reference_row(cfg) -> list:
    """_outputs at 40 digits, from tests/reference_mp.py; None for a
    stationary point that is not its best response's optimum."""
    import reference_mp as ref
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    vals = [s1.gp, s1.rate_cap(1.0), s2.rate_cap(1.0)]
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        g = s1.equilibrium_rate(c1, c2)
        vals += [g, ref.quantile(cfg.dist, s1._branch(g)[0])]
    g = s1.monopoly_argmax()
    vals += [g, 1 + s1.g1(g), 3 + s1.g1(g) * g]
    for server, s in ((1, s1), (2, s2)):
        g = s.best_response_argmax(1.0)
        br = best_response(cfg, server, 1.0)
        vals += [g, s.g1(g) + 1, (s.g1(g) + 1) * g]
        vals += [g if x == br.gamma_star else None for x in br.stationary_points]
    return vals


@pytest.mark.parametrize("name", [name for name in FIXTURES if name != "sat_power"])
def test_rows_are_within_4e_16_of_the_reference(name, request):
    # every row steps in the threshold and reads each rate off it; every
    # pinned value is within 4e-16 relative of mpmath (each best response
    # at its optimum), where rate-space solves were up to 4.5e-16 off on
    # ex2_expo, 7.3e-16 on fig_threshold and 8.1e-15 on ex1_gamma.
    # sat_power's optimum is a supremum at the grid floor, not a root the
    # reference finds.
    pytest.importorskip("mpmath")
    from reference_mp import mp
    cfg = request.getfixturevalue(name)
    want = _reference_row(cfg)
    assert len(want) == len(PINNED[name])
    for i, (got, w) in enumerate(zip(PINNED[name], want)):
        if w is not None:
            assert abs(mp.mpf(float.fromhex(got)) - w) <= 4e-16 * abs(w), i


def test_sat_power_reports_no_revenue_above_its_supremum(sat_power):
    # revenue rises toward gamma -> 0, where RT tends to c2 * lam + b = 9
    # and a best response's revenue to b = 4: the optimum stays at the grid
    # floor lam * P_MIN, and server 2's delay is read off its slack, so
    # the revenue there stays below the supremum (5 - (5 - gamma) made it
    # 9.000355 and 4.000355)
    floor = sat_power.lam * P_MIN
    res = optimize_monopoly(sat_power, 1.0)
    assert res.gamma1_star == floor and res.rt_star <= 9.0
    for server in (1, 2):
        br = best_response(sat_power, server, 1.0)
        assert br.gamma_star == floor and br.revenue_star <= 4.0
