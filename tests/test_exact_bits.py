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
from qpk.wardrop import PriceVector, balanced_load, rate_cap_1, rate_cap_2

PINNED = {
    'ex1_uniform': (
        '0x1.5b2d96cb65b2cp+0', '0x1.c552b0af82d2dp+0', '0x1.039c79df44068p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.0c46231188c46p+2', '0x1.4d851735e668dp-1',
        '0x1.4869d1770443ep+2', '0x1.f248388e5ea4ap+0', '0x1.261812da1f8c4p+2',
        '0x1.3d131e84cdcd8p-1', '0x1.8de6b21bd8d9fp+1', '0x1.1392b4b630192p+2',
        '0x1.9a45229f3e044p-1', '0x1.41b2c216364a2p+1', '0x1.01c795c3de55cp+1',
        '0x1.9a45229f3e044p-1', '0x1.d62160d1a2778p-1', '0x1.754d41e9bf1bep+1',
        '0x1.56c64193a6d93p+1', '0x1.d62160d1a2778p-1',
    ),
    'ex1_expo': (
        '0x1.5b2d96cb65b2cp+0', '0x1.d5987155ec506p+0', '0x1.052c7856a1c22p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.9680dc5ba9befp+1', '0x1.717a0d2b83145p-1',
        '0x1.6cc2e879ed326p+2', '0x1.fba5de9adde22p+0', '0x1.14ede3876b0b5p+2',
        '0x1.c201930f52fdbp-2', '0x1.394a65a33e4ebp+2', '0x1.2d8d93c9ff6ccp+2',
        '0x1.289eb61df672ep-1', '0x1.e9b8a3046d661p+1', '0x1.1bb68c6a283e3p+1',
        '0x1.289eb61df672ep-1', '0x1.49ad07cb854a8p-1', '0x1.19d8d0bc961eap+2',
        '0x1.6af6245c6bc12p+1', '0x1.49ad07cb854a8p-1',
    ),
    'ex1_gamma': (
        '0x1.5b2d96cb65b2cp+0', '0x1.cd72e22a44e19p+0', '0x1.03fb5d97da643p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.d6272b680adb8p+1', '0x1.68fab90534989p-1',
        '0x1.6376ca6eadc29p+2', '0x1.f66c5176614c0p+0', '0x1.1e3fd70eefe89p+2',
        '0x1.0290d8bba577dp-1', '0x1.022325f0949d8p+2', '0x1.220aa22ee122cp+2',
        '0x1.59a0f715af718p-1', '0x1.9178a0837d0c4p+1', '0x1.0f03ff99754d9p+1',
        '0x1.59a0f715af718p-1', '0x1.878f9c7927751p-1', '0x1.cbc7553f13753p+1',
        '0x1.5f9fb049827dap+1', '0x1.878f9c7927751p-1',
    ),
    'ex2_uniform': (
        '0x1.2666666666666p+0', '0x1.aa7defe8d6477p+0', '0x1.24ee1a68d61f9p+1',
        '0x1.2666666666666p+0', '0x1.1dddddddddddep+2', '0x1.9ebfbed65ba65p-2',
        '0x1.5d70056e23078p+2', '0x1.d883eb72b7b3ep+0', '0x1.1d814e7b92914p+2',
        '0x1.ef1518d6b13d7p-2', '0x1.5ab321ee82d5bp+1', '0x1.e9bc99218af8cp+1',
        '0x1.736ba6302e833p-1', '0x1.f646bb604d75ap+0', '0x1.6c5ddb96a3c3cp+0',
        '0x1.736ba6302e833p-1', '0x1.677d478244feep-1', '0x1.212044e548b10p+2',
        '0x1.9601be22404fbp+1', '0x1.677d478244feep-1',
    ),
    'ex2_expo': (
        '0x1.2666666666666p+0', '0x1.c146a3e22bb3cp+0', '0x1.203560e41243bp+1',
        '0x1.2666666666666p+0', '0x1.eaee6ebe2c49bp+1', '0x1.11ccc25876d2bp-1',
        '0x1.b97b6d17afcd7p+2', '0x1.e789e00552ca1p+0', '0x1.01e1ebe660798p+2',
        '0x1.54f5c3dc457a9p-2', '0x1.2884b1efafb3fp+2', '0x1.0d6bdd4d711afp+2',
        '0x1.f0056a1609f68p-2', '0x1.a95de153451c9p+1', '0x1.9c1771d61d39bp+0',
        '0x1.f0056a1609f68p-2', '0x1.28e7da4e3d9eep+0', '0x1.468217e232c0fp-2',
        '0x1.a1b2bfd537b9dp+3', '0x1.0a5ef203888b1p+2', '0x1.468217e232c0fp-2',
    ),
    'ex2_gamma': (
        '0x1.2666666666666p+0', '0x1.b647e71221319p+0', '0x1.215a378eed773p+1',
        '0x1.2666666666666p+0', '0x1.0af4c51643c2fp+2', '0x1.0043650f3b144p-1',
        '0x1.9dee8345e7e3cp+2', '0x1.e00db71c7d4f3p+0', '0x1.0f249ccbb07c3p+2',
        '0x1.873bf905454c1p-2', '0x1.dd58fa2a067c7p+1', '0x1.02bc97ad52870p+2',
        '0x1.2ba2c18018f13p-1', '0x1.4b6d16cfa31e0p+1', '0x1.83eb1f3007f1bp+0',
        '0x1.2ba2c18018f13p-1', '0x1.ac82f87c0f613p-2', '0x1.16d57ec290530p+3',
        '0x1.d2bb96fd9b0e5p+1', '0x1.ac82f87c0f613p-2',
    ),
    'ex3': (
        '0x1.8000000000000p+0', '0x1.efbdeb14f4edap+0', '0x1.efbdeb14f4edap+0',
        '0x1.8000000000000p+0', '0x1.0000000000000p+2', '0x1.6adc51bab85ecp-1',
        '0x1.4385f260e1458p+2', '0x1.0f876ccdf6cd9p+1', '0x1.3504f333f9de6p+2',
        '0x1.5ab00ac5a0e2dp-1', '0x1.8c6ffc68ca5f1p+1', '0x1.1ae1fcdbb1133p+2',
        '0x1.c3910c8d016afp-1', '0x1.3ecfa67baa31ap+1', '0x1.192e3ac53f68ap+1',
        '0x1.c3910c8d016afp-1', '0x1.c3910c8d016afp-1', '0x1.3ecfa67baa31ap+1',
        '0x1.192e3ac53f68ap+1', '0x1.c3910c8d016afp-1',
    ),
    'ex4': (
        '0x1.8000000000000p+0', '0x1.f7e84dd7ca370p+0', '0x1.f7e84dd7ca370p+0',
        '0x1.8000000000000p+0', '0x1.62e42fefa39efp+1', '0x1.88a4a9d98d965p-1',
        '0x1.5d316f3794778p+2', '0x1.0eaafaceac250p+1', '0x1.3866e474da09cp+2',
        '0x1.e3658de47ca6cp-2', '0x1.3350bbde85440p+2', '0x1.32dc760ae5852p+2',
        '0x1.437e96aa11686p-1', '0x1.da371e71f07f3p+1', '0x1.2b9f04d1099a7p+1',
        '0x1.437e96aa11686p-1', '0x1.437e96aa11686p-1', '0x1.da371e71f07f3p+1',
        '0x1.2b9f04d1099a7p+1', '0x1.437e96aa11686p-1',
    ),
    'sat_power': (
        '0x1.4000000000000p+1', '0x1.ac4193c713e78p+1', '0x1.ac4193c713e78p+1',
        '0x1.4000000000000p+1', '0x1.6a09e667f3bcdp+1', '0x1.322d2c70dda2cp+0',
        '0x1.be960484230f7p+1', '0x1.cdde1796d5b02p+1', '0x1.b2f30961f3f77p+1',
        '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39', '0x1.2002e86e164abp+3',
        '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39', '0x1.0005d0dc2df53p+2',
        '0x1.5fd7fe1796495p-38', '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39',
        '0x1.0005d0dc2df53p+2', '0x1.5fd7fe1796495p-38',
    ),
    'fig_threshold': (
        '0x1.5b2d96cb65b2cp+0', '0x1.7cf45a25fd9c0p+0', '0x1.bf52c7af7f1f8p+0',
        '0x1.5b2d96cb65b2cp+0', '0x1.fc211372942ebp+3', '0x1.2a3d5e5c7601fp+0',
        '0x1.2eaf7bdd9fb1ep+4', '0x1.8b363aeba6171p+0', '0x1.ce942d568eefap+3',
        '0x1.c201930f52fddp-2', '0x1.479cff0c0de20p+4', '0x1.71e1f178fe8fbp+3',
        '0x1.da69265813048p-2', '0x1.372abec1910ffp+4', '0x1.20527a2b050e0p+3',
        '0x1.da69265813048p-2', '0x1.0dbd04070d160p-1', '0x1.67da905405a3ap+4',
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
    """_outputs at 40 digits, from tests/reference_mp.py."""
    import reference_mp as ref
    s1, s2 = ref.System(cfg), ref.System(cfg, swap=True)
    vals = [s1.gp, s1.rate_cap(1.0), s2.rate_cap(1.0)]
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        g = s1.equilibrium_rate(c1, c2)
        vals += [g, ref.quantile(cfg.dist, s1._branch(g)[0])]
    g = s1.monopoly_argmax()
    vals += [g, 1 + s1.g1(g), 3 + s1.g1(g) * g]
    for s in (s1, s2):  # one stationary point each: the optimum
        g = s.best_response_argmax(1.0)
        vals += [g, s.g1(g) + 1, (s.g1(g) + 1) * g, g]
    return vals


@pytest.mark.parametrize("name", ["ex1_gamma", "ex2_gamma"])
def test_gamma_rows_are_within_4e_16_of_the_reference(name, request):
    # the gamma rows step in the threshold and read each rate off it; every
    # pinned value is within 4e-16 relative of mpmath, where the rows of
    # the rate-space solves before them were up to 8.1e-15 off (ex1_gamma's
    # equilibrium rate at prices (0.5, 2))
    pytest.importorskip("mpmath")
    from reference_mp import mp
    cfg = request.getfixturevalue(name)
    for i, (got, want) in enumerate(zip(PINNED[name], _reference_row(cfg))):
        assert abs(mp.mpf(float.fromhex(got)) - want) <= 4e-16 * abs(want), i
