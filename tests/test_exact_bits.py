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
        '0x1.5b2d96cb65b2cp+0', '0x1.c552b0af80000p+0', '0x1.039c79df48000p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.0c46231188c46p+2', '0x1.4d85173600000p-1',
        '0x1.4869d17700000p+2', '0x1.f248388e60000p+0', '0x1.261812da20000p+2',
        '0x1.3d131f077772bp-1', '0x1.8de6b1ac9fc16p+1', '0x1.1392b4b630191p+2',
        '0x1.9a452280da5a2p-1', '0x1.41b2c22e0a6dep+1', '0x1.01c795c3de55cp+1',
        '0x1.9a452280da5a2p-1', '0x1.d621615580cb4p-1', '0x1.754d418109afbp+1',
        '0x1.56c64193a6d94p+1', '0x1.d621615580cb4p-1',
    ),
    'ex1_expo': (
        '0x1.5b2d96cb65b2cp+0', '0x1.d5987155ef43cp+0', '0x1.052c7856af67ep+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.9680dc5ba9befp+1', '0x1.717a0d2b836c8p-1',
        '0x1.6cc2e879ecf53p+2', '0x1.fba5de9adef02p+0', '0x1.14ede3876c14cp+2',
        '0x1.c2019449e52d4p-2', '0x1.394a64f4fadffp+2', '0x1.2d8d93c9ff6cap+2',
        '0x1.289eb5d5202e0p-1', '0x1.e9b8a37cae7ebp+1', '0x1.1bb68c6a283e3p+1',
        '0x1.289eb5d5202e0p-1', '0x1.49ad07fef9e7dp-1', '0x1.19d8d09098926p+2',
        '0x1.6af6245c6bc13p+1', '0x1.49ad07fef9e7dp-1',
    ),
    'ex1_gamma': (
        '0x1.5b2d96cb65b2cp+0', '0x1.cd72e22a5f55ap+0', '0x1.03fb5d97df6a8p+1',
        '0x1.5b2d96cb65b2cp+0', '0x1.d6272b680adb8p+1', '0x1.68fab905437f2p-1',
        '0x1.6376ca6ea6931p+2', '0x1.f66c51763efb8p+0', '0x1.1e3fd70ed7fd0p+2',
        '0x1.0290d884cc8d9p-1', '0x1.02232619c2dd7p+2', '0x1.220aa22ee122cp+2',
        '0x1.59a0f7ac62004p-1', '0x1.91789fd471719p+1', '0x1.0f03ff99754d7p+1',
        '0x1.59a0f7ac62004p-1', '0x1.878f9ca48a171p-1', '0x1.cbc7550c21d4ap+1',
        '0x1.5f9fb049827dbp+1', '0x1.878f9ca48a171p-1',
    ),
    'ex2_uniform': (
        '0x1.2666666666666p+0', '0x1.aa7defe900000p+0', '0x1.24ee1a68d8000p+1',
        '0x1.2666666666666p+0', '0x1.1dddddddddddep+2', '0x1.9ebfbed680000p-2',
        '0x1.5d70056e20000p+2', '0x1.d883eb72e0000p+0', '0x1.1d814e7ba0000p+2',
        '0x1.ef1518e236ac6p-2', '0x1.5ab321e96bf0ap+1', '0x1.e9bc99218af8cp+1',
        '0x1.736ba6247de5cp-1', '0x1.f646bb701c687p+0', '0x1.6c5ddb96a3c3dp+0',
        '0x1.736ba6247de5cp-1', '0x1.677d47d8ffe72p-1', '0x1.2120449f8796cp+2',
        '0x1.9601be22404ffp+1', '0x1.677d47d8ffe72p-1',
    ),
    'ex2_expo': (
        '0x1.2666666666666p+0', '0x1.c146a3e23f706p+0', '0x1.203560e40f2c8p+1',
        '0x1.2666666666666p+0', '0x1.eaee6ebe2c49bp+1', '0x1.11ccc258643eep-1',
        '0x1.b97b6d17c12c0p+2', '0x1.e789e0054f1c4p+0', '0x1.01e1ebe65d1ddp+2',
        '0x1.54f5c3ed47df6p-2', '0x1.2884b1e416372p+2', '0x1.0d6bdd4d711aep+2',
        '0x1.f005699ac769ep-2', '0x1.a95de1bcf8f4cp+1', '0x1.9c1771d61d39ap+0',
        '0x1.f005699ac769ep-2', '0x1.28e7da745bb1cp+0', '0x1.468217e0703f4p-2',
        '0x1.a1b2bfd7780e4p+3', '0x1.0a5ef203888b6p+2', '0x1.468217e0703f4p-2',
    ),
    'ex2_gamma': (
        '0x1.2666666666666p+0', '0x1.b647e7123f88ap+0', '0x1.215a378eef29ep+1',
        '0x1.2666666666666p+0', '0x1.0af4c51643c30p+2', '0x1.0043650f84656p-1',
        '0x1.9dee8345b7f1bp+2', '0x1.e00db71c9f2ccp+0', '0x1.0f249ccbc6a57p+2',
        '0x1.873bf94aa57f8p-2', '0x1.dd58f9ec13bebp+1', '0x1.02bc97ad52870p+2',
        '0x1.2ba2c1a7b67f8p-1', '0x1.4b6d16a3d1936p+1', '0x1.83eb1f3007f1ap+0',
        '0x1.2ba2c1a7b67f8p-1', '0x1.ac82f8cc64640p-2', '0x1.16d57e8e4a99ep+3',
        '0x1.d2bb96fd9b0e2p+1', '0x1.ac82f8cc64640p-2',
    ),
    'ex3': (
        '0x1.8000000000000p+0', '0x1.efbdeb14f0000p+0', '0x1.efbdeb14f0000p+0',
        '0x1.8000000000000p+0', '0x1.0000000000000p+2', '0x1.6adc51bac0000p-1',
        '0x1.4385f260e0000p+2', '0x1.0f876cce00000p+1', '0x1.3504f33400000p+2',
        '0x1.5ab00a84b0f7ep-1', '0x1.8c6ffc9b1222bp+1', '0x1.1ae1fcdbb1132p+2',
        '0x1.c3910cb3bdce4p-1', '0x1.3ecfa660511cbp+1', '0x1.192e3ac53f68cp+1',
        '0x1.c3910cb3bdce4p-1', '0x1.c3910cb3bdce4p-1', '0x1.3ecfa660511cbp+1',
        '0x1.192e3ac53f68cp+1', '0x1.c3910cb3bdce4p-1',
    ),
    'ex4': (
        '0x1.8000000000000p+0', '0x1.f7e84dd7def84p+0', '0x1.f7e84dd7def84p+0',
        '0x1.8000000000000p+0', '0x1.62e42fefa39efp+1', '0x1.88a4a9d9c3396p-1',
        '0x1.5d316f37717edp+2', '0x1.0eaaface9f530p+1', '0x1.3866e474bd143p+2',
        '0x1.e3658decfc7dbp-2', '0x1.3350bbda3e118p+2', '0x1.32dc760ae5853p+2',
        '0x1.437e973a6e054p-1', '0x1.da371d9e51420p+1', '0x1.2b9f04d1099a6p+1',
        '0x1.437e973a6e054p-1', '0x1.437e973a6e054p-1', '0x1.da371d9e51420p+1',
        '0x1.2b9f04d1099a6p+1', '0x1.437e973a6e054p-1',
    ),
    'sat_power': (
        '0x1.4000000000000p+1', '0x1.ac4193c70f120p+1', '0x1.ac4193c70f120p+1',
        '0x1.4000000000000p+1', '0x1.6a09e667f3bcdp+1', '0x1.322d2c7122de0p+0',
        '0x1.be960484132fap+1', '0x1.cdde1796dec80p+1', '0x1.b2f30961f83f9p+1',
        '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39', '0x1.2002e86e164abp+3',
        '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39', '0x1.0005d0dc2df53p+2',
        '0x1.5fd7fe1796495p-38', '0x1.5fd7fe1796495p-38', '0x1.748fe513998bap+39',
        '0x1.0005d0dc2df53p+2', '0x1.5fd7fe1796495p-38',
    ),
    'fig_threshold': (
        '0x1.5b2d96cb65b2cp+0', '0x1.7cf45a25f806cp+0', '0x1.bf52c7af7774ap+0',
        '0x1.5b2d96cb65b2cp+0', '0x1.fc211372942ebp+3', '0x1.2a3d5e5c70bcap+0',
        '0x1.2eaf7bdda559bp+4', '0x1.8b363aebafe76p+0', '0x1.ce942d569fc8cp+3',
        '0x1.c201939850da8p-2', '0x1.479cfead31402p+4', '0x1.71e1f178fe8fdp+3',
        '0x1.da69268222f6ap-2', '0x1.372abea5fa586p+4', '0x1.20527a2b050e2p+3',
        '0x1.da69268222f6ap-2', '0x1.0dbd03f608518p-1', '0x1.67da906ab9ef9p+4',
        '0x1.7b2a5bae2b957p+3', '0x1.0dbd03f608518p-1',
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
