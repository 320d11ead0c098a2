"""The CLI's output, pinned byte for byte.

Every command that writes json or csv, all five sweep curves, and every
command's summary. The systems have uniform laws with linear or mm1
delays, where the arithmetic is IEEE basic operations and square roots,
so the expected text holds on any platform; estimate-exp and
estimate-param also pass through math.exp and math.log, and rely on the
platform rounding those as the common libms do.
"""

import pytest

from qpk import DelayModel, SystemConfig, Uniform
from qpk.cli import main
from qpk.models import config_to_json

CONFIGS = {
    "ex1": SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0), Uniform(2.0, 6.0)),
    "ex2": SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0), Uniform(2.0, 6.0)),
    "ex3": SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0), Uniform(2.0, 6.0)),
    "fast1": SystemConfig(3.0, DelayModel.linear(12.0), DelayModel.linear(3.0),
                          Uniform(0.0, 8.0)),
}

# (config, command line without --config, the exact stdout)
CASES = [
    ('ex1', 'equilibrium --c1 2 --c2 1 --format json',
     '{\n'
     '  "beta1": 4.7042836939703205,\n'
     '  "gamma1": 0.9717872295222598,\n'
     '  "gamma2": 2.02821277047774,\n'
     '  "r1": 1.9435744590445196,\n'
     '  "r2": 2.02821277047774,\n'
     '  "regime": "HIGH_BETA_TO_SERVER_1",\n'
     '  "rt": 3.97178722952226\n'
     '}\n'),
    ('ex1', 'equilibrium --c1 2 --c2 1 --format csv',
     'beta1,gamma1,gamma2,r1,r2,rt\n'
     '4.7042836939703205,0.9717872295222598,2.02821277047774,1.9435744590445196,2.02821277047774,3.97178722952226\n'),
    ('ex1', 'monopoly --c2 1 --format json',
     '{\n'
     '  "c1_star": 3.1086027751895946,\n'
     '  "gamma1_star": 0.6192864930261761,\n'
     '  "rt_star": 4.305829217832427\n'
     '}\n'),
    ('ex2', 'monopoly --c2 1 --format csv',
     'c1_star,gamma1_star,rt_star\n'
     '2.708591691456304,0.483478916267186,3.8260680593284118\n'),
    ('ex1', 'duopoly-best-response --server 2 --other-price 2 --format json',
     '{\n'
     '  "gamma_star": 1.1400814761964473,\n'
     '  "given_price": 2.0,\n'
     '  "price_star": 3.248058780895264,\n'
     '  "revenue_star": 3.7030516496959054,\n'
     '  "server": 2,\n'
     '  "stationary_points": [\n'
     '    1.1400814761964473\n'
     '  ]\n'
     '}\n'),
    ('ex3', 'duopoly-nash --max-iter 2 --format json',
     '{\n'
     '  "c1": 2.998902929906506,\n'
     '  "c2": 2.9999995992519315,\n'
     '  "converged": false,\n'
     '  "iterations": 2,\n'
     '  "residual": 0.5081909449066462,\n'
     '  "symmetric_alpha": 3.0\n'
     '}\n'),
    ('ex3', 'duopoly-symmetric --format json',
     '{\n'
     '  "alpha1": 3.0,\n'
     '  "alpha2": 3.0,\n'
     '  "verdict": "confirmed"\n'
     '}\n'),
    ('fast1', 'estimate-exp --c1 1.2 --c2 1 --delta 0.05 --format json',
     '{\n'
     '  "rate": 0.19237152251372808,\n'
     '  "tau": 5.198274603917207\n'
     '}\n'),
    ('ex1', 'estimate-param --family uniform --c2 1 --prices 2,2.4,2.8,3.2 --format json',
     '{\n'
     '  "converged": true,\n'
     '  "family": "uniform",\n'
     '  "params": {\n'
     '    "a": 2.0,\n'
     '    "b": 5.999999999999998\n'
     '  },\n'
     '  "residual_norm": 5.551115123125783e-16\n'
     '}\n'),
    ('ex2', 'estimate-density --c2 1 --c1-start 1.5 --delta 0.3 --steps 3 --format csv',
     'beta_lo,beta_hi,z\n'
     '4.784733419559164,4.950480436796965,0.24999999999999686\n'
     '4.950480436796965,5.0991006565941825,0.2500000000000017\n'
     '5.0991006565941825,5.232382032480059,0.24999999999999917\n'),
    ('ex2', 'estimate-density --c2 1 --c1-start 1.5 --delta 0.3 --steps 3 --format json',
     '{\n'
     '  "bins": [\n'
     '    {\n'
     '      "beta_hi": 4.950480436796965,\n'
     '      "beta_lo": 4.784733419559164,\n'
     '      "z": 0.24999999999999686\n'
     '    },\n'
     '    {\n'
     '      "beta_hi": 5.0991006565941825,\n'
     '      "beta_lo": 4.950480436796965,\n'
     '      "z": 0.2500000000000017\n'
     '    },\n'
     '    {\n'
     '      "beta_hi": 5.232382032480059,\n'
     '      "beta_lo": 5.0991006565941825,\n'
     '      "z": 0.24999999999999917\n'
     '    }\n'
     '  ],\n'
     '  "covered_mass": 0.11191215323022326,\n'
     '  "gaps": []\n'
     '}\n'),
    ('ex3', 'discover-classes --classes 2:0.1,3:0.7,4:0.3 --c1-init 2 --delta 0.01 --format json',
     '{\n'
     '  "classes": [\n'
     '    {\n'
     '      "beta": 4.0,\n'
     '      "rate": 0.3\n'
     '    },\n'
     '    {\n'
     '      "beta": 3.0,\n'
     '      "rate": 0.7999999999999998\n'
     '    }\n'
     '  ],\n'
     '  "complete": false,\n'
     '  "residual_rate": 0.7999999999999998\n'
     '}\n'),
    ('ex1', 'sweep --what beta1 --n 5',
     'gamma1,beta1\n'
     '0.0,6.0\n'
     '0.75,5.0\n'
     '1.5,4.0\n'
     '2.25,5.0\n'
     '3.0,6.0\n'),
    ('ex1', 'sweep --what g1 --n 5',
     'gamma1,g1\n'
     '0.0,4.5\n'
     '0.75,1.6761363636363635\n'
     '1.5,-0.31818181818181834\n'
     '2.25,-2.471590909090909\n'
     '3.0,-5.454545454545455\n'),
    ('ex2', 'sweep --what g2 --n 5',
     'gamma2,g2\n'
     '0.0,18.50000000000001\n'
     '0.75,3.2234432234432244\n'
     '1.5,0.6222222222222222\n'
     '2.25,-0.8963585434173665\n'
     '3.0,-4.181818181818182\n'),
    ('ex1', 'sweep --what revenue --n 5 --c2 1',
     'gamma1,revenue\n'
     '3e-12,3.0000000000135\n'
     '0.3390410958926609,4.058052050107317\n'
     '0.6780821917823219,4.295787202101199\n'
     '1.0171232876719827,3.885628753047856\n'
     '1.3561643835616437,3.0000000000000004\n'),
    ('ex2', 'sweep --what r1-and-c1 --n 5 --c2 1',
     'gamma1,r1,c1\n'
     '3e-12,1.554545454538722e-11,5.18181818179574\n'
     '0.41649603709046074,1.2309736193722576,2.955547015456708\n'
     '0.8329920741779215,1.4040240643061281,1.6855191157632048\n'
     '1.2494881112653824,1.051892224983613,0.8418585303051342\n'
     '1.665984148352843,6.91330209889698e-12,4.149680599141448e-12\n'),
    # summaries: the JSON document's leaves in key order, at 4 significant
    # digits (estimate-density and discover-classes render their own)
    ('ex1', 'equilibrium --c1 2 --c2 1 --format summary',
     'beta1 = 4.704\n'
     'gamma1 = 0.9718\n'
     'gamma2 = 2.028\n'
     'r1 = 1.944\n'
     'r2 = 2.028\n'
     'regime = HIGH_BETA_TO_SERVER_1\n'
     'rt = 3.972\n'),
    ('ex1', 'monopoly --c2 1 --format summary',
     'c1_star = 3.109\n'
     'gamma1_star = 0.6193\n'
     'rt_star = 4.306\n'),
    ('ex2', 'monopoly --c2 1 --format summary',
     'c1_star = 2.709\n'
     'gamma1_star = 0.4835\n'
     'rt_star = 3.826\n'),
    ('ex1', 'duopoly-best-response --server 2 --other-price 2 --format summary',
     'server = 2\n'
     'given_price = 2\n'
     'gamma_star = 1.14\n'
     'price_star = 3.248\n'
     'revenue_star = 3.703\n'
     'stationary_points = 1.14\n'),
    ('ex3', 'duopoly-nash --max-iter 2 --format summary',
     'c1 = 2.999\n'
     'c2 = 3\n'
     'converged = false\n'
     'iterations = 2\n'
     'residual = 0.5082\n'
     'symmetric_alpha = 3\n'),
    ('ex1', 'duopoly-nash --max-iter 2 --format summary',
     'c1 = 3.203\n'
     'c2 = 3.479\n'
     'converged = false\n'
     'iterations = 2\n'
     'residual = 0.6901\n'
     'symmetric_alpha = none\n'),
    ('ex3', 'duopoly-symmetric --format summary',
     'alpha1 = 3\n'
     'alpha2 = 3\n'
     'verdict = confirmed\n'),
    ('fast1', 'estimate-exp --c1 1.2 --c2 1 --delta 0.05 --format summary',
     'rate = 0.1924\n'
     'tau = 5.198\n'),
    ('ex1', 'estimate-param --family uniform --c2 1 --prices 2,2.4,2.8,3.2 --format summary',
     'family = uniform\n'
     'a = 2\n'
     'b = 6\n'
     'residual_norm = 5.551e-16\n'
     'converged = true\n'),
    ('ex2', 'estimate-density --c2 1 --c1-start 1.5 --delta 0.3 --steps 3 --format summary',
     'bins = 3\n'
     'covered_mass = 0.1119\n'
     'z_min = 0.25\n'
     'z_max = 0.25\n'),
    ('ex3', 'discover-classes --classes 2:0.1,3:0.7,4:0.3 --c1-init 2 --delta 0.01 '
            '--format summary',
     'class_1 = beta=4 rate=0.3\n'
     'class_2 = beta=3 rate=0.8\n'
     'complete = false\n'
     'residual_rate = 0.8\n'),
]


@pytest.mark.parametrize("name, command, expected", CASES,
                         ids=[f"{i:02d}-{c.split()[0]}" for i, (_, c, _) in enumerate(CASES)])
def test_machine_output_is_pinned(tmp_path, capsys, name, command, expected):
    path = tmp_path / f"{name}.json"
    path.write_text(config_to_json(CONFIGS[name]))
    argv = command.split()
    assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0
    out = capsys.readouterr()
    assert out.out == expected
    assert out.err == ""
