"""Shared fixtures: the worked-example configs, a random-config factory and
malformed config documents."""

import json
import random

import pytest

from qpk import (DelayModel, Exponential, Gamma, Power, SystemConfig, Uniform)
from qpk.models import config_to_json


@pytest.fixture
def ex1_uniform():
    """Linear delays mu=(3.3, 4), lam=3, uniform sensitivity on [2, 6]."""
    return SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                        Uniform(2.0, 6.0))


@pytest.fixture
def ex1_expo():
    return SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                        Exponential(4.0))


@pytest.fixture
def ex1_gamma():
    return SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                        Gamma(2.0, 2.0))


@pytest.fixture
def ex2_uniform():
    """Same system with mm1 delays."""
    return SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0),
                        Uniform(2.0, 6.0))


@pytest.fixture
def ex2_expo():
    return SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0),
                        Exponential(4.0))


@pytest.fixture
def ex2_gamma():
    return SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0),
                        Gamma(2.0, 2.0))


@pytest.fixture
def ex3():
    """Identical linear servers, uniform sensitivity: symmetric Nash holds."""
    return SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0),
                        Uniform(2.0, 6.0))


@pytest.fixture
def ex4():
    """Identical linear servers, exponential sensitivity: candidate fails."""
    return SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0),
                        Exponential(4.0))


@pytest.fixture
def sat_power():
    """Saturated mm1 servers (mu = lam = 5) with F(x) = x^2 / 16 on [0, 4]."""
    return SystemConfig(5.0, DelayModel.mm1(5.0), DelayModel.mm1(5.0),
                        Power(2.0, 4.0), saturation_ok=True)


@pytest.fixture
def fig_threshold():
    """Non-identical linear servers with a heavy exponential tail; the
    threshold-vs-rate curve jumps at the balanced load here."""
    return SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                        Exponential(20.0))


#: Every worked-example fixture above, by name.
FIXTURES = ["ex1_uniform", "ex1_expo", "ex1_gamma", "ex2_uniform", "ex2_expo",
            "ex2_gamma", "ex3", "ex4", "sat_power", "fig_threshold"]


def random_config(rng: random.Random, families=("uniform", "expo", "power", "gamma")):
    """A validated random config; delay models keep the gap conditions."""
    lam = rng.uniform(1.0, 6.0)
    kind = rng.choice(("linear", "mm1"))
    if kind == "linear":
        d1 = DelayModel.linear(rng.uniform(0.5, 3.0) * lam)
        d2 = DelayModel.linear(rng.uniform(0.5, 3.0) * lam)
    else:
        # keep |mu1 - mu2| < lam so both delay-gap conditions hold
        r1 = rng.uniform(1.1, 3.0)
        r2 = rng.uniform(max(1.1, r1 - 0.9), min(3.0, r1 + 0.9))
        d1 = DelayModel.mm1(lam * r1)
        d2 = DelayModel.mm1(lam * r2)
    family = rng.choice(families)
    if family == "uniform":
        a = rng.uniform(0.0, 3.0)
        dist = Uniform(a, a + rng.uniform(0.5, 6.0))
    elif family == "expo":
        dist = Exponential(rng.uniform(0.5, 8.0))
    elif family == "power":
        dist = Power(rng.uniform(0.5, 3.0), rng.uniform(1.0, 8.0))
    else:
        dist = Gamma(rng.uniform(0.7, 4.0), rng.uniform(0.5, 3.0))
    return SystemConfig(lam, d1, d2, dist)


#: (path into the ex1 config document, a value of the wrong JSON type)
MALFORMED = [
    (("lambda",), "abc"),
    (("lambda",), True),
    (("lambda",), 10 ** 400),  # an integer past the double range
    (("server1",), [1]),
    (("server1", "delay"), "linear"),
    (("server1", "delay", "mu"), [3.3]),
    (("server2", "delay", "family"), ["mm1"]),
    (("beta",), 5),
    (("beta", "family"), ["uniform"]),
    (("beta", "a"), "2"),
    (("saturation_ok",), "false"),
]
MALFORMED_IDS = [f"{'.'.join(path)}={value!r:.12}" for path, value in MALFORMED]


def malformed_config(path, value) -> str:
    """The ex1 config's JSON text with the value at path replaced."""
    doc = json.loads(config_to_json(SystemConfig(3.0, DelayModel.linear(3.3),
                                                 DelayModel.linear(4.0), Uniform(2, 6))))
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return json.dumps(doc)
