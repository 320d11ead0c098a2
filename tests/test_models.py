"""Delay-model and sensitivity-distribution checks.

Derived expectations are frozen from independent arithmetic (direct
formula evaluation, central finite differences, quadrature inversion)
rather than from the code paths under test.
"""

import math

import numpy as np
import pytest

from conftest import MALFORMED, MALFORMED_IDS, malformed_config
from qpk import (DelayModel, DomainError, Exponential, Gamma, Power,
                 SystemConfig, Uniform, ValidationError, cdf, delay_deriv,
                 delay_eval, density, quantile, validate_config)
from qpk.models import config_from_json, config_to_json

ALL_DISTS = [
    Uniform(2.0, 6.0),
    Exponential(4.0),
    Gamma(2.0, 2.0),
    Gamma(0.9, 1.3),
    Power(2.0, 4.0),
    Power(0.7, 3.0),
]


# --- delay models ------------------------------------------------------------


def test_delay_eval_examples():
    assert delay_eval(DelayModel.linear(4.0), 2.0) == 0.5
    assert delay_eval(DelayModel.mm1(4.0), 0.0) == 0.25
    assert delay_eval(DelayModel.mm1(5.0), 3.31) == pytest.approx(1.0 / 1.69, rel=1e-12)


def test_delay_deriv_examples():
    assert delay_deriv(DelayModel.linear(4.0), 0.0) == 0.25
    assert delay_deriv(DelayModel.linear(4.0), 3.9) == 0.25
    assert delay_deriv(DelayModel.mm1(4.0), 2.0) == pytest.approx(0.25, rel=1e-12)
    assert delay_deriv(DelayModel.mm1(3.3), 0.48) == pytest.approx(
        1.0 / 2.82 ** 2, rel=1e-12)


@pytest.mark.parametrize("model", [DelayModel.linear(3.3), DelayModel.mm1(4.0)])
def test_delay_deriv_matches_finite_difference(model):
    h = 1e-6
    for g in (0.1, 0.7, 1.9, 2.9):
        fd = (delay_eval(model, g + h) - delay_eval(model, g - h)) / (2 * h)
        assert delay_deriv(model, g) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("model", [DelayModel.linear(2.0), DelayModel.mm1(4.0)])
def test_delay_strictly_increasing(model):
    grid = np.linspace(0.0, 3.9, 200)
    vals = [delay_eval(model, float(g)) for g in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(delay_deriv(model, float(g)) > 0.0 for g in grid)


def test_delay_domain_errors():
    with pytest.raises(DomainError):
        delay_eval(DelayModel.linear(4.0), -0.1)
    with pytest.raises(DomainError):
        delay_eval(DelayModel.mm1(4.0), 4.0)
    with pytest.raises(DomainError):
        delay_eval(DelayModel.mm1(4.0), 4.5, saturation=True)
    assert delay_eval(DelayModel.mm1(4.0), 4.0, saturation=True) == math.inf
    assert delay_deriv(DelayModel.mm1(4.0), 4.0, saturation=True) == math.inf
    with pytest.raises(DomainError):
        DelayModel.mm1(0.0)


def test_delay_models_take_their_family_by_name():
    # a family given as a string used to evaluate as mm1 (a linear D(1)
    # read 0.25), skip every mm1 rate and stability check, accept any name
    # and break config_to_json
    assert DelayModel("linear", 5.0) == DelayModel.linear(5.0)
    assert delay_eval(DelayModel("linear", 5.0), 1.0) == 0.2
    with pytest.raises(DomainError):
        delay_eval(DelayModel("mm1", 5.0), 7.0)
    with pytest.raises(ValidationError, match="mm1 needs mu > lam"):
        SystemConfig(6.0, DelayModel("mm1", 5.0), DelayModel.mm1(8.0), Uniform(2, 6))
    for family in ("foo", "LINEAR", None):
        with pytest.raises(DomainError, match="linear or mm1"):
            DelayModel(family, 5.0)
    cfg = SystemConfig(2.0, DelayModel("linear", 3.0), DelayModel("mm1", 4.0), Uniform(2, 6))
    assert config_from_json(config_to_json(cfg)) == cfg


# --- sensitivity distributions ------------------------------------------------


def test_quantile_examples():
    assert quantile(Uniform(2.0, 6.0), 0.5) == 4.0
    # the balanced-load threshold of the saturated estimation example
    assert quantile(Power(2.0, 4.0), 0.5) == pytest.approx(4.0 / math.sqrt(2.0),
                                                           rel=1e-12)
    # cross-checked below by brute-force inversion of the cdf
    assert quantile(Exponential(4.0), 0.85333) == pytest.approx(
        -4.0 * math.log1p(-0.85333), rel=1e-12)
    assert quantile(Exponential(4.0), 0.85333) == pytest.approx(7.678, abs=5e-4)


def test_exponential_quantile_against_bisection():
    dist = Exponential(4.0)
    p = 0.85333
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-mid / 4.0) < p:
            lo = mid
        else:
            hi = mid
    assert quantile(dist, p) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_quantile_cdf_round_trip(dist):
    for p in np.concatenate([[1e-6], np.linspace(0.01, 0.99, 21), [1.0 - 1e-6]]):
        p = float(p)
        assert cdf(dist, quantile(dist, p)) == pytest.approx(p, abs=1e-8)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_cdf_strictly_increasing_on_support(dist):
    lo = quantile(dist, 1e-4)
    hi = quantile(dist, 1.0 - 1e-4)
    xs = np.linspace(lo, hi, 101)
    vals = [cdf(dist, float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_density_matches_cdf_finite_difference(dist):
    h = 1e-6
    for p in (0.05, 0.3, 0.5, 0.8, 0.97):
        x = quantile(dist, p)
        fd = (cdf(dist, x + h) - cdf(dist, x - h)) / (2 * h)
        assert density(dist, x) == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=str)
def test_density_nonnegative_and_integrates_to_one(dist):
    # substitute x = lo + t^2 so shape-below-one families (integrable
    # singularity at the lower endpoint) quadrate cleanly
    lo = dist.support[0]
    hi = dist.support[1] if dist.bounded else quantile(dist, 1.0 - 1e-11)
    ts = np.linspace(1e-9, math.sqrt(hi - lo), 200_001)
    pdf = np.array([density(dist, float(lo + t * t)) for t in ts])
    assert np.all(pdf >= 0.0)
    mass = float(np.trapezoid(pdf * 2.0 * ts, ts))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_gamma_quantile_against_quadrature_inversion():
    # independent oracle: integrate the density numerically, then invert
    # the interpolated CDF by bisection
    dist = Gamma(2.0, 2.0)
    xs = np.linspace(1e-9, 80.0, 400_001)
    pdf = np.array([density(dist, float(x)) for x in xs])
    cdf_grid = np.concatenate([[0.0],
                               np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))])
    for p in (0.05, 0.3, 0.5, 0.83, 0.99):
        lo, hi = 0.0, 80.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(np.interp(mid, xs, cdf_grid)) < p:
                lo = mid
            else:
                hi = mid
        assert quantile(dist, p) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_quantile_clamps_unbounded_families():
    for dist in (Exponential(4.0), Gamma(2.0, 2.0)):
        assert math.isfinite(quantile(dist, 1.0))
        assert quantile(dist, 0.0) >= 0.0
    # bounded families hit their endpoints exactly
    assert quantile(Uniform(2.0, 6.0), 1.0) == 6.0
    assert quantile(Uniform(2.0, 6.0), 0.0) == 2.0
    assert quantile(Power(2.0, 4.0), 1.0) == 4.0


def test_distribution_domain_errors():
    with pytest.raises(DomainError):
        quantile(Uniform(2.0, 6.0), 1.5)
    with pytest.raises(DomainError):
        quantile(Exponential(4.0), -0.2)
    with pytest.raises(DomainError):
        cdf(Uniform(2.0, 6.0), 1.0)
    with pytest.raises(DomainError):
        density(Power(2.0, 4.0), -0.5)
    with pytest.raises(DomainError):
        Uniform(-1.0, 2.0)
    with pytest.raises(DomainError):
        Uniform(3.0, 3.0)
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Gamma(2.0, -1.0)
    with pytest.raises(DomainError):
        Power(0.0, 4.0)


# --- system configuration -----------------------------------------------------


def test_validate_example1_config(ex1_uniform):
    assert validate_config(ex1_uniform) is ex1_uniform


def test_validate_rejects_unstable_mm1():
    with pytest.raises(ValidationError) as err:
        SystemConfig(3.0, DelayModel.mm1(2.0), DelayModel.mm1(4.0), Uniform(2, 6))
    assert any("server 1" in f for f in err.value.failures)


def test_validate_saturation_mode(sat_power):
    assert validate_config(sat_power) is sat_power
    # same system without the flag is rejected
    with pytest.raises(ValidationError):
        SystemConfig(5.0, DelayModel.mm1(5.0), DelayModel.mm1(5.0), Power(2.0, 4.0))


def test_validate_collects_all_failures():
    with pytest.raises(ValidationError) as err:
        SystemConfig(-1.0, DelayModel.mm1(0.5), DelayModel.mm1(0.5), Uniform(2, 6))
    assert len(err.value.failures) >= 1
    with pytest.raises(ValidationError) as err2:
        SystemConfig(3.0, DelayModel.mm1(2.0), DelayModel.mm1(2.5), Uniform(2, 6))
    assert len(err2.value.failures) == 2


def test_gap_conditions_reject_disjoint_linear_servers():
    # D1(0)=0 < D2(lam) always holds for linear, but a huge mu2 makes
    # D2(0)=0 vs D1(lam): both zero at 0 -- construct an actual violation
    # with mm1: D2(0) = 1/mu2 >= D1(lam) = 1/(mu1-lam)
    with pytest.raises(ValidationError) as err:
        SystemConfig(1.0, DelayModel.mm1(100.0), DelayModel.mm1(1.01), Uniform(2, 6))
    assert any("gap condition" in f for f in err.value.failures)


# --- JSON interchange ----------------------------------------------------------


def test_config_json_round_trip(ex1_uniform, sat_power):
    for cfg in (ex1_uniform, sat_power):
        doc = config_to_json(cfg)
        assert config_from_json(doc) == cfg


@pytest.mark.parametrize("dist", ALL_DISTS[:3] + [Power(2.0, 4.0)], ids=str)
def test_config_json_round_trip_families(dist):
    cfg = SystemConfig(2.0, DelayModel.linear(3.0), DelayModel.mm1(4.0), dist)
    assert config_from_json(config_to_json(cfg)) == cfg


_CONFIG_TEXT = """{
  "beta": {
%s
  },
  "lambda": 2.0,
  "saturation_ok": false,
  "schema": "qpk/1",
  "server1": {
    "delay": {
      "family": "linear",
      "mu": 3.0
    }
  },
  "server2": {
    "delay": {
      "family": "mm1",
      "mu": 4.0
    }
  }
}"""


@pytest.mark.parametrize("dist, beta", [
    (Uniform(2.0, 6.0), '"a": 2.0,\n"b": 6.0,\n"family": "uniform"'),
    (Exponential(4.0), '"family": "exponential",\n"tau": 4.0'),
    (Gamma(2.0, 0.5), '"family": "gamma",\n"k": 2.0,\n"theta": 0.5'),
    (Power(2.0, 4.0), '"b": 4.0,\n"family": "power",\n"n": 2.0'),
], ids=str)
def test_config_json_text_is_pinned(dist, beta):
    # a round trip alone would pass with a key renamed on both sides
    cfg = SystemConfig(2.0, DelayModel.linear(3.0), DelayModel.mm1(4.0), dist)
    want = _CONFIG_TEXT % "\n".join("    " + line for line in beta.split("\n"))
    assert config_to_json(cfg) == want


def test_config_json_rejects_unknown_keys():
    doc = config_to_json(SystemConfig(3.0, DelayModel.linear(3.3),
                                      DelayModel.linear(4.0), Uniform(2, 6)))
    import json
    obj = json.loads(doc)
    obj["typo"] = 1
    with pytest.raises(ValidationError) as err:
        config_from_json(json.dumps(obj))
    assert any("unknown config keys" in f for f in err.value.failures)
    obj = json.loads(doc)
    obj["beta"]["extra"] = 1
    with pytest.raises(ValidationError):
        config_from_json(json.dumps(obj))


def test_config_json_rejects_bad_schema_and_bad_json():
    with pytest.raises(ValidationError):
        config_from_json('{"schema": "qpk/999", "lambda": 1}')
    with pytest.raises(ValidationError):
        config_from_json("not json at all")
    with pytest.raises(ValidationError) as err:
        config_from_json('{"schema": "qpk/1"}')
    assert len(err.value.failures) == 4  # lambda, server1, server2, beta
    # an integer literal past the parser's digit limit raises ValueError in
    # json.loads where the limit is in force, ValidationError everywhere
    with pytest.raises(ValidationError):
        config_from_json('{"lambda": ' + "1" * 5000 + "}")


@pytest.mark.parametrize("path, value", MALFORMED, ids=MALFORMED_IDS)
def test_config_json_rejects_values_of_the_wrong_type(path, value):
    # unchecked, "abc" and [3.3] raised ValueError and TypeError, [1] and 5
    # AttributeError; true read as lambda = 1, "false" as saturation mode
    # and "2" as a = 2.0
    with pytest.raises(ValidationError) as err:
        config_from_json(malformed_config(path, value))
    (failure,) = err.value.failures
    assert path[-1] in failure


def test_config_json_lists_unknown_and_missing_keys_together():
    text = malformed_config(("server2", "delay"), {"familly": "linear", "mu": 4.0})
    with pytest.raises(ValidationError) as err:
        config_from_json(text)
    assert err.value.failures == ["unknown server2.delay keys: ['familly']",
                                  "server2.delay key 'family' is required"]


def test_config_json_validates_model():
    import json
    doc = json.loads(config_to_json(SystemConfig(
        3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0), Uniform(2, 6))))
    doc["lambda"] = 3.5  # mu1 = 3.3 <= lam now
    with pytest.raises(ValidationError):
        config_from_json(json.dumps(doc))


def test_swapped_exchanges_the_servers(ex1_uniform, ex3, sat_power):
    sw = ex1_uniform.swapped()
    assert (sw.d1, sw.d2) == (ex1_uniform.d2, ex1_uniform.d1)
    assert (sw.lam, sw.dist, sw.saturation_ok) == (3.0, ex1_uniform.dist, False)
    assert sw.swapped() == ex1_uniform
    # identical servers: the config itself, so cached lookups hit by identity
    assert ex3.swapped() is ex3
    assert sat_power.swapped() is sat_power


def test_immutability():
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                       Uniform(2, 6))
    with pytest.raises(AttributeError):
        cfg.lam = 5.0
    with pytest.raises(AttributeError):
        cfg.dist.a = 0.0
