"""Records are immutable tuples that print, compare and copy as values of
their own type, and the package resolves its public names on first use."""

import copy
import pickle

import pytest

import qpk
from qpk import (BestResponse, DelayFamily, DelayModel, DensityEstimate, DomainError,
                 Measurement, NashOutcome, Power, PriceVector, SystemConfig, Uniform,
                 ValidationError, config_from_json, config_to_json)


@pytest.fixture
def cfg():
    return SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.mm1(4.0), Uniform(2.0, 6.0))


def test_reprs_name_every_field(cfg):
    assert repr(cfg) == (
        "SystemConfig(lam=3.0, d1=DelayModel(family=<DelayFamily.LINEAR: 'linear'>, mu=3.3), "
        "d2=DelayModel(family=<DelayFamily.MM1: 'mm1'>, mu=4.0), dist=Uniform(a=2.0, b=6.0), "
        "saturation_ok=False)")
    assert repr(Uniform(2, 6)) == "Uniform(a=2, b=6)"
    assert repr(PriceVector(1.0, 2.0)) == "PriceVector(c1=1.0, c2=2.0)"
    assert repr(BestResponse(1, 1.0, 0.75, 2.5, 2.0, (0.75,))) == (
        "BestResponse(server=1, given_price=1.0, gamma_star=0.75, price_star=2.5, "
        "revenue_star=2.0, stationary_points=(0.75,))")


def test_a_record_equals_only_its_own_type(cfg):
    assert Uniform(2, 6) != Power(2, 6) and not Uniform(2, 6) == Power(2, 6)
    assert PriceVector(1, 2) != (1, 2) and (1, 2) != PriceVector(1, 2)
    assert not PriceVector(1, 2) == (1, 2)
    for a, b in ((Uniform(2, 6), Uniform(2.0, 6.0)),
                 (cfg, config_from_json(config_to_json(cfg))),
                 (PriceVector(1, 2), PriceVector(1.0, 2.0))):
        assert a == b and not a != b and hash(a) == hash(b)


def test_copies_run_the_checks(cfg):
    with pytest.raises(ValidationError):
        cfg._replace(lam=-1.0)
    with pytest.raises(DomainError):
        Uniform(2, 6)._replace(b=1)
    with pytest.raises(DomainError):
        PriceVector._make([1.0, float("inf")])
    assert DelayModel.linear(3.0)._replace(family="mm1").family is DelayFamily.MM1


def test_records_are_immutable(cfg):
    for record, name in ((cfg, "lam"), (cfg, "extra"), (Uniform(2, 6), "a"),
                         (PriceVector(1, 2), "c1")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert cfg.lam == 3.0


def test_only_the_config_keeps_an_instance_dict():
    # a tuple with a dict reads its fields and calls its methods slower
    values = [getattr(qpk, name) for name in qpk.__all__]
    records = [v for v in values if isinstance(v, type) and issubclass(v, tuple)]
    assert len(records) == 16
    assert [r.__name__ for r in records if r.__dictoffset__] == ["SystemConfig"]


def test_pickle_and_copy_give_an_equal_value(cfg):
    cfg.swapped()  # fills the cached mirror
    records = [cfg, cfg.swapped(), Uniform(2, 6), PriceVector(1, 2),
               BestResponse(1, 1.0, 0.75, 2.5, 2.0, (0.75,)),
               NashOutcome(PriceVector(1, 2), True, 3, 0.0),
               Measurement(1.0, 2.0, 0.5, 2.5, 0.25, 1.0)]
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record
    assert pickle.loads(pickle.dumps(cfg)).swapped() == cfg.swapped()


def test_keyword_construction_and_defaults(cfg):
    built = SystemConfig(lam=3.0, d1=cfg.d1, d2=cfg.d2, dist=cfg.dist)
    assert built == cfg and built.saturation_ok is False
    assert built._asdict()["dist"] is cfg.dist
    lam, d1, d2, dist, saturation_ok = built
    assert (lam, d1.family, saturation_ok) == (3.0, DelayFamily.LINEAR, False)
    outcome = NashOutcome(prices=PriceVector(1, 2), converged=True, iterations=3, residual=0.0)
    assert outcome.symmetric_alpha is None
    assert DensityEstimate(bins=(), covered_mass=0.0).gaps == ()
    assert Uniform._fields == Uniform.param_names() == ("a", "b")


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(qpk, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        qpk.no_such_name


def test_star_import_binds_every_public_name():
    names = {}
    exec("from qpk import *", names)
    names.pop("__builtins__")
    assert len(qpk.__all__) == 66 and qpk.__all__ == sorted(qpk.__all__)
    assert sorted(names) == qpk.__all__
    assert all(getattr(qpk, name) is value for name, value in names.items())
    assert set(qpk.__all__) <= set(dir(qpk))
