"""Property checks over random valid configs, saturation mode included
(hypothesis; skipped when it is absent)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

from qpk import (DelayModel, Exponential, Gamma, Power, SystemConfig,
                 Uniform, ValidationError, validate_config)

LAWS = [Uniform(2.0, 6.0), Exponential(4.0), Gamma(2.0, 2.0), Power(2.0, 4.0)]


@st.composite
def configs(draw):
    """Any config the constructor accepts: linear servers at any rate, mm1
    servers from mu = lam (saturation mode) or just above lam up."""
    lam = draw(st.floats(0.01, 100.0))
    saturation = draw(st.booleans())

    def delay():
        if draw(st.booleans()):
            return DelayModel.linear(lam * draw(st.floats(0.01, 100.0)))
        return DelayModel.mm1(lam * draw(st.floats(1.0 if saturation else 1.001, 10.0)))
    d1, d2 = delay(), delay()
    try:
        return SystemConfig(lam, d1, d2, draw(st.sampled_from(LAWS)), saturation)
    except ValidationError:
        reject()


@settings(max_examples=300, deadline=None, database=None)
@given(configs())
def test_swapped_config_is_valid_and_swaps_back(cfg):
    swapped = cfg.swapped()
    assert (swapped.d1, swapped.d2) == (cfg.d2, cfg.d1)
    assert swapped.swapped() == cfg
    assert validate_config(cfg) is cfg
