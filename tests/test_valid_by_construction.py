"""A SystemConfig is checked once, when it is built; solvers never check it
again.

The guards count calls of ``models.validate_config`` (which
``SystemConfig.__new__`` looks up at call time) made by solvers on
configs that already exist.
"""

import pytest

from qpk import (PriceVector, best_response, exact_oracle, models, optimize_monopoly,
                 revenue_curve, solve_equilibrium)


def count_checks(monkeypatch) -> list:
    """The list of configs validate_config sees from here on."""
    seen = []
    original = models.validate_config

    def counted(cfg):
        seen.append(cfg)
        return original(cfg)
    monkeypatch.setattr(models, "validate_config", counted)
    return seen


@pytest.mark.parametrize("name", ["ex1_uniform", "ex2_gamma", "ex4", "sat_power"])
def test_solvers_do_not_check_a_built_config(name, request, monkeypatch):
    cfg = request.getfixturevalue(name)
    checks = count_checks(monkeypatch)
    optimize_monopoly(cfg, 1.0)
    solve_equilibrium(cfg, PriceVector(2.0, 1.0))
    revenue_curve(cfg, 1.0, 9)
    exact_oracle(cfg).measure(2.0, 1.0)
    best_response(cfg, 1, 1.0)
    assert checks == []


@pytest.mark.parametrize("name", ["ex1_uniform", "ex3"])
def test_server_2_best_response_checks_only_the_swapped_system(name, request, monkeypatch):
    # the swapped system is built, and checked, before the count starts;
    # the best response reuses it
    cfg = request.getfixturevalue(name)
    cfg.swapped()
    checks = count_checks(monkeypatch)
    best_response(cfg, 2, 1.0)
    assert checks == []


@pytest.mark.parametrize("name", ["ex1_uniform", "ex3"])
def test_repeated_server_2_best_responses_check_the_swapped_system_once(
        name, request, monkeypatch):
    # identical servers swap to themselves, so they make no check at all
    cfg = request.getfixturevalue(name)
    checks = count_checks(monkeypatch)
    for c in (0.5, 1.0, 2.0):
        best_response(cfg, 2, c)
    swapped = cfg.swapped()
    assert checks == ([] if swapped is cfg else [swapped])
