"""Equilibria, admission pricing, and sensitivity-law estimation for a
two-server queueing system with heterogeneous, non-balking customers.

Customers arrive at a total rate lam, each carrying a delay-cost
coefficient drawn from a known or unknown distribution, and pick the
server minimizing price + coefficient * mean delay. The package computes
the resulting equilibrium splits, the revenue-optimal admission prices in
monopoly and duopoly settings, and nonparametric / parametric estimates
of the coefficient distribution from price sweeps.
"""

import sys

__version__ = "0.1.0"

#: Each public name by the submodule that defines it; a name is imported on
#: its first lookup, and each lookup reads the submodule's current binding.
_NAMES = {name: module for module, names in {
    "duopoly": "BestResponse NashOutcome NashVerdict best_response check_symmetric_nash "
               "nash_iterate symmetric_alpha",
    "errors": "ConfigError DegenerateError DomainError InsufficientDataError NoRootError "
              "PreconditionError QpkError StabilityError ValidationError",
    "estimation": "DensityEstimate DiscreteClasses ExponentialFit Measurement ParametricFit "
                  "des_oracle discover_classes discrete_class_oracle estimate_density "
                  "estimate_exponential estimate_parametric exact_oracle infer_threshold "
                  "noisy_oracle",
    "models": "DelayFamily DelayModel Exponential Gamma Power SensitivityDistribution "
              "SystemConfig Uniform cdf config_from_json config_to_json delay_deriv "
              "delay_eval density quantile validate_config",
    "monopoly": "MonopolyResult optimize_monopoly revenue_curve",
    "wardrop": "EquilibriumSplit PriceVector Regime balanced_load choke_price_1 kernel_choice "
               "price_gap_1 price_gap_1_deriv price_gap_2 price_gap_2_deriv price_of_rate_1 "
               "price_of_rate_2 rate_cap_1 rate_cap_2 revenue_rates solve_equilibrium "
               "threshold_of_rate",
}.items() for name in names.split()}

__all__ = sorted(_NAMES)


def __getattr__(name: str):
    """A public name, or a submodule, imported on first use (PEP 562) by
    the import statement's path, which ``python -X importtime`` lists."""
    module = f"{__name__}.{_NAMES.get(name, name)}"
    try:
        __import__(module)
    except ModuleNotFoundError as exc:
        if exc.name != module:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[module], name) if name in _NAMES else sys.modules[module]


def __dir__():
    return sorted({*globals(), *__all__})
